"""The event schema and its two encodings: positional rows and trace JSON.

:data:`ROW_KINDS` describes every event record once — its class, its trace
tag, and each field's JSON key and check in constructor order — and both
encodings are derived from that one table.

An EVENT frame's payload is one JSON object::

    {"events": [[kind, field, ..., stack], ...],
     "stacks": [[[file, line, column, function], ...], ...]}

Each row opens with its kind code (the record's position in
:data:`ROW_KINDS`), then carries the record's fields positionally in table
order.  Enum fields travel as the member's index in definition order; a
record with a call stack ends with an index into the frame's ``stacks``
table, where every distinct stack of the frame appears once.  That table is
the sanitizer runtime's stack-id scheme at frame scope: each frame decodes
on its own, so a retransmitted frame is byte-identical to its first send
and no stack state carries across frames.

A trace record (:func:`event_to_json`: trace files, journal mirror lines,
legacy EVENT payloads) is ``{"t": tag, "v": FORMAT_VERSION, key: value,
...}`` in table order, enums as the member's value and the stack inline.

Both forms decode through the same checks, compiled per kind from the
table at import (as the JSON encoder is).  :func:`decode_events` decodes
a payload once; each distinct stack of a frame becomes one tuple shared by
every record that names it.  A bad row decodes to a :class:`RowError` in
its event's place, so it costs one ERROR for its sequence number and the
frame's other events still apply.
"""

from __future__ import annotations

import json
from collections import namedtuple
from enum import EnumMeta
from operator import attrgetter
from typing import Callable, Iterable, NoReturn

from .records import (
    Access,
    AccessOrigin,
    AllocationEvent,
    DataOp,
    DataOpKind,
    FlushEvent,
    KernelEvent,
    KernelPhase,
    MemcpyEvent,
    SyncEvent,
)
from .source import SourceLocation, UNKNOWN_LOCATION
from .wire import json_payload

__all__ = [
    "ROW_KINDS", "PayloadError", "RowError", "decode_events", "encode_events",
    "event_from_json", "event_to_json",
]

#: Format version, embedded in every trace record for forward compatibility.
FORMAT_VERSION = 1

#: Marks the field that carries the call stack: an index into the frame's
#: stack table in a row, the frames inline in a trace record.
STACK = "stack"

#: Per kind code, in code order: the record class, its trace tag, and its
#: fields in constructor order as ``(attribute, JSON key, check)``.  A
#: check is an ``int`` minimum, ``bool`` or ``str`` (the exact type), an
#: enum class (the member's index in a row, its value in JSON), or
#: :data:`STACK`.
ROW_KINDS = (
    (Access, "access", (
        ("device_id", "dev", 0), ("thread_id", "tid", 0), ("address", "addr", 0),
        ("size", "size", 1), ("is_write", "w", bool), ("count", "count", 1),
        ("stride", "stride", 0), ("origin", "origin", AccessOrigin),
        ("stack", "stack", STACK),
    )),
    (DataOp, "data_op", (
        ("kind", "kind", DataOpKind), ("device_id", "dev", 0),
        ("thread_id", "tid", 0), ("ov_address", "ov", 0), ("cv_address", "cv", 0),
        ("nbytes", "n", 0), ("stack", "stack", STACK),
    )),
    (MemcpyEvent, "memcpy", (
        ("device_id", "dev", 0), ("thread_id", "tid", 0),
        ("dst_device", "dst_dev", 0), ("dst_address", "dst", 0),
        ("src_device", "src_dev", 0), ("src_address", "src", 0),
        ("nbytes", "n", 0), ("stack", "stack", STACK),
    )),
    (KernelEvent, "kernel", (
        ("phase", "phase", KernelPhase), ("task_id", "task", 0),
        ("device_id", "dev", 0), ("thread_id", "tid", 0),
        ("nowait", "nowait", bool), ("name", "name", str),
        ("stack", "stack", STACK),
    )),
    (AllocationEvent, "alloc", (
        ("device_id", "dev", 0), ("thread_id", "tid", 0), ("address", "addr", 0),
        ("nbytes", "n", 0), ("is_free", "free", bool), ("storage", "storage", str),
        ("label", "label", str), ("stack", "stack", STACK),
    )),
    (SyncEvent, "sync", (
        ("kind", "kind", str), ("source_task", "src", 0),
        ("target_task", "dst", 0), ("thread_id", "tid", 0),
    )),
    (FlushEvent, "flush", (
        ("device_id", "dev", 0), ("thread_id", "tid", 0), ("address", "addr", 0),
        ("nbytes", "n", 0),
    )),
)


class PayloadError(ValueError):
    """An EVENT payload that cannot be decoded as a whole (nothing applies)."""


class RowError(ValueError):
    """One event of a payload that failed to decode, standing in its place."""


def stack_to_json(stack: tuple[SourceLocation, ...]) -> list[list]:
    return [[f.file, f.line, f.column, f.function] for f in stack]


def stack_from_json(data: list[list]) -> tuple[SourceLocation, ...]:
    if not data:
        return (UNKNOWN_LOCATION,)
    return tuple(SourceLocation(f, l, c, fn) for f, l, c, fn in data)


def _json_encoder(tag: str, fields) -> Callable[[object], dict]:
    """Compile one kind's ``record -> dict`` as a dict display.

    A display builds the record as fast as a hand-written encoder; building
    it from ``zip(keys, values)`` costs about twice as much per record.
    """
    items = [f"'t': {tag!r}", f"'v': {FORMAT_VERSION}"]
    for name, key, check in fields:
        if check is STACK:
            items.append(f"{key!r}: stack_to_json(e.{name})")
        elif isinstance(check, EnumMeta):
            items.append(f"{key!r}: e.{name}._value_")
        else:
            items.append(f"{key!r}: e.{name}")
    source = f"lambda e: {{{', '.join(items)}}}"
    return eval(source, {"stack_to_json": stack_to_json})


_Plan = namedtuple("_Plan", "head fields codes stack_at")


def _row_plan(code: int, fields) -> _Plan:
    """One kind's row-encoding plan: slot 0 holds the kind code."""
    codes, stack_at = [], 0
    for at, (_, _, check) in enumerate(fields, start=1):
        if check is STACK:
            stack_at = at
        elif isinstance(check, EnumMeta):
            # Keyed by member value: a str lookup, not Enum.__hash__.
            codes.append((at, {m.value: i for i, m in enumerate(check)}))
    return _Plan(
        code, attrgetter(*(name for name, _, _ in fields)), tuple(codes), stack_at
    )


def _refuse(tag: str, label: str, value, kind: type, minimum) -> NoReturn:
    """Reject a field that fails its check.

    A record that survived JSON parsing can still be semantically mangled —
    a truncated transport write, a buggy client.  Accepting a negative or
    zero size here would fabricate an access nobody made (historically a
    short record was silently zero-filled into a bogus event); rejecting it
    turns the damage into one skipped, *tallied* record instead.
    """
    if type(value) is not kind:
        noun = "an integer" if kind is int else f"a {kind.__name__}"
        raise ValueError(f"{tag} record field {label!r} must be {noun}, got {value!r}")
    raise ValueError(
        f"{tag} record declares {label}={value} (minimum {minimum}): "
        "rejected rather than zero-padded into a bogus event"
    )


def _decoder(cls, tag: str, fields, *, by_key: bool) -> Callable:
    """Compile one kind's ``(row, stacks) -> record``, or with ``by_key``
    its ``dict -> record`` for trace records.

    A row holds the kind code in slot 0 and the fields positionally; a
    trace record names them by JSON key, enums as the member's value and
    the stack inline.  The checks run in one order for both forms — every
    ``int``/``bool``/``str`` field in table order, then every enum, then
    the stack — so a record with several faults names the same one either
    way, and errors label a field by attribute name in a row and by JSON
    key in a record.
    """
    env = {"cls": cls, "_refuse": _refuse, "stack_from_json": stack_from_json}
    variables = [f"f{at}" for at in range(len(fields))]
    if by_key:
        head = ["def decode(data):"]
        head += [f"    {v} = data[{key!r}]" for v, (_, key, _) in zip(variables, fields)]
    else:
        env["width_error"] = (f"{tag} row carries ", f" field(s), expected {len(fields)}")
        head = [
            "def decode(row, stacks):",
            f"    if len(row) != {len(fields) + 1}:",
            "        raise ValueError(width_error[0] + str(len(row) - 1) + width_error[1])",
            f"    _, {', '.join(variables)} = row",
        ]
    checks, enums, stack = [], [], []
    for v, (name, key, check) in zip(variables, fields):
        label = key if by_key else name
        if check is STACK:
            if by_key:
                stack = [f"    {v} = stack_from_json({v})"]
            else:
                env["stack_error"] = (
                    f"{tag} row names stack ", "; the frame's table holds "
                )
                stack = [
                    f"    if type({v}) is not int or not 0 <= {v} < len(stacks):",
                    f"        raise ValueError(stack_error[0] + repr({v}) + "
                    "stack_error[1] + str(len(stacks)))",
                    f"    {v} = stacks[{v}]",
                ]
        elif isinstance(check, EnumMeta):
            encoded = [m.value for m in check] if by_key else range(len(check))
            env[f"{v}_members"] = dict(zip(encoded, check))
            env[f"{v}_error"] = f"{tag} record field {label!r}: unknown code "
            enums += [
                f"    if type({v}) is not {type(encoded[0]).__name__} "
                f"or {v} not in {v}_members:",
                f"        raise ValueError({v}_error + repr({v}))",
                f"    {v} = {v}_members[{v}]",
            ]
        elif isinstance(check, int):
            checks += [
                f"    if type({v}) is not int or {v} < {check}:",
                f"        _refuse({tag!r}, {label!r}, {v}, int, {check})",
            ]
        else:
            # bool or str: only the type check can fail.
            checks += [
                f"    if type({v}) is not {check.__name__}:",
                f"        _refuse({tag!r}, {label!r}, {v}, {check.__name__}, {check()!r})",
            ]
    body = [*head, *checks, *enums, *stack, f"    return cls({', '.join(variables)})"]
    exec("\n".join(body), env)
    return env["decode"]


_ROW_ENCODERS = {
    cls: _row_plan(code, fields) for code, (cls, _, fields) in enumerate(ROW_KINDS)
}
_ROW_DECODERS = tuple(
    _decoder(cls, tag, fields, by_key=False) for cls, tag, fields in ROW_KINDS
)
_JSON_ENCODERS = {cls: _json_encoder(tag, fields) for cls, tag, fields in ROW_KINDS}
_JSON_DECODERS = {
    tag: _decoder(cls, tag, fields, by_key=True) for cls, tag, fields in ROW_KINDS
}


def event_to_json(event: object) -> dict:
    """One event -> one JSON-serializable dict (with a ``t`` type tag)."""
    encoder = _JSON_ENCODERS.get(type(event))
    if encoder is None:
        raise TypeError(f"not a traceable event: {event!r}")
    return encoder(event)


def event_from_json(data: dict) -> object:
    """Inverse of :func:`event_to_json`.

    Every field is checked against :data:`ROW_KINDS`; a failed check raises
    :class:`ValueError` (surfaced by the loaders as a malformed record)
    instead of materializing as a fictitious event.
    """
    tag = data["t"]
    try:
        decode = _JSON_DECODERS[tag]
    except (KeyError, TypeError):
        raise ValueError(f"unknown event tag {tag!r}") from None
    return decode(data)


def encode_events(events: Iterable[object]) -> bytes:
    """Event records -> one canonical EVENT payload (rows + stack table).

    Deterministic: the stack table lists stacks in order of first use, so
    the same records always encode to the same bytes.
    """
    stacks: dict[tuple, int] = {}
    rows = []
    for event in events:
        try:
            plan = _ROW_ENCODERS[type(event)]
        except KeyError:
            raise TypeError(f"not a traceable event: {event!r}") from None
        row = [plan.head, *plan.fields(event)]
        for at, codes in plan.codes:
            row[at] = codes[row[at]._value_]
        stack_at = plan.stack_at
        if stack_at:
            stack = row[stack_at]
            index = stacks.get(stack)
            if index is None:
                index = stacks[stack] = len(stacks)
            row[stack_at] = index
        rows.append(row)
    return json_payload(
        {"events": rows, "stacks": [stack_to_json(stack) for stack in stacks]}
    )


def _rejected(exc: Exception) -> RowError:
    return RowError(f"{type(exc).__name__}: {exc}")


def _decode_rows(data: dict) -> list:
    rows = data["events"]
    table = data.get("stacks")
    if not (type(rows) is list and rows and type(table) is list):
        raise PayloadError(
            "row payload needs a non-empty 'events' array and a 'stacks' array"
        )
    try:
        stacks = [stack_from_json(stack) for stack in table]
    except (ValueError, TypeError) as exc:
        raise PayloadError(f"malformed stack table: {exc}") from None
    events = []
    for row in rows:
        try:
            if type(row) is not list or not row:
                raise ValueError(f"event row must be a non-empty array, got {row!r}")
            code = row[0]
            if type(code) is not int or not 0 <= code < len(_ROW_DECODERS):
                raise ValueError(f"unknown event kind code {code!r}")
            events.append(_ROW_DECODERS[code](row, stacks))
        except (KeyError, ValueError, TypeError) as exc:
            events.append(_rejected(exc))
    return events


def _decode_record(data: dict) -> object:
    try:
        return event_from_json(data)
    except (KeyError, ValueError, TypeError) as exc:
        return _rejected(exc)


def decode_events(payload: bytes) -> list:
    """Decode an EVENT payload once: one entry per event, in order.

    Each entry is the event's record, or a :class:`RowError` for an event
    that failed validation.  Raises :class:`PayloadError` when the payload
    is not JSON, or not a row table, an event object or a non-empty array
    of event objects — then no event of the frame is consumed.
    """
    try:
        data = json.loads(payload)
    except ValueError as exc:
        raise PayloadError(f"not JSON: {exc}") from None
    if type(data) is dict:
        if "events" in data:
            return _decode_rows(data)
        return [_decode_record(data)]  # a one-event (legacy) frame
    if not (type(data) is list and data and all(type(e) is dict for e in data)):
        raise PayloadError(
            "event payload is not a row table, an object or a non-empty "
            "array of objects"
        )
    return [_decode_record(record) for record in data]
