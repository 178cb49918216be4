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

Both forms decode through the same checks.  :func:`decode_events` decodes
a payload once; each distinct stack of a frame becomes one tuple shared by
every record that names it.  A bad row decodes to a :class:`RowError` in
its event's place, so it costs one ERROR for its sequence number and the
frame's other events still apply.
"""

from __future__ import annotations

import json
from collections import namedtuple
from enum import EnumMeta
from operator import attrgetter, itemgetter
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


_Plan = namedtuple(
    "_Plan", "cls tag head width fields values codes checks enums stack_at"
)


def _plan(code: int, cls, tag: str, fields, *, by_key: bool) -> _Plan:
    """One kind's plan for rows, or with ``by_key`` for JSON records.

    A plan works on a row whose slot 0 holds the kind's head (its code, or
    its tag), so field positions start at 1.  The two plans differ only in
    how enums travel (index or value) and in the labels errors use
    (attribute name or JSON key).
    """
    checks, enums, stack_at = [], [], 0
    for at, (name, key, check) in enumerate(fields, start=1):
        label = key if by_key else name
        if check is STACK:
            stack_at = at
        elif isinstance(check, EnumMeta):
            encoded = [m.value for m in check] if by_key else range(len(check))
            enums.append((at, label, type(encoded[0]), dict(zip(encoded, check))))
        elif isinstance(check, int):
            checks.append((at, label, int, check))
        else:
            # bool or str, floored at the type's least value (False, ""):
            # only the type check can fail.
            checks.append((at, label, check, check()))
    return _Plan(
        cls,
        tag,
        tag if by_key else code,
        len(fields) + 1,
        attrgetter(*(name for name, _, _ in fields)),
        itemgetter(*(key for _, key, _ in fields)),
        # Keyed by member value: a str lookup, not Enum.__hash__.
        tuple((at, {m.value: e for e, m in ms.items()}) for at, _, _, ms in enums),
        tuple(checks),
        tuple(enums),
        stack_at,
    )


_ROW_PLANS = [_plan(code, *kind, by_key=False) for code, kind in enumerate(ROW_KINDS)]
_ROW_ENCODERS = {plan.cls: plan for plan in _ROW_PLANS}
_JSON_ENCODERS = {cls: _json_encoder(tag, fields) for cls, tag, fields in ROW_KINDS}
_JSON_DECODERS = {
    kind[1]: _plan(code, *kind, by_key=True) for code, kind in enumerate(ROW_KINDS)
}


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


def _decode(row: list, plan: _Plan, stacks: list | None) -> object:
    """One row -> its record; raises on any malformation.

    ``stacks`` is the frame's stack table, or ``None`` when the stack
    travels inline (a trace record).
    """
    cls, tag, _, _, _, _, _, checks, enums, at = plan
    for position, label, kind, minimum in checks:
        value = row[position]
        if type(value) is not kind or value < minimum:
            _refuse(tag, label, value, kind, minimum)
    for position, label, kind, members in enums:
        value = row[position]
        if type(value) is not kind or value not in members:
            raise ValueError(f"{tag} record field {label!r}: unknown code {value!r}")
        row[position] = members[value]
    if at:
        value = row[at]
        if stacks is None:
            row[at] = stack_from_json(value)
        elif type(value) is int and 0 <= value < len(stacks):
            row[at] = stacks[value]
        else:
            raise ValueError(
                f"{tag} row names stack {value!r}; the frame's table holds "
                f"{len(stacks)}"
            )
    return cls(*row[1:])


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
        plan = _JSON_DECODERS[tag]
    except (KeyError, TypeError):
        raise ValueError(f"unknown event tag {tag!r}") from None
    return _decode([tag, *plan.values(data)], plan, None)


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
            if type(code) is not int or not 0 <= code < len(_ROW_PLANS):
                raise ValueError(f"unknown event kind code {code!r}")
            plan = _ROW_PLANS[code]
            if len(row) != plan.width:
                raise ValueError(
                    f"{plan.tag} row carries {len(row) - 1} field(s), "
                    f"expected {plan.width - 1}"
                )
            events.append(_decode(row, plan, stacks))
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
