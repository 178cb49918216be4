"""The EVENT payload codec: positional rows plus a per-frame stack table.

An EVENT frame's payload is one JSON object::

    {"events": [[kind, field, ..., stack], ...],
     "stacks": [[[file, line, column, function], ...], ...]}

Each row opens with its kind code (the record's position in
:data:`ROW_KINDS`), then carries the record's fields positionally in the
order :data:`ROW_KINDS` lists them.  Enum fields travel as the member's
index in definition order; a record with a call stack ends with an index
into the frame's ``stacks`` table, where every distinct stack of the frame
appears once.  That table is the sanitizer runtime's stack-id scheme at
frame scope: each frame decodes on its own, so a retransmitted frame is
byte-identical to its first send and no stack state carries across frames.

:func:`decode_events` decodes a payload once, into event records.  Each
distinct stack of a frame becomes one tuple shared by every record that
names it.  Rows are validated exactly as strictly as
:func:`~repro.events.trace_io.event_from_json` validates a dict record
(same minimums, bools refused where an int is required, unknown enum codes
refused), and stack indices must name a table entry.  A bad row decodes to
a :class:`RowError` in its event's place, so it costs one ERROR for its
sequence number and the frame's other events still apply.

Legacy payloads — one :func:`~repro.events.trace_io.event_to_json` object,
or a JSON array of them — go through :func:`event_from_json` unchanged.
"""

from __future__ import annotations

import json
from operator import attrgetter
from typing import Iterable

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
from .trace_io import check_int, event_from_json, stack_from_json, stack_to_json
from .wire import json_payload

__all__ = ["ROW_KINDS", "PayloadError", "RowError", "decode_events", "encode_events"]

#: Marks the field that travels as an index into the frame's stack table.
STACK = "stack"

#: Per kind code, in code order: the record class, its trace tag (for error
#: messages), and its row fields in constructor order.  A field's check is
#: ``None`` (carried as is), an ``int`` minimum (validated like
#: :func:`~repro.events.trace_io.check_int`), an enum class (carried as the
#: member's index), or :data:`STACK`.  The checks are exactly
#: :func:`~repro.events.trace_io.event_from_json`'s.
ROW_KINDS = (
    (Access, "access", (
        ("device_id", None), ("thread_id", None), ("address", 0), ("size", 1),
        ("is_write", None), ("count", 1), ("stride", 0),
        ("origin", AccessOrigin), ("stack", STACK),
    )),
    (DataOp, "data_op", (
        ("kind", DataOpKind), ("device_id", None), ("thread_id", None),
        ("ov_address", 0), ("cv_address", 0), ("nbytes", 0), ("stack", STACK),
    )),
    (MemcpyEvent, "memcpy", (
        ("device_id", None), ("thread_id", None), ("dst_device", None),
        ("dst_address", 0), ("src_device", None), ("src_address", 0),
        ("nbytes", 0), ("stack", STACK),
    )),
    (KernelEvent, "kernel", (
        ("phase", KernelPhase), ("task_id", None), ("device_id", None),
        ("thread_id", None), ("nowait", None), ("name", None), ("stack", STACK),
    )),
    (AllocationEvent, "alloc", (
        ("device_id", None), ("thread_id", None), ("address", 0), ("nbytes", 0),
        ("is_free", None), ("storage", None), ("label", None), ("stack", STACK),
    )),
    (SyncEvent, "sync", (
        ("kind", None), ("source_task", None), ("target_task", None),
        ("thread_id", None),
    )),
    (FlushEvent, "flush", (
        ("device_id", None), ("thread_id", None), ("address", None),
        ("nbytes", None),
    )),
)


class PayloadError(ValueError):
    """An EVENT payload that cannot be decoded as a whole (nothing applies)."""


class RowError(ValueError):
    """One event of a payload that failed to decode, standing in its place."""


def _plan(kinds):
    """Per-kind encode and decode plans, both read off :data:`ROW_KINDS`.

    Positions are row positions: the kind code sits at 0, so the first
    field is at 1.
    """
    encoders = {}
    decoders = []
    for code, (cls, tag, fields) in enumerate(kinds):
        names = [name for name, _ in fields]
        checks, enums, stack_at = [], [], 0
        for at, (name, check) in enumerate(fields, start=1):
            if check is STACK:
                stack_at = at
            elif isinstance(check, int):
                checks.append((at, name, check))
            elif check is not None:
                enums.append((at, name, tuple(check)))
        encoders[cls] = (
            code,
            attrgetter(*names),
            # Keyed by member value: a str/int lookup, not Enum.__hash__.
            tuple(
                (at, {m.value: i for i, m in enumerate(ms)}) for at, _, ms in enums
            ),
            stack_at,
        )
        decoders.append(
            (cls, tag, len(fields) + 1, tuple(checks), tuple(enums), stack_at)
        )
    return encoders, tuple(decoders)


_ENCODERS, _DECODERS = _plan(ROW_KINDS)


def encode_events(events: Iterable[object]) -> bytes:
    """Event records -> one canonical EVENT payload (rows + stack table).

    Deterministic: the stack table lists stacks in order of first use, so
    the same records always encode to the same bytes.
    """
    stacks: dict[tuple, int] = {}
    rows = []
    for event in events:
        try:
            code, fields, enums, stack_at = _ENCODERS[type(event)]
        except KeyError:
            raise TypeError(f"not a traceable event: {event!r}") from None
        row = [code, *fields(event)]
        for at, codes in enums:
            row[at] = codes[row[at]._value_]
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


def _decode_row(row, stacks: list) -> object:
    """One positional row -> its record; raises on any malformation."""
    if type(row) is not list or not row:
        raise ValueError(f"event row must be a non-empty array, got {row!r}")
    code = row[0]
    if type(code) is not int or not 0 <= code < len(_DECODERS):
        raise ValueError(f"unknown event kind code {code!r}")
    cls, tag, width, checks, enums, stack_at = _DECODERS[code]
    if len(row) != width:
        raise ValueError(
            f"{tag} row carries {len(row) - 1} field(s), expected {width - 1}"
        )
    for at, name, minimum in checks:
        value = row[at]
        if type(value) is not int or value < minimum:
            check_int(tag, name, value, minimum=minimum)
    for at, name, members in enums:
        value = row[at]
        if type(value) is not int or not 0 <= value < len(members):
            raise ValueError(f"{tag} row field {name!r}: unknown code {value!r}")
        row[at] = members[value]
    if stack_at:
        index = row[stack_at]
        if type(index) is not int or not 0 <= index < len(stacks):
            raise ValueError(
                f"{tag} row names stack {index!r}; the frame's table holds "
                f"{len(stacks)}"
            )
        row[stack_at] = stacks[index]
    return cls(*row[1:])


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
            events.append(_decode_row(row, stacks))
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
