"""The event schema and its two encodings: a binary row table and trace JSON.

:data:`ROW_KINDS` describes every event record once — its class, its trace
tag, and each field's JSON key and check in constructor order — and both
encodings are derived from that one table.

An EVENT frame's payload is a row table, little-endian throughout::

    offset  size        field
    0       1           ROW_TABLE (0x80: no JSON text opens with it)
    1       4           event count n (u32)
    5       4           access count a (u32)
    9       4           tail length t (u32)
    13      7           width code of each wide access column: 1, 2, 4 or 8
    20      n           kind code of each event, in order
    20+n    a * ...     the access rows, one column per field in table order
    end-t   t           JSON tail: {"rows": [...], "stacks": [...]}

The kind code is the record's position in :data:`ROW_KINDS`.  Accesses
(code 0) travel as columns: each ``int`` field and the stack index is an
unsigned column at the smallest width holding the frame's largest value,
``is_write`` one byte (0 or 1) and ``origin`` one byte (the member's index
in definition order).  Every other event is the tail's next row — its
fields positionally in table order, enums as the member's index, the
stack as an index.  A stack index names the tail's ``stacks`` table,
where every distinct stack of the frame appears once: the sanitizer
runtime's stack-id scheme at frame scope.  Each frame decodes on its own,
so a retransmitted frame is byte-identical to its first send and no stack
table carries across frames.

A trace record (:func:`event_to_json`: trace files, journal mirror lines,
legacy EVENT payloads) is ``{"t": tag, "v": FORMAT_VERSION, key: value,
...}`` in table order, enums as the member's value and the stack inline.

Every record decodes through the same checks, compiled per kind from the
table at import (as the JSON encoder is).  :func:`decode_events` checks the
access columns in bulk (minimums, the write byte, the origin code, the
stack index) and builds the rows at C level; a frame whose columns fail a
check decodes its accesses one row at a time through the compiled ``Access``
decoder, which names the fault.  Each distinct stack of a frame becomes one
tuple shared by every record that names it (and, through a bounded cache,
by later frames naming an equal stack).  A bad row decodes to a
:class:`RowError` in its event's place, so it costs one ERROR for its
sequence number and the frame's other events still apply.  Damage the
layout cannot express as a row — truncated columns, counts that disagree
with the length, a width code that is not 1/2/4/8 — refuses the payload
whole with a :class:`PayloadError`.
"""

from __future__ import annotations

import json
import struct
from enum import EnumMeta
from functools import lru_cache
from itertools import repeat
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
    "ROW_KINDS", "ROW_TABLE", "PayloadError", "RowError", "decode_events",
    "encode_events", "event_from_json", "event_to_json",
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
#: :data:`STACK`.  Kind 0 travels as columns, so its fields are ints,
#: bools, enums and the stack only.
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

#: The first byte of a row table.  0x80 is a UTF-8 continuation byte and
#: no JSON whitespace or value in UTF-8, -16 or -32 starts with it, so it
#: tells a row table from a legacy JSON-record payload.
ROW_TABLE = 0x80


class PayloadError(ValueError):
    """An EVENT payload that cannot be decoded as a whole (nothing applies)."""


class RowError(ValueError):
    """One event of a payload that failed to decode, standing in its place."""


def stack_to_json(stack: tuple[SourceLocation, ...]) -> list[list]:
    return [[f.file, f.line, f.column, f.function] for f in stack]


@lru_cache(maxsize=4096)
def _shared_stack(frames: tuple) -> tuple[SourceLocation, ...]:
    """The one tuple for a stack's ``(file, line, column, function)`` frames.

    Every decoder interns its stacks here, so equal stacks decoded from any
    frame table or trace record share one tuple, as the live runtime's
    memoized snapshots do, and a repeated stack costs one C-level tuple
    hash instead of building its ``SourceLocation`` objects again.  Each
    frame is type-checked on its first decode only: a cache hit is a stack
    that passed.
    """
    if not frames:
        return (UNKNOWN_LOCATION,)
    for f, l, c, fn in frames:
        if not (
            type(f) is str and type(l) is int and type(fn) is str
            and (c is None or type(c) is int)
        ):
            raise ValueError(
                f"stack frame {[f, l, c, fn]!r} is not (file: str, line: int, "
                "column: int or null, function: str)"
            )
    return tuple(SourceLocation(f, l, c, fn) for f, l, c, fn in frames)


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

    A row holds the fields positionally; a trace record names them by JSON
    key, enums as the member's value and the stack inline.  The checks run in
    one order for both forms — every ``int``/``bool``/``str`` field in
    table order, then every enum, then the stack — so a record with
    several faults names the same one either way, and errors label a field
    by attribute name in a row and by JSON key in a record.
    """
    env = {"cls": cls, "_refuse": _refuse, "shared_stack": _shared_stack}
    variables = [f"f{at}" for at in range(len(fields))]
    if by_key:
        head = ["def decode(data):"]
        head += [f"    {v} = data[{key!r}]" for v, (_, key, _) in zip(variables, fields)]
    else:
        env["width_error"] = (f"{tag} row carries ", f" field(s), expected {len(fields)}")
        head = [
            "def decode(row, stacks):",
            f"    if len(row) != {len(fields)}:",
            "        raise ValueError(width_error[0] + str(len(row)) + width_error[1])",
            f"    {', '.join(variables)}, = row",
        ]
    checks, enums, stack = [], [], []
    for v, (name, key, check) in zip(variables, fields):
        label = key if by_key else name
        if check is STACK:
            if by_key:
                env["stack_error"] = f"{tag} record field {label!r}: "
                stack = [
                    "    try:",
                    f"        {v} = shared_stack(tuple(map(tuple, {v})))",
                    "    except (TypeError, ValueError) as exc:",
                    "        raise ValueError(stack_error + str(exc)) from None",
                ]
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


def _tail_plan(fields) -> tuple:
    """One kind's tail-row plan: its fields' getter, enum slots, stack slot."""
    codes, stack_at = [], None
    for at, (_, _, check) in enumerate(fields):
        if check is STACK:
            stack_at = at
        elif isinstance(check, EnumMeta):
            # Keyed by member value: a str lookup, not Enum.__hash__.
            codes.append((at, {m.value: i for i, m in enumerate(check)}))
    return attrgetter(*(name for name, _, _ in fields)), tuple(codes), stack_at


_KIND_CODES = {cls: code for code, (cls, _, _) in enumerate(ROW_KINDS)}
_TAIL_PLANS = {cls: _tail_plan(fields) for cls, _, fields in ROW_KINDS[1:]}
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
    instead of materializing as a fictitious event.  The record's stack is
    interned: equal stacks decode to one shared tuple.
    """
    tag = data["t"]
    try:
        decode = _JSON_DECODERS[tag]
    except (KeyError, TypeError):
        raise ValueError(f"unknown event tag {tag!r}") from None
    return decode(data)


# -- the access columns -------------------------------------------------------

#: Byte width -> ``struct`` code of the unsigned column type.
_WIDTH_CODES = {1: "B", 2: "H", 4: "I", 8: "Q"}
#: Bit length of a column's largest value -> the narrowest width holding it.
_WIDTHS = (1,) * 9 + (2,) * 8 + (4,) * 16 + (8,) * 32

_BOOLS = (False, True)
_COLUMNS = ROW_KINDS[0][2]
_STACK_AT = next(at for at, (_, _, check) in enumerate(_COLUMNS) if check is STACK)
#: The *wide* columns — each ``int`` field and the stack index — in table
#: order; each has a width code in the header.  The others are one byte.
_WIDE = tuple(
    at for at, (_, _, check) in enumerate(_COLUMNS)
    if check is STACK or isinstance(check, int)
)
#: Each one-byte column's lookup table, indexed by the byte: ``(False,
#: True)`` for a bool, the members in definition order for an enum.
_LOOKUPS = {
    at: _BOOLS if check is bool else tuple(check)
    for at, (_, _, check) in enumerate(_COLUMNS) if at not in _WIDE
}

#: Magic, event count, access count, tail length, one width per wide column.
_HEAD = struct.Struct(f"<BIII{len(_WIDE)}B")
_MAGIC = bytes((ROW_TABLE,))


@lru_cache(maxsize=1024)
def _packer(count: int, width: int) -> struct.Struct:
    """The ``struct`` of ``count`` little-endian ``width``-byte unsigned ints."""
    return struct.Struct(f"<{count}{_WIDTH_CODES[width]}")


def _stack_indices(column: tuple, table: dict) -> list[int]:
    """Index every stack of ``column`` into ``table`` (value -> index).

    Accesses between two source-position changes share one stack tuple, so
    the column is deduplicated by identity first (C level) and only each
    distinct object is hashed by value (``SourceLocation.__hash__`` is
    Python).
    """
    by_id = dict(zip(map(id, column), column))
    for key, stack in by_id.items():
        by_id[key] = table.setdefault(stack, len(table))
    return list(map(by_id.__getitem__, map(id, column)))


def _checked_rows(columns: list, stacks: list) -> list:
    """Accesses from columns that failed a bulk check, one row at a time.

    The compiled ``Access`` row decoder builds each good row and names the
    first fault of a bad one.
    """
    for at, table in _LOOKUPS.items():
        if table is _BOOLS:
            columns[at] = [_BOOLS[b] if b < 2 else b for b in columns[at]]
    decode, accesses = _ROW_DECODERS[0], []
    for row in zip(*columns):
        try:
            accesses.append(decode(row, stacks))
        except ValueError as exc:
            accesses.append(_rejected(exc))
    return accesses


def _column_codec() -> tuple[Callable, Callable]:
    """Compile the access columns' encoder and decoder from the table.

    ``encode(accesses, table) -> (widths, bytes)`` transposes the rows with
    one ``zip(*accesses)``, indexes the stacks into ``table`` and packs each
    column.  ``decode(payload, at, n, widths, stacks)`` unpacks the ``n``
    rows at ``at``, checks every column in bulk — each positive ``int``
    minimum, each one-byte column's code, the stack index — and builds the
    rows at C level, handing columns that fail a check to
    :func:`_checked_rows`.  Both are unrolled over the columns, as the row
    decoders are over fields.
    """
    env = {
        "repeat": repeat, "new": tuple.__new__, "cls": Access,
        "packer": _packer, "WIDTHS": _WIDTHS, "VALUE": attrgetter("_value_"),
        "stack_indices": _stack_indices, "checked_rows": _checked_rows,
        "EMPTY": ((),) * len(_COLUMNS),
    }
    columns = [f"c{at}" for at in range(len(_COLUMNS))]
    widths = ", ".join(f"w{at}" for at in _WIDE)
    encode = [
        "def encode(accesses, table):",
        "    n = len(accesses)",
        f"    {', '.join(columns)}, = zip(*accesses) if n else EMPTY",
        f"    c{_STACK_AT} = stack_indices(c{_STACK_AT}, table)",
    ]
    decode = [
        "def decode(payload, at, n, widths, stacks):",
        "    if not n:",
        "        return []",
        f"    {widths}, = widths",
    ]
    parts, checks, fields = [], [], []
    for at, (_, _, check) in enumerate(_COLUMNS):
        c = f"c{at}"
        if at in _WIDE:
            encode.append(f"    w{at} = WIDTHS[max({c}, default=0).bit_length()]")
            parts.append(f"packer(n, w{at}).pack(*{c})")
            decode += [
                f"    {c} = packer(n, w{at}).unpack_from(payload, at)",
                f"    at += n * w{at}",
            ]
        else:
            if _LOOKUPS[at] is _BOOLS:
                parts.append(f"bytes({c})")
            else:
                # Keyed by member value: a str lookup, not Enum.__hash__.
                env[f"code{at}"] = {m.value: i for i, m in enumerate(check)}.__getitem__
                parts.append(f"bytes(map(code{at}, map(VALUE, {c})))")
            decode += [f"    {c} = payload[at : at + n]", "    at += n"]
        if at == _STACK_AT:
            checks.append(f"max({c}) < len(stacks)")
            fields.append(f"map(stacks.__getitem__, {c})")
        elif at in _LOOKUPS:
            env[f"lookup{at}"] = _LOOKUPS[at].__getitem__
            checks.append(f"max({c}) < {len(_LOOKUPS[at])}")
            fields.append(f"map(lookup{at}, {c})")
        else:
            if check > 0:  # an unsigned column needs no check of a 0 minimum
                checks.append(f"min({c}) >= {check}")
            fields.append(c)
    encode.append(f"    return ({widths},), b''.join(({', '.join(parts)},))")
    decode += [
        f"    if {' and '.join(checks)}:",
        f"        return list(map(new, repeat(cls), zip({', '.join(fields)})))",
        f"    return checked_rows([{', '.join(columns)}], stacks)",
    ]
    exec("\n".join(encode), env)
    exec("\n".join(decode), env)
    return env["encode"], env["decode"]


_encode_columns, _decode_columns = _column_codec()


def encode_events(events: Iterable[object]) -> bytes:
    """Event records -> one canonical EVENT payload (a row table).

    Deterministic: the stack table lists stacks in order of first use,
    access rows first, so the same records always encode to the same bytes.
    """
    events = list(events)
    try:
        kinds = bytes(map(_KIND_CODES.__getitem__, map(type, events)))
    except KeyError:
        bad = next(e for e in events if type(e) not in _KIND_CODES)
        raise TypeError(f"not a traceable event: {bad!r}") from None
    if kinds.count(0) == len(kinds):
        accesses, others = events, ()
    else:
        accesses = [e for e, code in zip(events, kinds) if not code]
        others = [e for e, code in zip(events, kinds) if code]
    table: dict[tuple, int] = {}
    try:
        widths, columns = _encode_columns(accesses, table)
    except (struct.error, IndexError) as exc:
        raise ValueError(f"access rows do not fit unsigned columns: {exc}") from None
    rows = []
    for event in others:
        getter, codes, stack_at = _TAIL_PLANS[type(event)]
        row = list(getter(event))
        for at, code_of in codes:
            row[at] = code_of[row[at]._value_]
        if stack_at is not None:
            row[stack_at] = table.setdefault(row[stack_at], len(table))
        rows.append(row)
    tail = json_payload(
        {"rows": rows, "stacks": [stack_to_json(stack) for stack in table]}
    )
    head = _HEAD.pack(ROW_TABLE, len(events), len(accesses), len(tail), *widths)
    return b"".join((head, kinds, columns, tail))


# -- decoding -----------------------------------------------------------------


def _rejected(exc: Exception) -> RowError:
    return RowError(f"{type(exc).__name__}: {exc}")


def _decode_tail_row(code: int, row, stacks: list) -> object:
    try:
        if not 0 < code < len(_ROW_DECODERS):
            raise ValueError(f"unknown event kind code {code!r}")
        if type(row) is not list:
            raise ValueError(f"event row must be an array, got {row!r}")
        return _ROW_DECODERS[code](row, stacks)
    except (KeyError, ValueError, TypeError) as exc:
        return _rejected(exc)


def _decode_table(payload: bytes) -> list:
    size = len(payload)
    if size < _HEAD.size:
        raise PayloadError(
            f"row table of {size} byte(s) is shorter than its {_HEAD.size}-byte header"
        )
    _, count, n_access, tail_size, *widths = _HEAD.unpack_from(payload)
    for width in widths:
        if width not in _WIDTH_CODES:
            raise PayloadError(f"row table column width {width} is not 1, 2, 4 or 8")
    row_size = sum(widths) + len(_LOOKUPS)
    expected = _HEAD.size + count + n_access * row_size + tail_size
    if expected != size:
        raise PayloadError(
            f"row table declares {count} event(s), {n_access} access(es) and a "
            f"{tail_size}-byte tail ({expected} bytes); the payload holds {size}"
        )
    if not count:
        raise PayloadError("row table holds no events")
    kinds = payload[_HEAD.size : _HEAD.size + count]
    if kinds.count(0) != n_access:
        raise PayloadError(
            f"row table declares {n_access} access(es); its kind bytes name "
            f"{kinds.count(0)}"
        )
    try:
        tail = json.loads(payload[size - tail_size :])
    except (ValueError, RecursionError) as exc:
        raise PayloadError(f"row table tail is not JSON: {exc}") from None
    rows = tail.get("rows") if type(tail) is dict else None
    table = tail.get("stacks") if type(tail) is dict else None
    if not (type(rows) is list and type(table) is list):
        raise PayloadError("row table tail needs a 'rows' and a 'stacks' array")
    if len(rows) != count - n_access:
        raise PayloadError(
            f"row table names {count - n_access} tail event(s); its tail holds "
            f"{len(rows)} row(s)"
        )
    try:
        stacks = [_shared_stack(tuple(map(tuple, stack))) for stack in table]
    except (ValueError, TypeError) as exc:
        raise PayloadError(f"malformed stack table: {exc}") from None
    accesses = _decode_columns(payload, _HEAD.size + count, n_access, widths, stacks)
    if not rows:
        return accesses
    # Splice each tail row in at its position between runs of accesses.
    events, taken = [], 0
    for position, row in zip([i for i, code in enumerate(kinds) if code], rows):
        run = position - len(events)
        events += accesses[taken : taken + run]
        taken += run
        events.append(_decode_tail_row(kinds[position], row, stacks))
    events += accesses[taken:]
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
    is neither a well-formed row table nor JSON holding an event object or
    a non-empty array of event objects — then no event of the frame is
    consumed.
    """
    if payload[:1] == _MAGIC:
        return _decode_table(payload)
    try:
        data = json.loads(payload)
    except ValueError as exc:
        raise PayloadError(f"not JSON: {exc}") from None
    if type(data) is dict:
        if "t" not in data and "events" in data:
            raise PayloadError("JSON row tables are retired: rows travel as a row table")
        return [_decode_record(data)]  # a one-event (legacy) frame
    if not (type(data) is list and data and all(type(e) is dict for e in data)):
        raise PayloadError(
            "event payload is not a row table, an object or a non-empty "
            "array of objects"
        )
    return [_decode_record(record) for record in data]
