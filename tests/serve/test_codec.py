"""The EVENT payload codec: a binary row table with a per-frame stack table.

Every recorded DRACC event must round-trip through a frame exactly, and a
malformed row must cost exactly one ERROR for its own sequence number —
the frame's other events apply and the cumulative ACK covers the frame.
Damage the layout cannot carry as a row refuses the whole payload.
"""

import dataclasses
import json
import struct

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from repro.dracc import get
from repro.dracc.registry import all_benchmarks
from repro.events.codec import (
    ROW_KINDS,
    ROW_TABLE,
    PayloadError,
    RowError,
    decode_events,
    encode_events,
)
from repro.events.records import Access
from repro.events.trace_io import event_from_json, event_to_json
from repro.events.wire import EVENTS_PER_FRAME, Frame, FrameKind, json_payload
from repro.harness.serve import record_trace
from repro.serve import AnalysisServer, ServerConfig

CLIENT = 1


@pytest.fixture(scope="module")
def traces():
    return [record_trace(bench) for bench in all_benchmarks()]


def frames_of(events):
    return [
        events[first : first + EVENTS_PER_FRAME]
        for first in range(0, len(events), EVENTS_PER_FRAME)
    ]


class TestRoundTrip:
    def test_every_dracc_record_decodes_equal(self, traces):
        assert len(traces) == 56
        for events in traces:
            for chunk in frames_of(events):
                assert decode_events(encode_events(chunk)) == list(chunk)

    def test_equal_stacks_in_a_frame_decode_to_one_tuple(self, traces):
        reused = 0
        for events in traces:
            for chunk in frames_of(events):
                by_value: dict[tuple, list[tuple]] = {}
                for record in decode_events(encode_events(chunk)):
                    if hasattr(record, "stack"):
                        by_value.setdefault(record.stack, []).append(record.stack)
                for stacks in by_value.values():
                    assert all(stack is stacks[0] for stack in stacks)
                    reused += len(stacks) - 1
        assert reused > 0

    def test_encoding_is_deterministic(self, traces):
        chunk = traces[0][:EVENTS_PER_FRAME]
        assert encode_events(chunk) == encode_events(list(chunk))

    def test_row_fields_follow_the_constructor_order(self):
        for cls, _tag, fields in ROW_KINDS:
            if cls is Access:
                names = list(Access._fields)
            else:
                names = [f.name for f in dataclasses.fields(cls)]
            assert [name for name, _key, _check in fields] == names, cls.__name__

    def test_legacy_payloads_decode_through_event_from_json(self, traces):
        records = traces[0][:3]
        dicts = [event_to_json(e) for e in records]
        assert decode_events(json_payload(dicts)) == records
        assert decode_events(json_payload(dicts[0])) == records[:1]
        assert [event_from_json(d) for d in dicts] == records

    @pytest.mark.parametrize(
        "payload",
        [b"{not json", b"[]", b"7", b'[{"t":"sync"},7]', b'{"events":[]}',
         b'{"events":[[5,"taskwait",1,2,0]],"stacks":[[["f",1]]]}'],
    )
    def test_malformed_payloads_are_refused_whole(self, payload):
        with pytest.raises(PayloadError):
            decode_events(payload)


#: The row table header: magic, event count, access count, tail length and
#: the width code of each wide access column (0 device, 1 thread,
#: 2 address, 3 size, 5 count, 6 stride, 8 stack index); 4 ``is_write``
#: and 7 ``origin`` are one byte each.
HEAD = struct.Struct("<BIII7B")
WIDE = (0, 1, 2, 3, 5, 6, 8)
CODES = {1: "B", 2: "H", 4: "I", 8: "Q"}


def rows_of(events) -> dict:
    """Unpack ``encode_events(events)``: kind bytes, access rows, JSON tail."""
    payload = encode_events(events)
    _, count, n_access, _, *widths = HEAD.unpack_from(payload)
    width_of = dict(zip(WIDE, widths))
    at = HEAD.size
    kinds = list(payload[at : at + count])
    at += count
    columns = []
    for field in range(9):
        width = width_of.get(field, 1)
        columns.append(
            struct.unpack_from(f"<{n_access}{CODES[width]}", payload, at)
        )
        at += n_access * width
    return {
        "kinds": kinds,
        "accesses": [list(row) for row in zip(*columns)],
        "tail": json.loads(payload[at:]),
    }


def payload_of(table: dict) -> bytes:
    """Pack a :func:`rows_of` table back, every wide column 8 bytes wide."""
    accesses = table["accesses"]
    columns = list(zip(*accesses)) if accesses else [()] * 9
    body = bytes(table["kinds"]) + b"".join(
        struct.pack(f"<{len(accesses)}{'Q' if field in WIDE else 'B'}", *column)
        for field, column in enumerate(columns)
    )
    tail = json_payload(table["tail"])
    head = HEAD.pack(
        ROW_TABLE, len(table["kinds"]), len(accesses), len(tail), *[8] * len(WIDE)
    )
    return head + body + tail


def first_access(table) -> int:
    return table["kinds"].index(0)


def access_field(field: int, value):
    """Damage: one column value of the access at event ``bad``."""

    def damage(table, bad):
        table["accesses"][table["kinds"][:bad].count(0)][field] = value

    return damage


def in_place(code: int, row_of):
    """Damage: the access at event ``bad`` becomes a kind-``code`` tail row
    (``row_of`` gets the access's stack index)."""

    def damage(table, bad):
        kinds = table["kinds"]
        access = table["accesses"].pop(kinds[:bad].count(0))
        tail_at = bad - kinds[:bad].count(0)
        table["tail"]["rows"].insert(tail_at, row_of(access[8]))
        kinds[bad] = code

    return damage


#: Damage to one access, each costing exactly one RowError.  A column can
#: hold only unsigned ints of its width, so value damage is all an access
#: row can carry: a size or count under its minimum, a write byte that is
#: not 0/1, an unknown origin code, a stack index past the frame's table,
#: an unknown kind byte.  Type, sign and width damage is written where the
#: layout still has room for it — a JSON-tail row of another kind standing
#: in the access's place — and is checked there by the same compiled
#: checks.  A frame has at most 64 stacks.
MALFORMED = {
    "size-0": access_field(3, 0),
    "count-0": access_field(5, 0),
    "int-as-flag": access_field(4, 2),
    "unknown-origin": access_field(7, 3),
    "stack-out-of-range": access_field(8, EVENTS_PER_FRAME),
    "unknown-kind": in_place(99, lambda stack: [0, 0, 8, 4, 0, 1, 0, 0, stack]),
    "negative-addr": in_place(4, lambda s: [0, 0, -8, 64, False, "heap", "x", s]),
    "bool-as-int": in_place(2, lambda s: [0, 0, 1, 64, 0, 128, True, s]),
    "bool-kind": in_place(1, lambda s: [False, 1, 0, 64, 128, 8, s]),
    "negative-stack": in_place(1, lambda s: [0, 1, 0, 64, 128, 8, -1]),
    "extra-field": in_place(5, lambda s: ["taskwait", 1, 2, 0, 0]),
    "missing-field": in_place(5, lambda s: ["taskwait", 1, 2]),
    "str-device": in_place(1, lambda s: [0, "x", 0, 64, 128, 8, s]),
    "null-thread": in_place(6, lambda s: [1, None, 64, 8]),
    "negative-device": in_place(2, lambda s: [-1, 0, 1, 64, 0, 128, 8, s]),
    "str-memcpy-device": in_place(2, lambda s: [0, 0, "1", 64, 0, 128, 8, s]),
    "null-kernel-task": in_place(3, lambda s: [0, None, 1, 0, False, "k", s]),
    "int-as-kernel-name": in_place(3, lambda s: [0, 1, 1, 0, False, 7, s]),
    "str-sync-task": in_place(5, lambda s: ["taskwait", "1", 2, 0]),
    "negative-flush-address": in_place(6, lambda s: [1, 0, -8, 0]),
}


def damaged(damage: str) -> tuple[list, bytes, int]:
    events = record_trace(get(18))[:EVENTS_PER_FRAME]
    table = rows_of(events)
    bad = first_access(table)
    MALFORMED[damage](table, bad)
    return events, payload_of(table), bad


def test_repacked_table_decodes_equal():
    events = record_trace(get(18))[:EVENTS_PER_FRAME]
    assert decode_events(payload_of(rows_of(events))) == events


@pytest.mark.parametrize("damage", list(MALFORMED))
def test_malformed_row_costs_one_error_for_its_seq(damage):
    events, payload, bad = damaged(damage)
    decoded = decode_events(payload)
    assert [at for at, e in enumerate(decoded) if isinstance(e, RowError)] == [bad]

    server = AnalysisServer(ServerConfig(n_shards=2))
    server.handle_frame(Frame(FrameKind.HELLO, CLIENT, 0, json_payload({})))
    replies = server.handle_frame(Frame(FrameKind.EVENT, CLIENT, 0, payload))
    errors = [r for r in replies if r.kind is FrameKind.ERROR]
    assert [e.json()["seq"] for e in errors] == [bad]
    assert replies[-1].kind is FrameKind.ACK
    assert replies[-1].seq == len(events) - 1
    session = server.sessions[CLIENT]
    assert session.next_seq == len(events)
    assert session.supervisor.events_delivered == len(events) - 1


#: The exact text a damaged row decodes to, one case per check the
#: compiled row decoders make (minimum, type, bool, enum code, width,
#: stack, kind).
ROW_ERROR_TEXT = {
    "size-0": "ValueError: access record declares size=0 (minimum 1): "
    "rejected rather than zero-padded into a bogus event",
    "count-0": "ValueError: access record declares count=0 (minimum 1): "
    "rejected rather than zero-padded into a bogus event",
    "int-as-flag": "ValueError: access record field 'is_write' must be a "
    "bool, got 2",
    "unknown-origin": "ValueError: access record field 'origin': unknown code 3",
    "stack-out-of-range": "ValueError: access row names stack 64; the "
    "frame's table holds 1",
    "unknown-kind": "ValueError: unknown event kind code 99",
    "str-device": "ValueError: data_op record field 'device_id' must be an "
    "integer, got 'x'",
    "extra-field": "ValueError: sync row carries 5 field(s), expected 4",
    "negative-stack": "ValueError: data_op row names stack -1; the frame's "
    "table holds 1",
}


@pytest.mark.parametrize("damage", list(ROW_ERROR_TEXT))
def test_row_error_text_is_pinned(damage):
    _, payload, bad = damaged(damage)
    assert str(decode_events(payload)[bad]) == ROW_ERROR_TEXT[damage]


def _set_head(slot: int, value):
    """Layout damage: one header field (1 event count, 2 access count,
    3 tail length, 4.. the wide columns' width codes)."""

    def damage(payload: bytes) -> bytes:
        fields = list(HEAD.unpack_from(payload))
        fields[slot] = value(fields[slot])
        return HEAD.pack(*fields) + payload[HEAD.size :]

    return damage


def _kind_byte(code: int):
    def damage(payload: bytes) -> bytes:
        at = HEAD.size + bytes(payload[HEAD.size :]).index(0)
        return payload[:at] + bytes((code,)) + payload[at + 1 :]

    return damage


def _bad_stack_frame(payload: bytes) -> bytes:
    """Layout damage: the tail's first stack holds a mistyped frame."""
    size = HEAD.unpack_from(payload)[3]
    tail = json.loads(payload[-size:])
    tail["stacks"][0] = [["a.c", "three", None, 7]]
    body = json.dumps(tail).encode()
    return _set_head(3, lambda _: len(body))(payload[:-size] + body)


#: Damage the binary layout cannot carry as a row: the whole payload is
#: refused with a PayloadError and nothing of the frame applies.
LAYOUT_DAMAGE = {
    "truncated-header": lambda p: p[: HEAD.size - 1],
    "truncated-columns": lambda p: p[: HEAD.size + 80],
    "truncated-tail": lambda p: p[:-1],
    "trailing-byte": lambda p: p + b"\0",
    "events-over-length": _set_head(1, lambda n: n + 1),
    "accesses-over-length": _set_head(2, lambda n: n + 1),
    "tail-over-length": _set_head(3, lambda n: n + 1),
    "width-3": _set_head(4, lambda _: 3),
    "width-0": _set_head(8, lambda _: 0),
    "kind-bytes-disagree": _kind_byte(1),
    "no-events": lambda p: HEAD.pack(ROW_TABLE, 0, 0, 2, *[1] * 7) + b"{}",
    "tail-not-json": lambda p: p[:-1] + b"]",
    "tail-not-an-object": lambda p: HEAD.pack(ROW_TABLE, 1, 0, 2, *[1] * 7)
    + b"\5[]",
    "stack-frame-mistyped": _bad_stack_frame,
}


@pytest.mark.parametrize("damage", list(LAYOUT_DAMAGE))
def test_damaged_layout_is_refused_whole(damage):
    events = record_trace(get(18))[:EVENTS_PER_FRAME]
    payload = LAYOUT_DAMAGE[damage](encode_events(events))
    with pytest.raises(PayloadError):
        decode_events(payload)

    server = AnalysisServer(ServerConfig(n_shards=2))
    server.handle_frame(Frame(FrameKind.HELLO, CLIENT, 0, json_payload({})))
    replies = server.handle_frame(Frame(FrameKind.EVENT, CLIENT, 0, payload))
    assert [r.kind for r in replies] == [FrameKind.ERROR]
    assert replies[0].json()["seq"] == 0
    assert server.sessions[CLIENT].next_seq == 0


@pytest.fixture(scope="module")
def payloads(traces):
    return [encode_events(chunk) for events in traces for chunk in frames_of(events)]


@seed(1)
@settings(max_examples=400, deadline=None, database=None)
@given(
    frame=st.integers(min_value=0),
    flips=st.lists(
        st.tuples(st.integers(min_value=0), st.integers(1, 255)), max_size=4
    ),
    cut=st.none() | st.integers(min_value=0),
)
def test_damaged_frames_refuse_whole_or_keep_their_count(payloads, frame, flips, cut):
    """Truncated or byte-flipped DRACC frames: decode_events raises a
    PayloadError or returns one entry per event the header declares, and
    never raises anything else."""
    data = bytearray(payloads[frame % len(payloads)])
    for at, mask in flips:
        data[at % len(data)] ^= mask
    if cut is not None:
        del data[cut % len(data) :]
    data = bytes(data)
    try:
        decoded = decode_events(data)
    except PayloadError:
        return
    assert data[0] == ROW_TABLE
    (count,) = struct.unpack_from("<I", data, 1)
    assert len(decoded) == count
    kinds = tuple(cls for cls, _tag, _fields in ROW_KINDS)
    assert all(type(e) is RowError or type(e) in kinds for e in decoded)
