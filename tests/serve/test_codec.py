"""The EVENT payload codec: positional rows with a per-frame stack table.

Every recorded DRACC event must round-trip through a frame exactly, and a
malformed row must cost exactly one ERROR for its own sequence number —
the frame's other events apply and the cumulative ACK covers the frame.
"""

import dataclasses
import json

import pytest

from repro.dracc import get
from repro.dracc.registry import all_benchmarks
from repro.events.codec import (
    ROW_KINDS,
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


def rows_of(events):
    return json.loads(encode_events(events))


def first_access(table) -> int:
    return next(i for i, row in enumerate(table["events"]) if row[0] == 0)


def put(at: int, value):
    return lambda row: row[:at] + [value] + row[at + 1 :]


#: Damage to one access row (positions: 0 kind, 1 device, 2 thread,
#: 3 address, 4 size, 5 is_write, 6 count, 8 origin, 9 stack index), or a
#: row of another kind in its place.  A frame has at most 64 stacks.
MALFORMED = {
    "negative-addr": put(3, -8),
    "size-0": put(4, 0),
    "count-0": put(6, 0),
    "bool-as-int": put(4, True),
    "unknown-kind": put(0, 99),
    "bool-kind": put(0, False),
    "unknown-origin": put(8, 3),
    "negative-stack": put(9, -1),
    "stack-out-of-range": put(9, EVENTS_PER_FRAME),
    "extra-field": lambda row: row + [0],
    "missing-field": lambda row: row[:-1],
    "str-device": put(1, "x"),
    "null-thread": put(2, None),
    "negative-device": put(1, -1),
    "int-as-flag": put(5, 1),
    "str-memcpy-device": lambda row: [2, 0, 0, "1", 64, 0, 128, 8, row[-1]],
    "null-kernel-task": lambda row: [3, 0, None, 1, 0, False, "k", row[-1]],
    "int-as-kernel-name": lambda row: [3, 0, 1, 1, 0, False, 7, row[-1]],
    "str-sync-task": lambda row: [5, "taskwait", "1", 2, 0],
    "negative-flush-address": lambda row: [6, 1, 0, -8, 0],
}


@pytest.mark.parametrize("damage", list(MALFORMED))
def test_malformed_row_costs_one_error_for_its_seq(damage):
    events = record_trace(get(18))[:EVENTS_PER_FRAME]
    table = rows_of(events)
    bad = first_access(table)
    table["events"][bad] = MALFORMED[damage](table["events"][bad])
    assert isinstance(decode_events(json_payload(table))[bad], RowError)

    server = AnalysisServer(ServerConfig(n_shards=2))
    server.handle_frame(Frame(FrameKind.HELLO, CLIENT, 0, json_payload({})))
    replies = server.handle_frame(
        Frame(FrameKind.EVENT, CLIENT, 0, json_payload(table))
    )
    errors = [r for r in replies if r.kind is FrameKind.ERROR]
    assert [e.json()["seq"] for e in errors] == [bad]
    assert replies[-1].kind is FrameKind.ACK
    assert replies[-1].seq == len(events) - 1
    session = server.sessions[CLIENT]
    assert session.next_seq == len(events)
    assert session.supervisor.events_delivered == len(events) - 1


#: The exact text a damaged access row decodes to, one case per check the
#: compiled row decoder makes (minimum, type, enum code, width, stack).
ROW_ERROR_TEXT = {
    "size-0": "ValueError: access record declares size=0 (minimum 1): "
    "rejected rather than zero-padded into a bogus event",
    "str-device": "ValueError: access record field 'device_id' must be an "
    "integer, got 'x'",
    "unknown-origin": "ValueError: access record field 'origin': unknown code 3",
    "extra-field": "ValueError: access row carries 10 field(s), expected 9",
    "negative-stack": "ValueError: access row names stack -1; the frame's "
    "table holds 1",
}


@pytest.mark.parametrize("damage", list(ROW_ERROR_TEXT))
def test_row_error_text_is_pinned(damage):
    table = rows_of(record_trace(get(18))[:EVENTS_PER_FRAME])
    bad = first_access(table)
    table["events"][bad] = MALFORMED[damage](table["events"][bad])
    assert str(decode_events(json_payload(table))[bad]) == ROW_ERROR_TEXT[damage]
