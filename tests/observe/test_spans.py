"""Span logs and cross-process trace stitching, including determinism."""

import json

import pytest

from repro.dracc import get
from repro.events.wire import EVENTS_PER_FRAME
from repro.harness.serve import record_trace
from repro.observe import (
    ServeObserver,
    SpanLog,
    spans_by_frame,
    stitch_traces,
)
from repro.serve import (
    AnalysisServer,
    LoopbackTransport,
    ServeClient,
    ServerConfig,
)

BENCH = 18


class TestSpanLog:
    def test_span_records_begin_end_ordinals(self):
        log = SpanLog("server")
        with log.span("handle:EVENT", client=1, seq=0):
            pass
        (span,) = log.spans
        assert span["b"] == 1 and span["e"] == 2
        assert span["tags"] == {"client": 1, "seq": 0}

    def test_none_tags_are_dropped(self):
        log = SpanLog("x")
        with log.span("s", a=None, b=2):
            pass
        assert log.spans[0]["tags"] == {"b": 2}

    def test_tags_mutable_inside_the_block(self):
        log = SpanLog("x")
        with log.span("s") as handle:
            handle.tags["responses"] = 3
        assert log.spans[0]["tags"] == {"responses": 3}

    def test_nested_spans_share_the_clock(self):
        log = SpanLog("x")
        with log.span("outer"):
            with log.span("inner"):
                pass
        inner, outer = log.spans
        assert (outer["b"], inner["b"], inner["e"], outer["e"]) == (1, 2, 3, 4)


class TestStitch:
    def test_pids_assigned_by_sorted_process_name(self):
        server, shard = SpanLog("server"), SpanLog("shard-0")
        doc = stitch_traces([shard, server])  # deliberately unsorted input
        assert doc["otherData"]["processes"] == ["server", "shard-0"]
        meta = [e for e in doc["traceEvents"] if e["ph"] == "M"]
        assert [(m["pid"], m["args"]["name"]) for m in meta] == [
            (0, "server"),
            (1, "shard-0"),
        ]

    def test_spans_become_complete_events_with_args(self):
        log = SpanLog("server")
        with log.span("apply", client=7, seq=3):
            pass
        doc = stitch_traces([log])
        (event,) = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert event["ts"] == 1 and event["dur"] == 1
        assert event["args"] == {"client": 7, "seq": 3}

    def test_spans_by_frame_joins_processes(self):
        client, server = SpanLog("client"), SpanLog("server")
        with client.span("frame:EVENT", client=7, seq=3):
            pass
        with server.span("handle:EVENT", client=7, seq=3):
            pass
        index = spans_by_frame(stitch_traces([client, server]))
        assert len(index[(7, 3)]) == 2
        assert {e["pid"] for e in index[(7, 3)]} == {0, 1}


def clean_attempts() -> int:
    """(frame, shard) delivery attempts of the unfaulted session."""
    server = AnalysisServer(ServerConfig(n_shards=2))
    ServeClient(LoopbackTransport(server), client_id=BENCH).stream(
        record_trace(get(BENCH))
    )
    return server.sessions[BENCH].supervisor.delivery_attempts


@pytest.fixture(scope="module")
def kill_at() -> int:
    """The last clean attempt: its worker replays every frame it holds."""
    return clean_attempts()


def traced_session(kill_at: int | None = None) -> dict:
    """One full served session with spans on; returns the stitched doc."""
    observer = ServeObserver(trace_spans=True, wall_clock=False)
    server = AnalysisServer(ServerConfig(n_shards=2), observer)
    if kill_at is not None:
        server.session(BENCH).supervisor.kill_schedule[kill_at] = "post"
    client_spans = SpanLog("client")
    client = ServeClient(
        LoopbackTransport(server), client_id=BENCH, spanlog=client_spans
    )
    client.stream(record_trace(get(BENCH)))
    return stitch_traces([client_spans] + observer.span_logs())


class TestCrossProcessTrace:
    def test_client_server_shard_spans_share_frame_keys(self):
        doc = traced_session()
        index = spans_by_frame(doc)
        frames = [
            (e["args"]["client"], e["args"]["seq"])
            for e in doc["traceEvents"]
            if e["ph"] == "X" and e["name"] == "frame:EVENT"
        ]
        events = len(record_trace(get(BENCH)))
        assert len(frames) == -(-events // EVENTS_PER_FRAME)
        # Every event frame traverses client -> server -> shard, and all
        # three processes key their spans by the frame's first seq.
        for key in frames:
            names = {span["name"] for span in index[key]}
            assert {"frame:EVENT", "handle:EVENT", "apply"} <= names, key

    def test_replay_spans_link_their_origin_frame(self, kill_at):
        doc = traced_session(kill_at=kill_at)
        replays = [
            e
            for e in doc["traceEvents"]
            if e["ph"] == "X" and e["name"] == "replay"
        ]
        assert replays, "worker kill produced no journal-replay spans"
        index = spans_by_frame(doc)
        for replay in replays:
            origin = (replay["args"]["client"], replay["args"]["seq"])
            assert replay["args"]["replayed_from"] == f"{origin[0]}:{origin[1]}"
            # The original frame was traced by other processes too.
            assert len(index[origin]) >= 2

    def test_stitched_trace_is_byte_identical_across_runs(self, kill_at):
        one = json.dumps(traced_session(kill_at=kill_at), indent=2, sort_keys=True)
        two = json.dumps(traced_session(kill_at=kill_at), indent=2, sort_keys=True)
        assert one == two

    def test_trace_shape_differs_when_the_fault_does(self, kill_at):
        clean = json.dumps(traced_session(), sort_keys=True)
        faulted = json.dumps(traced_session(kill_at=kill_at), sort_keys=True)
        assert clean != faulted  # replay spans are visible in the trace
