"""Batched EVENT frames: watermark arithmetic, queue units, legacy frames.

An EVENT frame carries events ``seq .. seq+n-1``.  The server must apply
each event exactly once however the frames overlap the watermark, count
parked *events* against ``queue_cap``, and treat a payload that is a
single JSON object as a one-event frame — old captures and hand-encoded
clients must fingerprint exactly like the batching client.
"""

import pytest

from repro.dracc import get
from repro.dracc.registry import all_benchmarks
from repro.events.trace_io import event_to_json
from repro.events.wire import (
    EVENTS_PER_FRAME,
    Frame,
    FrameKind,
    event_frame,
    json_payload,
)
from repro.harness.serve import baseline_fingerprints, record_trace
from repro.serve import AnalysisServer, ServerConfig

CLIENT = 1


@pytest.fixture(scope="module")
def records():
    return [event_to_json(e) for e in record_trace(get(18))]


def open_session(**config) -> AnalysisServer:
    server = AnalysisServer(ServerConfig(**config))
    server.handle_frame(Frame(FrameKind.HELLO, CLIENT, 0, json_payload({})))
    return server


class TestWatermark:
    def test_straddling_frame_applies_only_its_tail(self, records):
        server = open_session(n_shards=2)
        server.handle_frame(event_frame(CLIENT, 0, records[:2]))
        (reply,) = server.handle_frame(event_frame(CLIENT, 0, records[:5]))
        session = server.sessions[CLIENT]
        assert reply.kind is FrameKind.ACK and reply.seq == 4
        assert session.supervisor.events_delivered == 5
        assert session.dup_frames == 0  # a tail was new: not a duplicate
        for worker in session.supervisor.workers:
            seqs = [seq for _c, seq, _e in worker.journal.replay()]
            assert len(seqs) == len(set(seqs))

    def test_frame_wholly_below_the_watermark_is_reacked(self, records):
        server = open_session(n_shards=2)
        server.handle_frame(event_frame(CLIENT, 0, records[:5]))
        (reply,) = server.handle_frame(event_frame(CLIENT, 2, records[2:4]))
        session = server.sessions[CLIENT]
        assert reply.kind is FrameKind.ACK and reply.seq == 4
        assert session.dup_frames == 1
        assert session.supervisor.events_delivered == 5

    def test_early_frame_parks_under_its_first_seq(self, records):
        server = open_session(n_shards=2)
        (nack,) = server.handle_frame(event_frame(CLIENT, 3, records[3:6]))
        session = server.sessions[CLIENT]
        assert nack.kind is FrameKind.NACK and nack.seq == 0
        assert list(session.reorder) == [3] and session.parked == 3
        (ack,) = server.handle_frame(event_frame(CLIENT, 0, records[:3]))
        assert ack.kind is FrameKind.ACK and ack.seq == 5
        assert session.reorder == {} and session.parked == 0

    def test_array_with_a_non_object_is_refused_whole(self, records):
        server = open_session(n_shards=1)
        (reply,) = server.handle_frame(
            Frame(FrameKind.EVENT, CLIENT, 0, json_payload([records[0], 7]))
        )
        assert reply.kind is FrameKind.ERROR
        assert server.sessions[CLIENT].next_seq == 0  # nothing consumed

    def test_queue_cap_counts_parked_events(self, records):
        server = open_session(n_shards=1, queue_cap=4)
        server.handle_frame(event_frame(CLIENT, 5, records[5:8]))
        session = server.sessions[CLIENT]
        assert session.parked == 3 and session.shed_frames == 0
        # Two more events would park five against a cap of four: shed.
        server.handle_frame(event_frame(CLIENT, 10, records[10:12]))
        assert session.parked == 3
        assert session.shed_frames == 1 and session.degraded


def serve_frames(frames: list[Frame]) -> tuple[tuple[str, str], ...]:
    """Feed one session's frames to a fresh server; delivered fingerprints."""
    server = open_session(n_shards=4)
    replies = []
    for frame in frames:
        replies.extend(server.handle_frame(frame))
    assert not [r for r in replies if r.kind is FrameKind.ERROR]
    assert replies[-1].kind is FrameKind.RESULT
    return tuple(
        sorted(
            (f.json()["tool"], f.json()["fingerprint"])
            for f in replies
            if f.kind is FrameKind.FINDING
        )
    )


@pytest.mark.parametrize(
    "bench", all_benchmarks(), ids=lambda b: f"DRACC_{b.number:03d}"
)
def test_legacy_and_batched_frames_fingerprint_identically(bench):
    events = record_trace(bench)
    payloads = [event_to_json(e) for e in events]
    fin = Frame(FrameKind.FIN, CLIENT, len(payloads))
    legacy = [
        Frame(FrameKind.EVENT, CLIENT, seq, json_payload(payload))
        for seq, payload in enumerate(payloads)
    ]
    batched = [
        event_frame(CLIENT, first, payloads[first : first + EVENTS_PER_FRAME])
        for first in range(0, len(payloads), EVENTS_PER_FRAME)
    ]
    served = serve_frames(legacy + [fin])
    assert served == serve_frames(batched + [fin])
    assert served == baseline_fingerprints(events)
