"""The serve client: deterministic backoff, repair passes, retry budget."""

import pytest

from repro.dracc import get
from repro.events.codec import decode_events
from repro.events.wire import EVENTS_PER_FRAME, FrameDecoder
from repro.faults.plan import FaultKind, FaultPlan, PlannedFault
from repro.harness.serve import baseline_fingerprints, record_trace
from repro.serve import (
    AnalysisServer,
    DeliveryError,
    LoopbackTransport,
    RetryPolicy,
    ServeClient,
    ServerConfig,
)

BENCH = 18


@pytest.fixture(scope="module")
def trace():
    return record_trace(get(BENCH))


class TestRetryPolicy:
    def test_delay_is_deterministic_per_attempt(self):
        policy = RetryPolicy(seed=7)
        assert [policy.delay(a) for a in range(1, 6)] == [
            policy.delay(a) for a in range(1, 6)
        ]

    def test_delay_differs_across_seeds(self):
        a = [RetryPolicy(seed=1).delay(n) for n in range(1, 8)]
        b = [RetryPolicy(seed=2).delay(n) for n in range(1, 8)]
        assert a != b

    def test_delay_respects_the_cap(self):
        policy = RetryPolicy(seed=0, base_ticks=1, cap_ticks=16)
        for attempt in range(1, 40):
            assert 1 <= policy.delay(attempt) <= 16

    def test_jitter_spans_the_ceiling(self):
        policy = RetryPolicy(seed=0, cap_ticks=64)
        samples = {policy.delay(a) for a in range(1, 200)}
        assert len(samples) > 10  # actually jittered, not constant


class TestRepairPasses:
    def test_dropped_frames_are_repaired(self, trace):
        # Sends: HELLO, the two EVENT frames (both lost), a repair pass
        # whose second frame is lost again, a second repair pass, FIN.
        plan = FaultPlan(
            seed=0,
            faults=tuple(
                PlannedFault(kind=FaultKind.FRAME_DROP, index=i)
                for i in (2, 3, 5)
            ),
        )
        server = AnalysisServer(ServerConfig(n_shards=2))
        transport = LoopbackTransport(server, plan)
        client = ServeClient(transport, client_id=BENCH)
        result = client.stream(trace)
        assert transport.dropped == 3
        assert result.retransmits > 0
        assert result.backoff_ticks > 0
        assert result.fingerprints() == baseline_fingerprints(trace)

    def test_reordered_frames_need_no_repair_pass(self, trace):
        # Send 2 is the first EVENT frame: it rides behind the second one.
        plan = FaultPlan(
            seed=0,
            faults=(PlannedFault(kind=FaultKind.FRAME_REORDER, index=2),),
        )
        server = AnalysisServer(ServerConfig(n_shards=2))
        transport = LoopbackTransport(server, plan)
        client = ServeClient(transport, client_id=BENCH)
        result = client.stream(trace)
        assert transport.reordered == 1
        assert result.nacks_seen >= 1  # the gap elicited a NACK
        assert result.fingerprints() == baseline_fingerprints(trace)

    def test_forward_progress_resets_the_retry_budget(self, trace):
        # More total drops than max_attempts, over four repair passes:
        # the first pass and pass 1 are lost whole, pass 2 acks the first
        # frame (progress), pass 3 is lost, pass 4 finishes.  Without the
        # reset, pass 4 would be attempt 4 > max_attempts.
        plan = FaultPlan(
            seed=0,
            faults=tuple(
                PlannedFault(kind=FaultKind.FRAME_DROP, index=i)
                for i in (2, 3, 4, 5, 7, 8)
            ),
        )
        server = AnalysisServer(ServerConfig(n_shards=1))
        transport = LoopbackTransport(server, plan)
        client = ServeClient(
            transport,
            client_id=BENCH,
            policy=RetryPolicy(seed=BENCH, max_attempts=3),
        )
        assert client.stream(trace).fingerprints() == baseline_fingerprints(trace)
        assert transport.dropped == 6


class RecordingTransport(LoopbackTransport):
    """The loopback pipe, keeping a copy of every client send."""

    def __init__(self, server, plan=None):
        super().__init__(server, plan)
        self.sent: list[bytes] = []

    def send(self, data: bytes) -> bytes:
        self.sent.append(data)
        return super().send(data)


class TestFrameBoundaries:
    def test_repair_frame_is_byte_identical_to_its_first_send(self, trace):
        # Send 2 (the first EVENT frame) is lost; the repair pass resends
        # it from the same fixed boundary, so the bytes match exactly.
        plan = FaultPlan(
            seed=0,
            faults=(PlannedFault(kind=FaultKind.FRAME_DROP, index=2),),
        )
        server = AnalysisServer(ServerConfig(n_shards=2))
        transport = RecordingTransport(server, plan)
        result = ServeClient(transport, client_id=BENCH).stream(trace)
        assert transport.dropped == 1
        assert result.fingerprints() == baseline_fingerprints(trace)
        frames = [FrameDecoder().feed(raw)[0] for raw in transport.sent]
        assert [(f.kind.name, f.seq) for f in frames] == [
            ("HELLO", 0),
            ("EVENT", 0),  # dropped
            ("EVENT", EVENTS_PER_FRAME),  # parks behind the gap
            ("EVENT", 0),  # repair pass
            ("EVENT", EVENTS_PER_FRAME),
            ("FIN", len(trace)),
        ]
        assert transport.sent[3] == transport.sent[1]
        assert len(decode_events(frames[1].payload)) == EVENTS_PER_FRAME


class BlackHoleTransport:
    """Accepts HELLO and the first pass, then eats every retransmission."""

    def __init__(self, server):
        self.connection = server.connection()
        self._sends = 0

    def send(self, data: bytes) -> bytes:
        self._sends += 1
        if self._sends == 1:
            return self.connection.handle_bytes(data)  # HELLO gets through
        return b""


class TestGivingUp:
    def test_delivery_error_when_budget_exhausts(self, trace):
        server = AnalysisServer(ServerConfig(n_shards=1))
        client = ServeClient(
            BlackHoleTransport(server),
            client_id=BENCH,
            policy=RetryPolicy(seed=0, max_attempts=2),
        )
        with pytest.raises(DeliveryError, match="repair"):
            client.stream(trace[:5])
