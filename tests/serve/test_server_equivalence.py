"""The delivery guarantee, tested exhaustively on one benchmark.

Fingerprint equivalence between the served path and the in-process
baseline (batched, and the per-access reference), under: a worker kill at *every* delivery
attempt index (both crash phases), every frame delivered twice, and
backpressure shedding.  Zero dropped findings, zero duplicated findings,
every time.
"""

import pytest

from repro.core.detector import Arbalest
from repro.dracc import get
from repro.events.bus import ToolBus
from repro.events.records import AllocationEvent, KernelEvent, MemcpyEvent
from repro.events.wire import EVENTS_PER_FRAME
from repro.harness.serve import baseline_fingerprints, record_trace
from repro.serve import (
    AnalysisServer,
    LoopbackTransport,
    ServeClient,
    ServerConfig,
    Supervisor,
)
from tests.per_access import per_access

#: DRACC_OMP_018: the smallest trace in the suite (~85 events), so the
#: exhaustive kill sweep stays fast.
BENCH = 18


@pytest.fixture(scope="module")
def trace():
    return record_trace(get(BENCH))


@pytest.fixture(scope="module")
def baseline(trace):
    return baseline_fingerprints(trace)


@pytest.fixture(scope="module")
def baselines(trace, baseline):
    """In-process fingerprints: ``scalar`` is the per-access reference,
    ``columnar`` the batched :func:`baseline_fingerprints`."""
    tool = per_access(Arbalest)()
    bus = ToolBus()
    bus.attach(tool)
    for event in trace:
        bus.dispatch[type(event)](event)
    bus.flush_batch()
    reference = tuple(sorted(("arbalest", f.fingerprint()) for f in tool.findings))
    return {"scalar": reference, "columnar": baseline}


def stream(trace, *, client_id=BENCH, transport_cls=LoopbackTransport, **config):
    server = AnalysisServer(ServerConfig(**config))
    client = ServeClient(transport_cls(server), client_id=client_id)
    result = client.stream(trace)
    return server, result


class TestEngines:
    """The served (batched, sharded) run against both in-process oracles."""

    @pytest.mark.parametrize("engine", ["scalar", "columnar"])
    @pytest.mark.parametrize("n_shards", [1, 3])
    def test_served_equals_baseline(self, trace, baselines, engine, n_shards):
        _server, result = stream(trace, n_shards=n_shards)
        assert result.fingerprints() == baselines[engine]

    def test_engines_agree_with_each_other(self, baselines):
        assert baselines["scalar"] == baselines["columnar"]


@pytest.fixture(scope="module")
def spanning_trace(trace):
    """The trace with a memcpy between two variables on different shards
    (of 2), placed in its second frame after the kernel: a slice for each
    shard carries it."""
    cvs = [
        e.address
        for e in trace
        if isinstance(e, AllocationEvent) and e.device_id == 1 and not e.is_free
    ]
    kernel_end = max(i for i, e in enumerate(trace) if isinstance(e, KernelEvent))
    assert kernel_end >= EVENTS_PER_FRAME
    memcpy = MemcpyEvent(
        device_id=0, thread_id=0, dst_device=1, dst_address=cvs[0],
        src_device=1, src_address=cvs[1], nbytes=8,
    )
    spanning = trace[: kernel_end + 1] + [memcpy] + trace[kernel_end + 1 :]
    router = Supervisor(n_shards=2)
    routes = [router.shards_for(event) for event in spanning]
    assert routes[kernel_end + 1] == (0, 1)
    return spanning


class TestKillSweep:
    """Kill a shard worker at every occurrence index k; never lose a bug."""

    def attempts(self, trace) -> int:
        server, _ = stream(trace, n_shards=2)
        return server.sessions[BENCH].supervisor.delivery_attempts

    def sweep(self, trace, baseline):
        total = self.attempts(trace)
        # Broadcasts make (frame, shard) attempts exceed frames.
        assert total > -(-len(trace) // EVENTS_PER_FRAME)
        for k in range(1, total + 1):
            phase = "pre" if k % 2 else "post"
            server = AnalysisServer(ServerConfig(n_shards=2))
            session = server.session(BENCH)
            session.supervisor.kill_schedule[k] = phase
            client = ServeClient(LoopbackTransport(server), client_id=BENCH)
            result = client.stream(trace)
            assert not session.supervisor.kill_schedule, (
                f"kill at attempt {k} never triggered"
            )
            assert session.supervisor.worker_restarts >= 1
            assert result.fingerprints() == baseline, (
                f"kill at attempt {k} ({phase}-journal) changed the findings"
            )
            assert session.supervisor.events_delivered == len(trace)

    def test_kill_at_every_attempt_index(self, trace, baseline):
        self.sweep(trace, baseline)

    def test_kill_at_every_attempt_index_with_a_cross_shard_memcpy(
        self, spanning_trace
    ):
        self.sweep(spanning_trace, baseline_fingerprints(spanning_trace))

    def test_kill_before_drain_still_delivers_everything(self, trace, baseline):
        # A worker dead at drain time is restarted (journal replay) before
        # its findings are collected; nothing acknowledged may vanish.
        from repro.forensics.ledger import DeliveryLedger

        server = AnalysisServer(ServerConfig(n_shards=2))
        supervisor = server.session(BENCH).supervisor
        for first in range(0, len(trace), EVENTS_PER_FRAME):
            supervisor.dispatch(BENCH, first, trace[first : first + EVENTS_PER_FRAME])
        supervisor.workers[0].crash()
        ledger = DeliveryLedger()
        for shard, tool, finding, count in supervisor.findings():
            ledger.offer(tool, finding, count, shard=shard)
        assert supervisor.workers[0].alive  # restarted on drain
        assert supervisor.worker_restarts >= 1
        assert ledger.fingerprints() == baseline


class DoubleDeliveryTransport(LoopbackTransport):
    """Every client frame is delivered twice, back to back."""

    def send(self, data: bytes) -> bytes:
        first = self.connection.handle_bytes(data)
        second = self.connection.handle_bytes(data)
        return first + second


class TestDoubleDelivery:
    def test_every_frame_twice_is_idempotent(self, trace, baseline):
        server, result = stream(
            trace, transport_cls=DoubleDeliveryTransport, n_shards=2
        )
        session = server.sessions[BENCH]
        assert result.fingerprints() == baseline
        # Every EVENT frame's duplicate was counted and dropped, not applied.
        assert session.dup_frames == -(-len(trace) // EVENTS_PER_FRAME)
        assert session.supervisor.events_delivered == len(trace)

    def test_applied_duplicate_reacks_with_cumulative_watermark(self, trace):
        from repro.events.wire import Frame, FrameDecoder, FrameKind, json_payload
        from repro.events.trace_io import event_to_json

        server = AnalysisServer(ServerConfig(n_shards=1))
        payloads = [event_to_json(e) for e in trace[:3]]
        server.handle_frame(Frame(FrameKind.HELLO, 1, 0, json_payload({})))
        for seq, p in enumerate(payloads):
            server.handle_frame(Frame(FrameKind.EVENT, 1, seq, json_payload(p)))
        (reply,) = server.handle_frame(
            Frame(FrameKind.EVENT, 1, 0, json_payload(payloads[0]))
        )
        assert reply.kind is FrameKind.ACK
        assert reply.seq == 2  # cumulative: everything applied, not just 0

    def test_parked_duplicate_gets_nack_not_ack(self, trace):
        # A frame parked in the reorder buffer is NOT durable; re-ACKing
        # it would let the client discard a frame the server could still
        # lose.  The server must renew the NACK for the actual gap.
        from repro.events.wire import Frame, FrameKind, json_payload
        from repro.events.trace_io import event_to_json

        server = AnalysisServer(ServerConfig(n_shards=1))
        payloads = [event_to_json(e) for e in trace[:3]]
        server.handle_frame(Frame(FrameKind.HELLO, 1, 0, json_payload({})))
        # seq 1 arrives before seq 0: parked.
        server.handle_frame(Frame(FrameKind.EVENT, 1, 1, json_payload(payloads[1])))
        (reply,) = server.handle_frame(
            Frame(FrameKind.EVENT, 1, 1, json_payload(payloads[1]))
        )
        assert reply.kind is FrameKind.NACK
        assert reply.seq == 0  # the missing frame, not the parked one


class TestBackpressure:
    def test_overflow_sheds_and_degrades_but_loses_nothing(self, trace, baseline):
        from repro.faults.plan import FaultKind, FaultPlan, PlannedFault

        # Drop the first EVENT frame (send 2) so the next one parks behind
        # the gap; a tiny queue (in events) then overflows and sheds.
        plan = FaultPlan(
            seed=0,
            faults=(PlannedFault(kind=FaultKind.FRAME_DROP, index=2),),
        )
        server = AnalysisServer(ServerConfig(n_shards=2, queue_cap=4))
        transport = LoopbackTransport(server, plan)
        client = ServeClient(transport, client_id=BENCH)
        result = client.stream(trace)
        session = server.sessions[BENCH]
        assert transport.dropped == 1
        assert session.shed_frames > 0
        assert session.degraded
        assert result.markers, "DEGRADED marker must reach the client"
        assert result.fingerprints() == baseline

    def test_fin_with_holes_is_refused(self, trace):
        from repro.events.wire import Frame, FrameKind, json_payload
        from repro.events.trace_io import event_to_json

        server = AnalysisServer(ServerConfig(n_shards=1))
        server.handle_frame(Frame(FrameKind.HELLO, 1, 0, json_payload({})))
        server.handle_frame(
            Frame(FrameKind.EVENT, 1, 0, json_payload(event_to_json(trace[0])))
        )
        (reply,) = server.handle_frame(Frame(FrameKind.FIN, 1, 5))
        assert reply.kind is FrameKind.NACK
        assert not server.sessions[1].finished
