"""Shard workers: crash/replay convergence and trace-driven attribution."""

import pytest

from repro.events.records import (
    AllocationEvent,
    DataOp,
    DataOpKind,
    SyncEvent,
)
from repro.events.variables import VariableIndex
from repro.events.bus import ToolBus
from repro.serve import (
    AnalysisServer,
    ServerConfig,
    ShardWorker,
    Supervisor,
    WorkerCrash,
)


def sync_json(seq: int) -> SyncEvent:
    return SyncEvent(kind="taskwait", source_task=seq, target_task=seq + 1)


def one(seq: int) -> list:
    """A one-event slice."""
    return [(seq, sync_json(seq))]


class TestCrashConvergence:
    """Pre- and post-journal crashes converge to identical state."""

    def test_pre_journal_crash_loses_the_frame(self):
        worker = ShardWorker(0, tools=("arbalest",))
        with pytest.raises(WorkerCrash):
            worker.deliver(1, one(0), crash_phase="pre")
        assert not worker.alive
        assert len(worker.journal) == 0  # the slice died with the worker
        worker.restart()
        assert worker.deliver(1, one(0)) == []  # redelivery is fresh
        assert len(worker.journal) == 1
        assert worker.applied == 1

    def test_post_journal_crash_keeps_the_frame(self):
        worker = ShardWorker(0, tools=("arbalest",))
        with pytest.raises(WorkerCrash):
            worker.deliver(1, one(0), crash_phase="post")
        assert len(worker.journal) == 1  # journaled before the crash
        worker.restart()
        assert worker.replayed_events == 1
        applied = worker.applied
        # Redelivery after a post-journal crash is the idempotent no-op.
        assert worker.deliver(1, one(0)) == []
        assert worker.applied == applied
        assert len(worker.journal) == 1
        assert worker.journal.duplicates_dropped == 1

    def test_both_interleavings_apply_each_frame_exactly_once(self):
        outcomes = []
        for phase in ("pre", "post"):
            worker = ShardWorker(0, tools=("arbalest",))
            worker.deliver(1, one(0))
            with pytest.raises(WorkerCrash):
                worker.deliver(1, one(1) + one(2), crash_phase=phase)
            worker.restart()
            worker.deliver(1, one(1) + one(2))
            worker.deliver(1, one(3))
            outcomes.append(list(worker.journal.replay()))
        assert outcomes[0] == outcomes[1]
        assert [seq for _c, seq, _e in outcomes[0]] == [0, 1, 2, 3]

    def test_delivery_to_dead_worker_raises(self):
        worker = ShardWorker(0)
        worker.crash()
        with pytest.raises(WorkerCrash, match="is down"):
            worker.deliver(1, one(0))

    def test_restart_counts_and_replays(self):
        worker = ShardWorker(0)
        worker.deliver(1, [entry for seq in range(5) for entry in one(seq)])
        worker.crash()
        worker.restart()
        assert worker.restarts == 1
        assert worker.replayed_events == 5

    def test_unknown_tool_rejected(self):
        with pytest.raises(ValueError, match="unknown tool"):
            ShardWorker(0, tools=("gdb",))


class TestApplyFailure:
    """An event the bus rejects costs its own seq; the slice applies."""

    @pytest.fixture(autouse=True)
    def reject_task_1(self, monkeypatch):
        publish = ToolBus.publish_sync

        def publish_sync(bus, event):
            if event.source_task == 1:
                raise ValueError("no such task")
            publish(bus, event)

        monkeypatch.setattr(ToolBus, "publish_sync", publish_sync)

    def test_one_failure_and_the_rest_applied(self):
        worker = ShardWorker(0)
        assert worker.deliver(1, one(0) + one(1) + one(2)) == [
            (1, "ValueError: no such task")
        ]
        assert worker.applied == 2
        assert len(worker.journal) == 3
        assert worker.journal.acked_seq(1) == 2

    def test_post_crash_keeps_the_failure_for_the_server(self):
        worker = ShardWorker(0)
        with pytest.raises(WorkerCrash) as crash:
            worker.deliver(1, one(0) + one(1), crash_phase="post")
        assert crash.value.failures == [(1, "ValueError: no such task")]
        worker.restart()
        assert worker.replay_errors == 1
        assert worker.deliver(1, one(0) + one(1)) == []  # the no-op redelivery
        assert worker.journal.acked_seq(1) == 1

    def test_supervisor_reports_one_error_per_seq(self):
        supervisor = Supervisor(n_shards=3)
        # A sync broadcasts: every shard rejects seq 1, one failure remains.
        supervisor.kill_schedule[2] = "post"  # shard 1 dies after applying
        events = [sync_json(0), sync_json(1), sync_json(2)]
        assert supervisor.dispatch(1, 0, events) == [
            (1, "ValueError: no such task")
        ]
        assert supervisor.events_delivered == 2
        assert supervisor.worker_restarts == 1
        assert all(w.journal.acked_seq(1) == 2 for w in supervisor.workers)

    def test_server_answers_one_error_and_applies_the_frame(self):
        from repro.events.codec import encode_events
        from repro.events.wire import Frame, FrameKind

        server = AnalysisServer(ServerConfig(n_shards=2))
        events = [sync_json(seq) for seq in range(4)]
        replies = server.handle_frame(
            Frame(FrameKind.EVENT, 1, 0, encode_events(events))
        )
        errors = [r.json() for r in replies if r.kind is FrameKind.ERROR]
        assert [(e["seq"], e["error"]) for e in errors] == [
            (1, "undecodable EVENT payload: ValueError: no such task")
        ]
        assert replies[-1].kind is FrameKind.ACK and replies[-1].seq == 3
        assert server.sessions[1].supervisor.events_delivered == 3


class TestForensicRanges:
    """The variable index is fed by the event stream alone."""

    def host_alloc(self, address=0x1000, label="a"):
        return AllocationEvent(
            device_id=0,
            thread_id=0,
            address=address,
            nbytes=64,
            is_free=False,
            label=label,
        )

    def test_host_allocation_registers_its_label(self):
        index = VariableIndex()
        index.observe(self.host_alloc())
        assert index.resolve(0, 0x1000) == "a"
        assert index.resolve(0, 0x103F) == "a"

    def test_device_allocation_label_is_ignored(self):
        # Device allocs are labelled "a(CV)" / "a(image)"; registering
        # them verbatim would split fingerprints against the live path.
        index = VariableIndex()
        index.observe(
            AllocationEvent(
                device_id=1,
                thread_id=0,
                address=0x9000,
                nbytes=64,
                is_free=False,
                label="a(CV)",
            ),
        )
        assert index.resolve(1, 0x9000) == ""

    def test_cv_registers_under_the_ov_name_at_the_alloc_data_op(self):
        index = VariableIndex()
        index.observe(self.host_alloc())
        index.observe(
            DataOp(
                kind=DataOpKind.ALLOC,
                device_id=1,
                thread_id=0,
                ov_address=0x1000,
                cv_address=0x9000,
                nbytes=64,
            ),
        )
        assert index.resolve(1, 0x9000) == "a"

    def test_alloc_data_op_without_known_ov_registers_nothing(self):
        index = VariableIndex()
        index.observe(
            DataOp(
                kind=DataOpKind.ALLOC,
                device_id=1,
                thread_id=0,
                ov_address=0x5000,  # never allocated in this trace
                cv_address=0x9000,
                nbytes=64,
            ),
        )
        assert index.resolve(1, 0x9000) == ""

    def test_free_and_delete_retire_but_still_resolve(self):
        index = VariableIndex()
        index.observe(self.host_alloc())
        index.observe(
            AllocationEvent(
                device_id=0,
                thread_id=0,
                address=0x1000,
                nbytes=64,
                is_free=True,
            ),
        )
        # Retired, not forgotten: use-after-free can still name it.
        assert index.resolve(0, 0x1000) == "a"


class TestSharedIndex:
    def test_shared_index_survives_worker_restart(self):
        index = VariableIndex()
        worker = ShardWorker(0, variables=index)
        worker.deliver(1, [(0, TestForensicRanges().host_alloc())])
        worker.crash()
        worker.restart()
        assert worker.bus.variables is index
        assert index.resolve(0, 0x1000) == "a"

    def test_private_index_is_rebuilt_from_the_journal(self):
        worker = ShardWorker(0)
        worker.deliver(1, [(0, TestForensicRanges().host_alloc())])
        before = worker.bus.variables
        worker.crash()
        worker.restart()
        assert worker.bus.variables is not before
        # Replay re-registered the range into the fresh index.
        assert worker.bus.variables.resolve(0, 0x1000) == "a"

    def test_every_shard_bus_shares_the_supervisor_index(self):
        supervisor = Supervisor(n_shards=3)
        assert all(
            w.bus.variables is supervisor.variables for w in supervisor.workers
        )

    def test_journal_replay_leaves_resolution_unchanged(self):
        from repro.dracc import get
        from repro.harness.serve import record_trace

        # DRACC 025 maps, unmaps and frees three variables, and its
        # underrun names ``a`` through the nearest-range fallback.
        trace = record_trace(get(25))
        supervisor = Supervisor(n_shards=4)
        for seq, event in enumerate(trace):
            supervisor.dispatch(25, seq, [event])
        index = supervisor.variables
        probes = [
            (e.device_id, e.address + offset)
            for e in trace
            if isinstance(e, AllocationEvent) and not e.is_free
            for offset in (-8, 0, e.nbytes - 1, e.nbytes + 8)
        ]
        before = [index.resolve_near(d, a) for d, a in probes]
        size = len(index)
        for worker in supervisor.workers:
            worker.crash()
            worker.restart()
        assert [index.resolve_near(d, a) for d, a in probes] == before
        assert len(index) == size
