"""Shard workers: crash/replay convergence and trace-driven attribution."""

import pytest

from repro.events.records import (
    AllocationEvent,
    DataOp,
    DataOpKind,
    SyncEvent,
)
from repro.events.variables import VariableIndex
from repro.serve import ShardWorker, Supervisor, WorkerCrash


def sync_json(seq: int) -> SyncEvent:
    return SyncEvent(kind="taskwait", source_task=seq, target_task=seq + 1)


class TestCrashConvergence:
    """Pre- and post-journal crashes converge to identical state."""

    def test_pre_journal_crash_loses_the_frame(self):
        worker = ShardWorker(0, tools=("arbalest",))
        with pytest.raises(WorkerCrash):
            worker.deliver(1, 0, sync_json(0), crash_phase="pre")
        assert not worker.alive
        assert len(worker.journal) == 0  # the frame died with the worker
        worker.restart()
        assert worker.deliver(1, 0, sync_json(0))  # redelivery is fresh
        assert len(worker.journal) == 1

    def test_post_journal_crash_keeps_the_frame(self):
        worker = ShardWorker(0, tools=("arbalest",))
        with pytest.raises(WorkerCrash):
            worker.deliver(1, 0, sync_json(0), crash_phase="post")
        assert len(worker.journal) == 1  # journaled before the crash
        worker.restart()
        assert worker.replayed_events == 1
        # Redelivery after a post-journal crash is the idempotent no-op.
        assert not worker.deliver(1, 0, sync_json(0))
        assert len(worker.journal) == 1

    def test_both_interleavings_apply_each_frame_exactly_once(self):
        outcomes = []
        for phase in ("pre", "post"):
            worker = ShardWorker(0, tools=("arbalest",))
            worker.deliver(1, 0, sync_json(0))
            with pytest.raises(WorkerCrash):
                worker.deliver(1, 1, sync_json(1), crash_phase=phase)
            worker.restart()
            worker.deliver(1, 1, sync_json(1))
            worker.deliver(1, 2, sync_json(2))
            outcomes.append(list(worker.journal.replay()))
        assert outcomes[0] == outcomes[1]
        assert [seq for _c, seq, _e in outcomes[0]] == [0, 1, 2]

    def test_delivery_to_dead_worker_raises(self):
        worker = ShardWorker(0)
        worker.crash()
        with pytest.raises(WorkerCrash, match="is down"):
            worker.deliver(1, 0, sync_json(0))

    def test_restart_counts_and_replays(self):
        worker = ShardWorker(0)
        for seq in range(5):
            worker.deliver(1, seq, sync_json(seq))
        worker.crash()
        worker.restart()
        assert worker.restarts == 1
        assert worker.replayed_events == 5

    def test_unknown_tool_rejected(self):
        with pytest.raises(ValueError, match="unknown tool"):
            ShardWorker(0, tools=("gdb",))


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
        worker.deliver(1, 0, TestForensicRanges().host_alloc())
        worker.crash()
        worker.restart()
        assert worker.bus.variables is index
        assert index.resolve(0, 0x1000) == "a"

    def test_private_index_is_rebuilt_from_the_journal(self):
        worker = ShardWorker(0)
        worker.deliver(1, 0, TestForensicRanges().host_alloc())
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
            supervisor.dispatch(25, seq, event)
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
