"""Archer model: FastTrack race detection over logical threads."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.clocks import VectorClock
from repro.events import Access
from repro.events.columnar import BatchColumns
from repro.openmp import Schedule, TargetRuntime, to, tofrom
from repro.tools import ArcherTool, FindingKind, RaceEngine
from tests.race_rows import check_row, vectorized


def setup(**kw):
    rt = TargetRuntime(n_devices=1, **kw)
    archer = ArcherTool().attach(rt.machine)
    return rt, archer


class TestEngineDirect:
    """Drive the engine without a runtime: precise HB scenarios."""

    BASE = 1 << 40

    def engine(self):
        e = RaceEngine()
        e.track(0, self.BASE, 64)
        return e

    def test_sequential_same_thread_no_race(self):
        e = self.engine()
        assert not check_row(e, 0, 1, self.BASE, 8, True)
        assert not check_row(e, 0, 1, self.BASE, 8, True)
        assert not check_row(e, 0, 1, self.BASE, 8, False)

    def test_unordered_write_write_races(self):
        e = self.engine()
        check_row(e, 0, 1, self.BASE, 8, True)
        assert check_row(e, 0, 2, self.BASE, 8, True)

    def test_fork_orders_parent_before_child(self):
        e = self.engine()
        check_row(e, 0, 0, self.BASE, 8, True)  # parent write
        e.handle_sync("fork", 0, 1)
        assert not check_row(e, 0, 1, self.BASE, 8, True)  # child after fork

    def test_join_orders_child_before_parent(self):
        e = self.engine()
        e.handle_sync("fork", 0, 1)
        check_row(e, 0, 1, self.BASE, 8, True)
        e.handle_sync("join", 1, 0)
        assert not check_row(e, 0, 0, self.BASE, 8, True)

    def test_unjoined_child_races_with_parent(self):
        e = self.engine()
        e.handle_sync("fork", 0, 1)
        check_row(e, 0, 1, self.BASE, 8, True)
        assert check_row(e, 0, 0, self.BASE, 8, True)  # no join: race

    def test_read_read_never_races(self):
        e = self.engine()
        check_row(e, 0, 1, self.BASE, 8, False)
        assert not check_row(e, 0, 2, self.BASE, 8, False)

    def test_concurrent_read_then_ordered_write_still_races_with_other_reader(self):
        # The FastTrack read-share case: two concurrent readers; a write
        # ordered after only one of them must still race.
        e = self.engine()
        e.handle_sync("fork", 0, 1)
        e.handle_sync("fork", 0, 2)
        check_row(e, 0, 1, self.BASE, 8, False)
        check_row(e, 0, 2, self.BASE, 8, False)
        e.handle_sync("join", 2, 0)  # thread 0 now ordered after reader 2 only
        assert check_row(e, 0, 0, self.BASE, 8, True)  # races with reader 1

    def test_ordered_read_of_a_shared_granule_stays_in_its_read_vector(self):
        # R0, R1, sync 1->2, R2, R3, sync 0->3, sync 1->3, W3: R0 and R1
        # share the granule, R2 is ordered after R1 only and R3 is
        # concurrent with R2.  The write is ordered after R0, R1 and R3 but
        # not after R2, so it races, whether delivered one access at a
        # time or as sync-free runs.
        runs = [[(0, False), (1, False)], [(2, False), (3, False)], [(3, True)]]
        syncs_after = [[(1, 2)], [(0, 3), (1, 3)], []]
        for batched in (False, True):
            e = self.engine()
            for run, syncs in zip(runs, syncs_after):
                if batched:
                    with vectorized():
                        rows = [Access(0, tid, self.BASE, 8, w) for tid, w in run]
                        e.check_batch(BatchColumns(rows))
                else:
                    for tid, write in run:
                        check_row(e, 0, tid, self.BASE, 8, write)
                for source, target in syncs:
                    e.handle_sync("edge", source, target)
            assert e.races == [
                {"device_id": 0, "address": self.BASE, "tid": 3, "is_write": True}
            ], f"batched={batched}"

    def test_write_after_all_readers_joined_is_clean(self):
        e = self.engine()
        e.handle_sync("fork", 0, 1)
        e.handle_sync("fork", 0, 2)
        check_row(e, 0, 1, self.BASE, 8, False)
        check_row(e, 0, 2, self.BASE, 8, False)
        e.handle_sync("join", 1, 0)
        e.handle_sync("join", 2, 0)
        assert not check_row(e, 0, 0, self.BASE, 8, True)

    def test_distinct_granules_never_interact(self):
        e = self.engine()
        check_row(e, 0, 1, self.BASE, 8, True)
        assert not check_row(e, 0, 2, self.BASE + 8, 8, True)

    def test_range_race_reports_all_racing_granules(self):
        e = self.engine()
        check_row(e, 0, 1, self.BASE, 32, True)
        racy = check_row(e, 0, 2, self.BASE, 64, True)
        assert len(racy) == 4  # only the 4 overlapping granules

    def test_untracked_memory_ignored(self):
        e = self.engine()
        assert check_row(e, 0, 1, 12345, 8, True) == []

    def test_same_epoch_repeat_accesses_stay_clean(self):
        # The FastTrack same-epoch shortcut: repeated accesses by a thread
        # whose clock has not moved must keep returning "no race" and must
        # not perturb later verdicts.
        e = self.engine()
        for _ in range(5):
            assert not check_row(e, 0, 1, self.BASE, 64, True)
        for _ in range(5):
            assert not check_row(e, 0, 1, self.BASE, 64, False)
        # An unordered second thread still races after all the repeats.
        assert check_row(e, 0, 2, self.BASE, 8, True)

    def test_same_epoch_shortcut_does_not_hide_other_thread_race(self):
        # t1 writes, t2 races (recorded), then t1 writes again at its old
        # epoch: the shortcut must not fire for t1 (t2's epoch is stored
        # now), and the t1-vs-t2 race must be reported.
        e = self.engine()
        check_row(e, 0, 1, self.BASE, 8, True)
        assert check_row(e, 0, 2, self.BASE, 8, True)
        assert check_row(e, 0, 1, self.BASE, 8, True)

    def test_same_epoch_write_is_a_noop_on_every_path(self):
        # Readers 2 and 3 race with thread 1's writes and leave both
        # granules read-shared; thread 1's repeated writes (no sync, so
        # its epoch has not moved) are same-epoch no-ops.  Batched and
        # range deliveries must apply that rule as the one-granule path
        # does, read-shared granules or not.
        seq = [
            (1, 0, True), (1, 1, True), (2, 0, False), (2, 1, False),
            (3, 0, False), (3, 1, False), (1, 0, True), (1, 1, True),
        ]
        e = self.engine()
        per_access = [
            i
            for i, (tid, g, write) in enumerate(seq)
            if check_row(e, 0, tid, self.BASE + 8 * g, 8, write)
        ]
        assert per_access == [2, 3, 4, 5]
        e = self.engine()
        with vectorized():
            rows = [Access(0, tid, self.BASE + 8 * g, 8, w) for tid, g, w in seq]
            batched = e.check_batch(BatchColumns(rows))
        assert batched == per_access
        # The same sequence as two-granule ranges.
        e = self.engine()
        spans = [(1, True), (2, False), (3, False), (1, True)]
        assert [
            i
            for i, (tid, write) in enumerate(spans)
            if check_row(e, 0, tid, self.BASE, 16, write)
        ] == [1, 2]

    def test_shadow_bytes_are_the_bytes_the_arrays_hold(self):
        # Three concurrent readers leave all eight granules read-shared:
        # the count must include the read-share matrix and its row index,
        # not a flat charge per shared granule.
        e = self.engine()
        for tid in (1, 2, 3):
            e.handle_sync("fork", 0, tid)
        for tid in (1, 2, 3):
            check_row(e, 0, tid, self.BASE, 64, False)
        (block,) = e._blocks.values()
        assert block.n_shared == 8
        held = sum(
            value.nbytes
            for value in (getattr(block, name) for name in block.__slots__)
            if isinstance(value, np.ndarray)
        )
        assert e.shadow_bytes == block.shadow_nbytes == held
        assert held > block.write.nbytes + block.read.nbytes + 16 * 8


# -- strided accesses: vectorized path ≡ per-element reference ---------------

BASE = 1 << 40


def _racy_addresses(races: list[dict]) -> set[int]:
    return {race["address"] for race in races}


def _per_element_reference(engine: RaceEngine, access: Access) -> set[int]:
    racy: set[int] = set()
    for addr in access.element_addresses().tolist():
        racy |= _racy_addresses(
            check_row(
                engine, access.device_id, access.thread_id, addr, access.size,
                access.is_write,
            )
        )
    return racy


access_steps = st.lists(
    st.tuples(
        st.integers(0, 2),            # thread id
        st.integers(0, 6),            # element index offset
        st.integers(1, 5),            # count
        st.sampled_from([8, 16, 24]), # stride
        st.booleans(),                # is_write
        st.booleans(),                # sync with thread 0 first
    ),
    min_size=1,
    max_size=12,
)


@settings(max_examples=200, deadline=None)
@given(access_steps)
def test_strided_row_equals_per_element(steps):
    """A strided row ≡ its elements checked one row at a time.

    Two engines receive the same interleaving of syncs and accesses; one
    checks each access as one strided row, the other as one row per
    element.  The *cumulative* racy granule
    set must agree after every step — per-call returns may differ only in
    duplicates, because the same-epoch shortcut suppresses re-reporting a
    race the previous same-epoch access already reported.
    """
    fast = RaceEngine()
    slow = RaceEngine()
    for e in (fast, slow):
        e.track(0, BASE, 128)
    got_ever: set[int] = set()
    want_ever: set[int] = set()
    for tid, off, count, stride, is_write, sync in steps:
        if sync and tid != 0:
            fast.handle_sync("fork", 0, tid)
            slow.handle_sync("fork", 0, tid)
        access = Access(
            device_id=0,
            thread_id=tid,
            address=BASE + off * 8,
            size=8,
            is_write=is_write,
            count=count,
            stride=stride,
        )
        got = _racy_addresses(check_row(fast, *access[:7]))
        want = _per_element_reference(slow, access)
        assert got - got_ever == want - want_ever, (access, got, want)
        got_ever |= got
        want_ever |= want
    assert got_ever == want_ever


class TestArcherOnRuntime:
    def test_synchronous_kernels_race_free(self):
        rt, archer = setup()
        a = rt.array("a", 16, init=[0.0] * 16)
        for _ in range(3):
            rt.target(lambda ctx: ctx["a"].fill(1.0), maps=[tofrom(a)])
        a.fill(2.0)
        rt.finalize()
        assert not archer.race_findings()

    def test_nowait_vs_host_write_races(self):
        rt, archer = setup()
        a = rt.array("a", 4, init=[0.0] * 4)
        with rt.target_data([tofrom(a)]):
            rt.target(lambda ctx: ctx["a"].write(0, 3.0), nowait=True)
            a.write(0, a.read(0) + 1)  # Fig 2: unsynchronized
        rt.finalize()
        assert archer.race_findings()

    def test_taskwait_before_host_access_is_clean(self):
        rt, archer = setup()
        a = rt.array("a", 4, init=[0.0] * 4)
        with rt.target_data([tofrom(a)]):
            rt.target(lambda ctx: ctx["a"].write(0, 3.0), nowait=True)
            rt.taskwait()
            a.write(0, a.read(0) + 1)
        rt.finalize()
        assert not archer.race_findings()

    def test_depend_chain_is_clean(self):
        rt, archer = setup()
        a = rt.array("a", 4, init=[0.0] * 4)
        rt.target_enter_data([to(a)])
        rt.target(lambda ctx: ctx["a"].fill(1.0), nowait=True, depend_out=[a])
        rt.target(lambda ctx: ctx["a"].fill(ctx["a"][0] + 1), nowait=True, depend_in=[a], depend_out=[a])
        rt.finalize()
        assert not archer.race_findings()

    def test_independent_nowait_kernels_on_same_array_race(self):
        rt, archer = setup()
        a = rt.array("a", 4, init=[0.0] * 4)
        rt.target_enter_data([to(a)])
        rt.target(lambda ctx: ctx["a"].fill(1.0), nowait=True)
        rt.target(lambda ctx: ctx["a"].fill(2.0), nowait=True)  # no depend!
        rt.finalize()
        assert archer.race_findings()

    def test_intra_kernel_parallel_race(self):
        rt, archer = setup()
        a = rt.array("a", 1, init=[0.0])

        def k(ctx):
            A = ctx["a"]
            # Every iteration writes element 0 without synchronization.
            ctx.parallel_for(8, lambda i: A.write(0, float(i)), num_threads=4)

        rt.target(k, maps=[tofrom(a)])
        rt.finalize()
        assert archer.race_findings()

    def test_intra_kernel_disjoint_writes_clean(self):
        rt, archer = setup()
        a = rt.array("a", 16, init=[0.0] * 16)

        def k(ctx):
            A = ctx["a"]
            ctx.parallel_for(16, lambda i: A.write(i, float(i)), num_threads=4)

        rt.target(k, maps=[tofrom(a)])
        rt.finalize()
        assert not archer.race_findings()

    def test_races_are_schedule_invariant(self):
        def program(schedule):
            rt = TargetRuntime(n_devices=1, schedule=schedule)
            archer = ArcherTool().attach(rt.machine)
            a = rt.array("a", 4, init=[0.0] * 4)
            with rt.target_data([tofrom(a)]):
                rt.target(lambda ctx: ctx["a"].write(0, 3.0), nowait=True)
                a.write(0, a.read(0) + 1)
            rt.finalize()
            return bool(archer.race_findings())

        assert program(Schedule.EAGER)
        assert program(Schedule.DEFER_KERNEL_FIRST)
        assert program(Schedule.DEFER_HOST_FIRST)

    def test_archer_reports_no_mapping_issues(self):
        # Table III row: Archer scores 0/16 — it reports races, never
        # UUM/USD/BO.
        rt, archer = setup()
        a = rt.array("a", 8, init=[1.0] * 8)
        rt.target(lambda ctx: ctx["a"].fill(2.0), maps=[to(a)])  # USD bug
        _ = a[0]
        rt.finalize()
        assert archer.mapping_issue_findings() == []
