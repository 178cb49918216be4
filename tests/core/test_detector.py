"""Arbalest end-to-end on targeted scenarios: every issue class, the
classification logic, dedup, overflow extension, unified memory."""

import numpy as np
import pytest

from repro.core import Arbalest
from repro.openmp import Schedule, TargetRuntime, alloc, from_, to, tofrom
from repro.tools import FindingKind
from tests.per_access import per_access


def setup(**kw):
    rt = TargetRuntime(n_devices=kw.pop("n_devices", 1), **kw)
    det = Arbalest().attach(rt.machine)
    return rt, det


def kinds(det):
    return sorted({f.kind.name for f in det.mapping_issue_findings()})


class TestUUM:
    def test_alloc_instead_of_to(self):
        rt, det = setup()
        b = rt.array("b", 16)
        b.fill(2.0)
        r = rt.array("r", 16)
        r.fill(0.0)

        def k(ctx):
            B, R = ctx["b"], ctx["r"]
            for i in range(16):
                R[i] = B[i]

        rt.target(k, maps=[alloc(b), tofrom(r)])
        rt.finalize()
        assert kinds(det) == ["UUM"]
        f = det.mapping_issue_findings()[0]
        assert f.variable == "b"
        assert f.device_id == 1

    def test_from_map_reads_fresh_cv(self):
        rt, det = setup()
        a = rt.array("a", 8)
        a.fill(1.0)
        got = []
        rt.target(lambda ctx: got.append(ctx["a"][3]), maps=[from_(a)])
        rt.finalize()
        assert kinds(det) == ["UUM"]

    def test_host_read_of_never_written_heap(self):
        rt, det = setup()
        a = rt.array("a", 8)
        _ = a[0]
        rt.finalize()
        assert kinds(det) == ["UUM"]

    def test_global_initialized_via_init_kw_still_invalid(self):
        # `storage='global'` zero-fill is NOT explicit initialization.
        rt, det = setup()
        g = rt.array("g", 8, storage="global")
        _ = g[0]
        rt.machine.bus.flush_batch()
        assert kinds(det) == ["UUM"]


class TestUSD:
    def test_map_to_misses_kernel_update(self):
        rt, det = setup()
        a = rt.array("a", 4)
        a.fill(1.0)
        rt.target(lambda ctx: ctx["a"].fill(2.0), maps=[to(a)])
        _ = a[0]
        rt.finalize()
        assert kinds(det) == ["USD"]

    def test_missing_update_to_before_second_kernel(self):
        rt, det = setup()
        a = rt.array("a", 4)
        a.fill(1.0)
        got = []
        with rt.target_data([tofrom(a)]):
            a.fill(5.0)  # host write after entry: CV is now stale
            rt.target(lambda ctx: got.append(ctx["a"][0]))
        rt.finalize()
        assert kinds(det) == ["USD"]
        assert got == [1.0]  # kernel really saw the stale value

    def test_update_wrong_direction(self):
        rt, det = setup()
        a = rt.array("a", 4)
        a.fill(1.0)
        with rt.target_data([tofrom(a)]):
            rt.target(lambda ctx: ctx["a"].fill(2.0))
            # Should be from_=[a]: the wrong direction overwrites the
            # kernel's result with the stale host copy, destroying the
            # latest write — neither side holds it now (VSM: invalid).
            rt.target_update(to=[a])
        _ = a[0]
        rt.finalize()
        assert kinds(det) == ["USD"]

    def test_d2h_of_garbage_cv_then_host_read_is_uum(self):
        rt, det = setup()
        a = rt.array("a", 4)
        a.fill(1.0)
        with rt.target_data([from_(a)]):
            pass  # kernel never ran: exit copies garbage CV over OV
        _ = a[0]
        rt.finalize()
        assert kinds(det) == ["UUM"]


class TestBufferOverflow:
    def test_partial_section_overflow(self):
        rt, det = setup()
        a = rt.array("a", 32)
        a.fill(1.0)
        s = rt.array("s", 32)
        s.fill(0.0)

        def k(ctx):
            A, S = ctx["a"], ctx["s"]
            for i in range(32):
                S[i] = A[i]  # a mapped only [0:16)

        rt.target(k, maps=[to(a, 0, 16), tofrom(s)])
        rt.finalize()
        assert "BO" in kinds(det)
        bo = [f for f in det.findings if f.kind is FindingKind.BO][0]
        assert bo.variable in ("a", "")

    def test_wholly_unmapped_device_address(self):
        rt, det = setup()
        a = rt.array("a", 8)
        a.fill(0.0)

        def k(ctx):
            A = ctx["a"]
            _ = A[100000]  # way outside every mapping

        rt.target(k, maps=[to(a)])
        rt.finalize()
        assert "BO" in kinds(det)

    def test_in_bounds_prefix_still_tracked(self):
        rt, det = setup()
        a = rt.array("a", 8)
        a.fill(1.0)

        def k(ctx):
            A = ctx["a"]
            for i in range(12):  # 8 in-bounds + 4 overflow (C-style loop;
                A[i] = 7.0       # slices clip like Python, scalars do not)

        rt.target(k, maps=[tofrom(a)])
        _ = a[0]
        rt.finalize()
        # Overflow reported; no USD (copy-back made things consistent).
        assert kinds(det) == ["BO"]
        assert a.peek()[0] == 7.0


class TestCleanPrograms:
    def test_tofrom_roundtrip(self):
        rt, det = setup()
        a = rt.array("a", 64)
        a.fill(1.0)
        rt.target(lambda ctx: ctx["a"].fill(2.0), maps=[tofrom(a)])
        assert a[0] == 2.0
        rt.finalize()
        assert det.mapping_issue_findings() == []

    def test_enter_exit_update_pipeline(self):
        rt, det = setup()
        a = rt.array("a", 16)
        a.fill(1.0)
        rt.target_enter_data([to(a)])
        for _ in range(3):
            rt.target(lambda ctx: ctx["a"].fill(ctx["a"][0] + 1))
        rt.target_update(from_=[a])
        assert a[0] == 4.0
        rt.target_exit_data([from_(a)])
        rt.finalize()
        assert det.mapping_issue_findings() == []

    def test_partial_sections_clean(self):
        rt, det = setup()
        a = rt.array("a", 32)
        a.fill(3.0)

        def k(ctx):
            A = ctx["a"]
            for i in range(8, 16):
                A[i] = A[i] * 2

        rt.target(k, maps=[tofrom(a, 8, 8)])
        _ = a[8:16]
        rt.finalize()
        assert det.mapping_issue_findings() == []


class TestClassification:
    def test_one_report_per_site(self):
        rt, det = setup()
        a = rt.array("a", 4)
        a.fill(1.0)
        rt.target(lambda ctx: ctx["a"].fill(2.0), maps=[to(a)])
        for _ in range(10):
            _ = a[0]  # same site, read in a loop
        rt.finalize()
        assert len(det.mapping_issue_findings()) == 1

    def test_bug_report_contains_block_and_mapping(self):
        rt, det = setup()
        a = rt.array("a", 4)
        a.fill(1.0)
        rt.target(lambda ctx: ctx["a"].fill(2.0), maps=[to(a)])
        with rt.at("main.c", 145, 5):
            _ = a[0]
        rt.finalize()
        assert len(det.bug_reports) == 1
        text = det.bug_reports[0].render(pid=104822)
        assert "stale access" in text
        assert "main.c:145" in text
        assert "heap block" in text
        assert "pid=104822" in text

    def test_race_findings_separate_from_mapping(self):
        rt, det = setup()
        a = rt.array("a", 4)
        a.fill(0.0)

        def k(ctx):
            ctx["a"].write(0, 1.0)

        rt.target(k, maps=[tofrom(a)], nowait=True)
        a.write(1, 2.0)  # different granule: no race
        a.write(0, 3.0)  # same granule as kernel write: race via transfer
        rt.taskwait()
        rt.finalize()
        assert det.race_findings()  # the paper's Fig-3 conflict family
        # Race findings don't pollute the mapping-issue precision count.
        assert all(
            f.kind is not FindingKind.RACE for f in det.mapping_issue_findings()
        )


class TestUnifiedMemory:
    def test_clean_unified_program(self):
        rt, det = setup(unified=True)
        a = rt.array("a", 8)
        a.fill(1.0)
        rt.target(lambda ctx: ctx["a"].fill(2.0), maps=[tofrom(a)])
        assert a[0] == 2.0
        rt.finalize()
        assert det.mapping_issue_findings() == []

    def test_usd_impossible_under_unified_drf(self):
        # The to-instead-of-tofrom bug is NOT an issue under unified memory:
        # there is only one storage (§III.B).
        rt, det = setup(unified=True)
        a = rt.array("a", 4)
        a.fill(1.0)
        rt.target(lambda ctx: ctx["a"].fill(2.0), maps=[to(a)])
        assert a[0] == 2.0  # update visible!
        rt.finalize()
        assert det.mapping_issue_findings() == []

    def test_uninit_read_still_caught_under_unified(self):
        rt, det = setup(unified=True)
        a = rt.array("a", 4)
        got = []
        rt.target(lambda ctx: got.append(ctx["a"][0]), maps=[to(a)])
        rt.finalize()
        assert kinds(det) == ["UUM"]

    def test_race_on_unified_still_caught(self):
        rt, det = setup(unified=True)
        a = rt.array("a", 1)
        a.fill(0.0)
        rt.target(lambda ctx: ctx["a"].write(0, 1.0), maps=[tofrom(a)], nowait=True)
        a.write(0, 2.0)  # concurrent host write, same storage: race
        rt.taskwait()
        rt.finalize()
        assert det.race_findings()


class TestAccounting:
    def test_shadow_bytes_scale_with_allocations(self):
        rt, det = setup()
        before = det.shadow_bytes()
        rt.array("a", 1000)  # 8000 bytes -> 1000 granules
        assert det.shadow_bytes() > before

    def test_interval_cache_amortizes(self):
        # Per-access delivery: the batch path resolves mappings per
        # segment and would not exercise the per-access lookup cache.
        rt = TargetRuntime(n_devices=1)
        det = per_access(Arbalest)().attach(rt.machine)
        a = rt.array("a", 64)
        a.fill(0.0)

        def k(ctx):
            A = ctx["a"]
            for i in range(64):
                _ = A[i]

        rt.target(k, maps=[to(a)])
        hits, misses = det.mapping_lookup_stats()
        assert hits > 10 * misses


class TestLookupCacheInvalidation:
    """The (block, record) last-lookup caches must never serve stale pairs."""

    OV = 1 << 32
    CV = 1 << 33

    def detector(self):
        from repro.core import Arbalest

        return Arbalest(race_detection=False)

    def alloc(self, det):
        from repro.events import AllocationEvent

        det.on_allocation(
            AllocationEvent(
                device_id=0, thread_id=0, address=self.OV, nbytes=64,
                is_free=False, label="a",
            )
        )

    def free(self, det):
        from repro.events import AllocationEvent

        det.on_allocation(
            AllocationEvent(
                device_id=0, thread_id=0, address=self.OV, nbytes=64,
                is_free=True,
            )
        )

    def map_(self, det):
        from repro.events import DataOp, DataOpKind

        det.on_data_op(
            DataOp(
                kind=DataOpKind.ALLOC, device_id=1, thread_id=0,
                ov_address=self.OV, cv_address=self.CV, nbytes=64,
            )
        )

    def unmap(self, det):
        from repro.events import DataOp, DataOpKind

        det.on_data_op(
            DataOp(
                kind=DataOpKind.DELETE, device_id=1, thread_id=0,
                ov_address=self.OV, cv_address=self.CV, nbytes=64,
            )
        )

    def touch(self, det):
        from repro.events import Access

        det.on_access(
            Access(device_id=0, thread_id=0, address=self.OV, size=8, is_write=True)
        )
        det.on_access(
            Access(device_id=1, thread_id=0, address=self.CV, size=8, is_write=True)
        )

    def test_accesses_prime_both_caches(self):
        det = self.detector()
        self.alloc(det)
        self.map_(det)
        block = det.shadows.find(self.OV)
        rec = det.mappings.find(self.CV)
        self.touch(det)
        assert det._lookup_host is not None and det._lookup_host[2] is block
        assert det._lookup_device is not None and det._lookup_device[3] is rec

    def test_unmap_and_free_invalidate(self):
        det = self.detector()
        self.alloc(det)
        self.map_(det)
        self.touch(det)
        self.unmap(det)
        assert det._lookup_host is None and det._lookup_device is None
        self.touch(det)  # re-primes the host cache (mapping gone)
        self.free(det)
        assert det._lookup_host is None and det._lookup_device is None

    def test_reallocate_same_base_yields_fresh_pair(self):
        # allocate -> map -> access -> unmap/free -> reallocate at the SAME
        # base -> access: the caches must resolve to the fresh block and
        # record, not the freed ones.
        det = self.detector()
        self.alloc(det)
        self.map_(det)
        block1 = det.shadows.find(self.OV)
        rec1 = det.mappings.find(self.CV)
        self.touch(det)
        self.unmap(det)
        self.free(det)
        self.alloc(det)
        self.map_(det)
        self.touch(det)
        block2 = det.shadows.find(self.OV)
        rec2 = det.mappings.find(self.CV)
        assert block2 is not block1 and rec2 is not rec1
        assert det._lookup_host[2] is block2
        assert det._lookup_device[2] is block2
        assert det._lookup_device[3] is rec2


    def test_two_alternating_mappings_both_stay_cached(self):
        from repro.events import Access, AllocationEvent, DataOp, DataOpKind

        det = self.detector()
        for k in range(2):
            det.on_allocation(
                AllocationEvent(
                    device_id=0, thread_id=0, address=self.OV + 64 * k,
                    nbytes=64, is_free=False, label=f"v{k}",
                )
            )
            det.on_data_op(
                DataOp(
                    kind=DataOpKind.ALLOC, device_id=1, thread_id=0,
                    ov_address=self.OV + 64 * k, cv_address=self.CV + 64 * k,
                    nbytes=64,
                )
            )
        for i in range(8):  # A[i] = A[i] + B[i] on the device
            for k, is_write in ((0, False), (1, False), (0, True)):
                det.on_access(
                    Access(
                        device_id=1, thread_id=0,
                        address=self.CV + 64 * k + 8 * i, size=8,
                        is_write=is_write,
                    )
                )
        hits, misses = det.mapping_lookup_stats()
        assert (hits, misses) == (22, 2)  # only each array's first touch misses
        assert det._lookup_device[3] is det.mappings.find(self.CV)
        assert det._lookup_device_prev[3] is det.mappings.find(self.CV + 64)
        self.unmap(det)
        assert det._lookup_device is None and det._lookup_device_prev is None


class TestDoubleDelete:
    OV = 1 << 32
    CV = 1 << 33

    def test_double_delete_reports_bad_free(self):
        from repro.core import Arbalest
        from repro.events import AllocationEvent, DataOp, DataOpKind

        det = Arbalest(race_detection=False)
        det.on_allocation(
            AllocationEvent(
                device_id=0, thread_id=0, address=self.OV, nbytes=64, is_free=False
            )
        )
        delete = DataOp(
            kind=DataOpKind.DELETE, device_id=1, thread_id=0,
            ov_address=self.OV, cv_address=self.CV, nbytes=64,
        )
        det.on_data_op(
            DataOp(
                kind=DataOpKind.ALLOC, device_id=1, thread_id=0,
                ov_address=self.OV, cv_address=self.CV, nbytes=64,
            )
        )
        det.on_data_op(delete)
        assert not [f for f in det.findings if f.kind == FindingKind.BAD_FREE]
        det.on_data_op(delete)  # double delete: reported, not a crash
        bad = [f for f in det.findings if f.kind == FindingKind.BAD_FREE]
        assert len(bad) == 1
        assert bad[0].address == self.CV

    def test_delete_of_never_mapped_cv_reports_bad_free(self):
        from repro.core import Arbalest
        from repro.events import DataOp, DataOpKind

        det = Arbalest(race_detection=False)
        det.on_data_op(
            DataOp(
                kind=DataOpKind.DELETE, device_id=1, thread_id=0,
                ov_address=self.OV, cv_address=self.CV, nbytes=64,
            )
        )
        assert [f for f in det.findings if f.kind == FindingKind.BAD_FREE]
