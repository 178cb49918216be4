"""Arbalest end-to-end on targeted scenarios: every issue class, the
classification logic, dedup, overflow extension, unified memory."""

import numpy as np
import pytest

from repro.core import Arbalest
from repro.openmp import Schedule, TargetRuntime, alloc, from_, to, tofrom
from repro.tools import FindingKind


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

    def test_strided_overflow_drives_only_its_prefix(self):
        from tests.mapping_reference import MappingReference, mapping_fingerprints

        rt, det = setup()
        reference = MappingReference().attach(rt.machine)
        a = rt.array("a", 16)
        a.fill(1.0)
        # a[0:8] is mapped; the strided read reaches a[14] through the CV.
        rt.target(lambda ctx: ctx["a"].read(slice(0, 16, 2)), maps=[to(a, 0, 8)])
        rt.finalize()
        # The elements past the mapping are an overflow, not reads of
        # device copies that were never made (no UUM on a[8:16]).
        assert kinds(det) == ["BO"]
        assert mapping_fingerprints(det) == mapping_fingerprints(reference)


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


    @pytest.mark.parametrize("batched", [True, False], ids=["batched", "per-access"])
    def test_race_on_a_bulk_access_is_found_in_place(self, batched):
        # Two unordered kernels write disjoint scalars and one shared slice:
        # the only race is the second slice write, a bulk access applied in
        # place (inside a batch of several accesses when batched).
        from tests.per_access import per_access

        rt = TargetRuntime(n_devices=1)
        det = (Arbalest if batched else per_access(Arbalest))().attach(rt.machine)
        a = rt.array("a", 16)
        a.fill(0.0)
        rt.target_enter_data([to(a)])
        for element in (0, 1):

            def k(ctx, element=element):
                A = ctx["a"]
                A.write(element, 1.0)
                A.write(slice(8, 16), np.full(8, 2.0))
                A.write(element + 2, 3.0)

            rt.target(k, nowait=True)
        rt.taskwait()
        rt.finalize()
        (race,) = det.race_findings()
        assert (race.device_id, race.size) == (1, 8)


class TestSiteCheck:
    """A repeated site costs one count: no row, message or finding."""

    @staticmethod
    def _run_counting(number):
        """DRACC ``number`` under a counting ``Finding`` and ``_batch_segment``;
        returns the detector, the findings built, the segments walked and the
        batches that reached the vectorized walk."""
        from unittest import mock

        from repro.core import detector
        from repro.dracc.registry import all_benchmarks

        built, segments, batches = [], [], []
        finding, segment, on_batch = (
            detector.Finding, Arbalest._batch_segment, Arbalest.on_batch
        )

        def counting_finding(*args, **kwargs):
            built.append(kwargs["kind"])
            return finding(*args, **kwargs)

        def counting_segment(self, *args):
            segments.append(args[-3:-1])
            return segment(self, *args)

        def counting_on_batch(self, batch):
            if len(batch) > 1:
                batches.append(len(batch))
            return on_batch(self, batch)

        bench = next(b for b in all_benchmarks() if b.number == number)
        with mock.patch.object(detector, "Finding", counting_finding), \
                mock.patch.object(Arbalest, "_batch_segment", counting_segment), \
                mock.patch.object(Arbalest, "on_batch", counting_on_batch):
            rt = TargetRuntime(n_devices=2)
            det = Arbalest().attach(rt.machine)
            bench.run(rt)
        return det, built, segments, batches

    def test_repeated_uum_builds_one_finding(self):
        det, built, _, _ = self._run_counting(22)
        ((finding, count),) = det.findings_with_counts()
        assert (finding.kind, count) == (FindingKind.UUM, 256)
        assert built == [FindingKind.UUM]

    def test_unmapped_overflows_build_one_finding_and_cut_no_segment(self):
        det, built, segments, batches = self._run_counting(28)
        ((finding, count),) = det.findings_with_counts()
        assert (finding.kind, count) == (FindingKind.BO, 32)
        assert built == [FindingKind.BO]
        # Each write outside every mapping is filed inside the walk.
        assert len(segments) == len(batches)

    def test_mixed_batch_reports_in_per_access_order(self):
        from repro.events.columnar import EventBatch
        from repro.events.records import Access
        from repro.events.source import SourceLocation

        def run(batched):
            rt = TargetRuntime(n_devices=1)
            det = Arbalest().attach(rt.machine)
            a = rt.array("a", 16)
            a.fill(1.0)
            rt.target_enter_data([to(a)])
            a[0] = 5.0  # the host copies of a[0] and a[3] go newer than the CV
            a[3] = 5.0
            rt.machine.bus.flush_batch()
            n_before = len(det.findings)
            (mapping,) = det.mappings.records()
            cv = mapping.cv_base

            def row(tid, offset, is_write, line):
                stack = (SourceLocation("mix.c", line),)
                return Access(1, tid, cv + offset, 8, is_write, stack=stack)

            # Thread 0 did the mapping's transfer; thread 2 is unordered with it.
            rows = [
                row(0, 8, False, 1),      # clean read
                row(0, 4096, True, 2),    # write outside every mapping
                row(0, 0, False, 3),      # stale read
                row(2, 24, False, 4),     # stale and racy read
                row(0, 16, True, 5),      # clean write
                row(2, 16, True, 6),      # racy write
                row(0, 8192, True, 7),    # another write outside every mapping
                row(0, 0, False, 3),      # the stale read's site again
                row(0, 4096, True, 2),    # the first overflow's site again
            ]
            if batched:
                det.on_batch(EventBatch(rows))
            else:
                for one in rows:
                    det.on_batch(EventBatch([one]))
            return [
                (f.kind, f.location.line, f.address - cv, f.thread_id, count)
                for f, count in det.findings_with_counts()[n_before:]
            ], det.bug_reports

        batched, batched_reports = run(True)
        assert batched == [
            (FindingKind.BO, 2, 4096, 0, 2),
            (FindingKind.USD, 3, 0, 0, 2),
            (FindingKind.USD, 4, 24, 2, 1),
            (FindingKind.RACE, 4, 24, 2, 1),
            (FindingKind.RACE, 6, 16, 2, 1),
            (FindingKind.BO, 7, 8192, 0, 1),
        ]
        assert (batched, batched_reports) == run(False)


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

    @pytest.mark.parametrize("batched", [True, False], ids=["batched", "per-access"])
    def test_overflow_past_section_drives_no_host_granule(self, batched):
        from tests.mapping_reference import MappingReference, mapping_fingerprints
        from tests.per_access import per_access

        rt = TargetRuntime(n_devices=1, unified=True)
        tool = Arbalest if batched else per_access(Arbalest)
        det = tool().attach(rt.machine)
        reference = MappingReference().attach(rt.machine)
        a = rt.array("a", 16)
        a.fill(1.0)

        def k(ctx):
            A = ctx["a"]
            A.read(12)  # the CV is a's host storage: a[12] is past a[0:8]
            A.write(12, 5.0)

        rt.target(k, maps=[to(a, 0, 8)])
        _ = a[12]
        rt.finalize()
        # The kernel touched no mapped variable: an overflow, and no VSM
        # transition on a[12]'s host granule (no USD on either read).
        assert kinds(det) == ["BO"]
        assert mapping_fingerprints(det) == mapping_fingerprints(reference)


class TestAccounting:
    def test_shadow_bytes_scale_with_allocations(self):
        rt, det = setup()
        before = det.shadow_bytes()
        rt.array("a", 1000)  # 8000 bytes -> 1000 granules
        assert det.shadow_bytes() > before

    def test_interval_cache_amortizes(self):
        from tests.per_access import per_access

        rt = TargetRuntime(n_devices=1)
        det = per_access(Arbalest)().attach(rt.machine)
        a = rt.array("a", 64)
        a.fill(0.0)
        before = det.mapping_lookup_stats()

        def k(ctx):
            A = ctx["a"]
            for i in range(64):
                _ = A[i]

        rt.target(k, maps=[to(a)])
        hits, misses = det.mapping_lookup_stats()
        # The H2D transfer's race probe descends to a's mapping once; all
        # 64 reads then hit the last-lookup cache.
        assert (hits - before[0], misses - before[1]) == (64, 1)


class TestLookupCacheInvalidation:
    """No lookup serves a freed block or an unmapped record: neither the
    batch snapshot, built per batch, nor the registries' last-lookup caches
    that resolve a batch of one.  Each test runs batched and per access."""

    OV = 1 << 32
    CV = 1 << 33

    @staticmethod
    def buses():
        """(bus, detector) pairs: batched, then batches of one."""
        from repro.events import ToolBus
        from tests.per_access import per_access

        for tool in (Arbalest, per_access(Arbalest)):
            bus = ToolBus()
            det = tool(race_detection=False)
            bus.attach(det)
            yield bus, det

    def allocate(self, bus, label, *, base=OV, free=False):
        from repro.events import AllocationEvent

        bus.publish_allocation(
            AllocationEvent(
                device_id=0, thread_id=0, address=base, nbytes=64,
                is_free=free, label=label,
            )
        )

    def data_op(self, bus, kind, *, ov=OV, cv=CV):
        from repro.events import DataOp

        bus.publish_data_op(
            DataOp(
                kind=kind, device_id=1, thread_id=0,
                ov_address=ov, cv_address=cv, nbytes=64,
            )
        )

    def access(self, bus, device_id, address, is_write, line=1, count=1):
        from repro.events import Access, SourceLocation

        bus.publish_access(
            Access(
                device_id=device_id, thread_id=0, address=address, size=8,
                is_write=is_write, count=count,
                stack=(SourceLocation("t.c", line),),
            )
        )

    def test_reallocate_same_base_yields_fresh_pair(self):
        from repro.events import DataOpKind

        for bus, det in self.buses():
            self.allocate(bus, "a")
            self.access(bus, 0, self.OV, True)
            self.data_op(bus, DataOpKind.ALLOC)
            self.data_op(bus, DataOpKind.H2D)
            self.access(bus, 1, self.CV, False)
            self.data_op(bus, DataOpKind.DELETE)
            self.access(bus, 0, self.OV, False)
            self.allocate(bus, "a", free=True)
            # Same base, new variable: every lookup must see the new pair.
            self.allocate(bus, "b")
            self.access(bus, 0, self.OV, True)
            self.data_op(bus, DataOpKind.ALLOC)
            self.data_op(bus, DataOpKind.H2D)
            self.access(bus, 0, self.OV, True, line=2)  # device copy now stale
            self.access(bus, 1, self.CV, False, line=3)
            bus.flush_batch()
            assert [(f.kind, f.variable, f.location.line) for f in det.findings] == [
                (FindingKind.USD, "b", 3)
            ]

    def test_unmap_and_free_invalidate(self):
        from repro.events import DataOpKind

        for bus, det in self.buses():
            self.allocate(bus, "a")
            self.access(bus, 0, self.OV, True)
            self.data_op(bus, DataOpKind.ALLOC)
            self.access(bus, 1, self.CV, True)
            self.data_op(bus, DataOpKind.DELETE)
            # The mapping is gone: its CV belongs to no variable any more.
            self.access(bus, 1, self.CV, False, line=2)
            self.allocate(bus, "a", free=True)
            # The block is gone: a host read there is no mapping question.
            self.access(bus, 0, self.OV, False, line=3)
            bus.flush_batch()
            assert [(f.kind, f.location.line) for f in det.findings] == [
                (FindingKind.BO, 2)
            ]
            assert det.shadows.find(self.OV) is None

    def test_two_interleaved_mappings_both_resolve(self):
        from repro.events import DataOpKind

        for bus, det in self.buses():
            for k, label in enumerate("ab"):
                self.allocate(bus, label, base=self.OV + 64 * k)
                self.access(bus, 0, self.OV + 64 * k, True, count=8)
                self.data_op(
                    bus, DataOpKind.ALLOC, ov=self.OV + 64 * k, cv=self.CV + 64 * k
                )
                self.data_op(
                    bus, DataOpKind.H2D, ov=self.OV + 64 * k, cv=self.CV + 64 * k
                )
            self.access(bus, 0, self.OV + 64, True)  # b's device copy goes stale
            bus.flush_batch()
            for i in range(8):  # A[i] = A[i] + B[i] on the device
                self.access(bus, 1, self.CV + 8 * i, False)
                self.access(bus, 1, self.CV + 64 + 8 * i, False, line=2)
                self.access(bus, 1, self.CV + 8 * i, True)
            bus.flush_batch()
            assert [(f.variable, f.location.line) for f in det.findings] == [("b", 2)]
            assert det.finding_count(det.findings[0]) == 1  # b[0] only
            # a was written back on the device everywhere, b nowhere.
            assert det.shadows.find(self.OV).states().tolist() == [2] * 8  # TARGET
            assert det.shadows.find(self.OV + 64).states().tolist() == [1] + [3] * 7


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
