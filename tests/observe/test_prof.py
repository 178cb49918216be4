"""The continuous profiler: determinism, batch-size equivalence, governor, tax."""

import random
import tracemalloc

import pytest

from repro.core.detector import Arbalest
from repro.events.columnar import EventBatch, decode_rows, lane_code
from repro.events.records import Access
from repro.events.source import SourceLocation
from repro.observe.flame import parse_folded, render_flamegraph
from repro.observe.prof import DEFAULT_STRIDE, Governor, Profiler
from repro.openmp import TargetRuntime
from repro.specaccel import WORKLOADS
from tests.per_access import per_access


def _site(fn, line):
    return (SourceLocation(file="prog.c", line=line, function=fn),)


def _access(count=1, line=1, fn="main"):
    return Access(
        device_id=0,
        thread_id=0,
        address=0x1000,
        size=8,
        is_write=False,
        count=count,
        stack=_site(fn, line),
    )


class _NamedTool:
    name = "arbalest"


TOOLS = (_NamedTool(),)


class TestOrdinalClock:
    def test_samples_fire_on_element_ordinals(self):
        p = Profiler(stride=10)
        for _ in range(25):
            p.batch_events([_access()], TOOLS)
        assert p.events == 25
        assert p.samples == 2  # ordinals 10 and 20

    def test_bulk_access_advances_by_count(self):
        p = Profiler(stride=10)
        p.batch_events([_access(count=25)], TOOLS)
        assert p.events == 25
        assert p.samples == 1
        # The sample stands for all 25 elements, not just the stride.
        assert sum(p._weights.values()) == 25

    def test_batch_matches_scalar_countdown_exactly(self):
        """The batch walk must pick the same accesses, with the same
        weights, as a per-access countdown (batches of one) — including odd
        batch boundaries and bulk counts."""
        import random

        rng = random.Random(42)
        accesses = [
            _access(count=rng.choice((1, 1, 1, 3, 7, 50)), line=rng.randrange(9))
            for _ in range(400)
        ]
        single = Profiler(stride=17)
        for a in accesses:
            single.batch_events([a], TOOLS)
        batched = Profiler(stride=17)
        i = 0
        while i < len(accesses):
            n = rng.randrange(1, 13)
            batched.batch_events(accesses[i : i + n], TOOLS)
            i += n
        assert batched.events == single.events
        assert batched.samples == single.samples
        assert batched.folded() == single.folded()

    def test_empty_batch_is_a_no_op(self):
        p = Profiler(stride=4)
        p.batch_events([], TOOLS)
        assert p.events == 0 and p.samples == 0

    def test_stride_must_be_positive(self):
        with pytest.raises(ValueError):
            Profiler(stride=0)


class TestDeterminism:
    def _run_suite(self, per_access_delivery=False):
        tool_cls = per_access(Arbalest) if per_access_delivery else Arbalest
        folded = []
        for w in WORKLOADS:
            rt = TargetRuntime(n_devices=1)
            tool_cls().attach(rt.machine)
            p = Profiler(stride=512)
            p.set_context(benchmark=w.name)
            rt.machine.bus.profiler = p
            w.run(rt, "test")
            rt.finalize()
            folded.append(p.folded())
        return "".join(folded)

    def test_folded_stacks_byte_identical_across_runs(self):
        """Fixed-stride mode: two identical runs, identical bytes."""
        assert self._run_suite() == self._run_suite()

    def test_folded_stacks_byte_identical_across_engines(self):
        """Per-access and batched delivery sample the same ordinals."""
        assert self._run_suite(per_access_delivery=True) == self._run_suite()

    def test_folded_output_is_parseable_flamegraph_input(self):
        folded = self._run_suite()
        tree = parse_folded(folded)
        assert tree["value"] > 0
        html = render_flamegraph(folded)
        assert "<html" in html and "repro profile" in html


class TestDisabledPath:
    def test_disabled_profiler_never_allocates(self):
        """No profiler on the bus: the hot path must not allocate in prof.py."""

        def run():
            rt = TargetRuntime(n_devices=1)
            assert rt.machine.bus.profiler is None
            Arbalest().attach(rt.machine)
            WORKLOADS[0].run(rt, "test")
            rt.finalize()

        run()  # warm every code path first
        tracemalloc.start()
        try:
            run()
            snapshot = tracemalloc.take_snapshot()
        finally:
            tracemalloc.stop()
        prof_allocs = snapshot.filter_traces(
            [tracemalloc.Filter(True, "*repro/observe/prof.py")]
        ).statistics("filename")
        assert prof_allocs == [], [
            f"{s.traceback}: {s.size}B" for s in prof_allocs
        ]


class TestGovernor:
    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            Governor(budget=0.0)
        with pytest.raises(ValueError):
            Governor(cadence=0)

    def test_converges_under_budget_with_a_fake_clock(self):
        """Each timer call ticks the fake clock (so each sample 'costs' one
        tick-pair) and each event adds fake wall time.  The governor must
        widen the stride until the measured tax is under the 1% budget."""
        SAMPLE_COST = 1e-5  # recording cost per sample (two timer ticks)
        EVENT_COST = 1e-6  # fake wall time per event

        now = [0.0]

        def timer():
            # The governor brackets each sample with two timer calls; each
            # call ticks half the sample cost, so cost-per-sample is exact.
            now[0] += SAMPLE_COST / 2
            return now[0]

        gov = Governor(budget=0.01, cadence=8, min_stride=16, timer=timer)
        p = Profiler(stride=16, governor=gov)
        a = _access()
        for _ in range(100_000):
            now[0] += EVENT_COST
            p.batch_events([a], TOOLS)
            if gov.adjustments and gov.last_tax and gov.last_tax <= 0.01:
                break
        assert gov.adjustments, "governor never adjusted the stride"
        assert p.stride > 16, "stride should have widened under load"
        # tax per sample ~ SAMPLE_COST / (stride * EVENT_COST + SAMPLE_COST):
        # the converged stride keeps that under budget.
        assert gov.last_tax <= 0.01

    def test_narrows_when_tax_is_far_under_budget(self):
        now = [0.0]

        def timer():
            now[0] += 1e-9  # near-zero sample cost
            return now[0]

        gov = Governor(budget=0.5, cadence=2, min_stride=2, timer=timer)
        p = Profiler(stride=64, governor=gov)
        a = _access()
        for _ in range(64 * 40):
            now[0] += 1e-3  # lots of wall time between samples
            p.batch_events([a], TOOLS)
        assert p.stride < 64
        assert p.stride >= 2

    def test_adjustments_are_logged(self):
        now = [0.0]

        def timer():
            now[0] += 1e-3  # every timer tick is huge vs the tiny budget
            return now[0]

        gov = Governor(budget=1e-9, cadence=1, timer=timer)
        p = Profiler(stride=4, governor=gov)
        a = _access()
        for _ in range(64):
            p.batch_events([a], TOOLS)
        assert gov.adjustments
        seen, old, new = gov.adjustments[0]
        assert new == old * 2


class TestContextAndExport:
    def test_phase_tracking_follows_kernels(self):
        p = Profiler(stride=1)
        p.kernel_event("k1")
        p.batch_events([_access()], TOOLS)
        p.kernel_event("host")
        p.batch_events([_access()], TOOLS)
        assert p.samples_by_phase() == {"host": 1, "k1": 1}

    def test_serve_mode_pins_the_phase(self):
        p = Profiler(stride=1, track_kernel_phase=False, phase="shard-3")
        p.kernel_event("k1")  # must NOT clobber the shard phase
        p.batch_events([_access()], TOOLS)
        assert p.samples_by_phase() == {"shard-3": 1}

    def test_frame_links_correlate_samples_to_wire_frames(self):
        p = Profiler(stride=1)
        p.set_frame(18, 7)
        p.batch_events([_access()], TOOLS)
        p.clear_frame()
        p.batch_events([_access()], TOOLS)
        hot = p.hot_stacks()
        assert hot[0]["frames"] == [{"client": 18, "seq": 7}]

    def test_folded_frames_have_no_separator_collisions(self):
        stack = (SourceLocation(file="a;b c.c", line=3, function="f g;h"),)
        a = Access(
            device_id=0, thread_id=0, address=0, size=8, is_write=True,
            stack=stack,
        )
        p = Profiler(stride=1)
        p.batch_events([a], TOOLS)
        line = p.folded().splitlines()[0]
        frames_part = line.rsplit(" ", 1)[0]
        assert " " not in frames_part
        assert frames_part.count(";") == 3  # bench;phase;tool;one-frame

    def test_stats_and_snapshot_shapes(self):
        gov = Governor()
        p = Profiler(stride=2, governor=gov)
        for _ in range(10):
            p.batch_events([_access()], TOOLS)
        stats = p.stats()
        assert stats["events"] == 10
        assert stats["samples"] == 5
        assert stats["governor"]["budget"] == gov.budget
        snap = p.snapshot(limit=3)
        assert snap["hot"] and snap["hot"][0]["weight"] >= 2


class TestLaneBatches:
    """A batch of lane codes samples exactly what its rows would."""

    def _trace(self, seed):
        """Pending items (lane codes and bulk rows), their slot tables and
        the equivalent rows, cut into batches of varying size."""
        rng = random.Random(seed)
        batches = []
        for _ in range(12):
            slots = [
                (1, rng.randrange(3), 0x10000 * (s + 1), 8, _site("k", s))
                for s in range(rng.randrange(1, 5))
            ]
            items = []
            for _ in range(rng.randrange(64, 300)):
                if rng.random() < 0.1:
                    items.append(_access(count=rng.choice((3, 40)), line=99))
                else:
                    slot = rng.randrange(len(slots))
                    is_write = rng.random() < 0.5
                    items.append(lane_code(slot, rng.randrange(100), is_write))
            batches.append((items, slots, decode_rows(list(items), slots)))
        return batches

    def _recording(self, stride):
        samples = []
        p = Profiler(stride=stride)
        sample = p._sample

        def spy(stack, tools, weight):
            samples.append((stack, weight))
            sample(stack, tools, weight)

        p._sample = spy
        return p, samples

    @pytest.mark.parametrize("stride", [1, 7, 64, 512])
    def test_same_ordinals_and_folded_as_rows(self, stride):
        lanes, lane_samples = self._recording(stride)
        rows, row_samples = self._recording(stride)
        for items, slots, expected in self._trace(stride):
            lanes.batch_events(EventBatch(list(items), slots), TOOLS)
            rows.batch_events(expected, TOOLS)
        # Each sample's weight is the ordinals since the previous one, so
        # equal (stack, weight) sequences mean equal sample ordinals.
        assert lane_samples == row_samples and lane_samples
        assert lanes.events == rows.events
        assert lanes.folded() == rows.folded()

    def test_lane_batch_builds_no_row(self):
        p = Profiler(stride=5)
        for items, slots, _expected in self._trace(3):
            batch = EventBatch(list(items), slots)
            p.batch_events(batch, TOOLS)
            # A sample reads the sampled access's stack from the slot table:
            # every lane code is still a code.
            assert [type(x) is int for x in batch._items] == [
                type(x) is int for x in items
            ]
        assert p.samples
