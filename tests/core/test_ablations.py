"""The design ablations (A1–A4 in EXPERIMENTS.md) as mechanism tests.

Each class keeps the deterministic half of an ablation: the verdicts,
shadow sizes and cache counts.  Their wall-clock halves are not asserted
here; ``repro bench`` is where time is measured.
"""

import numpy as np
import pytest

from repro.core import (
    Arbalest,
    RepairingArbalest,
    ShadowBlock,
    VariableStateMachine,
    VsmOp,
    certify,
)
from repro.core.explore import explore_schedules
from repro.openmp import TargetRuntime, release, to, tofrom
from tests.per_access import per_access

N = 512
#: A granule larger than any array: one VSM state per allocation.
COARSE = 1 << 20


class TestGranularity:
    """A1 (§IV.C): 8-byte granules are needed for soundness; whole-array
    tracking raises a false alarm when a kernel updates part of an array
    and the host reads only the untouched part."""

    @staticmethod
    def partial_update(rt: TargetRuntime, read_index: int) -> float:
        # The kernel updates a[0] and the update is lost (map to).
        a = rt.array("a", N)
        a.fill(1.0)
        rt.target(lambda ctx: ctx["a"].write(0, 2.0), maps=[to(a)], name="touch_head")
        return a[read_index]

    @pytest.mark.parametrize(
        "granule,expect_false_alarm",
        [(8, False), (COARSE, True)],
        ids=["8-byte", "whole-array"],
    )
    def test_false_alarm_only_under_whole_array_tracking(
        self, granule, expect_false_alarm
    ):
        rt = TargetRuntime(n_devices=1)
        det = Arbalest(granule=granule, race_detection=False).attach(rt.machine)
        value = self.partial_update(rt, 5)
        rt.finalize()
        assert value == 1.0  # the read element was genuinely intact
        assert bool(det.mapping_issue_findings()) == expect_false_alarm

    def test_fine_granularity_still_catches_real_issue(self):
        # Control: reading the modified element itself is a true positive.
        rt = TargetRuntime(n_devices=1)
        det = Arbalest(granule=8, race_detection=False).attach(rt.machine)
        self.partial_update(rt, 0)
        rt.finalize()
        assert det.mapping_issue_findings()

    def test_shadow_size_tradeoff(self):
        # Coarse tracking is smaller: the space half of the trade-off.
        rt_fine = TargetRuntime(n_devices=1)
        fine = Arbalest(granule=8, race_detection=False).attach(rt_fine.machine)
        rt_fine.array("a", N)
        rt_coarse = TargetRuntime(n_devices=1)
        coarse = Arbalest(granule=COARSE, race_detection=False).attach(
            rt_coarse.machine
        )
        rt_coarse.array("a", N)
        assert coarse.shadow_bytes() < fine.shadow_bytes()
        assert fine.shadow_bytes() == (N * 8 // 8) * 8  # one word per granule


class TestIntervalCache:
    """A2 (§IV.C): the last-lookup cache makes repeated lookups O(1)."""

    SWEEPS = 4

    def access_heavy_program(self, det, rt: TargetRuntime, n: int = 256):
        """Run the sweep; return the kernel's (hits, misses) on ``det``'s
        mapping tree."""
        a = rt.array("a", n)
        b = rt.array("b", n)
        a.fill(1.0)
        b.fill(2.0)

        def sweep(ctx):
            A, B = ctx["a"], ctx["b"]
            for _ in range(self.SWEEPS):
                for i in range(n):  # scalar accesses: one lookup each
                    A[i] = A[i] + B[i]

        hits, misses = det.mapping_lookup_stats()
        rt.target(sweep, maps=[tofrom(a), to(b)], name="sweep")
        after = det.mapping_lookup_stats()
        return after[0] - hits, after[1] - misses

    def test_cache_hit_rate_mechanism(self):
        # Batches of one (immediate delivery, as RepairingArbalest runs)
        # resolve every access through the mapping registry's tree.
        rt = TargetRuntime(n_devices=1)
        det = per_access(Arbalest)(race_detection=False).attach(rt.machine)
        hits, misses = self.access_heavy_program(det, rt)
        rt.finalize()
        assert not det.mapping_issue_findings()
        lookups = self.SWEEPS * 256
        # Each element stabs a, b, a: the cache holds one interval, so the
        # hop to b and back both descend, and only a repeated a hits (all
        # but the very first, which finds the cache cold).
        assert hits + misses == 3 * lookups
        assert hits == lookups - 1
        assert misses == 2 * lookups + 1

    def test_many_mappings_resolve(self):
        # 64 live mappings, each stabbed once from one kernel.
        rt = TargetRuntime(n_devices=1)
        Arbalest(race_detection=False).attach(rt.machine)
        arrays = []
        for i in range(64):
            arr = rt.array(f"v{i}", 8)
            arr.fill(float(i))
            arrays.append(arr)
        rt.target_enter_data([to(arr) for arr in arrays])
        got = []

        def touch_all(ctx):
            for i in range(64):
                got.append(ctx[f"v{i}"][0])

        rt.target(touch_all, name="touch_all")
        rt.finalize()
        assert got[:3] == [0.0, 1.0, 2.0]


class TestVectorized:
    """A3: bulk and element-wise forms of one program, and the numpy-LUT
    shadow against the scalar reference machine, agree on verdicts."""

    @pytest.mark.parametrize("bulk", [True, False], ids=["vectorized", "scalar"])
    def test_access_shape_is_clean(self, bulk):
        n = 2048
        rt = TargetRuntime(n_devices=1)
        det = Arbalest(race_detection=False).attach(rt.machine)
        a = rt.array("a", n)
        a.fill(1.0)

        def kernel(ctx):
            A = ctx["a"]
            if bulk:
                A[0:n] = np.asarray(A[0:n]) * 2.0
            else:
                for i in range(n):
                    A[i] = A[i] * 2.0

        rt.target(kernel, maps=[tofrom(a)], name="scale")
        _ = a[0:n] if bulk else [a[i] for i in range(n)]
        rt.finalize()
        assert not det.mapping_issue_findings()

    OPS = [
        VsmOp.WRITE_HOST,
        VsmOp.ALLOCATE,
        VsmOp.UPDATE_TARGET,
        VsmOp.READ_TARGET,
        VsmOp.WRITE_TARGET,
        VsmOp.UPDATE_HOST,
        VsmOp.READ_HOST,
        VsmOp.RELEASE,
    ]

    def test_numpy_lut_stream(self):
        n = 10_000
        block = ShadowBlock(1 << 32, 8 * n)
        for op in self.OPS:
            illegal, _ = block.apply(slice(0, n), op)
        # The final READ_HOST after RELEASE is legal.
        assert int(illegal.sum()) == 0

    def test_scalar_reference_stream(self):
        machines = [VariableStateMachine() for _ in range(10_000)]
        bad = False
        for op in self.OPS:
            for m in machines:
                bad = m.apply(op).illegal
        assert bad is False


class TestAnalysisModes:
    """A4: detection, repair, certification and schedule exploration all
    accept the same clean, update-heavy program."""

    @staticmethod
    def workload(rt: TargetRuntime) -> None:
        n = 512
        a = rt.array("a", n)
        a.fill(1.0)
        rt.target_enter_data([to(a)])
        for _ in range(6):
            rt.target(
                lambda ctx: ctx["a"].write(slice(0, n), ctx["a"].read(slice(0, n)) * 1.01)
            )
        rt.target_update(from_=[a])
        _ = a[0:n]
        rt.target_exit_data([release(a)])

    @pytest.mark.parametrize("tool_cls", [Arbalest, RepairingArbalest])
    def test_detection_modes_are_clean(self, tool_cls):
        rt = TargetRuntime(n_devices=1)
        tool = tool_cls().attach(rt.machine)
        self.workload(rt)
        rt.finalize()
        assert not tool.mapping_issue_findings()

    def test_certified(self):
        assert certify(self.workload).certified

    def test_exploration_detects_nothing(self):
        result = explore_schedules(
            self.workload, random_seeds=1, with_certificate=False
        )
        assert not result.any_detection
