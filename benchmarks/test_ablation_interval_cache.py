"""Ablation A2 — the interval tree's last-lookup cache (§IV.C).

The paper's amortized-O(1) claim rests on caching the latest interval
lookup: kernels hammer one mapped array at a time, so consecutive device
accesses resolve to the same mapping.  This ablation measures the lookup
cost with the cache enabled vs forcibly disabled, on a CV-access-heavy
kernel, and verifies the hit-rate mechanism directly.
"""

import pytest

from repro.core import Arbalest
from repro.openmp import TargetRuntime, to, tofrom
from tests.per_access import per_access

N = 256
SWEEPS = 4


def access_heavy_program(rt: TargetRuntime) -> None:
    a = rt.array("a", N)
    b = rt.array("b", N)
    a.fill(1.0)
    b.fill(2.0)

    def sweep(ctx):
        A, B = ctx["a"], ctx["b"]
        for _ in range(SWEEPS):
            for i in range(N):  # scalar accesses: one lookup each
                A[i] = A[i] + B[i]

    rt.target(sweep, maps=[tofrom(a), to(b)], name="sweep")


@pytest.mark.parametrize("cached", [True, False], ids=["cache-on", "cache-off"])
def test_lookup_cost(benchmark, cached):
    benchmark.group = "ablation-interval-cache"

    def run_once():
        rt = TargetRuntime(n_devices=1)
        det = Arbalest(race_detection=False).attach(rt.machine)
        if not cached:
            det.mappings.disable_cache_for_ablation()
        access_heavy_program(rt)
        rt.finalize()
        return det

    det = benchmark(run_once)
    assert not det.mapping_issue_findings()


def test_cache_hit_rate_mechanism():
    """With the cache on, almost every device access is a cache hit —
    the detector keeps the last two (block, mapping) pairs per access side,
    so the sweep's alternating ``B[i]`` reads and ``A[i]`` writes both stay
    cached.

    Per-access delivery: batched delivery resolves each mapping once per
    segment, so the cache only serves the per-access path."""
    rt = TargetRuntime(n_devices=1)
    det = per_access(Arbalest)(race_detection=False).attach(rt.machine)
    access_heavy_program(rt)
    rt.finalize()
    hits, misses = det.mapping_lookup_stats()
    assert hits + misses > 2 * N
    assert hits / (hits + misses) > 0.5
    # Two entries per side: only the first touch of each array misses
    # (``fill`` on the host, the first sweep access on the device).
    assert misses == 4

    rt2 = TargetRuntime(n_devices=1)
    det2 = Arbalest(race_detection=False).attach(rt2.machine)
    det2.mappings.disable_cache_for_ablation()
    access_heavy_program(rt2)
    rt2.finalize()
    hits2, misses2 = det2.mapping_lookup_stats()
    assert hits2 == 0  # the ablation really disabled the fast path


def test_tree_stays_logarithmic_with_many_mappings(benchmark):
    """The slow path itself is O(log m): map many sections, stab them all."""
    benchmark.group = "ablation-interval-tree-depth"

    def run_once():
        rt = TargetRuntime(n_devices=1)
        det = Arbalest(race_detection=False).attach(rt.machine)
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
        return got

    got = benchmark(run_once)
    assert got[:3] == [0.0, 1.0, 2.0]
