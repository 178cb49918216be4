"""Differential equivalence: batched delivery against the per-access oracle.

Per-access delivery is the reference semantics; batching is a performance
transformation that must be observationally identical.  These tests run
real programs (DRACC benchmarks, the SPEC ACCEL twins) twice — once with
per-access reference subclasses of the tools (see :mod:`tests.per_access`),
once batched — and require byte-identical finding fingerprints, identical
per-site counts, and identical certificate/quarantine accounting.  The
parameter ids keep their historical names: ``scalar`` is the per-access
reference, ``columnar`` the batched run.

The timeline oracle holds the flight recorder to the same standard: with
the detector alone under a recorder, both deliveries must leave identical
rings (rendered events, eviction counts, record totals) and identical
finding provenance.  Multi-tool runs are left out on purpose: a batch
reaches each tool in turn, so findings of different tools interleave
differently with the detector's timeline events.
"""

import pytest

from repro.core.detector import Arbalest
from repro.dracc import all_benchmarks
from repro.forensics import FlightRecorder
from repro.harness.precision import TOOL_FACTORIES, TOOL_ORDER
from repro.openmp import alloc, to
from repro.openmp.runtime import TargetRuntime
from repro.specaccel.postencil import output_checksum, run_postencil
from repro.specaccel.workloads import WORKLOADS
from tests.per_access import per_access

#: Parameter id -> whether tools get per-access (reference) delivery.
PER_ACCESS = {"scalar": True, "columnar": False}


def _factory(tool_cls, delivery):
    return per_access(tool_cls) if PER_ACCESS[delivery] else tool_cls


def _fingerprints(tool):
    return sorted(
        (f.fingerprint(), count) for f, count in tool.findings_with_counts()
    )


def _run_dracc(benchmark, delivery):
    rt = TargetRuntime(n_devices=2)
    tools = {
        name: _factory(TOOL_FACTORIES[name], delivery)().attach(rt.machine)
        for name in TOOL_ORDER
    }
    benchmark.run(rt)
    observed = {name: _fingerprints(tool) for name, tool in tools.items()}
    detector = tools["arbalest"]
    observed["cert_stats"] = detector.cert_stats()
    observed["degradation_stats"] = detector.degradation_stats()
    return observed


@pytest.mark.parametrize(
    "dracc_case", all_benchmarks(), ids=lambda b: f"DRACC_{b.number:03d}"
)
def test_dracc_engines_agree(dracc_case):
    """All 56 DRACC benchmarks, all five tools: identical observations."""
    assert _run_dracc(dracc_case, "scalar") == _run_dracc(dracc_case, "columnar")


def _run_workload(workload, preset, delivery):
    rt = TargetRuntime(n_devices=1)
    tool = _factory(Arbalest, delivery)().attach(rt.machine)
    checksum = workload.run(rt, preset)
    rt.finalize()
    return {
        "findings": _fingerprints(tool),
        "cert_stats": tool.cert_stats(),
        "degradation_stats": tool.degradation_stats(),
        "checksum": checksum,
    }


@pytest.mark.parametrize("workload", WORKLOADS, ids=lambda w: w.name)
@pytest.mark.parametrize("preset", ["test", "large"])
def test_spec_twins_engines_agree(workload, preset):
    """Bulk-kernel (test) and element-wise (large) twins, both deliveries."""
    scalar = _run_workload(workload, preset, "scalar")
    columnar = _run_workload(workload, preset, "columnar")
    assert scalar == columnar


@pytest.mark.parametrize("delivery", ["scalar", "columnar"])
def test_postencil_bug_detected_under_both_engines(delivery):
    """The Fig-7 stale-access bug is caught under either delivery."""
    rt = TargetRuntime(n_devices=1)
    tool = _factory(Arbalest, delivery)().attach(rt.machine)
    result = run_postencil(rt, "test", buggy=True)
    output_checksum(rt, result)
    rt.finalize()
    assert tool.mapping_issue_findings(), "stale access went undetected"


def test_postencil_buggy_findings_identical():
    def run(delivery):
        rt = TargetRuntime(n_devices=1)
        tool = _factory(Arbalest, delivery)().attach(rt.machine)
        result = run_postencil(rt, "test", buggy=True)
        output_checksum(rt, result)
        rt.finalize()
        return _fingerprints(tool)

    assert run("scalar") == run("columnar")


def test_large_preset_buggy_postencil_equivalent():
    """Element-wise twin with the v1.2 bug: same verdict from both deliveries."""

    def run(delivery):
        rt = TargetRuntime(n_devices=1)
        tool = _factory(Arbalest, delivery)().attach(rt.machine)
        result = run_postencil(rt, "large", buggy=True)
        output_checksum(rt, result)
        rt.finalize()
        return _fingerprints(tool)

    scalar = run("scalar")
    assert scalar == run("columnar")
    assert scalar, "stale access went undetected on the large preset"


def _timelines(run, delivery):
    """Run ``run(rt)`` with the detector alone under a flight recorder."""
    recorder = FlightRecorder()
    rt = TargetRuntime(n_devices=2)
    rt.machine.bus.recorder = recorder
    tool = _factory(Arbalest, delivery)().attach(rt.machine)
    run(rt)
    return {
        "rings": {
            name: ([e.render() for e in ring.events()], ring.dropped)
            for name, ring in recorder.rings.items()
        },
        "records": recorder.records,
        "provenance": [
            (f.fingerprint(), f.provenance.to_json() if f.provenance else None)
            for f in tool.findings
        ],
    }


@pytest.mark.parametrize(
    "dracc_case", all_benchmarks(), ids=lambda b: f"DRACC_{b.number:03d}"
)
def test_dracc_timeline_agrees(dracc_case):
    """All 56 DRACC benchmarks: the batched detector records the same rings."""
    assert _timelines(dracc_case.run, "scalar") == _timelines(
        dracc_case.run, "columnar"
    )


@pytest.mark.parametrize("workload", WORKLOADS, ids=lambda w: w.name)
def test_spec_twins_timeline_agrees(workload):
    """Element-wise (large) twins: vectorized segments record per access."""

    def run(rt):
        workload.run(rt, "large")
        rt.finalize()

    scalar = _timelines(run, "scalar")
    assert scalar["records"], "nothing was recorded"
    assert scalar == _timelines(run, "columnar")


def test_hot_granule_timeline_agrees():
    """Granules hit more than eight times in one batch leave the vectorized
    passes for a scalar remainder; transitions and illegal reads recorded
    there must land in per-access order too."""

    def run(rt):
        a = rt.array("a", 16)
        a.fill(1.0)
        b = rt.array("b", 16)

        def k(ctx):
            A, B = ctx["a"], ctx["b"]
            for i in range(40):
                _ = A[0]  # consistent, read 40 times ...
                _ = B[i % 2]  # never initialized: illegal every time
            A[0] = 2.0  # ... then written: a transition in the remainder
            _ = B[0]

        rt.target(k, maps=[to(a), alloc(b)])

    scalar = _timelines(run, "scalar")
    assert scalar["provenance"], "the uninitialized reads went unreported"
    assert scalar == _timelines(run, "columnar")
