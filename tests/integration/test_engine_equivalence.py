"""Differential equivalence: batched delivery against per-access delivery,
and ARBALEST against the executable mapping reference.

Batching is a performance transformation that must be observationally
identical to delivering each access as it is published.  These tests run
real programs (DRACC benchmarks, the SPEC ACCEL twins) twice — once with
per-access subclasses of the tools (see :mod:`tests.per_access`; the
detector gets batches of one), once batched — and require byte-identical
finding fingerprints, identical per-site counts, and identical
certificate/quarantine accounting.  In both runs of every DRACC program
and of every twin at ``test``, ARBALEST's mapping findings must also
equal those of :class:`~tests.mapping_reference.MappingReference`, which
re-derives them from §IV with one VSM per granule.  The parameter ids
keep their historical names: ``scalar`` is the per-access run,
``columnar`` the batched one.  The ``_multi_device`` tests hold
:class:`~repro.core.multidevice.MultiDeviceArbalest` to the same
delivery equivalence on the DRACC programs, the ``test`` twins and
pomriq at ``large``; the mapping reference models one accelerator, so
it checks the single-device detector only.

The timeline oracle holds the flight recorder to the same standard: with
the detector alone under a recorder, both deliveries must leave identical
rings (rendered events, eviction counts, record totals) and identical
finding provenance.  Multi-tool runs are left out on purpose: a batch
reaches each tool in turn, so findings of different tools interleave
differently with the detector's timeline events.
"""

import pytest

from repro.core.detector import Arbalest
from repro.core.multidevice import MultiDeviceArbalest
from repro.dracc import all_benchmarks
from repro.events.columnar import PASS_ROWS
from repro.forensics import FlightRecorder
from repro.harness.precision import TOOL_FACTORIES, TOOL_ORDER
from repro.openmp import alloc, to, tofrom
from repro.openmp.runtime import TargetRuntime
from repro.specaccel.postencil import output_checksum, run_postencil
from repro.specaccel.workloads import WORKLOADS
from repro.telemetry import Telemetry
from tests.mapping_reference import MappingReference, mapping_fingerprints
from tests.per_access import per_access

#: Parameter id -> whether tools get per-access (reference) delivery.
PER_ACCESS = {"scalar": True, "columnar": False}


def _factory(tool_cls, delivery):
    return per_access(tool_cls) if PER_ACCESS[delivery] else tool_cls


def _fingerprints(tool):
    """Each finding's site, per-site count and first-occurrence fields
    (address, thread, device, size, message), and a detector's bug reports
    in filing order."""
    findings = sorted(
        (f.fingerprint(), count, f.address, f.thread_id, f.device_id, f.size,
         f.message)
        for f, count in tool.findings_with_counts()
    )
    return findings, getattr(tool, "bug_reports", None)


def _run_dracc(benchmark, delivery, detector_cls=Arbalest):
    rt = TargetRuntime(n_devices=2)
    factories = {**TOOL_FACTORIES, "arbalest": detector_cls}
    tools = {
        name: _factory(factories[name], delivery)().attach(rt.machine)
        for name in TOOL_ORDER
    }
    reference = MappingReference().attach(rt.machine)
    benchmark.run(rt)
    observed = {name: _fingerprints(tool) for name, tool in tools.items()}
    detector = tools["arbalest"]
    if detector_cls is Arbalest:
        assert mapping_fingerprints(detector) == mapping_fingerprints(reference)
    observed["cert_stats"] = detector.cert_stats()
    observed["degradation_stats"] = detector.degradation_stats()
    return observed


@pytest.mark.parametrize(
    "dracc_case", all_benchmarks(), ids=lambda b: f"DRACC_{b.number:03d}"
)
def test_dracc_engines_agree(dracc_case):
    """All 56 DRACC benchmarks, all five tools: identical observations."""
    assert _run_dracc(dracc_case, "scalar") == _run_dracc(dracc_case, "columnar")


@pytest.mark.parametrize(
    "dracc_case", all_benchmarks(), ids=lambda b: f"DRACC_{b.number:03d}"
)
def test_dracc_engines_agree_multi_device(dracc_case):
    """The multi-device detector, two devices: identical observations."""
    assert _run_dracc(dracc_case, "scalar", MultiDeviceArbalest) == _run_dracc(
        dracc_case, "columnar", MultiDeviceArbalest
    )


def _run_workload(workload, preset, delivery, detector_cls=Arbalest):
    rt = TargetRuntime(n_devices=1)
    tool = _factory(detector_cls, delivery)().attach(rt.machine)
    # The reference's per-granule Python VSM is sized for ``test`` runs.
    reference = (
        MappingReference().attach(rt.machine)
        if preset == "test" and detector_cls is Arbalest
        else None
    )
    checksum = workload.run(rt, preset)
    rt.finalize()
    if reference is not None:
        assert mapping_fingerprints(tool) == mapping_fingerprints(reference)
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


@pytest.mark.parametrize(
    "workload, preset",
    [(w, "test") for w in WORKLOADS]
    + [(w, "large") for w in WORKLOADS if w.name in ("pomriq", "polbm")],
    ids=lambda p: getattr(p, "name", p),
)
def test_spec_twins_engines_agree_multi_device(workload, preset):
    """The multi-device detector on the twins: both deliveries agree."""
    scalar = _run_workload(workload, preset, "scalar", MultiDeviceArbalest)
    columnar = _run_workload(workload, preset, "columnar", MultiDeviceArbalest)
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


def _timelines(run, delivery, detector_cls=Arbalest):
    """Run ``run(rt)`` with the detector alone under a flight recorder."""
    recorder = FlightRecorder()
    rt = TargetRuntime(n_devices=2)
    rt.machine.bus.recorder = recorder
    tool = _factory(detector_cls, delivery)().attach(rt.machine)
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


@pytest.mark.parametrize(
    "dracc_case", all_benchmarks(), ids=lambda b: f"DRACC_{b.number:03d}"
)
def test_dracc_timeline_agrees_multi_device(dracc_case):
    """The multi-device detector records the same rings under both."""
    assert _timelines(dracc_case.run, "scalar", MultiDeviceArbalest) == _timelines(
        dracc_case.run, "columnar", MultiDeviceArbalest
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


def _hot_granule(rt):
    """Granules hit many times in one batch: runs of one step (repeats the
    batch drops, by one thread and by several in turn), reads and writes
    alternating on more granules than the pass cut-off (vectorized passes)
    and on one granule past it (the one-at-a-time replay), with illegal
    reads and races among them."""
    n = PASS_ROWS + 1
    a = rt.array("a", 16)
    a.fill(1.0)
    b = rt.array("b", 16)
    c = rt.array("c", n)
    total = rt.array("total", 1)
    total.fill(0.0)

    def k(ctx):
        A, B, C = ctx["a"], ctx["b"], ctx["c"]
        for i in range(40):
            _ = A[0]  # consistent, read 40 times ...
            _ = B[i % 2]  # never initialized: illegal every time
        A[0] = 2.0  # ... then written: a transition among the repeats
        _ = B[0]
        for r in range(2 * n):
            for j in range(n):
                _ = C[j]  # illegal until the granule's first write
                C[j] = float(r)
        for r in range(n):
            _ = C[0]
            C[0] = float(r)

    def shared(ctx):
        A, B, T = ctx["a"], ctx["b"], ctx["total"]

        def body(i):
            _ = A[1], B[2]  # the same read by four threads in turn
            T.write(0, T[0] + 1.0)  # unordered read-modify-writes: races

        ctx.parallel_for(4 * PASS_ROWS, body, num_threads=4)

    rt.target(k, maps=[to(a), alloc(b), alloc(c)])
    rt.target(shared, maps=[to(a), alloc(b), tofrom(total)])


def test_hot_granule_timeline_agrees(detector_cls=Arbalest):
    """Repeats dropped from the batch and rows replayed past the last pass
    record their transitions and illegal reads in per-access order too."""
    scalar = _timelines(_hot_granule, "scalar", detector_cls)
    assert scalar["provenance"], "the uninitialized reads went unreported"
    assert scalar == _timelines(_hot_granule, "columnar", detector_cls)


def test_hot_granule_timeline_agrees_multi_device():
    """The same under the multi-device detector."""
    test_hot_granule_timeline_agrees(MultiDeviceArbalest)


def _snapshot(run, delivery, unified=False):
    """Run ``run(rt)`` with the detector alone under a telemetry registry;
    return the registry's snapshot but what the batch size sets: the
    ``bus.batches`` counter and the gauges (the lookup-cache hits and
    misses; a batch of one resolves through the interval trees)."""
    telemetry = Telemetry()
    rt = TargetRuntime(n_devices=2, unified=unified)
    rt.machine.bus.telemetry = telemetry
    _factory(Arbalest, delivery)().attach(rt.machine)
    run(rt)
    snapshot = telemetry.snapshot()
    del snapshot["gauges"]
    assert snapshot["counters"].pop("bus.batches")
    counters = snapshot["counters"]
    assert any(name.startswith("vsm.") for name in counters), "no VSM edge counted"
    assert any(name.startswith("detector.accesses.") for name in counters)
    return snapshot


def _large_polbm(rt):
    next(w for w in WORKLOADS if w.name == "polbm").run(rt, "large")
    rt.finalize()


def _host_write_runs(rt):
    """Runs of host writes to a mapped array: on a unified device each
    write is the pair WRITE_HOST, UPDATE_TARGET, and its repeats too."""
    a = rt.array("a", PASS_ROWS + 1)
    a.fill(0.0)
    with rt.target_data([to(a)]):
        for r in range(3):
            for j in range(PASS_ROWS + 1):
                a[j] = float(r)
                a[j] = float(r)
            _ = a[0]


@pytest.mark.parametrize(
    "run, unified",
    [pytest.param(b.run, False, id=f"DRACC_{b.number:03d}") for b in all_benchmarks()]
    + [
        pytest.param(_large_polbm, False, id="polbm_large"),
        pytest.param(_hot_granule, False, id="hot_granule"),
        pytest.param(_host_write_runs, False, id="host_writes"),
        pytest.param(_host_write_runs, True, id="host_writes_unified"),
    ],
)
def test_telemetry_agrees(run, unified):
    """Every ``vsm.<op>.<from>-><to>`` edge a repeated access takes is
    counted as per-access delivery counts it, though the batch applies
    no repeat, and every other metric agrees too, key sets included (no
    batch counts a zero)."""
    assert _snapshot(run, "scalar", unified) == _snapshot(run, "columnar", unified)
