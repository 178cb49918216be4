"""The two headline telemetry guarantees.

1. **Determinism** — on the event-ordinal clock, two runs of the same
   target produce byte-identical trace and metrics artifacts.
2. **Zero disabled-mode cost** — with no active registry the instrumented
   hot paths allocate nothing inside the telemetry package.
"""

import json
import tracemalloc

from repro.core.detector import Arbalest
from repro.dracc.registry import get as dracc_get
from repro.harness import run_profile
from repro.openmp.runtime import TargetRuntime
from repro.telemetry import Telemetry, scope
from repro.telemetry import registry as telemetry_registry


def _run_dracc(number: int) -> Arbalest:
    bench = dracc_get(number)
    rt = TargetRuntime(n_devices=2)
    detector = Arbalest().attach(rt.machine)
    bench.run(rt)
    return detector


class TestByteIdenticalArtifacts:
    def _profile_twice(self, tmp_path, **kwargs):
        artifacts = []
        for run in ("a", "b"):
            trace = tmp_path / f"trace_{run}.json"
            metrics = tmp_path / f"metrics_{run}.json"
            run_profile(
                output=str(trace), metrics_output=str(metrics), **kwargs
            )
            artifacts.append((trace.read_bytes(), metrics.read_bytes()))
        return artifacts

    def test_dracc_profile_byte_identical(self, tmp_path):
        (trace_a, metrics_a), (trace_b, metrics_b) = self._profile_twice(
            tmp_path, suite="dracc", benchmark=22
        )
        assert trace_a == trace_b
        assert metrics_a == metrics_b

    def test_specaccel_profile_byte_identical(self, tmp_path):
        (trace_a, metrics_a), (trace_b, metrics_b) = self._profile_twice(
            tmp_path,
            suite="specaccel",
            workload="pcg",
            preset="test",
        )
        assert trace_a == trace_b
        assert metrics_a == metrics_b

    def test_snapshots_identical_across_runs(self):
        snaps = []
        for _ in range(2):
            t = Telemetry()
            with scope(t):
                _run_dracc(22)
            snaps.append(json.dumps(t.snapshot(), sort_keys=True))
        assert snaps[0] == snaps[1]


class TestDisabledModeAllocatesNothing:
    def test_zero_telemetry_allocations_on_hot_path(self):
        assert telemetry_registry.ACTIVE is None
        _run_dracc(22)  # warm every code path first
        tracemalloc.start()
        try:
            _run_dracc(22)
            snapshot = tracemalloc.take_snapshot()
        finally:
            tracemalloc.stop()
        telemetry_allocs = snapshot.filter_traces(
            [tracemalloc.Filter(True, "*repro/telemetry/*")]
        ).statistics("filename")
        assert telemetry_allocs == [], [
            f"{s.traceback}: {s.size}B" for s in telemetry_allocs
        ]


class TestInstrumentationCoverage:
    """An enabled run actually produces data from every layer."""

    def test_spans_cover_three_layers(self):
        t = Telemetry()
        with scope(t):
            _run_dracc(22)
        layers = {s["cat"] for s in t.span_log.spans}
        assert {"runtime", "bus", "detector"} <= layers

    def test_counters_cover_runtime_detector_tools_and_vsm(self):
        t = Telemetry()
        with scope(t):
            _run_dracc(22)
        names = set(t.counters)
        assert any(n.startswith("runtime.map_entries") for n in names)
        assert any(n.startswith("bus.events.") for n in names)
        assert any(n.startswith("detector.accesses.") for n in names)
        assert any(n.startswith("vsm.") and "->" in n for n in names)
        assert "runtime.transfer_bytes" in t.histograms

    def test_detector_gauges_present(self):
        t = Telemetry()
        with scope(t):
            _run_dracc(1)
        assert "detector.live_mappings" in t.gauges
        assert "detector.shadow_bytes" in t.gauges
