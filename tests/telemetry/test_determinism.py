"""The two headline telemetry guarantees.

1. **Determinism** — on the event-ordinal clock, two runs of the same
   target produce byte-identical trace and metrics artifacts, and the
   metrics of two fixed targets equal committed goldens byte for byte:
   every ``vsm.<op>.<from>-><to>`` edge count is pinned.
2. **Zero disabled-mode cost** — with no registry on the bus the
   instrumented hot paths allocate nothing inside the telemetry package.
"""

import json
import tracemalloc
from pathlib import Path

import pytest

from repro.core.detector import Arbalest
from repro.dracc.registry import get as dracc_get
from repro.harness import run_profile
from repro.openmp.runtime import TargetRuntime
from repro.telemetry import Telemetry


def _run_dracc(number: int, telemetry: Telemetry | None = None) -> Arbalest:
    bench = dracc_get(number)
    rt = TargetRuntime(n_devices=2)
    rt.machine.bus.telemetry = telemetry
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

    @pytest.mark.parametrize(
        "golden, target",
        [
            ("golden_profile_dracc22.json", dict(suite="dracc", benchmark=22)),
            (
                "golden_profile_polbm_train.json",
                dict(suite="specaccel", workload="polbm", preset="train"),
            ),
        ],
        ids=["dracc22", "polbm-train"],
    )
    def test_profile_metrics_match_golden(self, tmp_path, golden, target):
        """``repro profile --metrics`` output is byte-identical to the
        golden (regenerate only for an intended telemetry change)."""
        metrics = tmp_path / "metrics.json"
        run_profile(
            output=str(tmp_path / "trace.json"),
            metrics_output=str(metrics),
            **target,
        )
        expected = (Path(__file__).parent / golden).read_bytes()
        assert metrics.read_bytes() == expected

    def test_snapshots_identical_across_runs(self):
        snaps = []
        for _ in range(2):
            t = Telemetry()
            _run_dracc(22, t)
            snaps.append(json.dumps(t.snapshot(), sort_keys=True))
        assert snaps[0] == snaps[1]


class TestDisabledModeAllocatesNothing:
    def test_zero_telemetry_allocations_on_hot_path(self):
        assert _run_dracc(22).telemetry is None  # warm every code path first
        tracemalloc.start()
        try:
            detector = _run_dracc(22)
            snapshot = tracemalloc.take_snapshot()
        finally:
            tracemalloc.stop()
        assert detector.machine.bus.telemetry is None
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
        _run_dracc(22, t)
        layers = {s["cat"] for s in t.span_log.spans}
        assert {"runtime", "bus", "detector"} <= layers

    def test_counters_cover_runtime_detector_tools_and_vsm(self):
        t = Telemetry()
        _run_dracc(22, t)
        names = set(t.counters)
        assert any(n.startswith("runtime.map_entries") for n in names)
        assert any(n.startswith("bus.events.") for n in names)
        assert any(n.startswith("detector.accesses.") for n in names)
        assert any(n.startswith("vsm.") and "->" in n for n in names)
        assert "runtime.transfer_bytes" in t.histograms

    def test_detector_gauges_present(self):
        t = Telemetry()
        _run_dracc(1, t)
        assert "detector.live_mappings" in t.gauges
        assert "detector.shadow_bytes" in t.gauges
