"""``repro profile``: run one workload with full telemetry and export it.

The profile harness is the observability counterpart of the overhead
harness: instead of *one* end-to-end number per (workload, tool) cell it
answers *where the time goes* — how much of a run is the simulated runtime
(directives, transfers), the ToolBus fan-out, and the detector's own
analysis — plus every internal counter the stack maintains (VSM transition
edges, lookup-cache hits, quarantine events, per-tool findings).

Artifacts:

* ``trace.json`` — the span log as a stitched Chrome Trace Event document
  (the same writer the serve stack uses); open in ``chrome://tracing`` or
  https://ui.perfetto.dev;
* an optional metrics snapshot JSON (counters/gauges/histograms).

Spans are stamped with the event-ordinal clock, so both artifacts are
*byte-identical* across repeated runs of the same target — they are
diffable CI artifacts, not just local profiles.  Seconds per layer come
from ``perfbench/run.py --workload W --trace 1``.
"""

from __future__ import annotations

import json

from ..core.detector import Arbalest
from ..dracc.registry import all_benchmarks, get as dracc_get
from ..observe.spans import write_stitched_trace
from ..openmp.runtime import TargetRuntime
from ..specaccel.workloads import WORKLOADS, workload as workload_get
from ..telemetry import Telemetry, scope

#: Valid ``--suite`` selections for the profile CLI.
PROFILE_SUITES = ("dracc", "specaccel")


def run_profile(
    *,
    suite: str = "dracc",
    benchmark: int = 22,
    workload: str = "postencil",
    preset: str = "test",
    output: str = "trace.json",
    metrics_output: str | None = None,
) -> dict:
    """Run one target with telemetry on; write the trace; return the payload.

    ``suite="dracc"`` profiles DRACC benchmark ``benchmark`` on a
    two-accelerator machine; ``suite="specaccel"`` profiles SPEC ACCEL
    workload ``workload`` at ``preset``.  Both run under an attached
    :class:`~repro.core.detector.Arbalest`, which is the configuration
    whose breakdown the optimisation roadmap needs.
    """
    if suite not in PROFILE_SUITES:
        raise ValueError(
            f"unknown suite {suite!r} (valid choices: {', '.join(PROFILE_SUITES)})"
        )

    telemetry = Telemetry()
    with scope(telemetry):
        if suite == "dracc":
            bench = dracc_get(benchmark)  # KeyError -> caller's 1..56 message
            target = bench.name
            rt = TargetRuntime(n_devices=2)
            detector = Arbalest().attach(rt.machine)
            bench.run(rt)
        else:
            w = workload_get(workload)
            target = f"{w.spec_id}.{w.name}"
            rt = TargetRuntime(n_devices=1)
            detector = Arbalest().attach(rt.machine)
            w.run(rt, preset)
            rt.finalize()
        # Final internal-state gauges: surfaced here so the snapshot carries
        # the run's closing statistics, not just mid-run samples.
        hits, misses = detector.mapping_lookup_stats()
        telemetry.gauge("detector.lookup_hits", hits)
        telemetry.gauge("detector.lookup_misses", misses)
        for key, value in detector.degradation_stats().items():
            telemetry.gauge(f"detector.{key}", value)
        telemetry.gauge("detector.shadow_bytes", detector.shadow_bytes())

    with open(output, "w") as sink:
        write_stitched_trace([telemetry.span_log], sink)
    snapshot = telemetry.snapshot()
    spans = telemetry.span_log.spans
    if metrics_output is not None:
        with open(metrics_output, "w") as sink:
            json.dump(snapshot, sink, indent=2, sort_keys=True)
            sink.write("\n")

    return {
        "suite": suite,
        "target": target,
        "output": output,
        "metrics_output": metrics_output,
        "span_count": len(spans),
        "span_layers": sorted({span["cat"] for span in spans}),
        "snapshot": snapshot,
        "findings": len(detector.findings),
    }


def inventory() -> dict:
    """Machine-readable benchmark/workload inventory (``repro list --json``)."""
    return {
        "dracc": [
            {
                "number": b.number,
                "name": b.name,
                "buggy": b.is_buggy,
                "effect": b.expected_effect.name if b.expected_effect else None,
                "description": b.description,
                "tags": list(b.tags),
            }
            for b in all_benchmarks()
        ],
        "specaccel": [
            {
                "name": w.name,
                "spec_id": w.spec_id,
                "description": w.description,
                "presets": ["test", "train", "ref"],
            }
            for w in WORKLOADS
        ],
    }
