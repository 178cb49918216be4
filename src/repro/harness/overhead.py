"""Figures 8 and 9: time and space overhead on the SPEC ACCEL workloads.

For every workload × tool configuration we build a fresh machine, attach
the tool, run the workload, and record

* wall-clock execution time (Fig 8 — reported as a slowdown factor over
  the tool-free *native* run of the same simulation), and
* the tool's live shadow/analysis bytes plus the machine's application
  bytes (Fig 9 — reported as total memory footprint).

What transfers from the paper is the *relative shape* across tools sharing
one event stream, not absolute numbers: our "native" is a simulator, not a
Xeon+Volta node, and our Valgrind model is event-driven rather than a
dynamic binary translator (the paper's largest single overhead source).
EXPERIMENTS.md discusses where the shapes agree and where the substitution
makes them diverge.
"""

from __future__ import annotations

import gc
import json
import os
import time
from dataclasses import dataclass, field
from typing import Iterable

from ..observe.history import append_history, run_meta
from ..observe.prof import DEFAULT_STRIDE, Governor, Profiler
from ..openmp.runtime import TargetRuntime
from ..specaccel.workloads import WORKLOADS, Workload
from .precision import TOOL_FACTORIES, TOOL_ORDER
from .tables import render_ratio_chart, render_table

#: Fig 8/9 column order: native baseline first, then the tools, then the
#: static-assisted detector (ARBALEST pruned by each workload twin's
#: SafetyCertificate — the staticlint speedup the tracked bench records),
#: then ARBALEST with the forensics flight recorder active (the tracked
#: recorder-overhead number: it must stay within a few percent of plain
#: arbalest, which ``repro diff`` gates on), then ARBALEST with the
#: continuous profiler sampling (governor at default budget — the tracked
#: profiler-tax number, gated at a couple percent over plain arbalest).
CONFIGS = ("native", *TOOL_ORDER, "arbalest-cert", "arbalest-rec", "arbalest-prof")

#: The ``large`` preset runs the detector configurations only, which keeps
#: the element-wise twins within CI time.
LARGE_CONFIGS = ("native", "arbalest", "arbalest-cert")


@dataclass
class Measurement:
    workload: str
    config: str
    seconds: float
    app_bytes: int
    shadow_bytes: int
    checksum: object

    @property
    def total_bytes(self) -> int:
        return self.app_bytes + self.shadow_bytes


@dataclass
class OverheadResult:
    preset: str
    measurements: list[Measurement] = field(default_factory=list)
    #: The shared continuous profiler from the ``arbalest-prof`` cells
    #: (``None`` when that configuration was not measured).
    profiler: Profiler | None = None

    def get(self, workload: str, config: str) -> Measurement:
        for m in self.measurements:
            if m.workload == workload and m.config == config:
                return m
        workloads = sorted({m.workload for m in self.measurements})
        configs = sorted({m.config for m in self.measurements})
        raise KeyError(
            f"no measurement for workload {workload!r} under config {config!r} "
            f"(measured workloads: {', '.join(workloads) or 'none'}; "
            f"configs: {', '.join(configs) or 'none'})"
        )

    @property
    def configs(self) -> list[str]:
        """The configurations actually measured, in canonical order."""
        present = {m.config for m in self.measurements}
        return [c for c in CONFIGS if c in present]

    def slowdown(self, workload: str, config: str) -> float:
        native = self.get(workload, "native").seconds
        return self.get(workload, config).seconds / max(native, 1e-9)

    def space_ratio(self, workload: str, config: str) -> float:
        native = self.get(workload, "native").total_bytes
        return self.get(workload, config).total_bytes / max(native, 1)

    # -- rendering -----------------------------------------------------------

    def render_time_table(self) -> str:
        configs = self.configs
        rows = []
        for w in sorted({m.workload for m in self.measurements}):
            rows.append(
                [w]
                + [f"{self.slowdown(w, c):.2f}x" for c in configs]
            )
        return render_table(
            ["Workload", *configs],
            rows,
            title=(
                "Fig 8: time overhead (slowdown vs native, "
                f"preset={self.preset})"
            ),
        )

    def render_space_table(self) -> str:
        configs = self.configs
        rows = []
        for w in sorted({m.workload for m in self.measurements}):
            rows.append(
                [w]
                + [
                    f"{self.get(w, c).total_bytes / 1024:.0f}K"
                    for c in configs
                ]
            )
        return render_table(
            ["Workload", *configs],
            rows,
            title=f"Fig 9: memory usage (app + shadow, preset={self.preset})",
        )

    def render_chart(self, workload: str) -> str:
        configs = self.configs
        values = [self.slowdown(workload, c) for c in configs]
        return render_ratio_chart(configs, values)

    def checksums_consistent(self) -> bool:
        """Every configuration must compute the same answer."""
        for w in {m.workload for m in self.measurements}:
            values = {repr(m.checksum) for m in self.measurements if m.workload == w}
            if len(values) != 1:
                return False
        return True


def measure_one(
    workload: Workload,
    config: str,
    preset: str,
    *,
    repetitions: int = 1,
    profiler: Profiler | None = None,
) -> Measurement:
    """One (workload, tool) cell: fresh machine, attach, run, account."""
    best = None
    for _ in range(max(1, repetitions)):
        rt = TargetRuntime(n_devices=1)
        tool = None
        recorder = None
        if config == "arbalest-prof":
            from ..core.detector import Arbalest

            tool = Arbalest().attach(rt.machine)
            # Continuous profiling exactly as production runs it: governor
            # armed at the default budget.  The caller may share one
            # profiler across cells (the aggregate feeds the flamegraph).
            if profiler is None:
                profiler = Profiler(
                    stride=DEFAULT_STRIDE, governor=Governor()
                )
            profiler.set_context(benchmark=workload.name, phase="host")
            rt.machine.bus.profiler = profiler
        elif config == "arbalest-cert":
            from ..core.detector import Arbalest
            from ..staticlint import spec_certificates

            # Workloads whose twin certifies nothing (postencil, polbm:
            # pointer swaps) run at plain-arbalest cost — honestly.
            certificate = spec_certificates().get(workload.name)
            tool = Arbalest(certificate=certificate).attach(rt.machine)
        elif config == "arbalest-rec":
            from ..core.detector import Arbalest
            from ..forensics import FlightRecorder

            tool = Arbalest().attach(rt.machine)
            recorder = rt.machine.bus.recorder = FlightRecorder()
        elif config != "native":
            tool = TOOL_FACTORIES[config]().attach(rt.machine)
        # Collector pauses are the dominant run-to-run jitter at these
        # millisecond scales; park the GC for the timed window so the
        # native/instrumented ratio measures the tools, not the allocator.
        gc_was_enabled = gc.isenabled()
        gc.collect()
        gc.disable()
        try:
            start = time.perf_counter()
            checksum = workload.run(rt, preset)
            rt.finalize()
            elapsed = time.perf_counter() - start
        finally:
            if gc_was_enabled:
                gc.enable()
        app_bytes = sum(d.allocator.peak_bytes for d in rt.machine.devices.values())
        shadow = tool.shadow_bytes() if tool is not None else 0
        if recorder is not None:
            shadow += recorder.shadow_bytes()
        m = Measurement(
            workload=workload.name,
            config=config,
            seconds=elapsed,
            app_bytes=app_bytes,
            shadow_bytes=shadow,
            checksum=checksum,
        )
        if best is None or m.seconds < best.seconds:
            best = m
    assert best is not None
    return best


def run_overhead_comparison(
    preset: str = "test",
    *,
    workloads: Iterable[Workload] = WORKLOADS,
    configs: Iterable[str] | None = None,
    repetitions: int = 3,
) -> OverheadResult:
    """The whole Fig 8 + Fig 9 experiment."""
    if configs is None:
        configs = LARGE_CONFIGS if preset == "large" else CONFIGS
    result = OverheadResult(preset=preset)
    configs = tuple(configs)
    if "arbalest-prof" in configs:
        # One profiler across all arbalest-prof cells: the governor keeps
        # its adapted stride between workloads (continuous profiling, not
        # per-run profiling) and the aggregate folded stacks become the
        # bench flamegraph.
        result.profiler = Profiler(stride=DEFAULT_STRIDE, governor=Governor())
    workloads = tuple(workloads)
    # Warm up numpy/runtime code paths so 'native' isn't charged for imports.
    # Run the *measured* preset: warming a different one leaves preset-sized
    # allocations and code paths cold and skews the first column.
    for w in workloads:
        rt = TargetRuntime(n_devices=1)
        w.run(rt, preset)
        rt.finalize()
    for w in workloads:
        for config in configs:
            result.measurements.append(
                measure_one(
                    w,
                    config,
                    preset,
                    repetitions=repetitions,
                    profiler=result.profiler,
                )
            )
    return result


def bench_payload(result: OverheadResult, *, repetitions: int) -> dict:
    """The Fig 8/9 numbers as a plain JSON-serializable dict.

    This is the tracked benchmark format (``BENCH_fig8.json``): per
    workload and configuration the wall-clock seconds, memory split, and
    the slowdown over native, plus a summary block for quick comparison
    across commits.
    """
    workloads = sorted({m.workload for m in result.measurements})
    configs = result.configs
    payload: dict = {
        "preset": result.preset,
        "repetitions": repetitions,
        "configs": configs,
        "checksums_consistent": result.checksums_consistent(),
        "workloads": {},
    }
    for w in workloads:
        row: dict = {}
        for c in configs:
            m = result.get(w, c)
            row[c] = {
                "seconds": round(m.seconds, 6),
                "app_bytes": m.app_bytes,
                "shadow_bytes": m.shadow_bytes,
                "slowdown": round(result.slowdown(w, c), 3),
            }
        payload["workloads"][w] = row
    arb = [result.slowdown(w, "arbalest") for w in workloads]
    cert = [result.slowdown(w, "arbalest-cert") for w in workloads]
    arb_geomean = float(np_geomean(arb))
    payload["summary"] = {
        "arbalest_slowdown_geomean": round(arb_geomean, 3),
        "arbalest_slowdown_max": round(max(arb), 3),
        "arbalest_cert_slowdown_geomean": round(float(np_geomean(cert)), 3),
        "arbalest_cert_slowdown_max": round(max(cert), 3),
    }
    if "arbalest-rec" in configs:
        rec = [result.slowdown(w, "arbalest-rec") for w in workloads]
        rec_geomean = float(np_geomean(rec))
        payload["summary"].update(
            {
                "arbalest_rec_slowdown_geomean": round(rec_geomean, 3),
                "arbalest_rec_slowdown_max": round(max(rec), 3),
                # The recorder's own cost, as a ratio over plain arbalest:
                # the <=1.05 acceptance bar lives on this number.
                "recorder_overhead_geomean": round(
                    rec_geomean / max(arb_geomean, 1e-9), 3
                ),
            }
        )
    if "arbalest-prof" in configs:
        prof = [result.slowdown(w, "arbalest-prof") for w in workloads]
        prof_geomean = float(np_geomean(prof))
        payload["summary"].update(
            {
                "arbalest_prof_slowdown_geomean": round(prof_geomean, 3),
                "arbalest_prof_slowdown_max": round(max(prof), 3),
                # The continuous profiler's tax over plain arbalest — the
                # governor's job is to keep this within a couple percent.
                "profiler_overhead_geomean": round(
                    prof_geomean / max(arb_geomean, 1e-9), 3
                ),
            }
        )
        if result.profiler is not None:
            payload["profiler"] = result.profiler.stats()
    payload["meta"] = run_meta(preset=result.preset, reps=repetitions)
    return payload


def np_geomean(values: list[float]) -> float:
    """Geometric mean without pulling numpy into the JSON path."""
    if not values:
        return 0.0
    product = 1.0
    for v in values:
        product *= max(v, 1e-12)
    return product ** (1.0 / len(values))


def run_bench(
    preset: str = "train",
    *,
    repetitions: int = 3,
    output: str = "BENCH_fig8.json",
    telemetry: bool = False,
    history: str | None = None,
    flamegraph: str | None = None,
) -> dict:
    """Run the Fig-8 matrix and write the tracked ``BENCH_fig8.json``.

    ``telemetry=True`` measures the whole matrix inside an active telemetry
    scope (event-ordinal clock) and embeds the metric snapshot under a
    ``"telemetry"`` key — the timings then include the instrumentation
    cost, so only compare slowdowns among runs with the same setting.

    ``history`` appends this run to the bench-history ledger (the
    ``repro sentinel`` input); ``flamegraph`` writes the aggregated
    ``arbalest-prof`` profile as a self-contained flamegraph HTML.
    """
    out_dir = os.path.dirname(os.path.abspath(output))
    if not os.path.isdir(out_dir):
        # Fail before the minutes-long measurement, not after it.
        raise FileNotFoundError(f"output directory does not exist: {out_dir}")
    if telemetry:
        from ..telemetry import Telemetry, scope

        # Metrics only: a span per event over the whole matrix would not
        # fit in memory, and the snapshot is what the tracked file embeds.
        registry = Telemetry(record_spans=False)
        with scope(registry):
            result = run_overhead_comparison(preset, repetitions=repetitions)
        payload = bench_payload(result, repetitions=repetitions)
        payload["telemetry"] = registry.snapshot()
    else:
        result = run_overhead_comparison(preset, repetitions=repetitions)
        payload = bench_payload(result, repetitions=repetitions)
    with open(output, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=False)
        fh.write("\n")
    if flamegraph is not None and result.profiler is not None:
        from ..observe.flame import write_flamegraph

        write_flamegraph(
            flamegraph,
            result.profiler.folded(),
            title=f"repro bench {preset} · arbalest-prof",
        )
    if history is not None:
        append_history(history, payload)
    return payload
