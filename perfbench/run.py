"""Time to a verdict for the ARBALEST detector, in-process and served.

Run from the repository root::

    python3 perfbench/run.py --workload dracc --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing patched.
``--trace 1`` measures the same untraced window (for the tracing overhead
and the native floor), then runs traced passes that wrap the package's
public functions and reports the per-layer split.  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``.  README.md in this directory documents the workloads and
every metric.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Where a traced run writes its spans (ignored by git).
SPAN_DIR = ROOT / ".bench_build" / "perfbench"

#: Traced passes at least; two make the pass-to-pass determinism check.
MIN_TRACED_PASSES = 2

#: Call counts that must repeat exactly in every traced pass.
COUNT_KEYS = ("events.publish", "events.publish.access", "core.on_access", "tools.race")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("spec-large", "dracc", "serve"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_package():
    """Import the package from this checkout's ``src``; fail loudly without it."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no package source at {src / 'repro'}; run from a full checkout")
    # One compute thread: the detector is single-threaded Python, and a
    # numpy thread pool would only add scheduling noise.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}, not {src}")


def passes_for(workload, rng: random.Random, seconds: float, *, at_least: int, tracer=None):
    """Run shuffled passes for ``seconds``: no pass starts that would not end in time.

    ``at_least`` passes run whatever the time.  With a tracer, each pass also
    records the calls and counters it added, for the determinism check.
    """
    passes = []
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        if len(passes) >= at_least and elapsed + elapsed / len(passes) > seconds:
            return passes
        order = rng.sample(workload.programs, len(workload.programs))
        if tracer is None:
            passes.append(workload.run_pass(order))
            continue
        calls, frames = dict(tracer.calls), tracer.counters["serve.frames"]
        passes.append(workload.run_pass(order, tracer))
        counts = passes[-1].counts
        for key in COUNT_KEYS:
            counts[key] = tracer.calls[key] - calls.get(key, 0)
        counts["serve.frames"] = tracer.counters["serve.frames"] - frames


def end_to_end(workload, passes, setup_s: float) -> dict:
    """The end-to-end metrics: time to a verdict per program, and set-up."""
    from workloads import geomean, per_program, quantile, verdict_times

    times = verdict_times(passes, *workload.verdict_modes)
    return {
        "verdict_ms_p50": (quantile(times, 0.50) * 1e3, "ms"),
        "verdict_ms_p90": (quantile(times, 0.90) * 1e3, "ms"),
        "arbalest_s": (geomean(per_program(passes, *workload.verdict_modes).values()), "s"),
        "setup_s": (setup_s, "s"),
    }


def determinism_defects(label: str, passes) -> list[str]:
    """Counts that differ between passes: a defect of the benchmark itself."""
    series = [dict(p.counts, **p.failures) for p in passes]
    return [
        f"{label} pass {i} counts {counts} != pass 0 counts {series[0]}"
        for i, counts in enumerate(series[1:], start=1)
        if counts != series[0]
    ]


def per_layer(workload, tracer, traced, untraced, named, certify_s) -> dict:
    """Per-layer metrics, per traced pass; zero where a layer does no work.

    Times are at nominal host speed: span times are scaled by the traced
    passes' nominal-to-wall ratio.
    """
    from layers import LAYERS

    n = len(traced)
    self_s, calls, counters = tracer.self_s, tracer.calls, tracer.counters
    layer = {}
    for p in traced:
        for key, value in p.layer.items():
            layer[key] = layer.get(key, 0) + value

    traced_wall = sum(sum(p.windows) for p in traced)
    traced_nominal = sum(p.nominal_wall() for p in traced)
    untraced_nominal = sum(p.nominal_wall() for p in untraced)
    scale = traced_nominal / traced_wall / n

    def s(key):
        return self_s.get(key, 0.0) * scale

    def ratio(num, den):
        return num / den if den else 0.0

    events = getattr(workload, "events", 0) * n
    attributed = sum(self_s.values())
    metrics = {
        "events.flush_batch.self_s": (s("events.flush_batch"), "s"),
        "events.batch_mean": (ratio(counters.get("events.batched", 0), counters.get("events.batches", 0)), "count"),
        "events.small_batch_ratio": (
            ratio(counters.get("events.small_batches", 0), counters.get("events.batches", 0)),
            "ratio",
        ),
        "events.publish.calls": ((calls.get("events.publish", 0) + calls.get("events.publish.access", 0)) / n, "count"),
        "events.wire.encode_s": (s("events.wire.encode"), "s"),
        "events.wire.decode_s": (s("events.wire.decode"), "s"),
        "events.json_s": (s("events.json"), "s"),
        "events.wire.bytes_per_event": (ratio(counters.get("serve.bytes", 0), events), "B/event"),
        "core.on_batch.self_s": (s("core.on_batch"), "s"),
        "core.vsm.self_s": (s("core.vsm"), "s"),
        "core.lookup.self_s": (s("core.lookup"), "s"),
        "core.lookup_hit_ratio": (
            ratio(layer.get("lookup_hits", 0), layer.get("lookup_hits", 0) + layer.get("lookup_misses", 0)),
            "ratio",
        ),
        "core.on_access.calls": (calls.get("core.on_access", 0) / n, "count"),
        "core.on_access.self_s": (s("core.on_access"), "s"),
        "core.on_data_op.self_s": (s("core.on_data_op"), "s"),
        "core.on_allocation.self_s": (s("core.on_allocation"), "s"),
        "core.shadow_bytes": (layer.get("shadow_bytes", 0) / n, "B"),
        "core.cert_skip_ratio": (ratio(layer.get("cert_skips", 0), layer.get("cert_accesses", 0)), "ratio"),
        "tools.race.calls": (calls.get("tools.race", 0) / n, "count"),
        "tools.race.self_s": (s("tools.race"), "s"),
        "openmp.native_s": (named.get("native_s", (0.0,))[0], "s"),
        "openmp.fig8_slowdown": (named.get("fig8_slowdown", (0.0,))[0], "ratio"),
        "openmp.init_s": (s("openmp.init"), "s"),
        "openmp.runtime.self_s": (s("openmp.runtime"), "s"),
        "staticlint.certify_s": (certify_s * scale * n, "s"),
        "serve.client.self_s": (s("serve.client"), "s"),
        "serve.server.self_s": (s("serve.server"), "s"),
        "serve.journal.record_s": (s("serve.journal.record"), "s"),
        "serve.route.self_s": (s("serve.route"), "s"),
        "serve.shard.deliver.self_s": (s("serve.shard.deliver"), "s"),
        "serve.frames_per_event": (ratio(counters.get("serve.frames", 0), events), "ratio"),
        "serve.redeliveries": (layer.get("redeliveries", 0) / n, "count"),
        "observe.frame_handled_s": (s("observe.frame_handled"), "s"),
    }
    for name in LAYERS:
        total = sum(v for k, v in self_s.items() if k.split(".")[0] == name)
        metrics[f"{name}.self_s"] = (total * scale, "s")
    # The certificate step runs once, outside the passes, but inside spans.
    metrics["staticlint.self_s"] = metrics["staticlint.certify_s"]
    pass_attributed = attributed - self_s.get("staticlint.certify", 0.0)
    metrics["trace.residual_ratio"] = (ratio(traced_wall - pass_attributed, traced_wall), "ratio")
    metrics["trace.overhead_ratio"] = (ratio(traced_nominal / n, untraced_nominal / len(untraced)), "ratio")
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    import_started = time.perf_counter()
    import_package()
    import speed
    import workloads as wl

    import_s = time.perf_counter() - import_started
    workload = wl.WORKLOADS[args.workload]()
    rng = random.Random(args.seed)

    # Set-up: certificates or recorded traces, then one untimed warm-up pass,
    # each at nominal host speed like every other time reported.
    probed = speed.probe()
    import_s /= speed.slowdown(probed, probed)
    setups = []
    for _ in range(workload.setup_repeats):
        started = time.perf_counter()
        workload.prepare()
        prepared = time.perf_counter() - started
        before, probed = probed, speed.probe()
        warmup = workload.run_pass(rng.sample(workload.programs, len(workload.programs)))
        setups.append(prepared / speed.slowdown(before, probed) + warmup.nominal_wall())
    setup_s = import_s + statistics.median(setups)

    passes = passes_for(workload, rng, args.seconds, at_least=workload.min_passes)
    failures = sum(sum(p.failures.values()) for p in passes)
    attempted = sum(len(p.runs) for p in passes)
    failed = sum(r.failed for p in passes for r in p.runs)
    if hasattr(workload, "check_once"):
        table3 = workload.check_once()
        attempted += 1
        failed += table3
        failures += table3
    named = workload.named_metrics(passes)
    defects = determinism_defects("timed", passes)

    if args.trace:
        from layers import install
        from tracer import Tracer

        try:
            from repro.events.columnar import MIN_BATCH as min_batch
        except ImportError:
            min_batch = 64
        tracer = Tracer()
        missing = install(tracer, min_batch=min_batch)
        try:
            workload.certify()
            certify_s = tracer.self_s.get("staticlint.certify", 0.0)
            traced = passes_for(workload, rng, args.seconds / 2, at_least=MIN_TRACED_PASSES, tracer=tracer)
        finally:
            tracer.uninstall()
        failures += sum(sum(p.failures.values()) for p in traced)
        defects += determinism_defects("traced", traced)
        metrics = per_layer(workload, tracer, traced, passes, named, certify_s)
        span_file = SPAN_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl.gz"
        tracer.write(span_file, {"workload": args.workload, "seed": args.seed, "passes": len(traced)})
        print(f"spans: {tracer.stored} kept, {tracer.dropped} dropped -> {span_file}")
        if missing:
            print(f"warning: sites not found, not traced: {', '.join(missing)}")
    else:
        metrics = end_to_end(workload, passes, setup_s)

    for defect in defects:
        print(f"DEFECT (benchmark): nondeterministic counts: {defect}")
    verdicts = len(wl.verdict_times(passes, *workload.verdict_modes))
    print(f"workload {args.workload}, seed {args.seed}: {len(passes)} timed passes, {attempted} runs, {verdicts} verdicts")
    slowdowns = sorted(f for p in passes for f in p.slowdowns)
    print("  pass wall s: " + " ".join(f"{sum(p.windows):.3f}" for p in passes))
    print(f"  host slowdown over nominal: median {statistics.median(slowdowns):.3f}, range {slowdowns[0]:.3f}-{slowdowns[-1]:.3f}")
    for name, (value, unit) in named.items():
        print(f"  {name} = {value:.6g} {unit}")
    print(f"  {workload.failure_metric} = {failures}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    correct = failures == 0 and not defects
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
