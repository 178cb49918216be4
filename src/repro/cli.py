"""Command-line entry point: regenerate any evaluation artifact.

::

    python -m repro table3                 # Table III (precision on DRACC)
    python -m repro fig8  [--preset ref]   # time overhead table + charts
    python -m repro bench [--preset train] # tracked bench -> BENCH_fig8.json
    python -m repro fig9  [--preset ref]   # memory usage table
    python -m repro casestudy              # 503.postencil (Fig 6/7)
    python -m repro ompsan                 # §VI.G static-vs-dynamic
    python -m repro lint  [--json]         # static linter over every twin
    python -m repro synth [--json]         # synthesized minimal mappings per twin
    python -m repro synth --score          # validation matrix -> BENCH_synth.json shape
    python -m repro synth --apply NAME     # print a synthesized program as pseudo-source
    python -m repro hybrid                 # static vs dynamic vs hybrid table
    python -m repro dracc 22               # one benchmark under all tools
    python -m repro chaos [--seed 0]       # fault-injection campaign -> BENCH_chaos.json
    python -m repro chaos --target serve   # chaos-against-server -> BENCH_serve_chaos.json
    python -m repro serve [--suite buggy]  # stream DRACC through the analysis server
    python -m repro serve --bench          # server throughput -> BENCH_serve.json
    python -m repro serve --socket         # long-lived TCP front end (SIGTERM drains)
    python -m repro serve --socket --log-file serve.jsonl  # + structured JSONL log
    python -m repro profile --suite dracc --benchmark 22   # telemetry -> trace.json
    python -m repro report [--suite buggy] # findings + provenance -> report.jsonl
    python -m repro diff old.jsonl new.jsonl  # report / synth-bench regression gate
    python -m repro sentinel               # the gate for timed (bench) artifacts
    python -m repro sentinel --seed-from BENCH_fig8.json  # migrate old artifacts
    python -m repro list [--json]          # inventory

Unknown artifact names (a bad ``--preset``, ``--suite``, or DRACC number)
exit with code 2 and a one-line message listing the valid choices.
"""

from __future__ import annotations

import argparse
import sys


def _cmd_table3(args: argparse.Namespace) -> int:
    from .harness import run_precision_comparison

    result = run_precision_comparison()
    print(result.render())
    ok = result.matches_paper()
    print(f"\nmatches the published Table III: {'yes' if ok else 'NO'}")
    return 0 if ok else 1


def _cmd_fig8(args: argparse.Namespace) -> int:
    from .harness import run_overhead_comparison
    from .specaccel import WORKLOADS

    result = run_overhead_comparison(preset=args.preset, repetitions=args.reps)
    print(result.render_time_table())
    print()
    for w in WORKLOADS:
        print(f"-- {w.name} ({w.spec_id}: {w.description}) --")
        print(result.render_chart(w.name))
        print()
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    from .harness import run_bench

    history = None
    if not args.no_history:
        import os

        # Default: the ledger lives next to the bench artifact, so runs
        # writing into a scratch directory keep their history there too.
        history = args.history or os.path.join(
            os.path.dirname(args.output) or ".", "BENCH_history.jsonl"
        )
    try:
        payload = run_bench(
            preset=args.preset,
            repetitions=args.reps,
            output=args.output,
            telemetry=args.telemetry,
            history=history,
            flamegraph=args.flamegraph,
        )
    except OSError as exc:
        print(f"repro bench: error: {exc}", file=sys.stderr)
        return 2
    configs = payload["configs"]
    width = max(12, max(len(c) for c in configs) + 2)
    header = f"{'Workload':<12}" + "".join(f"{c:>{width}}" for c in configs)
    print(f"Fig 8 benchmark (preset={payload['preset']}, "
          f"reps={payload['repetitions']})")
    print(header)
    for w, row in payload["workloads"].items():
        print(
            f"{w:<12}"
            + "".join(f"{row[c]['slowdown']:>{width - 1}.2f}x" for c in configs)
        )
    s = payload["summary"]
    print(
        f"\narbalest slowdown: geomean {s['arbalest_slowdown_geomean']:.2f}x, "
        f"max {s['arbalest_slowdown_max']:.2f}x"
    )
    print(
        "with certificates: geomean "
        f"{s['arbalest_cert_slowdown_geomean']:.2f}x, "
        f"max {s['arbalest_cert_slowdown_max']:.2f}x"
    )
    if "arbalest_rec_slowdown_geomean" in s:
        print(
            "with flight recorder: geomean "
            f"{s['arbalest_rec_slowdown_geomean']:.2f}x "
            f"({s['recorder_overhead_geomean']:.3f}x over plain arbalest)"
        )
    consistent = payload["checksums_consistent"]
    print(f"checksums consistent across configs: {'yes' if consistent else 'NO'}")
    if "telemetry" in payload:
        counters = payload["telemetry"]["counters"]
        print(
            f"telemetry: {len(counters)} counters embedded "
            f"({sum(counters.values())} events)"
        )
    if "arbalest_prof_slowdown_geomean" in s:
        profiler = payload.get("profiler", {})
        print(
            "with continuous profiler: geomean "
            f"{s['arbalest_prof_slowdown_geomean']:.2f}x "
            f"({s['profiler_overhead_geomean']:.3f}x over plain arbalest, "
            f"{profiler.get('samples', 0)} samples, "
            f"final stride {profiler.get('stride', '?')})"
        )
    print(f"wrote {args.output}")
    if history:
        print(f"appended to ledger {history}")
    if args.flamegraph:
        print(f"wrote flamegraph {args.flamegraph}")
    return 0 if consistent else 1


def _cmd_fig9(args: argparse.Namespace) -> int:
    from .harness import run_overhead_comparison

    result = run_overhead_comparison(preset=args.preset, repetitions=1)
    print(result.render_space_table())
    return 0


def _cmd_casestudy(args: argparse.Namespace) -> int:
    from .harness import run_case_study

    result = run_case_study(preset=args.preset)
    print(result.render())
    return 0 if result.reproduced else 1


def _cmd_ompsan(args: argparse.Namespace) -> int:
    from .ompsan import BUGGY_PROGRAMS, CLEAN_PROGRAMS, analyze, postencil

    found = 0
    for number in sorted(BUGGY_PROGRAMS):
        result = analyze(BUGGY_PROGRAMS[number]())
        found += not result.clean
        print(result.render())
    print(f"\nDRACC: {found}/{len(BUGGY_PROGRAMS)} issues found statically")
    for number in sorted(CLEAN_PROGRAMS):
        result = analyze(CLEAN_PROGRAMS[number]())
        if not result.clean:
            print("FALSE POSITIVE:", result.render())
    buggy_stencil = analyze(postencil(buggy=True))
    print(
        "503.postencil: "
        + ("MISSED (the paper's documented gap)" if buggy_stencil.clean else "found")
    )
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from .staticlint import lint_suite, render_suite

    payload = lint_suite()
    if args.json:
        import json

        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(render_suite(payload))
    # Linter semantics: findings anywhere -> non-zero, like any linter.
    return 1 if payload["summary"]["findings"] else 0


def _cmd_synth(args: argparse.Namespace) -> int:
    from .staticlint.synth import (
        render_program,
        render_synth_suite,
        synth_suite,
        synth_suite_programs,
        synthesize,
    )

    if args.score:
        from .harness.synth import run_synth_matrix

        matrix = run_synth_matrix()
        if args.json:
            import json

            print(json.dumps(matrix.to_json(), indent=2, sort_keys=True))
        else:
            print(matrix.render())
        if not args.no_history:
            from .observe.history import append_history

            try:
                append_history(args.history, matrix.to_json())
            except OSError as exc:
                print(f"repro synth: error: {exc}", file=sys.stderr)
                return 2
            # stderr: --json consumers parse stdout as one document.
            print(f"appended to ledger {args.history}", file=sys.stderr)
        return 0 if matrix.ok else 1
    if args.apply:
        programs = synth_suite_programs()
        names = [args.apply] if args.apply != "all" else sorted(programs)
        for name in names:
            if name not in programs:
                print(f"unknown program {name!r}; try one of:", file=sys.stderr)
                for known in sorted(programs):
                    print(f"  {known}", file=sys.stderr)
                return 2
            print(render_program(synthesize(programs[name]).program))
            print()
        return 0
    payload = synth_suite()
    if args.json:
        import json

        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(render_synth_suite(payload))
    summary = payload["summary"]
    ok = (
        summary["equivalent"] == summary["programs"]
        and summary["synth_bytes"] <= summary["baseline_bytes"]
    )
    return 0 if ok else 1


def _cmd_hybrid(args: argparse.Namespace) -> int:
    from .harness import run_hybrid_comparison

    result = run_hybrid_comparison()
    print(result.render())
    ok = result.matches_expectations()
    print(f"\nmatches the expected hybrid matrix: {'yes' if ok else 'NO'}")
    return 0 if ok else 1


def _cmd_dracc(args: argparse.Namespace) -> int:
    from .core import Arbalest
    from .dracc import get
    from .harness import run_benchmark_under_tools
    from .openmp import TargetRuntime

    try:
        bench = get(args.number)
    except KeyError:
        print(
            f"repro dracc: error: unknown benchmark {args.number} "
            "(valid choices: 1..56)",
            file=sys.stderr,
        )
        return 2
    print(f"{bench.name}: {bench.description}")
    effect = bench.expected_effect.name if bench.expected_effect else "none (clean)"
    print(f"expected effect: {effect}\n")
    result = run_benchmark_under_tools(bench)
    for tool, hit in result.detected.items():
        print(f"  {tool:>9}: {'DETECTED' if hit else '-'}")
    # Full ARBALEST reports for the curious.
    rt = TargetRuntime(n_devices=2)
    detector = Arbalest().attach(rt.machine)
    bench.run(rt)
    if detector.bug_reports:
        print()
        print(detector.render_reports())
    # Internal accounting: degraded runs must be visible without a debugger.
    hits, misses = detector.mapping_lookup_stats()
    total = hits + misses
    rate = 100.0 * hits / total if total else 0.0
    print()
    print(
        f"arbalest internals: mapping lookups {hits} fast-path / "
        f"{misses} tree descents ({rate:.1f}% cached)"
    )
    degradation = detector.degradation_stats()
    print(
        "  degradation: "
        + ", ".join(f"{k}={v}" for k, v in sorted(degradation.items()))
        + ("" if any(degradation.values()) else " (healthy)")
    )
    if args.report:
        from .forensics.report import write_report
        from .harness import TOOL_ORDER, run_report

        try:
            write_report(
                run_report(benchmarks=(bench,), tools=TOOL_ORDER), args.report
            )
        except OSError as exc:
            print(f"repro dracc: error: {exc}", file=sys.stderr)
            return 2
        print(f"wrote {args.report}")
    return 0


def _cmd_chaos_serve(args: argparse.Namespace) -> int:
    from .harness import run_serve_chaos

    output = args.output or "BENCH_serve_chaos.json"
    try:
        payload = run_serve_chaos(
            seed=args.seed,
            schedules=args.schedules,
            faults_per_schedule=args.faults,
            suite=args.suite,
            n_shards=args.shards,
            output=output,
            observe=not args.no_observe,
            trace_output=args.trace,
            log_output=args.log_file,
        )
    except OSError as exc:
        print(f"repro chaos: error: {exc}", file=sys.stderr)
        return 2
    print(
        f"Serve chaos campaign (seed={payload['seed']}, "
        f"schedules={payload['schedules']}, suite={payload['suite']}, "
        f"shards={payload['n_shards']}): "
        f"{payload['runs']} faulted sessions over "
        f"{payload['benchmarks']} benchmarks"
    )
    print(
        f"  injected faults: {payload['injected_total']} "
        f"{payload['injected_faults']}"
    )
    print(
        f"  worker kills triggered: {payload['worker_kills_triggered']}, "
        f"frame faults triggered: {payload['frame_faults_triggered']}, "
        f"restarts: {payload['worker_restarts']}, "
        f"retransmits: {payload['retransmits']}, "
        f"dup frames: {payload['dup_frames']}, "
        f"shed frames: {payload['shed_frames']}"
    )
    print(
        f"  crashes: {len(payload['crashes'])}, fingerprint mismatches: "
        f"{len(payload['fingerprint_mismatches'])}"
    )
    observability = payload.get("observability", {})
    if observability.get("enabled"):
        arc = observability.get("healthz_arc")
        print(
            f"  watchdog: fired in "
            f"{observability['watchdog_fired_runs']}/"
            f"{observability['runs_with_redelivery']} redelivery runs, "
            f"{observability['burn_events']} burns / "
            f"{observability['clear_events']} clears, healthz arc "
            + (" -> ".join(arc) if arc else "(none)")
        )
        trace = observability.get("trace")
        if trace is not None and trace.get("path"):
            print(
                f"  stitched trace: {trace['spans']} spans "
                f"({trace['replay_spans']} replay) across "
                f"{len(trace['processes'])} processes -> {trace['path']}"
            )
        if observability.get("log_path"):
            print(f"  structured log: {observability['log_path']}")
    print(f"wrote {output}")
    if not payload["ok"]:
        print(
            "serve chaos campaign FAILED: delivery or observability "
            "guarantee violated",
            file=sys.stderr,
        )
        return 1
    return 0


def _cmd_chaos(args: argparse.Namespace) -> int:
    from .harness import CHAOS_SUITES, run_chaos

    if args.suite not in CHAOS_SUITES:
        print(
            f"repro chaos: error: unknown suite {args.suite!r} "
            f"(valid choices: {', '.join(CHAOS_SUITES)})",
            file=sys.stderr,
        )
        return 2
    if args.target == "serve":
        return _cmd_chaos_serve(args)
    try:
        payload = run_chaos(
            seed=args.seed,
            schedules=args.schedules,
            faults_per_schedule=args.faults,
            suite=args.suite,
            output=args.output or "BENCH_chaos.json",
            telemetry=args.telemetry,
            report=args.report,
        )
    except OSError as exc:
        print(f"repro chaos: error: {exc}", file=sys.stderr)
        return 2
    print(
        f"Chaos campaign (seed={payload['seed']}, "
        f"schedules={payload['schedules']}, suite={payload['suite']}): "
        f"{payload['runs']} faulted runs over {payload['benchmarks']} benchmarks"
    )
    print(
        f"  injected faults: {payload['injected_total']} "
        f"{payload['injected_faults']}"
    )
    print(
        f"  crashes: {len(payload['crashes'])}, invariant violations: "
        f"{len(payload['invariant_violations'])}, quarantined events: "
        f"{payload['quarantined_events']}"
    )
    print(
        f"  transparent runs: {payload['transparent_runs']} "
        f"(divergences: {len(payload['transparent_divergences'])}), "
        f"event-faulted runs: {payload['event_faulted_runs']} "
        f"(diverged: {payload['event_faulted_diverged']}, "
        f"rate {payload['event_fault_divergence_rate']:.2%})"
    )
    for warning in payload["warnings"]:
        print(f"  warning: {warning}")
    if "telemetry" in payload:
        counters = payload["telemetry"]["counters"]
        recovery = {
            k: v
            for k, v in counters.items()
            if "retries" in k or "rollback" in k or "quarantine" in k
        }
        print(
            f"  telemetry: {len(counters)} counters embedded; recovery: "
            + (", ".join(f"{k}={v}" for k, v in sorted(recovery.items())) or "none")
        )
    print(f"wrote {args.output or 'BENCH_chaos.json'}")
    if args.report:
        print(f"wrote {args.report}")
    if not payload["ok"]:
        print("chaos campaign FAILED: recovery guarantee violated", file=sys.stderr)
        return 1
    if args.strict and payload["warnings"]:
        print(
            f"repro chaos: --strict: {len(payload['warnings'])} warning(s) "
            "treated as failures",
            file=sys.stderr,
        )
        return 1
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from .harness import SERVE_SUITES
    from .harness.precision import TOOL_FACTORIES

    if args.suite not in SERVE_SUITES:
        print(
            f"repro serve: error: unknown suite {args.suite!r} "
            f"(valid choices: {', '.join(SERVE_SUITES)})",
            file=sys.stderr,
        )
        return 2
    tools = tuple(t.strip() for t in args.tools.split(",") if t.strip())
    unknown = [t for t in tools if t not in TOOL_FACTORIES]
    if unknown or not tools:
        print(
            f"repro serve: error: unknown tool(s) {', '.join(unknown) or '(none)'} "
            f"(valid choices: {', '.join(sorted(TOOL_FACTORIES))})",
            file=sys.stderr,
        )
        return 2

    if args.socket or args.stdio:
        from .observe import ServeObserver
        from .serve import ServerConfig, serve_socket, serve_stdio

        config = ServerConfig(
            n_shards=args.shards,
            tools=tools,
            queue_cap=args.queue_cap,
        )
        observer = None
        log_sink = None
        try:
            if not args.no_observe:
                if args.log_file:
                    try:
                        log_sink = open(args.log_file, "w")
                    except OSError as exc:
                        print(f"repro serve: error: {exc}", file=sys.stderr)
                        return 2
                observer = ServeObserver(
                    log_sink=log_sink if log_sink is not None else sys.stderr
                )
            if args.socket:
                stats = serve_socket(
                    config,
                    host=args.host,
                    port=args.port,
                    max_connections=args.max_connections,
                    observer=observer,
                )
                print(
                    f"served {stats['connections_served']} connection(s), "
                    f"{stats['sessions']} session(s) on port {stats['port']}"
                )
            else:
                stats = serve_stdio(config, observer=observer)
                print(
                    f"served {stats['sessions']} session(s) over stdio",
                    file=sys.stderr,
                )
        finally:
            if log_sink is not None:
                log_sink.close()
        return 0

    if args.bench:
        from .harness import run_serve_bench

        import os

        output = args.output or "BENCH_serve.json"
        history = None
        if not args.no_history:
            history = args.history or os.path.join(
                os.path.dirname(output) or ".", "BENCH_history.jsonl"
            )
        try:
            payload = run_serve_bench(
                suite=args.suite,
                n_shards=args.shards,
                tools=tools,
                queue_cap=args.queue_cap,
                output=output,
                observe=not args.no_observe,
                history=history,
            )
        except OSError as exc:
            print(f"repro serve: error: {exc}", file=sys.stderr)
            return 2
        s = payload["summary"]
        print(
            f"Serve bench (suite={payload['suite']}, "
            f"shards={payload['n_shards']}): "
            f"{payload['events']} events in {payload['frames']} frames, "
            f"{payload['wire_bytes']} wire bytes"
        )
        print(
            f"  throughput: {s['events_per_sec']:.0f} events/sec, "
            f"frame latency p50 {s['p50_frame_latency_us']:.0f}us / "
            f"p99 {s['p99_frame_latency_us']:.0f}us"
        )
        profile = payload.get("profile")
        if profile:
            print(
                f"  profiler: {profile['samples']} samples over "
                f"{profile['events']} events (final stride {profile['stride']})"
            )
        print(f"  delivery verified: {'yes' if payload['delivery_ok'] else 'NO'}")
        # A run that ended in violation of its own SLOs published numbers
        # measured while degraded.
        burning = payload["observability"].get("watchdog", {}).get("burning", [])
        if burning:
            print(f"  SLOs still burning at the end: {', '.join(burning)}")
        print(f"wrote {output}")
        if history:
            print(f"appended to ledger {history}")
        return 0 if payload["delivery_ok"] and not burning else 1

    # Default: the loopback equivalence run (the serve self-test).
    from .harness import run_serve_suite

    payload = run_serve_suite(
        suite=args.suite,
        n_shards=args.shards,
        tools=tools,
        queue_cap=args.queue_cap,
    )
    print(
        f"Serve suite (suite={payload['suite']}, "
        f"shards={payload['n_shards']}): {payload['events']} events across "
        f"{payload['benchmarks']} sessions"
    )
    for session in payload["sessions"]:
        verdict = session["verdict"]
        status = "OK " if verdict["ok"] else "FAIL"
        print(
            f"  {status} {session['bench_name']}: "
            f"{verdict['delivered']}/{verdict['baseline']} findings delivered"
            + (
                f", dropped {len(verdict['dropped'])}, "
                f"unexpected {len(verdict['unexpected'])}"
                if not verdict["ok"]
                else ""
            )
        )
    print(
        "delivery guarantee: "
        + ("HELD (zero dropped, zero duplicated)" if payload["ok"] else "VIOLATED")
    )
    if args.report:
        from .forensics.report import write_report

        try:
            write_report(payload["report"], args.report)
        except OSError as exc:
            print(f"repro serve: error: {exc}", file=sys.stderr)
            return 2
        print(f"wrote {args.report}")
    return 0 if payload["ok"] else 1


def _cmd_profile(args: argparse.Namespace) -> int:
    from .harness import PROFILE_SUITES, run_profile

    if args.suite not in PROFILE_SUITES:
        print(
            f"repro profile: error: unknown suite {args.suite!r} "
            f"(valid choices: {', '.join(PROFILE_SUITES)})",
            file=sys.stderr,
        )
        return 2
    try:
        payload = run_profile(
            suite=args.suite,
            benchmark=args.benchmark,
            workload=args.workload,
            preset=args.preset,
            output=args.output,
            metrics_output=args.metrics,
        )
    except KeyError:
        what = (
            f"benchmark {args.benchmark} (valid choices: 1..56)"
            if args.suite == "dracc"
            else f"workload {args.workload!r} (see 'repro list')"
        )
        print(f"repro profile: error: unknown {what}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"repro profile: error: {exc}", file=sys.stderr)
        return 2
    print(
        f"profiled {payload['target']} under arbalest "
        f"({payload['span_count']} spans across "
        f"layers: {', '.join(payload['span_layers'])})"
    )
    snapshot = payload["snapshot"]
    gauges = snapshot["gauges"]
    print()
    print(
        f"counters: {len(snapshot['counters'])}  findings: {payload['findings']}  "
        f"lookup hits/misses: {gauges.get('detector.lookup_hits', 0)}/"
        f"{gauges.get('detector.lookup_misses', 0)}  "
        f"quarantined: {gauges.get('detector.quarantined_events', 0)}"
    )
    print(f"wrote {args.output}" + (f" and {args.metrics}" if args.metrics else ""))
    print("open the trace in chrome://tracing or https://ui.perfetto.dev")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from .forensics.html import render_html
    from .forensics.report import render_text, write_report
    from .harness import REPORT_SUITES, run_report
    from .harness.precision import TOOL_FACTORIES

    if args.suite not in REPORT_SUITES:
        print(
            f"repro report: error: unknown suite {args.suite!r} "
            f"(valid choices: {', '.join(REPORT_SUITES)})",
            file=sys.stderr,
        )
        return 2
    tools = tuple(t.strip() for t in args.tools.split(",") if t.strip())
    unknown = [t for t in tools if t not in TOOL_FACTORIES]
    if unknown or not tools:
        print(
            f"repro report: error: unknown tool(s) {', '.join(unknown) or '(none)'} "
            f"(valid choices: {', '.join(sorted(TOOL_FACTORIES))})",
            file=sys.stderr,
        )
        return 2
    if args.capacity < 1:
        print(
            f"repro report: error: ring capacity must be positive, "
            f"got {args.capacity}",
            file=sys.stderr,
        )
        return 2
    payload = run_report(
        suite=args.suite,
        tools=tools,
        capacity=args.capacity,
    )
    print(render_text(payload), end="")
    try:
        write_report(payload, args.output)
        if args.html:
            with open(args.html, "w") as fh:
                fh.write(render_html(payload))
    except OSError as exc:
        print(f"repro report: error: {exc}", file=sys.stderr)
        return 2
    print(f"\nwrote {args.output}" + (f" and {args.html}" if args.html else ""))
    return 0


def _cmd_diff(args: argparse.Namespace) -> int:
    from .forensics.diff import diff_artifacts, render_diff

    try:
        result = diff_artifacts(args.old, args.new)
    except (OSError, ValueError) as exc:
        print(f"repro diff: error: {exc}", file=sys.stderr)
        return 2
    print(render_diff(result), end="")
    return 1 if result["regression"] else 0


def _cmd_sentinel(args: argparse.Namespace) -> int:
    from .observe.history import HISTORY_KINDS, seed_history
    from .observe.sentinel import render_sentinel, run_sentinel

    if args.kind not in HISTORY_KINDS:
        print(
            f"repro sentinel: error: unknown kind {args.kind!r} "
            f"(valid choices: {', '.join(HISTORY_KINDS)})",
            file=sys.stderr,
        )
        return 2
    if args.seed_from:
        try:
            appended = seed_history(args.history, args.seed_from)
        except OSError as exc:
            print(f"repro sentinel: error: {exc}", file=sys.stderr)
            return 2
        print(f"seeded {appended} entr(y/ies) into {args.history}")
    try:
        payload = run_sentinel(
            args.history,
            kind=args.kind,
            window=args.window,
            alpha=args.alpha,
            seed=args.seed,
            resamples=args.resamples,
            min_shift=args.min_shift,
        )
    except (OSError, ValueError) as exc:
        print(f"repro sentinel: error: {exc}", file=sys.stderr)
        return 2
    if args.json:
        import json

        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(render_sentinel(payload))
    return 1 if payload["regressions"] else 0


def _cmd_list(args: argparse.Namespace) -> int:
    from .dracc import all_benchmarks
    from .specaccel import WORKLOADS

    if args.json:
        import json

        from .harness import inventory

        print(json.dumps(inventory(), indent=2, sort_keys=True))
        return 0
    print("DRACC benchmarks:")
    for b in all_benchmarks():
        effect = b.expected_effect.name if b.expected_effect else "     "
        print(f"  {b.name}  {effect}  {b.description[:70]}")
    print("\nSPEC ACCEL workloads:")
    for w in WORKLOADS:
        print(f"  {w.spec_id}.{w.name:<10} {w.description}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The ``python -m repro`` argument parser (one subcommand per artifact)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="ARBALEST reproduction: regenerate the paper's evaluation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("table3", help="Table III: precision on DRACC").set_defaults(
        fn=_cmd_table3
    )

    p8 = sub.add_parser("fig8", help="Fig 8: time overhead on SPEC ACCEL")
    p8.add_argument(
        "--preset", default="ref", choices=("test", "train", "ref", "large")
    )
    p8.add_argument("--reps", type=int, default=3)
    p8.set_defaults(fn=_cmd_fig8)

    pb = sub.add_parser(
        "bench", help="tracked benchmark: Fig-8 matrix -> BENCH_fig8.json"
    )
    pb.add_argument(
        "--preset", default="train", choices=("test", "train", "ref", "large")
    )
    pb.add_argument("--reps", type=int, default=3)
    pb.add_argument("--output", default="BENCH_fig8.json")
    pb.add_argument(
        "--telemetry",
        action="store_true",
        help="measure inside a telemetry scope and embed the metric snapshot",
    )
    pb.add_argument(
        "--history",
        default=None,
        metavar="PATH",
        help="bench-history ledger to append this run to "
        "(default: BENCH_history.jsonl next to --output)",
    )
    pb.add_argument(
        "--no-history",
        action="store_true",
        help="do not append this run to the bench-history ledger",
    )
    pb.add_argument(
        "--flamegraph",
        default=None,
        metavar="PATH",
        help="write the continuous profiler's flamegraph HTML to PATH",
    )
    pb.set_defaults(fn=_cmd_bench)

    p9 = sub.add_parser("fig9", help="Fig 9: memory usage on SPEC ACCEL")
    p9.add_argument("--preset", default="ref", choices=("test", "train", "ref"))
    p9.set_defaults(fn=_cmd_fig9)

    pc = sub.add_parser("casestudy", help="Fig 6/7: 503.postencil")
    pc.add_argument("--preset", default="ref", choices=("test", "train", "ref"))
    pc.set_defaults(fn=_cmd_casestudy)

    sub.add_parser("ompsan", help="§VI.G: static vs dynamic").set_defaults(
        fn=_cmd_ompsan
    )

    pl2 = sub.add_parser(
        "lint", help="static mapping linter over every static twin"
    )
    pl2.add_argument(
        "--json",
        action="store_true",
        help="machine-readable findings (the golden-file format)",
    )
    pl2.set_defaults(fn=_cmd_lint)

    py = sub.add_parser(
        "synth", help="synthesize minimal data mappings for the clean twins"
    )
    py.add_argument(
        "--json",
        action="store_true",
        help="machine-readable payload (the golden-file format)",
    )
    py.add_argument(
        "--apply",
        metavar="PROGRAM",
        help="print the synthesized program as pseudo-source ('all' for every one)",
    )
    py.add_argument(
        "--score",
        action="store_true",
        help="full validation matrix: detector-clean, "
        "value-equivalent, bytes <= hand-written (BENCH_synth.json shape)",
    )
    py.add_argument(
        "--history",
        default="BENCH_history.jsonl",
        metavar="PATH",
        help="ledger --score appends to (default: BENCH_history.jsonl)",
    )
    py.add_argument(
        "--no-history",
        action="store_true",
        help="do not append the --score run to the bench-history ledger",
    )
    py.set_defaults(fn=_cmd_synth)

    sub.add_parser(
        "hybrid", help="static vs dynamic vs hybrid precision on DRACC"
    ).set_defaults(fn=_cmd_hybrid)

    pd = sub.add_parser("dracc", help="run one DRACC benchmark under all tools")
    pd.add_argument("number", type=int)
    pd.add_argument(
        "--report",
        default=None,
        metavar="PATH",
        help="also write a forensics report (JSONL) for this benchmark",
    )
    pd.set_defaults(fn=_cmd_dracc)

    px = sub.add_parser(
        "chaos", help="fault-injection campaign -> BENCH_chaos.json"
    )
    px.add_argument("--seed", type=int, default=0)
    px.add_argument("--schedules", type=int, default=3)
    px.add_argument("--faults", type=int, default=6)
    # Validated by hand (not argparse choices) so an unknown suite gets a
    # one-line error instead of the full usage dump.
    px.add_argument("--suite", default="all")
    px.add_argument(
        "--target",
        default="runtime",
        choices=("runtime", "serve"),
        help="what the faults attack: the simulated runtime, or the "
        "analysis server (worker kills + wire-frame faults)",
    )
    px.add_argument(
        "--shards",
        type=int,
        default=4,
        help="shard workers per session (serve target only)",
    )
    px.add_argument(
        "--output",
        default=None,
        help="artifact path (default: BENCH_chaos.json, or "
        "BENCH_serve_chaos.json for --target serve)",
    )
    px.add_argument(
        "--strict",
        action="store_true",
        help="treat chaos warnings (bounded divergence) as failures",
    )
    px.add_argument(
        "--telemetry",
        action="store_true",
        help="run inside a telemetry scope and embed the metric snapshot",
    )
    px.add_argument(
        "--report",
        default=None,
        metavar="PATH",
        help="also write a forensics report (JSONL) of the un-faulted suite",
    )
    px.add_argument(
        "--trace",
        default=None,
        metavar="PATH",
        help="write the stitched cross-process Chrome trace of a "
        "worker-kill run (serve target only)",
    )
    px.add_argument(
        "--log-file",
        default=None,
        metavar="PATH",
        help="write the campaign's structured JSONL event log "
        "(serve target only)",
    )
    px.add_argument(
        "--no-observe",
        action="store_true",
        help="disable the observability layer during the campaign "
        "(serve target only)",
    )
    px.set_defaults(fn=_cmd_chaos)

    ps = sub.add_parser(
        "serve",
        help="detection-as-a-service: stream DRACC through the analysis server",
    )
    # Suite and tools are validated by hand for one-line errors.
    ps.add_argument("--suite", default="buggy")
    ps.add_argument(
        "--tools",
        default="arbalest",
        help="comma-separated tool list (default: arbalest)",
    )
    ps.add_argument(
        "--shards", type=int, default=4, help="shard workers per session"
    )
    ps.add_argument(
        "--queue-cap",
        type=int,
        default=256,
        help="per-session reorder-buffer capacity in parked events",
    )
    ps.add_argument(
        "--bench",
        action="store_true",
        help="measure throughput + frame latency -> BENCH_serve.json",
    )
    ps.add_argument(
        "--socket",
        action="store_true",
        help="run the long-lived TCP front end (SIGTERM drains gracefully)",
    )
    ps.add_argument("--host", default="127.0.0.1")
    ps.add_argument("--port", type=int, default=0)
    ps.add_argument(
        "--max-connections",
        type=int,
        default=None,
        help="exit after serving this many connections (for CI/tests)",
    )
    ps.add_argument(
        "--stdio",
        action="store_true",
        help="serve one connection over stdin/stdout",
    )
    ps.add_argument(
        "--output",
        default=None,
        help="bench artifact path (default: BENCH_serve.json)",
    )
    ps.add_argument(
        "--report",
        default=None,
        metavar="PATH",
        help="write the delivered findings as a repro-report/1 JSONL "
        "(diffable against the in-process golden report)",
    )
    ps.add_argument(
        "--log-file",
        default=None,
        metavar="PATH",
        help="write structured JSONL logs to PATH (default: stderr); "
        "front ends only",
    )
    ps.add_argument(
        "--no-observe",
        action="store_true",
        help="disable live observability (metrics/health/SLO watchdog) "
        "on the front ends and the bench",
    )
    ps.add_argument(
        "--history",
        default="BENCH_history.jsonl",
        metavar="PATH",
        help="ledger --bench appends to (default: BENCH_history.jsonl)",
    )
    ps.add_argument(
        "--no-history",
        action="store_true",
        help="do not append the --bench run to the bench-history ledger",
    )
    ps.set_defaults(fn=_cmd_serve)

    pp = sub.add_parser(
        "profile", help="one workload with full telemetry -> trace.json"
    )
    # Suite/benchmark/workload are validated by hand for one-line errors.
    pp.add_argument("--suite", default="dracc")
    pp.add_argument("--benchmark", type=int, default=22)
    pp.add_argument("--workload", default="postencil")
    pp.add_argument("--preset", default="test", choices=("test", "train", "ref"))
    pp.add_argument("--output", default="trace.json")
    pp.add_argument(
        "--metrics",
        default=None,
        help="also write the metric snapshot JSON to this path",
    )
    pp.set_defaults(fn=_cmd_profile)

    pr = sub.add_parser(
        "report", help="findings + provenance -> report.jsonl (and HTML)"
    )
    # Suite and tools are validated by hand for one-line errors.
    pr.add_argument("--suite", default="buggy")
    pr.add_argument(
        "--tools",
        default="arbalest",
        help="comma-separated tool list (default: arbalest)",
    )
    pr.add_argument(
        "--capacity",
        type=int,
        default=64,
        help="per-variable flight-recorder ring capacity",
    )
    pr.add_argument("--output", default="report.jsonl")
    pr.add_argument(
        "--html",
        default=None,
        metavar="PATH",
        help="also write a self-contained HTML rendering",
    )
    pr.set_defaults(fn=_cmd_report)

    pf = sub.add_parser(
        "diff",
        help="compare two report/synth-bench artifacts; exit 1 on regression "
        "(timed artifacts: see sentinel)",
    )
    pf.add_argument(
        "old", help="baseline artifact (report JSONL or synth-bench JSON)"
    )
    pf.add_argument("new", help="candidate artifact of the same type")
    pf.set_defaults(fn=_cmd_diff)

    pn = sub.add_parser(
        "sentinel",
        help="statistical perf-regression verdicts over the bench-history "
        "ledger; exit 1 on regression",
    )
    pn.add_argument(
        "--history",
        default="BENCH_history.jsonl",
        metavar="PATH",
        help="ledger to analyze (default: BENCH_history.jsonl)",
    )
    # Kind is validated by hand for a one-line error.
    pn.add_argument(
        "--kind",
        default="bench",
        help="entry kind to analyze: bench, serve-bench, or synth-bench",
    )
    pn.add_argument(
        "--window",
        type=int,
        default=5,
        help="change-point window: the last N runs are the candidate "
        "population (default: 5)",
    )
    pn.add_argument(
        "--alpha",
        type=float,
        default=0.05,
        help="Mann-Whitney significance level (default: 0.05)",
    )
    pn.add_argument(
        "--min-shift",
        type=float,
        default=0.02,
        help="practical floor: smaller relative median shifts are never "
        "regressions (default: 0.02)",
    )
    pn.add_argument(
        "--seed",
        type=int,
        default=108,
        help="bootstrap RNG seed (verdicts are deterministic per seed)",
    )
    pn.add_argument(
        "--resamples",
        type=int,
        default=1000,
        help="bootstrap resamples for the shift CI (default: 1000)",
    )
    pn.add_argument(
        "--seed-from",
        nargs="+",
        default=None,
        metavar="ARTIFACT",
        help="first migrate these pre-ledger BENCH_*.json artifacts "
        "into the ledger",
    )
    pn.add_argument(
        "--json",
        action="store_true",
        help="emit the machine-readable sentinel/1 payload",
    )
    pn.set_defaults(fn=_cmd_sentinel)

    pl = sub.add_parser("list", help="inventory of benchmarks and workloads")
    pl.add_argument(
        "--json",
        action="store_true",
        help="machine-readable inventory (for scripts/CI)",
    )
    pl.set_defaults(fn=_cmd_list)
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
