"""The serve harness: DRACC suites streamed through the analysis server.

Three experiments, all built on the same plumbing (record a benchmark's
OMPT trace, replay it through in-process tools for the baseline, stream
the same events through a :class:`~repro.serve.server.AnalysisServer`
over the loopback transport):

* :func:`run_serve_suite` — the equivalence run.  Every benchmark's
  served finding set is verified against the in-process baseline via the
  session's :class:`~repro.forensics.ledger.DeliveryLedger`, and the
  delivered findings are assembled into a ``repro-report/1`` payload so
  CI can ``repro diff`` the served suite against the tracked golden
  report.  The serve path runs without a flight recorder, so its entries
  carry variables, fingerprints and counts but no timelines.
* :func:`run_serve_bench` — the throughput run.  Events/sec and frame
  latency percentiles over the streamed suite, written to the tracked
  ``BENCH_serve.json`` (``serve-bench/1`` shape) and appended to the
  bench-history ledger, which ``repro sentinel --kind serve-bench``
  gates.
* :func:`run_serve_chaos_campaign` — the certification run.  Seeded
  schedules of serve faults (worker kills, frame drop/dup/reorder) are
  injected while streaming; the campaign asserts **zero crashes** and
  **byte-identical fingerprints** against the unfaulted baseline — the
  delivery guarantee, chaos-certified.
"""

from __future__ import annotations

import gc
import io
import json
import os
import random
import time
from dataclasses import replace
from statistics import median
from typing import Iterable

from ..dracc.registry import (
    DraccBenchmark,
    all_benchmarks,
    buggy_benchmarks,
    clean_benchmarks,
)
from ..events.trace_io import TraceWriter, read_trace, replay
from ..events.wire import EVENTS_PER_FRAME
from ..faults.plan import FaultKind, FaultPlan
from ..forensics.report import SCHEMA, build_summary, finding_entry
from ..openmp.runtime import TargetRuntime
from ..serve import (
    DEFAULT_TOOLS,
    AnalysisServer,
    LoopbackTransport,
    ServeClient,
    ServerConfig,
)

#: Valid ``--suite`` selections for the serve CLI.
SERVE_SUITES = ("buggy", "clean", "all")

#: Serve fault kinds in deterministic generation order (the frozenset in
#: :mod:`repro.faults.plan` has no order; plans must).
SERVE_CHAOS_KINDS = (
    FaultKind.WORKER_KILL,
    FaultKind.FRAME_DROP,
    FaultKind.FRAME_DUP,
    FaultKind.FRAME_REORDER,
)

#: The serve-bench artifact identifier ``repro diff`` sniffs on.
SERVE_BENCH_ARTIFACT = "serve-bench/1"


def _suite(name: str) -> tuple[DraccBenchmark, ...]:
    if name == "buggy":
        return buggy_benchmarks()
    if name == "clean":
        return clean_benchmarks()
    if name == "all":
        return all_benchmarks()
    raise ValueError(
        f"unknown suite {name!r} (valid choices: {', '.join(SERVE_SUITES)})"
    )


def record_trace(bench: DraccBenchmark) -> list:
    """Run ``bench`` on a fresh machine and return its recorded events."""
    rt = TargetRuntime(n_devices=2)
    sink = io.StringIO()
    TraceWriter(sink).attach(rt.machine)
    bench.run(rt)
    sink.seek(0)
    return list(read_trace(sink))


def baseline_fingerprints(
    events: list, tools: Iterable[str] = ("arbalest",)
) -> tuple[tuple[str, str], ...]:
    """In-process fingerprints: the recorded trace through fresh tools.

    The bus's variable index names findings from the replayed events,
    exactly as each shard's bus and the live runtime's bus do, so every
    fingerprint matches both the served path and the live golden-report
    path.  No flight recorder is needed for that.
    """
    instances = {name: DEFAULT_TOOLS[name]() for name in tools}
    replay(events, instances.values())
    return tuple(
        sorted(
            (name, finding.fingerprint())
            for name, tool in instances.items()
            for finding in tool.findings
        )
    )


# -- equivalence suite --------------------------------------------------------


def run_serve_suite(
    *,
    suite: str = "buggy",
    n_shards: int = 4,
    tools: Iterable[str] = ("arbalest",),
    queue_cap: int = 256,
    benchmarks: Iterable[DraccBenchmark] | None = None,
) -> dict:
    """Stream a DRACC suite through one server; verify every delivery.

    One server hosts the whole suite — each benchmark is its own session
    (client id = benchmark number), so the run also exercises session
    isolation.  Returns the verdict payload with an embedded
    ``repro-report/1`` document built from the *delivered* findings.
    """
    tools = tuple(tools)
    benches = tuple(benchmarks) if benchmarks is not None else _suite(suite)
    server = AnalysisServer(
        ServerConfig(
            n_shards=n_shards, tools=tools, queue_cap=queue_cap
        )
    )
    sessions: list[dict] = []
    findings: list[dict] = []
    total_events = 0
    for bench in benches:
        events = record_trace(bench)
        total_events += len(events)
        baseline = baseline_fingerprints(events, tools)
        client = ServeClient(
            LoopbackTransport(server), client_id=bench.number
        )
        result = client.stream(events, meta={"benchmark": bench.number})
        session = server.sessions[bench.number]
        verdict = session.ledger.verify_against(baseline)
        sessions.append(
            {
                "benchmark": bench.number,
                "bench_name": bench.name,
                "events": len(events),
                "frames_sent": result.frames_sent,
                "verdict": verdict,
                "result": result.result,
            }
        )
        # The report is built from what the supervisor *delivered*, with
        # the ledger's first-offer-wins dedup — byte-for-byte what went
        # on the wire, in a shape `repro diff` can hold against the
        # in-process golden report.
        seen: set[tuple[str, str]] = set()
        for _shard, tool, finding, count in session.supervisor.findings():
            key = (tool, finding.fingerprint())
            if key in seen:
                continue
            seen.add(key)
            findings.append(
                finding_entry(
                    finding,
                    count,
                    benchmark=bench.number,
                    bench_name=bench.name,
                )
            )
    header = {
        "record": "header",
        "schema": SCHEMA,
        "suite": suite if benchmarks is None else "custom",
        "tools": list(tools),
        "capacity": 0,  # no flight recorder on the serve path
    }
    report = {
        "header": header,
        "findings": findings,
        "summary": build_summary(findings, benchmarks=len(benches)),
    }
    return {
        "suite": suite if benchmarks is None else "custom",
        "n_shards": n_shards,
        "tools": list(tools),
        "benchmarks": len(benches),
        "events": total_events,
        "sessions": sessions,
        "ok": all(s["verdict"]["ok"] for s in sessions),
        "report": report,
    }


# -- throughput bench ---------------------------------------------------------


class _TimedTransport:
    """Transport wrapper recording per-frame round-trip wall latency and
    the bytes the client put on the wire."""

    def __init__(self, inner):
        self.inner = inner
        self.latencies_us: list[float] = []
        self.wire_bytes = 0

    def send(self, data: bytes) -> bytes:
        self.wire_bytes += len(data)
        start = time.perf_counter()
        out = self.inner.send(data)
        self.latencies_us.append((time.perf_counter() - start) * 1e6)
        return out


def _percentile(sorted_values: list[float], q: float) -> float:
    if not sorted_values:
        return 0.0
    index = min(len(sorted_values) - 1, int(q * (len(sorted_values) - 1)))
    return sorted_values[index]


#: Timed passes of one serve bench.  The artifact reports the median pass
#: with the min–max range, so a loaded stretch of a shared host moves a
#: range bound rather than the committed figure.
SERVE_BENCH_PASSES = 5


def _bench_pass(recorded, config: ServerConfig, observe: bool) -> dict:
    """Stream every recorded trace through one fresh server, timed.

    Returns the pass's figures — streaming seconds, sorted frame
    latencies, frames, wire bytes, whether every session delivered its
    baseline — and, when observed, its watchdog and observer counts and
    profile.  The heap is collected first and the server is not kept, so
    no pass pays for another's garbage.
    """
    from ..observe import DEFAULT_SLOS, ServeObserver

    gc.collect()
    observer = (
        ServeObserver(slos=DEFAULT_SLOS, trace_spans=False, wall_clock=True)
        if observe
        else None
    )
    server = AnalysisServer(config, observer)
    latencies: list[float] = []
    frames = wire_bytes = 0
    seconds = 0.0
    delivery_ok = True
    for bench, events, baseline in recorded:
        transport = _TimedTransport(LoopbackTransport(server))
        client = ServeClient(transport, client_id=bench.number)
        start = time.perf_counter()
        result = client.stream(events)
        seconds += time.perf_counter() - start
        latencies.extend(transport.latencies_us)
        frames += result.frames_sent
        wire_bytes += transport.wire_bytes
        delivery_ok = delivery_ok and result.fingerprints() == baseline
    latencies.sort()
    figures = {
        "seconds": seconds,
        "latencies": latencies,
        "frames": frames,
        "wire_bytes": wire_bytes,
        "delivery_ok": delivery_ok,
    }
    if observer is not None:
        watchdog = observer.watchdog
        figures["observed"] = {
            "slos": [spec.to_json() for spec in watchdog.specs],
            "evaluations": watchdog.evaluations,
            "burn_events": watchdog.burn_events,
            "clear_events": watchdog.clear_events,
            "burning": watchdog.burning,
            "redeliveries": observer.redeliveries,
            "wire_decode_errors": observer.decode_errors,
            "journal_replay_errors": observer.replay_errors,
            "worker_restarts": sum(
                s.supervisor.worker_restarts for s in server.sessions.values()
            ),
        }
        if observer.profiler is not None:
            figures["profile"] = observer.profiler.stats()
    return figures


def run_serve_bench(
    *,
    suite: str = "buggy",
    n_shards: int = 4,
    tools: Iterable[str] = ("arbalest",),
    queue_cap: int = 256,
    output: str | None = "BENCH_serve.json",
    benchmarks: Iterable[DraccBenchmark] | None = None,
    observe: bool = True,
    history: str | None = None,
) -> dict:
    """Measure server throughput and frame latency over a streamed suite.

    Every trace and its in-process baseline are recorded first; then
    :data:`SERVE_BENCH_PASSES` passes each stream the whole suite through a
    fresh server.  Events/sec counts analysis events over a pass's
    streaming wall time (framing, decoding, sharded dispatch and finding
    streams included); the percentiles are per-frame round-trip latencies
    within a pass.  The summary holds the median pass's events/sec, p50
    and p99 with the min–max range of events/sec and p99, and the slowest
    frame of any pass; ``wire_bytes`` is every byte the clients sent in
    one pass.  The delivery verdict covers every pass, so a "fast but
    wrong" server can never produce a publishable bench.

    ``observe=True`` (the default, matching production) runs the bench
    with the live observer attached — metrics, latency histograms, SLO
    watchdog — so the published number *includes* the observability tax
    and the artifact records the watchdog's verdicts, summed over the
    passes (``burning`` lists every SLO still burning at the end of a
    pass) and the last pass's profile; ``repro serve --bench`` fails a run
    that ends with an SLO still burning.  Span tracing stays off: it is a
    debugging mode, not a serving mode.
    """
    tools = tuple(tools)
    benches = tuple(benchmarks) if benchmarks is not None else _suite(suite)
    recorded = []
    for bench in benches:
        events = record_trace(bench)
        recorded.append((bench, events, baseline_fingerprints(events, tools)))
    total_events = sum(len(events) for _, events, _ in recorded)
    config = ServerConfig(n_shards=n_shards, tools=tools, queue_cap=queue_cap)
    figures = [
        _bench_pass(recorded, config, observe) for _ in range(SERVE_BENCH_PASSES)
    ]
    rates = [total_events / f["seconds"] if f["seconds"] else 0.0 for f in figures]
    p50s = [_percentile(f["latencies"], 0.50) for f in figures]
    p99s = [_percentile(f["latencies"], 0.99) for f in figures]
    slowest = max((f["latencies"][-1] for f in figures if f["latencies"]), default=0.0)
    payload = {
        "artifact": SERVE_BENCH_ARTIFACT,
        "suite": suite,
        "n_shards": n_shards,
        "tools": list(tools),
        "benchmarks": len(benches),
        "events": total_events,
        "frames": figures[0]["frames"],
        "wire_bytes": figures[0]["wire_bytes"],
        "passes": SERVE_BENCH_PASSES,
        "stream_seconds": round(median(f["seconds"] for f in figures), 6),
        "delivery_ok": all(f["delivery_ok"] for f in figures),
        "summary": {
            "events_per_sec": round(median(rates), 2),
            "events_per_sec_range": [round(min(rates), 2), round(max(rates), 2)],
            "p50_frame_latency_us": round(median(p50s), 2),
            "p99_frame_latency_us": round(median(p99s), 2),
            "p99_frame_latency_us_range": [round(min(p99s), 2), round(max(p99s), 2)],
            "max_frame_latency_us": round(slowest, 2),
        },
    }
    observed = [f["observed"] for f in figures if "observed" in f]
    if observed:
        payload["observability"] = {
            "enabled": True,
            "slos": observed[0]["slos"],
            "watchdog": {
                **{
                    key: sum(o[key] for o in observed)
                    for key in ("evaluations", "burn_events", "clear_events")
                },
                "burning": sorted(set().union(*(o["burning"] for o in observed))),
            },
            **{
                key: sum(o[key] for o in observed)
                for key in (
                    "redeliveries",
                    "wire_decode_errors",
                    "journal_replay_errors",
                    "worker_restarts",
                )
            },
        }
        if "profile" in figures[-1]:
            payload["profile"] = figures[-1]["profile"]
    else:
        payload["observability"] = {"enabled": False}
    from ..observe.history import append_history, run_meta

    payload["meta"] = run_meta(
        suite=suite, n_shards=n_shards, tools=list(tools)
    )
    if output is not None:
        tmp = output + ".tmp"
        with open(tmp, "w") as sink:
            json.dump(payload, sink, indent=2, sort_keys=True)
            sink.write("\n")
        os.replace(tmp, output)
    if history is not None:
        append_history(history, payload)
    return payload


# -- chaos-against-server certification ---------------------------------------


def _serve_plan_seed(campaign_seed: int, schedule: int, bench_number: int) -> int:
    """Stable per-(schedule, benchmark) seed, disjoint from runtime chaos."""
    return random.Random(
        f"{campaign_seed}/serve/{schedule}/{bench_number}"
    ).getrandbits(32)


def _serve_plan(seed: int, n_faults: int, frames: int, attempts: int) -> FaultPlan:
    """A serve fault plan whose every fault lands on a real send or delivery.

    Frame faults are re-drawn over the session's first-pass sends
    (``frames``: HELLO, the EVENT frames, FIN), at most one per send, and
    a reorder never directly follows a drop or another reorder (the
    transport would still hold the earlier frame and let it pass).  Worker
    kills are re-drawn over the session's fault-free delivery attempts
    (``attempts``: one per (frame, shard) slice), at most one per attempt;
    a faulted session makes at least as many.  A fault that finds no such
    send or attempt is left out of the plan.
    """
    plan = FaultPlan.generate(seed, n_faults=n_faults, kinds=SERVE_CHAOS_KINDS)
    rng = random.Random(f"{seed}/frames")
    holds = (FaultKind.FRAME_DROP, FaultKind.FRAME_REORDER)
    taken: dict[int, FaultKind] = {}
    killed: set[int] = set()
    faults = []
    for fault in plan.faults:
        if fault.kind is FaultKind.WORKER_KILL:
            free = [index for index in range(attempts) if index not in killed]
        else:
            free = [
                index
                for index in range(1, frames + 1)
                if index not in taken
                and not (
                    fault.kind is FaultKind.FRAME_REORDER
                    and taken.get(index - 1) in holds
                )
                and not (
                    fault.kind in holds
                    and taken.get(index + 1) is FaultKind.FRAME_REORDER
                )
            ]
        if free:
            index = rng.choice(free)
            if fault.kind is FaultKind.WORKER_KILL:
                killed.add(index)
            else:
                taken[index] = fault.kind
            faults.append(replace(fault, index=index))
    faults.sort(key=lambda f: (f.kind.value, f.index))
    return FaultPlan(seed=plan.seed, faults=tuple(faults))


def _clean_attempts(events: list, n_shards: int, tools: tuple[str, ...]) -> int:
    """Delivery attempts of one fault-free served session of ``events``."""
    server = AnalysisServer(ServerConfig(n_shards=n_shards, tools=tools))
    ServeClient(LoopbackTransport(server), client_id=0).stream(events)
    return server.sessions[0].supervisor.delivery_attempts


def run_serve_chaos_campaign(
    *,
    seed: int = 0,
    schedules: int = 3,
    faults_per_schedule: int = 6,
    suite: str = "buggy",
    n_shards: int = 4,
    tools: Iterable[str] = ("arbalest",),
    queue_cap: int = 256,
    benchmarks: Iterable[DraccBenchmark] | None = None,
    observe: bool = True,
    watchdog_cadence: int = 32,
    trace_output: str | None = None,
    log_output: str | None = None,
) -> dict:
    """Certify the delivery guarantee under seeded serve-fault schedules.

    Every (schedule, benchmark) pair gets a fresh server, a plan drawn
    from :data:`SERVE_CHAOS_KINDS`, worker kills installed on the
    supervisor's delivery-attempt schedule (alternating before/after the
    journal write) at attempts a fault-free session of the benchmark
    makes, measured once up front, and frame faults installed on the
    loopback transport at sends the session makes (see
    :func:`_serve_plan`), so every planned fault fires;
    ``frame_faults_triggered`` and ``worker_kills_triggered`` count what
    did.
    Unlike runtime chaos, there is no "bounded divergence" tier here:
    *every* faulted run must reproduce the baseline fingerprints exactly.

    With ``observe=True`` the campaign also certifies the observability
    layer, using the deterministic :data:`~repro.observe.slo.CHAOS_SLOS`
    (wall clock off, so verdicts are byte-reproducible):

    * every run whose faults caused redeliveries must make the SLO
      watchdog **burn** (fire during the fault) and **clear** by the
      post-recovery evaluation — the ``/healthz`` arc
      ``ok -> degraded -> ok``;
    * runs with worker kills record span traces; the first one that
      captured a journal-replay span is stitched into one cross-process
      Chrome trace (``trace_output``) holding client, server, and shard
      spans for the same ``(client, seq)``;
    * every structured event (burns, clears, restarts, degradations)
      lands in one campaign-wide JSONL stream (``log_output``).
    """
    from ..observe import CHAOS_SLOS, ObserveLog, ServeObserver, SpanLog
    from ..observe.spans import spans_by_frame, stitch_traces

    tools = tuple(tools)
    benches = tuple(benchmarks) if benchmarks is not None else _suite(suite)

    traces = {bench.number: record_trace(bench) for bench in benches}
    baselines = {
        number: baseline_fingerprints(events, tools)
        for number, events in traces.items()
    }
    attempts = {
        number: _clean_attempts(events, n_shards, tools)
        for number, events in traces.items()
    }

    crashes: list[dict] = []
    mismatches: list[dict] = []
    schedule_log: list[dict] = []
    injected_counts: dict[str, int] = {}
    worker_restarts = 0
    retransmits = 0
    backoff_ticks = 0
    dup_frames = 0
    shed_frames = 0
    nacks = 0
    degraded_sessions = 0
    kills_triggered = 0
    frame_faults_triggered = 0

    log_sink = open(log_output, "w") if log_output is not None else None
    runs_with_redelivery = 0
    watchdog_fired_runs = 0
    watchdog_missed: list[dict] = []
    watchdog_stuck: list[dict] = []
    burn_events = 0
    clear_events = 0
    redeliveries = 0
    decode_errors = 0
    replay_errors = 0
    healthz_arc: list[str] | None = None
    stitched: dict | None = None
    stitched_run: dict | None = None

    try:
        for schedule in range(schedules):
            for bench in benches:
                events = traces[bench.number]
                plan = _serve_plan(
                    _serve_plan_seed(seed, schedule, bench.number),
                    faults_per_schedule,
                    # First-pass sends: HELLO, the EVENT frames, FIN.
                    2 + -(-len(events) // EVENTS_PER_FRAME),
                    attempts[bench.number],
                )
                run_id = {"schedule": schedule, "benchmark": bench.number}
                for fault in plan.faults:
                    schedule_log.append({**run_id, **fault.to_json()})
                    injected_counts[fault.kind.value] = (
                        injected_counts.get(fault.kind.value, 0) + 1
                    )
                kills = plan.by_kind(FaultKind.WORKER_KILL)
                observer = None
                client_spans = None
                if observe:
                    # Trace the runs that can produce replay spans (worker
                    # kills) until one stitched trace is captured.
                    want_spans = bool(kills) and stitched is None
                    observer = ServeObserver(
                        log=ObserveLog(log_sink),
                        slos=CHAOS_SLOS,
                        cadence=watchdog_cadence,
                        trace_spans=want_spans,
                        wall_clock=False,
                    )
                    observer.log.event("chaos.run", **run_id)
                    if want_spans:
                        client_spans = SpanLog("client")
                server = AnalysisServer(
                    ServerConfig(
                        n_shards=n_shards,
                        tools=tools,
                        queue_cap=queue_cap,
                    ),
                    observer,
                )
                # Worker kills target delivery-attempt occurrences; phases
                # alternate so both sides of the journal write are hit.
                session = server.session(bench.number)
                for position, fault in enumerate(kills):
                    session.supervisor.kill_schedule[fault.index + 1] = (
                        "pre" if position % 2 == 0 else "post"
                    )
                transport = LoopbackTransport(server, plan)
                client = ServeClient(
                    transport, client_id=bench.number, spanlog=client_spans
                )
                try:
                    result = client.stream(events)
                except BaseException as exc:  # a crash fails the campaign, not us
                    crashes.append(
                        {**run_id, "error": f"{type(exc).__name__}: {exc}"}
                    )
                    continue
                supervisor = session.supervisor
                kills_triggered += len(kills) - len(supervisor.kill_schedule)
                sends = transport.stats()
                frame_faults_triggered += (
                    sends["dropped"] + sends["duplicated"] + sends["reordered"]
                )
                worker_restarts += supervisor.worker_restarts
                retransmits += result.retransmits
                backoff_ticks += result.backoff_ticks
                dup_frames += result.result.get("dup_frames", 0)
                shed_frames += result.result.get("shed_frames", 0)
                nacks += result.result.get("nacks_sent", 0)
                degraded_sessions += bool(result.result.get("degraded"))
                if result.fingerprints() != baselines[bench.number]:
                    mismatches.append(
                        {
                            **run_id,
                            "baseline": [list(k) for k in baselines[bench.number]],
                            "served": [list(k) for k in result.fingerprints()],
                        }
                    )
                if observer is not None:
                    # Post-recovery evaluation: the stream is fully
                    # delivered, so a clean window must clear every burn —
                    # this is the "healthy again" edge of the arc.
                    observer.evaluate(server)
                    watchdog = observer.watchdog
                    burn_events += watchdog.burn_events
                    clear_events += watchdog.clear_events
                    redeliveries += observer.redeliveries
                    decode_errors += observer.decode_errors
                    replay_errors += observer.replay_errors
                    if observer.redeliveries:
                        runs_with_redelivery += 1
                        if watchdog.burn_events:
                            watchdog_fired_runs += 1
                        else:
                            watchdog_missed.append(
                                {**run_id, "redeliveries": observer.redeliveries}
                            )
                        if watchdog.burning:
                            watchdog_stuck.append(
                                {**run_id, "burning": sorted(watchdog.burning)}
                            )
                        arc = watchdog.health_transitions()
                        if healthz_arc is None and arc[:3] == [
                            "ok",
                            "degraded",
                            "ok",
                        ]:
                            healthz_arc = arc
                    if client_spans is not None and stitched is None:
                        document = stitch_traces(
                            [client_spans] + observer.span_logs()
                        )
                        has_replay = any(
                            event.get("name") == "replay"
                            for event in document["traceEvents"]
                        )
                        if has_replay or supervisor.worker_restarts:
                            stitched = document
                            stitched_run = dict(run_id)
    finally:
        if log_sink is not None:
            log_sink.close()

    if stitched is not None and trace_output is not None:
        with open(trace_output, "w") as sink:
            json.dump(stitched, sink, indent=2, sort_keys=True)
            sink.write("\n")

    payload = {
        "seed": seed,
        "schedules": schedules,
        "faults_per_schedule": faults_per_schedule,
        "suite": suite if benchmarks is None else "custom",
        "n_shards": n_shards,
        "target": "serve",
        "benchmarks": len(benches),
        "runs": schedules * len(benches),
        "crashes": crashes,
        "fingerprint_mismatches": mismatches,
        "injected_faults": dict(sorted(injected_counts.items())),
        "injected_total": sum(injected_counts.values()),
        "schedule_log": schedule_log,
        "worker_kills_triggered": kills_triggered,
        "frame_faults_triggered": frame_faults_triggered,
        "worker_restarts": worker_restarts,
        "retransmits": retransmits,
        "backoff_ticks": backoff_ticks,
        "dup_frames": dup_frames,
        "shed_frames": shed_frames,
        "nacks": nacks,
        "degraded_sessions": degraded_sessions,
    }
    payload["ok"] = not crashes and not mismatches
    if observe:
        trace_summary = None
        if stitched is not None:
            frame_index = spans_by_frame(stitched)
            cross_process = sum(
                1
                for spans in frame_index.values()
                if len({event["pid"] for event in spans}) >= 2
            )
            trace_summary = {
                "run": stitched_run,
                "processes": stitched["otherData"]["processes"],
                "spans": sum(
                    1
                    for event in stitched["traceEvents"]
                    if event.get("ph") == "X"
                ),
                "replay_spans": sum(
                    1
                    for event in stitched["traceEvents"]
                    if event.get("name") == "replay"
                ),
                "frames_with_cross_process_spans": cross_process,
                "path": trace_output,
            }
        payload["observability"] = {
            "enabled": True,
            "slos": [spec.to_json() for spec in CHAOS_SLOS],
            "watchdog_cadence": watchdog_cadence,
            "runs_with_redelivery": runs_with_redelivery,
            "watchdog_fired_runs": watchdog_fired_runs,
            "watchdog_missed": watchdog_missed,
            "watchdog_stuck": watchdog_stuck,
            "burn_events": burn_events,
            "clear_events": clear_events,
            "redeliveries": redeliveries,
            "wire_decode_errors": decode_errors,
            "journal_replay_errors": replay_errors,
            "healthz_arc": healthz_arc,
            "trace": trace_summary,
            "log_path": log_output,
        }
        # The observability certification is part of the campaign verdict:
        # a watchdog that slept through a fault, or stayed degraded after
        # recovery, fails the run like a fingerprint mismatch would.
        payload["ok"] = payload["ok"] and not watchdog_missed and not watchdog_stuck
        if runs_with_redelivery:
            payload["ok"] = payload["ok"] and healthz_arc is not None
    else:
        payload["observability"] = {"enabled": False}
    return payload


def run_serve_chaos(
    *,
    seed: int = 0,
    schedules: int = 3,
    faults_per_schedule: int = 6,
    suite: str = "buggy",
    n_shards: int = 4,
    output: str = "BENCH_serve_chaos.json",
    observe: bool = True,
    trace_output: str | None = None,
    log_output: str | None = None,
) -> dict:
    """Run the serve chaos campaign and write its tracked JSON artifact."""
    payload = run_serve_chaos_campaign(
        seed=seed,
        schedules=schedules,
        faults_per_schedule=faults_per_schedule,
        suite=suite,
        n_shards=n_shards,
        observe=observe,
        trace_output=trace_output,
        log_output=log_output,
    )
    tmp = output + ".tmp"
    with open(tmp, "w") as sink:
        json.dump(payload, sink, indent=2, sort_keys=True)
        sink.write("\n")
    os.replace(tmp, output)
    return payload
