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

import io
import json
import os
import random
import time
from dataclasses import replace
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

    Events/sec counts analysis events over total streaming wall time
    (framing, decoding, sharded dispatch and finding streams included);
    the percentiles are per-frame round-trip latencies, and ``wire_bytes``
    is every byte the clients sent.  The delivery
    verdict rides along so a "fast but wrong" server can never produce a
    publishable bench.

    ``observe=True`` (the default, matching production) runs the bench
    with the live observer attached — metrics, latency histograms, SLO
    watchdog — so the published number *includes* the observability tax
    and the artifact records the watchdog's verdicts; ``repro serve
    --bench`` fails a run that ends with an SLO still burning.
    Span tracing stays off: it is a debugging mode, not a serving mode.
    """
    from ..observe import DEFAULT_SLOS, ServeObserver

    tools = tuple(tools)
    benches = tuple(benchmarks) if benchmarks is not None else _suite(suite)
    observer = (
        ServeObserver(slos=DEFAULT_SLOS, trace_spans=False, wall_clock=True)
        if observe
        else None
    )
    server = AnalysisServer(
        ServerConfig(
            n_shards=n_shards, tools=tools, queue_cap=queue_cap
        ),
        observer,
    )
    latencies: list[float] = []
    total_events = 0
    total_frames = 0
    wire_bytes = 0
    stream_seconds = 0.0
    delivery_ok = True
    for bench in benches:
        events = record_trace(bench)
        baseline = baseline_fingerprints(events, tools)
        transport = _TimedTransport(LoopbackTransport(server))
        client = ServeClient(transport, client_id=bench.number)
        start = time.perf_counter()
        result = client.stream(events)
        stream_seconds += time.perf_counter() - start
        latencies.extend(transport.latencies_us)
        total_events += len(events)
        total_frames += result.frames_sent
        wire_bytes += transport.wire_bytes
        if result.fingerprints() != baseline:
            delivery_ok = False
    latencies.sort()
    events_per_sec = total_events / stream_seconds if stream_seconds else 0.0
    payload = {
        "artifact": SERVE_BENCH_ARTIFACT,
        "suite": suite,
        "n_shards": n_shards,
        "tools": list(tools),
        "benchmarks": len(benches),
        "events": total_events,
        "frames": total_frames,
        "wire_bytes": wire_bytes,
        "stream_seconds": round(stream_seconds, 6),
        "delivery_ok": delivery_ok,
        "summary": {
            "events_per_sec": round(events_per_sec, 2),
            "p50_frame_latency_us": round(_percentile(latencies, 0.50), 2),
            "p99_frame_latency_us": round(_percentile(latencies, 0.99), 2),
            "max_frame_latency_us": round(latencies[-1], 2) if latencies else 0.0,
        },
    }
    if observer is not None:
        watchdog = observer.watchdog
        payload["observability"] = {
            "enabled": True,
            "slos": [spec.to_json() for spec in watchdog.specs],
            "watchdog": {
                "evaluations": watchdog.evaluations,
                "burn_events": watchdog.burn_events,
                "clear_events": watchdog.clear_events,
                "burning": sorted(watchdog.burning),
            },
            "redeliveries": observer.redeliveries,
            "wire_decode_errors": observer.decode_errors,
            "journal_replay_errors": observer.replay_errors,
            "worker_restarts": sum(
                s.supervisor.worker_restarts for s in server.sessions.values()
            ),
        }
    else:
        payload["observability"] = {"enabled": False}
    if observer is not None and observer.profiler is not None:
        payload["profile"] = observer.profiler.stats()
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


def _serve_plan(seed: int, n_faults: int, frames: int) -> FaultPlan:
    """A serve fault plan whose every frame fault lands on a real send.

    Worker kills keep :meth:`FaultPlan.generate`'s delivery-attempt
    horizon.  Frame faults are re-drawn over the session's first-pass
    sends (``frames``: HELLO, the EVENT frames, FIN), at most one per
    send, and a reorder never directly follows a drop or another reorder
    (the transport would still hold the earlier frame and let it pass).
    A frame fault that finds no such send is left out of the plan.
    """
    plan = FaultPlan.generate(seed, n_faults=n_faults, kinds=SERVE_CHAOS_KINDS)
    rng = random.Random(f"{seed}/frames")
    holds = (FaultKind.FRAME_DROP, FaultKind.FRAME_REORDER)
    taken: dict[int, FaultKind] = {}
    faults = []
    for fault in plan.faults:
        if fault.kind is FaultKind.WORKER_KILL:
            faults.append(fault)
            continue
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
            taken[index] = fault.kind
            faults.append(replace(fault, index=index))
    faults.sort(key=lambda f: (f.kind.value, f.index))
    return FaultPlan(seed=plan.seed, faults=tuple(faults))


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
    journal write), and frame faults installed on the loopback transport
    at sends the session makes (see :func:`_serve_plan`), so every
    planned fault fires; ``frame_faults_triggered`` and
    ``worker_kills_triggered`` count what did.
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
