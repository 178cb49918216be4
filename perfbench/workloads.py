"""The three workloads: what one pass runs, how it is timed and checked.

Every workload drives the detector through public entry points only:
``TargetRuntime``, ``Tool.attach``, ``ToolBus`` (inside the runtime and the
server) and ``ServeClient.stream`` over ``LoopbackTransport``.  A pass runs
every program of the workload once, in the order the caller gives (the
seeded shuffle); the programs themselves get only their normal inputs.

Collector discipline: ``gc.collect()`` runs before every timed window and
the collector is parked inside it.  On ``spec-large`` a window is one
program run (each allocates tens of megabytes of shadow state); on
``dracc`` and ``serve`` it is one whole pass of 56 short programs.
"""

from __future__ import annotations

import gc
import inspect
import math
from dataclasses import dataclass, field
from time import perf_counter

import speed
from repro import staticlint
from repro.core.detector import Arbalest
from repro.dracc.registry import all_benchmarks
from repro.harness.precision import run_precision_comparison
from repro.harness.serve import baseline_fingerprints, record_trace
from repro.observe import DEFAULT_SLOS, ServeObserver
from repro.openmp.runtime import Machine, TargetRuntime
from repro.serve import AnalysisServer, LoopbackTransport, ServeClient, ServerConfig
from repro.specaccel.workloads import WORKLOADS as SPEC_TWINS

#: The event engine every measured runtime and server uses.  This is the
#: one place the benchmark selects it; a program without engine choice is
#: driven with its default.
ENGINE = "columnar"


def engine_kw(factory) -> dict:
    """``{"engine": ENGINE}`` if ``factory`` takes an engine, else ``{}``."""
    return {"engine": ENGINE} if "engine" in inspect.signature(factory).parameters else {}


def geomean(values) -> float:
    values = list(values)
    return math.exp(sum(math.log(v) for v in values) / len(values))


@dataclass
class Run:
    """One timed program run (or served session)."""

    program: str
    #: ``native``, ``arbalest``, ``cert`` (static certificates) or ``served``.
    mode: str
    #: Wall seconds as measured.
    raw: float
    failed: bool = False
    #: ``raw`` at nominal host speed; set when the run's window closes.
    seconds: float = 0.0


@dataclass
class PassResult:
    runs: list[Run] = field(default_factory=list)
    #: Wall seconds of each timed window (GC parked) in the pass.
    windows: list[float] = field(default_factory=list)
    #: Host slowdown the speed probe measured around each window.
    slowdowns: list[float] = field(default_factory=list)
    #: Failure counts by the workload's named failure metric.
    failures: dict[str, int] = field(default_factory=dict)
    #: Counts that must repeat exactly in every pass (determinism check).
    counts: dict[str, float] = field(default_factory=dict)
    #: Per-layer figures only the workload can see (detector accounting).
    layer: dict[str, float] = field(default_factory=dict)

    def nominal_wall(self) -> float:
        """Timed wall seconds of the pass at nominal host speed."""
        return sum(w / f for w, f in zip(self.windows, self.slowdowns))


class _Window:
    """A timed window: collect first, park the collector, probe host speed.

    Runs added to ``result`` inside the window get their nominal-speed
    time when it closes.
    """

    def __init__(self, result: PassResult):
        self.result = result

    def __enter__(self):
        self.enabled = gc.isenabled()
        gc.collect()
        gc.disable()
        self.first = len(self.result.runs)
        self.before = speed.probe()
        self.start = perf_counter()
        return self

    def __exit__(self, *exc):
        wall = perf_counter() - self.start
        factor = speed.slowdown(self.before, speed.probe())
        if self.enabled:
            gc.enable()
        self.result.windows.append(wall)
        self.result.slowdowns.append(factor)
        for run in self.result.runs[self.first :]:
            run.seconds = run.raw / factor


def _detector_accounting(tracer, result: PassResult) -> None:
    """Fold the accounting of every detector the tracer saw into ``result``."""
    if tracer is None:
        return
    hits = misses = skips = 0
    shadow = 0
    for tool in tracer.instances:
        h, m = tool.mapping_lookup_stats()
        hits += h
        misses += m
        stats = tool.cert_stats()
        skips += stats["access_skips"] + stats["section_access_skips"]
        shadow += tool.shadow_bytes()
    tracer.instances.clear()
    layer = result.layer
    layer["lookup_hits"] = layer.get("lookup_hits", 0) + hits
    layer["lookup_misses"] = layer.get("lookup_misses", 0) + misses
    layer["cert_skips"] = layer.get("cert_skips", 0) + skips
    layer["shadow_bytes"] = layer.get("shadow_bytes", 0) + shadow


class SpecLarge:
    """The five SPEC ACCEL twins at the ``large`` preset.

    Each twin runs on a fresh one-device runtime three times: native,
    ``Arbalest()`` and ``Arbalest(certificate=...)``.  About 543k accesses
    a pass against 8-46 data ops a program: the batch path, VSM transitions
    and race checks do nearly all the work, and it is the only workload on
    which static certificates cut detector work.
    """

    name = "spec-large"
    #: Both detector modes reach a verdict; each twin counts once per mode.
    verdict_modes = ("arbalest", "cert")
    failure_metric = "output_mismatches"
    setup_repeats = 1
    #: A pass takes about 11 s, so a run always measures two.
    min_passes = 2
    modes = ("native", "arbalest", "cert")

    def __init__(self) -> None:
        self.programs = list(SPEC_TWINS)
        self.reference: dict[str, str] = {}

    def prepare(self) -> None:
        self._clear_certificates = staticlint.spec_certificates.cache_clear
        self._clear_certificates()
        self.certificates = staticlint.spec_certificates()

    def certify(self) -> None:
        """The certificate step again, for the traced window to attribute."""
        self._clear_certificates()
        staticlint.spec_certificates()

    def run_pass(self, order, tracer=None) -> PassResult:
        engine = engine_kw(Machine)
        result = PassResult()
        mismatches = 0
        ratios = []
        cert_accesses = 0
        for twin in order:
            for mode in self.modes:
                if tracer is not None:
                    tracer.program += 1
                    published = tracer.calls.get("events.publish.access", 0)
                with _Window(result) as window:
                    rt = TargetRuntime(n_devices=1, **engine)
                    tool = None
                    if mode != "native":
                        certificate = self.certificates.get(twin.name) if mode == "cert" else None
                        tool = Arbalest(certificate=certificate).attach(rt.machine)
                    checksum = repr(twin.run(rt, "large"))
                    rt.finalize()
                    issues = len(tool.mapping_issue_findings()) if tool is not None else 0
                    seconds = perf_counter() - window.start
                    reference = self.reference.setdefault(twin.name, checksum)
                    failed = checksum != reference or issues > 0
                    result.runs.append(Run(twin.name, mode, seconds, failed))
                mismatches += failed
                if mode == "arbalest":
                    app = sum(d.allocator.peak_bytes for d in rt.machine.devices.values())
                    ratios.append((app + tool.shadow_bytes()) / app)
                if tracer is not None and mode == "cert":
                    cert_accesses += tracer.calls.get("events.publish.access", 0) - published
                _detector_accounting(tracer, result)
        result.failures[self.failure_metric] = mismatches
        result.counts["mem_ratio"] = geomean(ratios)
        result.layer["cert_accesses"] = cert_accesses
        return result

    def named_metrics(self, passes: list[PassResult]) -> dict[str, tuple[float, str]]:
        arbalest, cert, native = (geomean(per_program(passes, mode).values()) for mode in ("arbalest", "cert", "native"))
        return {
            "arbalest_s": (arbalest, "s"),
            "arbalest_cert_s": (cert, "s"),
            "mem_ratio": (passes[0].counts["mem_ratio"], "ratio"),
            "native_s": (native, "s"),
            "fig8_slowdown": (arbalest / native, "ratio"),
        }


class Dracc:
    """All 56 DRACC programs, each on a fresh two-device runtime with ARBALEST.

    Dominated by data ops (map and unmap, present-table and registry
    updates, allocation events) and the only in-process workload that
    produces findings.  Batches stay under ``MIN_BATCH``, so the vectorized
    VSM path is bypassed.
    """

    name = "dracc"
    verdict_modes = ("arbalest",)
    failure_metric = "wrong_verdicts"
    setup_repeats = 3
    min_passes = 2

    def __init__(self) -> None:
        self.programs = list(all_benchmarks())

    def prepare(self) -> None:
        pass

    def certify(self) -> None:
        pass

    def run_pass(self, order, tracer=None) -> PassResult:
        engine = engine_kw(Machine)
        result = PassResult()
        wrong = 0
        with _Window(result):
            for bench in order:
                if tracer is not None:
                    tracer.program += 1
                start = perf_counter()
                rt = TargetRuntime(n_devices=2, **engine)
                tool = Arbalest().attach(rt.machine)
                bench.run(rt)
                issues = tool.mapping_issue_findings()
                findings = tool.findings
                seconds = perf_counter() - start
                failed = not issues if bench.is_buggy else bool(findings)
                wrong += failed
                result.runs.append(Run(bench.name, "arbalest", seconds, failed))
        _detector_accounting(tracer, result)
        result.failures[self.failure_metric] = wrong
        return result

    def check_once(self) -> int:
        """The untimed five-tool Table III check: 1 if it fails to match."""
        return 0 if run_precision_comparison().matches_paper() else 1

    def named_metrics(self, passes: list[PassResult]) -> dict[str, tuple[float, str]]:
        times = verdict_times(passes, *self.verdict_modes)
        return {
            "verdict_ms_p50": (quantile(times, 0.50) * 1e3, "ms"),
            "verdict_ms_p99": (quantile(times, 0.99) * 1e3, "ms"),
        }


class Serve:
    """The 56 DRACC traces, each streamed as one served session.

    Traces are recorded once during setup.  Every pass builds a fresh
    ``AnalysisServer`` (4 shards, production ``ServeObserver``) and one
    closed-loop client streams each trace as its own session, waiting for
    every reply: one JSON-decoded event at a time behind wire decode,
    journal, route, shard apply and ack.
    """

    name = "serve"
    verdict_modes = ("served",)
    failure_metric = "delivery_mismatches"
    setup_repeats = 3
    min_passes = 2

    def __init__(self) -> None:
        self.programs = list(all_benchmarks())

    def prepare(self) -> None:
        self.traces = {b.number: record_trace(b) for b in self.programs}
        self.baselines = {n: baseline_fingerprints(events) for n, events in self.traces.items()}
        self.events = sum(len(events) for events in self.traces.values())

    def certify(self) -> None:
        pass

    def run_pass(self, order, tracer=None) -> PassResult:
        result = PassResult()
        mismatches = 0
        redeliveries = 0
        with _Window(result):
            observer = ServeObserver(slos=DEFAULT_SLOS, trace_spans=False, wall_clock=True)
            server = AnalysisServer(
                ServerConfig(n_shards=4, tools=("arbalest",), **engine_kw(ServerConfig)),
                observer,
            )
            for bench in order:
                if tracer is not None:
                    tracer.program += 1
                client = ServeClient(LoopbackTransport(server), client_id=bench.number)
                start = perf_counter()
                session = client.stream(self.traces[bench.number])
                seconds = perf_counter() - start
                failed = session.fingerprints() != self.baselines[bench.number] or session.retransmits > 0
                mismatches += failed
                redeliveries += session.retransmits
                result.runs.append(Run(bench.name, "served", seconds, failed))
        _detector_accounting(tracer, result)
        redeliveries += observer.redeliveries
        result.failures[self.failure_metric] = mismatches + observer.redeliveries
        result.counts["events"] = self.events
        result.layer["redeliveries"] = redeliveries
        return result

    def named_metrics(self, passes: list[PassResult]) -> dict[str, tuple[float, str]]:
        times = verdict_times(passes, *self.verdict_modes)
        return {
            "served_events_per_s": (self.events * len(passes) / sum(times), "1/s"),
            "session_ms_p50": (quantile(times, 0.50) * 1e3, "ms"),
            "session_ms_p90": (quantile(times, 0.90) * 1e3, "ms"),
        }


WORKLOADS = {w.name: w for w in (SpecLarge, Dracc, Serve)}


def per_program(passes: list[PassResult], *modes: str) -> dict[tuple[str, str], float]:
    """Median time of each (program, mode) over the passes, at nominal speed."""
    times: dict[tuple[str, str], list[float]] = {}
    for p in passes:
        for r in p.runs:
            if r.mode in modes:
                times.setdefault((r.program, r.mode), []).append(r.seconds)
    return {key: quantile(sorted(values), 0.5) for key, values in times.items()}


def verdict_times(passes: list[PassResult], *modes: str) -> list[float]:
    """Every run's time in ``modes`` over the passes, sorted, at nominal speed."""
    return sorted(r.seconds for p in passes for r in p.runs if r.mode in modes)


def quantile(sorted_values, q: float) -> float:
    """Linear-interpolated quantile of an already sorted list."""
    position = q * (len(sorted_values) - 1)
    low = int(position)
    high = min(low + 1, len(sorted_values) - 1)
    return sorted_values[low] + (sorted_values[high] - sorted_values[low]) * (position - low)
