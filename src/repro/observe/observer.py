"""The serve-stack observer: one object owning the live observability state.

An :class:`AnalysisServer` optionally carries one ``ServeObserver``.  When
it does, the serve hot path reports into it — frame counts, redeliveries,
wall-clock stage latencies (the *operational edge*, the one place this
codebase deliberately spends real time), and, when span tracing is on,
per-process span logs for the server and every shard worker.  When it
does not (the default), every instrumentation site is a single
``is not None`` check and the serve path allocates nothing on behalf of
observability — the telemetry discipline from PR 3, applied to the live
layer.

The observer also owns the :class:`~repro.observe.slo.SLOWatchdog` and
its evaluation cadence: every ``cadence`` handled frames (and once more,
forced, at FIN/drain) the current window is sampled and judged.  Windows
are frame-counted, not wall-timed, so the deterministic SLOs (redelivery
rate, queue occupancy) evaluate identically run to run.
"""

from __future__ import annotations

from typing import IO

from ..telemetry.registry import Histogram
from .log import ObserveLog
from .prof import DEFAULT_STRIDE, Governor, Profiler
from .slo import DEFAULT_SLOS, SLOSpec, SLOWatchdog
from .spans import SpanLog

__all__ = ["ServeObserver", "histogram_quantile"]


def histogram_quantile(hist: Histogram, q: float) -> float:
    """Approximate quantile from power-of-two buckets (upper bound).

    Returns the upper edge (``2**k``) of the first bucket whose cumulative
    count reaches the quantile — a conservative (over-)estimate, stable
    across runs because bucket edges are fixed.
    """
    if hist.count == 0:
        return 0.0
    target = q * hist.count
    cumulative = 0
    for k in sorted(hist.buckets):
        cumulative += hist.buckets[k]
        if cumulative >= target:
            return float(1 << k)
    return float(hist.max or 0)  # pragma: no cover - defensive


class ServeObserver:
    """Live observability state for one analysis server."""

    def __init__(
        self,
        *,
        log: ObserveLog | None = None,
        log_sink: IO[str] | None = None,
        slos: tuple[SLOSpec, ...] = DEFAULT_SLOS,
        cadence: int = 256,
        trace_spans: bool = False,
        wall_clock: bool = True,
        profile: "bool | Profiler" = True,
    ):
        if cadence < 1:
            raise ValueError(f"watchdog cadence must be positive, got {cadence}")
        self.log = log if log is not None else ObserveLog(log_sink)
        #: The continuous profiler sampling the shard dispatch hot path.
        #: ``wall_clock=True`` (production) arms the tax governor; the
        #: deterministic mode keeps a fixed stride so samples replay
        #: byte-identically.
        if isinstance(profile, Profiler):
            self.profiler: Profiler | None = profile
        elif profile:
            self.profiler = Profiler(
                stride=DEFAULT_STRIDE,
                governor=Governor() if wall_clock else None,
                benchmark="serve",
                track_kernel_phase=False,
            )
        else:
            self.profiler = None
        self.watchdog = SLOWatchdog(tuple(slos), log=self.log)
        self.cadence = cadence
        self.trace_spans = trace_spans
        #: ``True`` stamps real microseconds into the latency histograms
        #: (and arms the latency SLO); ``False`` keeps the observer fully
        #: deterministic for stitched-trace and chaos determinism tests.
        self.wall_clock = wall_clock
        self.server_spans: SpanLog | None = (
            SpanLog("server") if trace_spans else None
        )
        self._shard_spans: dict[int, SpanLog] = {}

        # Cumulative series.
        self.frames = 0
        self.redeliveries = 0
        self.decode_errors = 0
        self.replay_errors = 0
        self.frame_latency = Histogram()

        # Current watchdog window.  The hot path appends raw latencies to
        # a plain list; :meth:`evaluate` folds the closed window into a
        # histogram once (exact — fixed bucket edges) for both the window
        # p99 and the cumulative series.  Per handled frame that is one
        # ``list.append``, not two histogram updates.
        self._window_frames = 0
        self._window_redeliveries = 0
        self._window_latencies: list[float] = []
        self._countdown = cadence

    # -- span logs ---------------------------------------------------------

    def shard_span_log(self, shard_id: int) -> SpanLog | None:
        """The per-shard span log (``shard-N``), or ``None`` if tracing is off."""
        if not self.trace_spans:
            return None
        log = self._shard_spans.get(shard_id)
        if log is None:
            log = self._shard_spans[shard_id] = SpanLog(f"shard-{shard_id}")
        return log

    def span_logs(self) -> list[SpanLog]:
        """Every span log this observer owns (server first, then shards)."""
        logs: list[SpanLog] = []
        if self.server_spans is not None:
            logs.append(self.server_spans)
        logs.extend(
            self._shard_spans[k] for k in sorted(self._shard_spans)
        )
        return logs

    # -- hot-path reporting ------------------------------------------------

    def count_redelivery(self, n: int = 1) -> None:
        """A frame needed redelivery (duplicate, shed, or crash-redriven)."""
        self.redeliveries += n
        self._window_redeliveries += n

    def count_decode_error(self) -> None:
        self.decode_errors += 1

    def count_replay_error(self) -> None:
        self.replay_errors += 1

    def frame_handled(self, server, latency_us: float | None = None) -> None:
        """One inbound frame fully handled; drives the watchdog cadence.

        The countdown keeps the cadence phase-locked to the cumulative
        frame count (a forced FIN evaluation does not reset it), matching
        an evaluation on every ``cadence``-th frame exactly.
        """
        self.frames += 1
        self._window_frames += 1
        if latency_us is not None:
            self._window_latencies.append(latency_us)
        self._countdown -= 1
        if self._countdown == 0:
            self._countdown = self.cadence
            self.evaluate(server)

    # -- watchdog ----------------------------------------------------------

    def window_histogram(self) -> Histogram:
        """The raw window latencies folded into one histogram."""
        hist = Histogram()
        observe = hist.observe
        for value in self._window_latencies:
            observe(value)
        return hist

    def window_sample(
        self, server, latency: Histogram | None = None
    ) -> dict:
        """The current window as an SLO sample (before reset)."""
        frames = self._window_frames
        sample: dict = {
            "frames": frames,
            "redelivery_rate": (
                self._window_redeliveries / frames if frames else 0.0
            ),
            "queue_occupancy": self._queue_occupancy(server),
        }
        if latency is None:
            latency = self.window_histogram()
        if self.wall_clock and latency.count:
            sample["p99_frame_latency_us"] = histogram_quantile(latency, 0.99)
        return sample

    @staticmethod
    def _queue_occupancy(server) -> float:
        """Fullest session's parked events over ``queue_cap`` (also events)."""
        cap = server.config.queue_cap or 1
        depths = [s.parked for s in server.sessions.values()]
        return max(depths, default=0) / cap

    def evaluate(self, server) -> dict:
        """Close the current window, judge it, and start the next one.

        Folding the window latency into the cumulative series here (not
        per frame) means a mid-window ``/metrics`` scrape can lag the
        live frame count by at most ``cadence`` frames — the price of a
        single-histogram-update hot path.
        """
        window = self.window_histogram()
        verdict = self.watchdog.evaluate(self.window_sample(server, window))
        self.frame_latency.merge(window)
        self._window_frames = 0
        self._window_redeliveries = 0
        self._window_latencies.clear()
        return verdict

    # -- export ------------------------------------------------------------

    def latency_summary(self) -> dict:
        """Cumulative frame latency with approximate quantiles."""
        frame = self.frame_latency.snapshot()
        frame["p50_us"] = histogram_quantile(self.frame_latency, 0.50)
        frame["p99_us"] = histogram_quantile(self.frame_latency, 0.99)
        return {"frame": frame}

    def stats(self) -> dict:
        data = {
            "frames": self.frames,
            "redeliveries": self.redeliveries,
            "decode_errors": self.decode_errors,
            "replay_errors": self.replay_errors,
            "cadence": self.cadence,
            "wall_clock": self.wall_clock,
            "trace_spans": self.trace_spans,
            "watchdog": self.watchdog.stats(),
            "log": self.log.stats(),
        }
        if self.profiler is not None:
            data["profile"] = self.profiler.stats()
        return data
