"""``repro.observe`` — live operational observability for the serve stack.

PR-3's :mod:`repro.telemetry` measures one *run* after the fact; this
package watches a *service* while it is up:

* :mod:`~repro.observe.log` — structured JSONL event logging on an
  ordinal clock; a server logs through its observer's ``log``;
* :mod:`~repro.observe.spans` — per-process span logs and the stitcher
  that merges client, server, and shard spans into one cross-process
  Chrome trace, correlated by ``(client, seq)``; the telemetry registry
  keeps its in-process spans in a span log too, so ``repro profile``
  writes its trace through the same stitcher;
* :mod:`~repro.observe.slo` — declarative SLO specs and the burn/clear
  watchdog behind ``/healthz``;
* :mod:`~repro.observe.observer` — the per-server bundle wiring all of
  the above into the serve hot path;
* :mod:`~repro.observe.metrics` — service-level snapshots, the
  Prometheus text exposition served at ``/metrics``, and the strict
  parser that checks it;
* :mod:`~repro.observe.health` — the ``/healthz`` and ``/readyz``
  documents.

Any HTTP client scrapes those endpoints; the repository ships none of its
own.
"""

from .flame import parse_folded, render_flamegraph, write_flamegraph
from .health import healthz, readyz
from .history import (
    DEFAULT_HISTORY,
    HISTORY_SCHEMA,
    append_history,
    env_fingerprint,
    history_entry,
    load_history,
    run_meta,
    seed_history,
)
from .log import ObserveLog
from .metrics import render_prometheus, service_snapshot
from .observer import ServeObserver, histogram_quantile
from .prof import Governor, Profiler
from .sentinel import (
    bootstrap_shift_ci,
    mann_whitney,
    metric_direction,
    render_sentinel,
    run_sentinel,
)
from .slo import CHAOS_SLOS, DEFAULT_SLOS, SLOSpec, SLOWatchdog
from .spans import SpanLog, spans_by_frame, stitch_traces, write_stitched_trace

__all__ = [
    "CHAOS_SLOS",
    "DEFAULT_HISTORY",
    "DEFAULT_SLOS",
    "Governor",
    "HISTORY_SCHEMA",
    "ObserveLog",
    "Profiler",
    "SLOSpec",
    "SLOWatchdog",
    "ServeObserver",
    "SpanLog",
    "append_history",
    "bootstrap_shift_ci",
    "env_fingerprint",
    "healthz",
    "histogram_quantile",
    "history_entry",
    "load_history",
    "mann_whitney",
    "metric_direction",
    "parse_folded",
    "readyz",
    "render_flamegraph",
    "render_prometheus",
    "render_sentinel",
    "run_meta",
    "run_sentinel",
    "seed_history",
    "service_snapshot",
    "spans_by_frame",
    "stitch_traces",
    "write_flamegraph",
    "write_stitched_trace",
]
