"""The telemetry registry: deterministic metrics and span tracing.

One :class:`Telemetry` instance holds every metric of one measured run:

* **counters** — monotonically increasing integers ("how many H2D
  transfers", "how many VSM transitions VALID_HOST->CONSISTENT");
* **gauges** — last-written values ("live mappings", "shadow bytes");
* **histograms** — power-of-two bucketed distributions ("transfer sizes");
* **spans** — begin/end intervals forming the pipeline trace, kept in a
  :class:`~repro.observe.spans.SpanLog` and written as Chrome Trace Event
  JSON by :func:`~repro.observe.spans.write_stitched_trace`.

The span log's **event-ordinal clock** stamps every span boundary with the
next value of a per-registry counter.  Ordinals depend only on the event
sequence, so two runs of a deterministic program produce *byte-identical*
telemetry artifacts — the same guarantee the chaos layer makes for fault
schedules, extended to observability.  Seconds per layer are measured by
``perfbench/run.py --trace 1``, not here.

Scoping
-------

A registry instruments exactly the runs whose :class:`~repro.events.bus.ToolBus`
carries it, as the flight recorder and the profiler do.  The bus hands it
to every attached tool, and the runtime reads it from the bus, so two
runtimes in one process never share telemetry by accident.  A bus's
``telemetry`` is ``None`` by default: the disabled fast path is one
``is not None`` check and *no telemetry object even exists* — no counters
are bumped, no span records allocated.  A measured run sets it right
after building its runtime, before any tool attaches or event flows:

::

    t = Telemetry()
    rt = TargetRuntime(n_devices=2)
    rt.machine.bus.telemetry = t
    ...  # everything this runtime does is instrumented
    t.snapshot()

One registry may serve many runtimes in turn (a benchmark matrix, a
chaos campaign); their counts add up.
"""

from __future__ import annotations


class Histogram:
    """A power-of-two bucketed distribution of non-negative integers.

    Bucket ``k`` counts observations ``v`` with ``2**(k-1) < v <= 2**k``
    (bucket 0 counts ``v <= 1``).  Fixed bucket boundaries keep snapshots
    byte-identical across runs regardless of observation order.
    """

    __slots__ = ("count", "total", "min", "max", "buckets")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0
        self.min: int | None = None
        self.max: int | None = None
        self.buckets: dict[int, int] = {}

    def observe(self, value: int) -> None:
        value = int(value)
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        k = max(value - 1, 0).bit_length()
        self.buckets[k] = self.buckets.get(k, 0) + 1

    def merge(self, other: "Histogram") -> None:
        """Fold ``other`` into this histogram.

        Buckets are fixed power-of-two edges, so merging is exact — it
        lets a hot path observe into a small window histogram and fold
        into the cumulative series in bulk, off the per-event path.
        """
        if not other.count:
            return
        self.count += other.count
        self.total += other.total
        if self.min is None or other.min < self.min:
            self.min = other.min
        if self.max is None or other.max > self.max:
            self.max = other.max
        buckets = self.buckets
        for k, n in other.buckets.items():
            buckets[k] = buckets.get(k, 0) + n

    def snapshot(self) -> dict:
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.min,
            "max": self.max,
            "buckets": {
                f"<=2^{k}": self.buckets[k] for k in sorted(self.buckets)
            },
        }


class _Discard(list):
    """A span list that keeps nothing: a metrics-only registry's records."""

    __slots__ = ()

    def append(self, record) -> None:
        pass


class Telemetry:
    """One run's worth of counters, gauges, histograms, and spans."""

    def __init__(self, *, record_spans: bool = True) -> None:
        # Imported here: repro.observe imports Histogram from this module.
        from ..observe.spans import SpanLog

        self.counters: dict[str, int] = {}
        self.gauges: dict[str, float] = {}
        self.histograms: dict[str, Histogram] = {}
        #: The run's spans; its ordinal is the registry's one clock.
        self.span_log = SpanLog("telemetry")
        if not record_spans:
            # Metrics-only mode for long campaigns where a full trace would
            # not fit in memory: the clock still ticks, no record is kept.
            self.span_log.spans = _Discard()

    # -- metrics -----------------------------------------------------------

    def count(self, name: str, n: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + n

    def gauge(self, name: str, value) -> None:
        self.gauges[name] = value

    def observe(self, name: str, value: int) -> None:
        hist = self.histograms.get(name)
        if hist is None:
            hist = self.histograms[name] = Histogram()
        hist.observe(value)

    # -- clock -------------------------------------------------------------

    @property
    def ordinal(self) -> int:
        return self.span_log.ordinal

    # -- spans -------------------------------------------------------------

    def span(self, cat: str, name: str, *, tid: int = 0, **args):
        """Open a span; use as ``with t.span("runtime", "kernel:foo"): ...``.

        The logical thread ``tid`` is recorded as a tag beside ``args``.
        """
        return self.span_log.span(name, cat=cat, tid=tid, **args)

    # -- export ------------------------------------------------------------

    def snapshot(self) -> dict:
        """All metrics as a stable, JSON-serializable dict.

        Keys are sorted so ``json.dumps`` of two identical runs compares
        byte-for-byte.
        """
        return {
            "clock": "ordinal",
            "counters": {k: self.counters[k] for k in sorted(self.counters)},
            "gauges": {k: self.gauges[k] for k in sorted(self.gauges)},
            "histograms": {
                k: self.histograms[k].snapshot() for k in sorted(self.histograms)
            },
            "spans": {
                "finished": len(self.span_log.spans),
                "ordinal_ticks": self.span_log.ordinal,
            },
        }

