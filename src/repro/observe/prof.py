"""Always-on deterministic sampling profiler for the tool-dispatch hot path.

Real continuous profilers (Google-Wide Profiling, Parca, Pyroscope) interrupt
the program on a *time* stride; that is useless for a deterministic replay
harness because two identical runs would disagree about where the samples
landed.  We sample on the **event-ordinal clock** instead: every published
access advances ``access.count`` ordinals — one per represented element, so
a bulk access from a vectorized kernel weighs as much as the element-wise
loop it stands for — and a sample fires whenever the countdown crosses a
``stride`` boundary.  Two runs of the same deterministic program therefore
produce *byte-identical* folded stacks — profiles diff cleanly across
commits, which is the whole point of continuous profiling in CI.

A sample attributes cost to ``(benchmark, phase, tool, code-site)`` where the
code-site is the simulated source stack carried by the sampled
:class:`~repro.events.records.Access`.  Each sample's recorded *weight* is
the number of elements that elapsed since the previous sample (at least
``stride``), so totals stay comparable across stride changes and bulk
accesses are not undercounted.

Sampling itself costs time.  The optional :class:`Governor` measures that tax
on the wall clock and adaptively widens the stride to keep it under a
configured budget (default 1%), narrowing again when the tax falls far below
budget.  The governor trades determinism for boundedness — with it enabled
the *stride schedule* depends on machine speed, so byte-identical output is
only guaranteed in fixed-stride mode (``governor=None``, the default).

The profiler is attached to the bus it samples
(:attr:`~repro.events.bus.ToolBus.profiler`), its only reader.  The
disabled path is free: the bus checks that attribute once per flush or
kernel event and skips on ``None`` — no allocation, no call (proven by
tracemalloc in the test suite).
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Callable, Sequence, Union

import numpy as np

from ..events.columnar import EventBatch

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..events.records import Access
    from ..tools.base import Tool

#: Default sampling stride (events per sample) before the governor adapts it.
DEFAULT_STRIDE = 512

#: Default governor budget: profiling tax as a fraction of wall time.
DEFAULT_BUDGET = 0.01

#: Max trace-frame links retained per folded stack (profile↔span stitching).
FRAME_LINKS = 4


class Governor:
    """Adaptive stride controller bounding the measured profiling tax.

    Every sample's recording cost is timed; every ``cadence`` samples the
    governor compares the window's sampling time against the wall time that
    elapsed over the window and widens the stride (doubling) whenever the
    tax exceeds ``budget``.  When the tax drops below a quarter of budget it
    narrows again (halving, floored at ``min_stride``) so a workload that
    got cheaper regains resolution.  The ``timer`` is injectable so the
    convergence loop is testable without a real clock.
    """

    def __init__(
        self,
        budget: float = DEFAULT_BUDGET,
        *,
        cadence: int = 64,
        min_stride: int = 16,
        max_stride: int = 1 << 22,
        timer: Callable[[], float] = time.perf_counter,
    ) -> None:
        if budget <= 0.0:
            raise ValueError(f"governor budget must be positive, got {budget}")
        if cadence < 1:
            raise ValueError(f"governor cadence must be >= 1, got {cadence}")
        self.budget = budget
        self.cadence = cadence
        self.min_stride = min_stride
        self.max_stride = max_stride
        self.timer = timer
        #: Total seconds spent recording samples (all windows).
        self.sample_seconds = 0.0
        #: Tax measured over the most recent completed window.
        self.last_tax = 0.0
        #: Stride adjustments: ``(samples_seen, old_stride, new_stride)``.
        self.adjustments: list[tuple[int, int, int]] = []
        self._window_cost = 0.0
        self._window_samples = 0
        self._window_start: float | None = None
        self._samples_seen = 0

    def after_sample(self, cost: float, stride: int) -> int | None:
        """Account one sample's recording cost; return a new stride or None."""
        self.sample_seconds += cost
        self._window_cost += cost
        self._window_samples += 1
        self._samples_seen += 1
        if self._window_samples < self.cadence:
            return None
        now = self.timer()
        start = self._window_start
        window_cost = self._window_cost
        self._window_start = now
        self._window_cost = 0.0
        self._window_samples = 0
        if start is None:
            return None  # first full window: no elapsed baseline yet
        elapsed = now - start
        if elapsed <= 0.0:
            return None
        tax = min(1.0, window_cost / elapsed)
        self.last_tax = tax
        new = stride
        if tax > self.budget:
            new = min(stride * 2, self.max_stride)
        elif tax < self.budget / 4.0 and stride > self.min_stride:
            new = max(stride // 2, self.min_stride)
        if new != stride:
            self.adjustments.append((self._samples_seen, stride, new))
            return new
        return None

    def snapshot(self) -> dict:
        return {
            "budget": self.budget,
            "cadence": self.cadence,
            "sample_seconds": round(self.sample_seconds, 9),
            "last_tax": round(self.last_tax, 6),
            "adjustments": [list(a) for a in self.adjustments],
        }


def _frame_token(frame) -> str:
    """One folded-stack frame: no spaces or semicolons, so folded lines
    split unambiguously on ``";"`` and the final ``" "`` before the count."""
    col = f":{frame.column}" if frame.column else ""
    text = f"{frame.function}@{frame.file}:{frame.line}{col}"
    return text.replace(";", ",").replace(" ", "_")


class Profiler:
    """Event-ordinal stride sampler attributing tool cost to code sites.

    The hot-path entry point is :meth:`batch_events`, one call per flushed
    access batch.  It advances one ordinal per accessed element, so a given
    trace yields identical sample ordinals whatever the batch sizes, and
    whether it arrives as rows or as an :class:`EventBatch` of lane codes —
    differential invariants the test suite checks.

    Context is cheap mutable state: :meth:`set_context` names the current
    ``benchmark``/``phase`` (the serve layer points these at the session and
    shard), and :meth:`set_frame` links subsequent samples to a wire-frame
    identity ``(client, seq)`` so a hot folded stack can be joined against
    the stitched wire-v2 trace (profile↔span correlation).
    """

    def __init__(
        self,
        stride: int = DEFAULT_STRIDE,
        *,
        governor: Governor | None = None,
        benchmark: str = "-",
        phase: str = "host",
        track_kernel_phase: bool = True,
    ) -> None:
        if stride < 1:
            raise ValueError(f"profiler stride must be >= 1, got {stride}")
        #: Whether kernel begin/end events drive the phase (benchmark mode).
        #: The serve layer pins the phase to the shard instead.
        self.track_kernel_phase = track_kernel_phase
        self.initial_stride = stride
        self.stride = stride
        self.governor = governor
        self.events = 0
        self.samples = 0
        self._countdown = stride
        self._reset = stride  # countdown's start value (weight = reset - countdown)
        self._benchmark = benchmark
        self._phase = phase
        self._frame: tuple | None = None
        # key = (benchmark, phase, tool, stack) -> sample count / event weight
        self._counts: dict[tuple, int] = {}
        self._weights: dict[tuple, int] = {}
        # key -> up to FRAME_LINKS example (client, seq) wire-frame links
        self._frames: dict[tuple, list[tuple]] = {}

    # -- context ---------------------------------------------------------

    def set_context(self, benchmark: str | None = None, phase: str | None = None) -> None:
        if benchmark is not None:
            self._benchmark = benchmark
        if phase is not None:
            self._phase = phase

    def set_frame(self, client, seq: int) -> None:
        self._frame = (client, seq)

    def clear_frame(self) -> None:
        self._frame = None

    # -- hot path --------------------------------------------------------

    def batch_events(
        self,
        accesses: Union[Sequence["Access"], EventBatch],
        tools: Sequence["Tool"],
    ) -> None:
        """Advance one ordinal per element of the batch; maybe sample.

        Samples land on exactly the accesses a per-access countdown would
        have picked, including governor stride changes mid-batch.  An
        :class:`EventBatch` is walked on its ``counts`` column, so it
        builds no row: a sample reads only the sampled access's stack.
        """
        if type(accesses) is EventBatch:
            self._walk_counts(accesses, tools)
            return
        total = sum(access.count for access in accesses)
        self.events += total
        if total < self._countdown:
            self._countdown -= total
            return
        countdown = self._countdown
        reset = self._reset
        for access in accesses:
            countdown -= access.count
            if countdown <= 0:
                self._sample(access.stack, tools, reset - countdown)
                reset = countdown = self.stride
        self._countdown = countdown
        self._reset = reset

    def _walk_counts(self, batch: EventBatch, tools: Sequence["Tool"]) -> None:
        """The per-access countdown over a batch's cumulative counts: one
        ``searchsorted`` finds each sampled position."""
        cum = np.cumsum(batch.columns.counts)
        total = int(cum[-1]) if len(cum) else 0
        self.events += total
        countdown = self._countdown
        if total < countdown:
            self._countdown = countdown - total
            return
        reset = self._reset
        n = len(cum)
        base = 0  # ordinals consumed through the last sampled position
        while True:
            pos = int(cum.searchsorted(base + countdown))
            if pos >= n:
                break
            reached = int(cum[pos])
            self._sample(batch.stack_at(pos), tools, reset - countdown + reached - base)
            reset = countdown = self.stride
            base = reached
        self._countdown = countdown - (total - base)
        self._reset = reset

    def kernel_event(self, name: str) -> None:
        """Track the phase from kernel launches (cold path)."""
        if self.track_kernel_phase:
            self._phase = name

    def _sample(self, stack: tuple, tools: Sequence["Tool"], weight: int) -> None:
        governor = self.governor
        t0 = governor.timer() if governor is not None else 0.0
        self.samples += 1
        bench = self._benchmark
        phase = self._phase
        frame = self._frame
        counts = self._counts
        weights = self._weights
        for tool in tools:
            key = (bench, phase, getattr(tool, "name", type(tool).__name__), stack)
            if key in counts:
                counts[key] += 1
                weights[key] += weight
            else:
                counts[key] = 1
                weights[key] = weight
            if frame is not None:
                links = self._frames.setdefault(key, [])
                if len(links) < FRAME_LINKS:
                    links.append(frame)
        if governor is not None:
            new = governor.after_sample(governor.timer() - t0, self.stride)
            if new is not None:
                # The caller resets the countdown from self.stride right
                # after sampling, so the new stride takes effect immediately.
                self.stride = new

    # -- export ----------------------------------------------------------

    def folded_key(self, key: tuple) -> str:
        bench, phase, tool, stack = key
        frames = ";".join(_frame_token(f) for f in reversed(stack))
        return f"{bench};{phase};{tool};{frames}"

    def folded(self) -> str:
        """Folded-stack export: ``bench;phase;tool;frames... weight``.

        Deterministically ordered (sorted by folded key) so fixed-stride
        runs are byte-identical.
        """
        lines = [
            f"{text} {weight}"
            for text, weight in sorted(
                (self.folded_key(key), weight) for key, weight in self._weights.items()
            )
        ]
        return "\n".join(lines) + ("\n" if lines else "")

    def samples_by_phase(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for (bench, phase, tool, stack), count in self._counts.items():
            out[phase] = out.get(phase, 0) + count
        return dict(sorted(out.items()))

    def hot_stacks(self, limit: int = 10) -> list[dict]:
        """The heaviest folded stacks, with their wire-frame links."""
        ranked = sorted(
            self._weights.items(), key=lambda item: (-item[1], self.folded_key(item[0]))
        )
        out = []
        for key, weight in ranked[:limit]:
            out.append(
                {
                    "stack": self.folded_key(key),
                    "samples": self._counts[key],
                    "weight": weight,
                    "frames": [
                        {"client": client, "seq": seq}
                        for client, seq in self._frames.get(key, [])
                    ],
                }
            )
        return out

    def stats(self) -> dict:
        data = {
            "events": self.events,
            "samples": self.samples,
            "stride": self.stride,
            "initial_stride": self.initial_stride,
            "stacks": len(self._weights),
            "by_phase": self.samples_by_phase(),
        }
        if self.governor is not None:
            data["governor"] = self.governor.snapshot()
        return data

    def snapshot(self, *, limit: int = 50) -> dict:
        """Full JSON export: stats + hot stacks with span-correlation links."""
        data = self.stats()
        data["hot"] = self.hot_stacks(limit)
        return data
