"""One shard worker: a full detector stack over a slice of address space.

A :class:`ShardWorker` owns a fresh :class:`~repro.events.bus.ToolBus`
with its own tool instances.  It takes a frame's slice of event records
at a time (the server decoded them once; the worker never decodes),
journals the slice, applies it to the bus in seq order, and exposes its
tools' findings.  Findings are named by the bus's
:class:`~repro.events.variables.VariableIndex`, fed from the applied
events; no flight recorder runs on the serve path, so served findings
carry fingerprints and counts but no timelines.

Crash semantics are explicit, because the chaos campaign injects them at
every possible point: :exc:`WorkerCrash` models the worker process dying
mid-delivery.  ``crash_phase="pre"`` dies before the slice reaches the
journal (the slice is lost with the worker and must be redelivered);
``crash_phase="post"`` dies after journal+apply but before the ACK (the
supervisor redelivers, and the journal's ``(client, seq)`` dedup makes the
redelivery a no-op).  A death during apply is a ``post`` death: the slice
is already journaled.  Both interleavings must — and do — converge to the
same detector state after :meth:`restart` replays the journal.
"""

from __future__ import annotations

from bisect import bisect_right
from operator import itemgetter
from typing import Callable, Iterable

from ..core.detector import Arbalest
from ..events.bus import ToolBus
from ..events.variables import VariableIndex
from ..tools.archer import ArcherTool
from ..tools.asan import AsanTool
from ..tools.base import Tool
from ..tools.findings import Finding
from ..tools.msan import MsanTool
from ..tools.valgrind import ValgrindTool
from .journal import ShardJournal

__all__ = [
    "ShardWorker",
    "WorkerCrash",
    "DEFAULT_TOOLS",
]

#: Tool factories the server can host, mirroring the harness's Table III
#: set but defined here (from the tool modules directly) so the serve
#: package never imports the harness.
DEFAULT_TOOLS: dict[str, Callable[[], Tool]] = {
    "arbalest": Arbalest,
    "valgrind": ValgrindTool,
    "archer": ArcherTool,
    "asan": AsanTool,
    "msan": MsanTool,
}


class WorkerCrash(RuntimeError):
    """A shard worker died mid-delivery (injected or real).

    ``failures`` are the ``(seq, detail)`` apply failures of a slice the
    worker applied before dying: the journal makes its redelivery a no-op,
    so only this exception can carry them to the server's ERROR frames.
    """

    def __init__(self, message: str, failures: list[tuple[int, str]] = ()):
        super().__init__(message)
        self.failures = list(failures)


class ShardWorker:
    """One shard of detector state, restartable from its journal."""

    def __init__(
        self,
        shard_id: int,
        *,
        tools: Iterable[str] = ("arbalest",),
        journal: ShardJournal | None = None,
        variables: VariableIndex | None = None,
        observer=None,
    ):
        self.shard_id = shard_id
        #: Optional :class:`~repro.observe.observer.ServeObserver`; when
        #: present, applies and replays are counted/spanned through it.
        self._observer = observer
        #: The per-shard span log, resolved once — ``SpanLog`` identity is
        #: stable across restarts, so ``deliver`` never re-asks for it.
        self._spanlog = (
            observer.shard_span_log(shard_id) if observer is not None else None
        )
        #: The observer's continuous profiler, resolved once and set on
        #: every bus this worker boots; each slice points it at this
        #: shard's phase and the frame being applied.
        self._profiler = (
            getattr(observer, "profiler", None) if observer is not None else None
        )
        self._prof_phase = f"shard-{shard_id}"
        #: Per client, ``(first seq applied here, frame key)`` for every
        #: slice that reached this shard, in apply order — kept only
        #: while spans or the profiler need frame keys, so a journal
        #: replay names the same ``(client, frame)`` key the apply did.
        self._frame_marks: dict[int, list[tuple[int, int]]] | None = (
            {} if self._spanlog is not None or self._profiler is not None else None
        )
        #: A session-level variable index shared with sibling shards (the
        #: supervisor passes one), or ``None`` for a private per-worker
        #: one.  Sharing matters for attribution: an overrun access can
        #: fault inside a range whose events route to a *different*
        #: shard, and only a shared address index can still name it.
        self._shared_variables = variables
        self.tool_names = tuple(tools)
        unknown = [t for t in self.tool_names if t not in DEFAULT_TOOLS]
        if unknown:
            raise ValueError(
                f"unknown tool(s) {', '.join(unknown)} "
                f"(valid choices: {', '.join(sorted(DEFAULT_TOOLS))})"
            )
        self.journal = journal if journal is not None else ShardJournal(shard_id)
        self.alive = False
        self.restarts = 0
        self.replayed_events = 0
        self.replay_errors = 0
        self.applied = 0
        self._boot()

    # -- lifecycle ---------------------------------------------------------

    def _boot(self) -> None:
        """Build a fresh bus + tool stack (initial boot and every restart)."""
        # A shared (supervisor-owned) index survives worker crashes —
        # journal replay's re-registrations are idempotent (same ranges,
        # same names, keyed by base); a private index is rebuilt from the
        # journal like everything else.
        self.bus = ToolBus(self._shared_variables)
        self.bus.profiler = self._profiler
        self.tools: dict[str, Tool] = {}
        for name in self.tool_names:
            tool = DEFAULT_TOOLS[name]()
            self.bus.attach(tool)
            self.tools[name] = tool
        self._dispatch = self.bus.dispatch
        self.alive = True

    def crash(self) -> None:
        """Model the worker process dying; detector state is gone."""
        self.alive = False

    def restart(self) -> None:
        """Supervisor-driven restart: fresh stack, replay the journal.

        The journal holds exactly the acknowledged (and possibly some
        journaled-but-unacked) frames in append order; replaying them
        rebuilds the detector state those acknowledgements promised.
        """
        self.restarts += 1
        replayed = 0
        self._boot()
        observer = self._observer
        spanlog = self._spanlog
        for client, seq, event in self.journal.replay():
            frame = self._frame_key(client, seq)
            entry = ((seq, event),)
            if spanlog is not None:
                # The replay span links back to the original apply via
                # ``replayed_from`` — the stitched trace shows the
                # re-execution as a distinct span tied to the frame
                # identity it re-ran.
                with spanlog.span(
                    "replay",
                    client=client,
                    seq=frame,
                    event=seq,
                    shard=self.shard_id,
                    restart=self.restarts,
                    replayed_from=f"{client}:{frame}",
                ):
                    failures = self._apply(entry, client, frame)
            else:
                failures = self._apply(entry, client, frame)
            if failures:
                # A journal entry that no longer applies (a record the
                # tools reject) must not take the whole shard down with
                # it — count it, log it, skip it, never swallow it.
                self.replay_errors += 1
                if observer is not None:
                    observer.count_replay_error()
                    observer.log.event(
                        "journal.replay_error",
                        client=client,
                        seq=seq,
                        shard=self.shard_id,
                        detail=failures[0][1],
                    )
                continue
            replayed += 1
        self.replayed_events += replayed

    def _frame_key(self, client: int, seq: int) -> int:
        """The first seq of the wire frame that delivered journaled ``seq``."""
        marks = (
            self._frame_marks.get(client) if self._frame_marks is not None else None
        )
        if not marks:
            return seq
        index = bisect_right(marks, seq, key=itemgetter(0)) - 1
        return marks[index][1] if index >= 0 else seq

    # -- delivery ----------------------------------------------------------

    def _apply(self, entries, client: int, frame: int) -> list[tuple[int, str]]:
        """Apply ``(seq, event)`` entries in order; returns the failures.

        An event a tool rejects costs its own ``(seq, detail)`` and the
        rest still apply.  The profiler is pointed at ``(client, frame)``
        once for the whole run.
        """
        dispatch = self._dispatch
        failures: list[tuple[int, str]] = []
        profiler = self._profiler
        if profiler is not None:
            profiler.set_context(phase=self._prof_phase)
            profiler.set_frame(client, frame)
        try:
            for seq, event in entries:
                try:
                    dispatch[type(event)](event)
                except (KeyError, ValueError, TypeError) as exc:
                    failures.append((seq, f"{type(exc).__name__}: {exc}"))
        finally:
            if profiler is not None:
                profiler.clear_frame()
        self.applied += len(entries) - len(failures)
        return failures

    def deliver(
        self,
        client: int,
        entries: list,
        *,
        crash_phase: str | None = None,
        frame: int | None = None,
    ) -> list[tuple[int, str]]:
        """Journal + apply one frame's slice; returns its apply failures.

        ``entries`` are ``(seq, event)`` pairs in increasing seq order.
        The slice is journaled once, applied in order and acknowledged
        once; a redelivered slice (or its already-journaled head) is
        dropped by the journal and not applied again.  The failures are
        ``(seq, detail)`` for each event a tool rejected.

        ``crash_phase`` is the chaos hook: ``"pre"`` crashes before the
        journal sees the slice, ``"post"`` after journal+apply but before
        the acknowledgement — the two interleavings a real worker death
        can produce.  ``frame`` is the first seq of the wire frame that
        carried the slice (default: the slice's first seq): spans and
        profiler samples are keyed by ``(client, frame)``.
        """
        if not self.alive:
            raise WorkerCrash(f"shard {self.shard_id} is down")
        first, last = entries[0][0], entries[-1][0]
        if crash_phase == "pre":
            self.crash()
            raise WorkerCrash(
                f"shard {self.shard_id} killed before journaling seqs "
                f"{first}..{last}"
            )
        entries = self.journal.record(client, entries)
        failures: list[tuple[int, str]] = []
        if entries:  # else an idempotent re-delivery: journaled already
            if frame is None:
                frame = entries[0][0]
            marks = self._frame_marks
            if marks is not None:
                client_marks = marks.setdefault(client, [])
                if not client_marks or client_marks[-1][1] != frame:
                    client_marks.append((entries[0][0], frame))
            spanlog = self._spanlog
            if spanlog is not None:
                with spanlog.span(
                    "apply",
                    client=client,
                    seq=frame,
                    events=len(entries),
                    shard=self.shard_id,
                ):
                    failures = self._apply(entries, client, frame)
            else:
                failures = self._apply(entries, client, frame)
        if crash_phase == "post":
            self.crash()
            raise WorkerCrash(
                f"shard {self.shard_id} killed after journaling seqs "
                f"{first}..{last}, before acknowledging them",
                failures,
            )
        self.journal.mark_acked(client, last)
        return failures

    def drain(self) -> None:
        """Flush any parked columnar batch (graceful-drain path)."""
        if self._profiler is not None:
            self._profiler.set_context(phase=self._prof_phase)
        self.bus.flush_batch()

    # -- results -----------------------------------------------------------

    def findings(self) -> list[tuple[str, Finding, int]]:
        """Every tool finding with its per-site count, in tool order."""
        self.drain()
        out: list[tuple[str, Finding, int]] = []
        for name in self.tool_names:
            for finding, count in self.tools[name].findings_with_counts():
                out.append((name, finding, count))
        return out

    def stats(self) -> dict:
        return {
            "shard": self.shard_id,
            "alive": self.alive,
            "restarts": self.restarts,
            "replayed_events": self.replayed_events,
            "replay_errors": self.replay_errors,
            "applied": self.applied,
            "journal": self.journal.stats(),
        }
