"""The shard supervisor: routing, worker restarts, redelivery.

The supervisor is the component that turns "a worker crashed" from an
outage into a non-event.  It owns the shard workers and works a frame at
a time: the server hands it a frame's unapplied events (decoded once, in
order), it routes each to the shard(s) whose address ranges it touches
(kernel and sync events broadcast — they carry the epoch structure every
shard's race checker needs) and so cuts the frame into one ordered
``(seq, event)`` slice per shard, and it wraps each slice's delivery in
the restart protocol:

* a :exc:`~repro.serve.shard.WorkerCrash` during delivery triggers an
  immediate restart of that worker — fresh tool stack, journal replay up
  to the last acknowledged event — followed by redelivery of the slice
  that was in flight;
* redelivery is idempotent by construction (journal dedup on
  ``(client, seq)``), so it does not matter whether the crash happened
  before or after the slice reached the journal;
* a worker that keeps dying on one slice exhausts
  :data:`MAX_DELIVERY_RETRIES` and surfaces a hard error — the supervisor
  never spins forever and never silently skips an event.

The supervisor also owns the session's one
:class:`~repro.events.variables.VariableIndex`, shared by every worker's
bus, which names the shards' findings.  No flight recorder runs here.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from ..events.codec import RowError
from ..events.records import (
    Access,
    AllocationEvent,
    DataOp,
    FlushEvent,
    MemcpyEvent,
)
from ..events.variables import VariableIndex
from ..tools.findings import Finding
from .router import AddressRouter
from .shard import ShardWorker, WorkerCrash

__all__ = ["Supervisor", "MAX_DELIVERY_RETRIES"]

#: Restart-and-redeliver attempts per (frame, shard) before giving up.
MAX_DELIVERY_RETRIES = 4


class Supervisor:
    """Routes frames to shard workers and keeps the workers alive."""

    def __init__(
        self,
        *,
        n_shards: int = 4,
        tools: Iterable[str] = ("arbalest",),
        observer=None,
    ):
        self.router = AddressRouter(n_shards)
        #: Optional :class:`~repro.observe.observer.ServeObserver` shared
        #: with the owning server; ``None`` keeps every site below free.
        self.observer = observer
        #: The session's address-to-variable index, shared by all shard
        #: workers' buses.  It is supervisor state, not worker state: a
        #: worker crash wipes detector state (rebuilt from the journal)
        #: but not attribution, and a finding on one shard can name a
        #: variable whose mapping events routed to another (overrun
        #: attribution crosses shard boundaries).
        self.variables = VariableIndex()
        self.workers = [
            ShardWorker(
                i,
                tools=tools,
                variables=self.variables,
                observer=observer,
            )
            for i in range(n_shards)
        ]
        self._every_shard = tuple(range(n_shards))
        #: Delivery-attempt occurrence index -> crash phase ("pre"/"post"),
        #: installed by the chaos harness.  Consulted once per (frame,
        #: shard) delivery attempt, in deterministic order.
        self.kill_schedule: dict[int, str] = {}
        self.delivery_attempts = 0
        self.worker_restarts = 0
        self.events_delivered = 0

    # -- routing -----------------------------------------------------------

    def shards_for(self, event) -> tuple[int, ...]:
        """The shard ids an event record must reach, in ascending order."""
        kind = type(event)
        router = self.router
        if kind is Access:
            return (router.route(event.address),)
        if kind is AllocationEvent:
            # Allocations broadcast: they are rare, every shard's extent
            # map needs them, and broadcasting is what makes the router's
            # CV rebind (see AddressRouter.bind) safe — the new owner of
            # a rebound range has already seen its allocation.
            if not event.is_free:
                router.claim(event.address, event.nbytes)
            return self._every_shard
        if kind is DataOp:
            pair = router.bind(event.ov_address, event.cv_address, event.nbytes)
            return tuple(sorted(set(pair)))
        if kind is MemcpyEvent:
            return tuple(
                sorted(
                    {
                        router.route(event.dst_address),
                        router.route(event.src_address),
                    }
                )
            )
        if kind is FlushEvent and event.address:
            return (router.route(event.address),)
        # kernel / sync / whole-memory flush: epoch structure, every
        # shard's race checker needs it
        return self._every_shard

    # -- delivery ----------------------------------------------------------

    def _restart(self, worker, *, client: int | None = None, seq: int | None = None, cause: str = "crash") -> None:
        """Restart one worker, with the structured log entry operators grep."""
        observer = self.observer
        if observer is not None:
            observer.log.event(
                "worker.restart",
                client=client,
                seq=seq,
                shard=worker.shard_id,
                cause=cause,
                journal_entries=len(worker.journal),
            )
        worker.restart()
        self.worker_restarts += 1

    def _deliver_to(
        self, shard_id: int, client: int, entries: list, frame: int
    ) -> list[tuple[int, str]]:
        """Deliver one slice to one shard, surviving worker crashes.

        Returns the slice's apply failures as ``(seq, detail)``, those of
        an attempt the worker died after applying included.
        """
        worker = self.workers[shard_id]
        observer = self.observer
        failures: list[tuple[int, str]] = []
        for _attempt in range(MAX_DELIVERY_RETRIES + 1):
            self.delivery_attempts += 1
            crash_phase = self.kill_schedule.pop(self.delivery_attempts, None)
            try:
                if not worker.alive:
                    # Died outside a delivery (e.g. drained mid-crash):
                    # restart before touching it.
                    self._restart(
                        worker, client=client, seq=frame, cause="found-dead"
                    )
                return failures + worker.deliver(
                    client, entries, crash_phase=crash_phase, frame=frame
                )
            except WorkerCrash as crash:
                failures += crash.failures
                self._restart(worker, client=client, seq=frame, cause="crash")
                if observer is not None:
                    observer.count_redelivery()
                continue  # redeliver the in-flight slice
        raise RuntimeError(  # pragma: no cover - requires a poisoned frame
            f"shard {shard_id} failed {MAX_DELIVERY_RETRIES + 1} delivery "
            f"attempts for (client={client}, frame={frame})"
        )

    def dispatch(
        self, client: int, seq: int, events: Sequence, *, frame: int | None = None
    ) -> list[tuple[int, str]]:
        """Route in-order events ``seq, seq+1, ...`` and deliver them.

        ``events`` is a frame's unapplied tail, each entry a record or a
        :class:`~repro.events.codec.RowError`.  One pass cuts it into a
        ``(seq, event)`` slice per shard — a run of accesses reuses the
        last :meth:`AddressRouter.route_range` until one misses or a claim
        or bind may have moved it — then each slice makes one delivery
        attempt per shard, in shard order.  Returns one ``(seq, detail)``
        per event that did not apply (a bad row, a routing or an apply
        failure), in seq order; the other events all apply.

        ``frame`` is the first seq of the wire frame that carried the
        events (``seq`` itself by default): the ``(client, frame)`` key
        that joins shard spans and profiler samples to the client and
        server spans.
        """
        if frame is None:
            frame = seq
        slices: list[list] = [[] for _ in self.workers]
        failures: dict[int, str] = {}
        route = self.router.route_range
        lo = hi = 0  # the reused range: empty until the first access
        for event in events:
            kind = type(event)
            if kind is Access:
                address = event.address
                if not lo <= address < hi:
                    lo, hi, shard = route(address)
                slices[shard].append((seq, event))
            elif kind is RowError:
                failures[seq] = str(event)
            else:
                lo = hi = 0  # a claim or bind may move any range
                try:
                    shards = self.shards_for(event)
                except (KeyError, ValueError, TypeError) as exc:
                    failures[seq] = f"{type(exc).__name__}: {exc}"
                else:
                    for target in shards:
                        slices[target].append((seq, event))
            seq += 1
        for shard_id, entries in enumerate(slices):
            if entries:
                for at, detail in self._deliver_to(shard_id, client, entries, frame):
                    failures.setdefault(at, detail)
        self.events_delivered += len(events) - len(failures)
        return sorted(failures.items())

    # -- drain / results ---------------------------------------------------

    def drain(self) -> None:
        """Flush every shard's parked columnar batch (SIGTERM/FIN path)."""
        for worker in self.workers:
            if not worker.alive:
                self._restart(worker, cause="drain")
            worker.drain()

    def findings(self) -> list[tuple[int, str, Finding, int]]:
        """All shards' findings as ``(shard, tool, finding, count)`` rows.

        Shard order (then tool order, then report order) — deterministic,
        so the server's finding stream is reproducible run to run.
        """
        self.drain()
        rows: list[tuple[int, str, Finding, int]] = []
        for worker in self.workers:
            for tool, finding, count in worker.findings():
                rows.append((worker.shard_id, tool, finding, count))
        return rows

    @property
    def duplicates_dropped(self) -> int:
        """Redelivered events the shard journals dropped, over all shards."""
        return sum(worker.journal.duplicates_dropped for worker in self.workers)

    def stats(self) -> dict:
        return {
            "shards": [w.stats() for w in self.workers],
            "router": self.router.stats(),
            "delivery_attempts": self.delivery_attempts,
            "events_delivered": self.events_delivered,
            "duplicates_dropped": self.duplicates_dropped,
            "worker_restarts": self.worker_restarts,
        }
