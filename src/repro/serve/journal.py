"""Per-shard checkpoint/replay journals: the crash-recovery source of truth.

A shard worker journals its slice of every frame *before* applying it and
only then acknowledges.  The journal therefore dominates the worker's in-memory
detector state at all times: when the supervisor restarts a crashed
worker, replaying the journal in append order reconstructs exactly the
state the shard had acknowledged — the write-ahead-log discipline, scaled
down to one process.

Idempotent re-delivery rides on the same structure: entries are keyed by
``(client, seq)``, so a slice delivered twice (supervisor redelivery after
a post-journal crash) is recognized and dropped without touching detector
state.  A shard receives each client's events in increasing seq order —
the server applies frames in order and the supervisor keeps each slice in
order — so a per-client high-water mark decides exactly which ``(client,
seq)`` pairs were journaled.  One event can legitimately reach *two*
shards (a memcpy whose source and destination live on different shards),
which is why dedup is per-journal, not global.

Entries are the decoded event records the server handed the supervisor,
so replay applies them with no second decode.  The journal can optionally
mirror itself to a JSON-lines sink (one ``{"c", "s", "e"}`` entry per
line, the event in :func:`~repro.events.trace_io.event_to_json` form) so a
supervisor restart — not just a worker restart — can rebuild shard state
from disk; :meth:`ShardJournal.load` is the inverse.
"""

from __future__ import annotations

import json
from typing import IO, Iterator

from ..events.trace_io import event_from_json, event_to_json

__all__ = ["ShardJournal"]


class ShardJournal:
    """Append-only, ``(client, seq)``-deduped event journal for one shard."""

    def __init__(self, shard_id: int = 0, *, sink: IO[str] | None = None):
        self.shard_id = shard_id
        #: Journaled slices in append order, as ``(client, entries)``.
        self._slices: list[tuple[int, list]] = []
        self._count = 0
        #: Highest journaled sequence number per client (the dedup mark).
        self._marks: dict[int, int] = {}
        #: Highest acknowledged sequence number per client (-1 = none).
        self._acked: dict[int, int] = {}
        self._sink = sink
        self.duplicates_dropped = 0
        #: Lines a :meth:`load` rejected as malformed (counted, skipped —
        #: a half-written mirror line must not poison the whole journal).
        self.load_errors = 0

    def __len__(self) -> int:
        return self._count

    def seen(self, client: int, seq: int) -> bool:
        """Whether :meth:`record` would drop ``(client, seq)`` as journaled."""
        return seq <= self._marks.get(client, -1)

    def record(self, client: int, entries: list) -> list:
        """Journal one slice of ``(seq, event)`` entries; returns the new ones.

        ``entries`` are in increasing seq order, above every seq of
        ``client`` this journal holds unless they are a redelivery; an
        entry already journaled is an idempotent duplicate, dropped and
        counted.  The mirror gets one line per new entry.
        """
        mark = self._marks.get(client, -1)
        if entries[0][0] <= mark:
            fresh = [entry for entry in entries if entry[0] > mark]
            self.duplicates_dropped += len(entries) - len(fresh)
            if not fresh:
                return fresh
            entries = fresh
        self._marks[client] = entries[-1][0]
        self._slices.append((client, entries))
        self._count += len(entries)
        if self._sink is not None:
            self._sink.write(
                "".join(
                    json.dumps(
                        {"c": client, "s": seq, "e": event_to_json(event)},
                        sort_keys=True,
                        separators=(",", ":"),
                    )
                    + "\n"
                    for seq, event in entries
                )
            )
        return entries

    def mark_acked(self, client: int, seq: int) -> None:
        """Advance the acknowledgement watermark for ``client``."""
        if seq > self._acked.get(client, -1):
            self._acked[client] = seq

    def acked_seq(self, client: int) -> int:
        """Highest acknowledged sequence number for ``client`` (-1 if none)."""
        return self._acked.get(client, -1)

    def replay(self) -> Iterator[tuple[int, int, object]]:
        """Every journaled ``(client, seq, event)`` in append order."""
        return iter(
            [
                (client, seq, event)
                for client, entries in self._slices
                for seq, event in entries
            ]
        )

    @property
    def writable(self) -> bool:
        """Whether journaling can still accept entries (readiness check).

        An in-memory journal is always writable; a mirrored one is
        writable while its sink is open.  A closed sink means journal
        durability is gone — the server must stop advertising readiness
        rather than acknowledge frames it can no longer make durable.
        """
        sink = self._sink
        return sink is None or not getattr(sink, "closed", False)

    @classmethod
    def load(cls, shard_id: int, source: IO[str]) -> "ShardJournal":
        """Rebuild a journal from its JSON-lines mirror.

        A malformed line (truncated JSON from a crash mid-write, or an
        event that :func:`~repro.events.trace_io.event_from_json` rejects)
        is **counted and skipped**, never
        silently absorbed and never fatal: the journal that loads is the
        longest well-formed prefix semantics allow, and
        :attr:`load_errors` reports exactly how much was lost.
        """
        journal = cls(shard_id)
        for line in source:
            line = line.strip()
            if not line:
                continue
            try:
                entry = json.loads(line)
                journal.record(entry["c"], [(entry["s"], event_from_json(entry["e"]))])
            except (ValueError, KeyError, TypeError):
                journal.load_errors += 1
        return journal

    def stats(self) -> dict:
        return {
            "entries": self._count,
            "duplicates_dropped": self.duplicates_dropped,
            "clients": len(self._acked),
            "load_errors": self.load_errors,
        }
