"""Structured JSONL logging for the live serve stack.

``repro.serve`` grew up with ad-hoc ``print(...)`` lines: a listening
announcement here, a drain summary there, and nothing at all for the
events an operator actually greps for (worker restarts, shed frames,
decode errors, SLO burns).  This module replaces them with one append-only
JSON-lines stream where every record is machine-parseable and carries the
same identity fields the wire format does:

* ``event`` — dotted event name (``serve.listening``, ``worker.restart``,
  ``wire.decode_error``, ``slo.burn``, ...);
* ``ordinal`` — the logger's own deterministic event-ordinal clock, so two
  runs of the same session log byte-identical streams (wall time never
  appears unless a site explicitly passes it);
* ``client`` / ``seq`` / ``shard`` — the frame identity, when the event
  concerns one.

There is no module-level switch: a server logs through its observer's
``log`` (``ServeObserver.log``), and ``repro serve --log-file`` hands the
front end its own logger.
"""

from __future__ import annotations

import json
from typing import IO

__all__ = ["ObserveLog"]


class ObserveLog:
    """An append-only JSONL event log with a deterministic ordinal clock.

    Events are retained in :attr:`entries` (for tests and harness
    assertions) and, when a ``sink`` is given, written through as one
    compact sorted-keys JSON line each — the shape ``jq`` and the CI
    observability job consume.  ``capacity`` bounds in-memory retention
    (the sink, if any, still sees every event): a long-lived server must
    not grow without bound just because it is logging.
    """

    def __init__(self, sink: IO[str] | None = None, *, capacity: int = 4096):
        if capacity < 1:
            raise ValueError(f"log capacity must be positive, got {capacity}")
        self.sink = sink
        self.capacity = capacity
        self.entries: list[dict] = []
        self.ordinal = 0
        self.emitted = 0
        self.evicted = 0

    def event(
        self,
        event: str,
        *,
        client: int | None = None,
        seq: int | None = None,
        shard: int | None = None,
        **fields,
    ) -> dict:
        """Record one structured event; returns the entry that was logged."""
        self.ordinal += 1
        entry: dict = {"event": event, "ordinal": self.ordinal}
        if client is not None:
            entry["client"] = client
        if seq is not None:
            entry["seq"] = seq
        if shard is not None:
            entry["shard"] = shard
        for key in sorted(fields):
            value = fields[key]
            if value is not None:
                entry[key] = value
        self.emitted += 1
        self.entries.append(entry)
        if len(self.entries) > self.capacity:
            del self.entries[0]
            self.evicted += 1
        if self.sink is not None:
            self.sink.write(
                json.dumps(entry, sort_keys=True, separators=(",", ":")) + "\n"
            )
            flush = getattr(self.sink, "flush", None)
            if flush is not None:
                flush()  # a tail -f / CI scraper must see lines promptly
        return entry

    def named(self, event: str) -> list[dict]:
        """Every retained entry with the given event name, in log order."""
        return [e for e in self.entries if e["event"] == event]

    def stats(self) -> dict:
        return {
            "emitted": self.emitted,
            "retained": len(self.entries),
            "evicted": self.evicted,
        }

