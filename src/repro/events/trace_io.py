"""Event trace serialization: record a run, re-analyze it offline.

ARBALEST is an *on-the-fly* detector (§IV) — but the same event stream that
drives it online can be captured and replayed, which is how one debugs the
tools themselves, compares detectors on byte-identical traces, or ships a
failing run to another machine.  This module gives the event layer a stable
JSON-lines format, one :func:`~repro.events.codec.event_to_json` record per
line (the form :data:`~repro.events.codec.ROW_KINDS` derives):

* :class:`TraceWriter` — a :class:`~repro.tools.base.Tool` that appends one
  JSON object per event to a file-like sink;
* :func:`read_trace` / :func:`replay` — parse a trace and push it through
  any set of tools via a fresh :class:`~repro.events.bus.ToolBus`.

Determinism of the simulation makes replayed analysis bit-identical to the
online run: the round-trip property is tested, not assumed.

Traces arrive from the real world — a run killed mid-write truncates its
last record, a bad disk or transport corrupts lines.  Parsing is therefore
*lenient by default*: malformed records are skipped and tallied, a single
structured :class:`TraceWarning` summarizes the damage (records read,
records skipped, first error), and :func:`load_trace` returns the partial
load with its full error list.  Pass ``strict=True`` to get the old
fail-fast behaviour as a :class:`TraceDecodeError`.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, field
from typing import IO, Iterable, Iterator

from ..tools.base import Tool
from .bus import ToolBus
from .codec import event_from_json, event_to_json


class TraceWriter(Tool):
    """A tool that streams every event to a JSON-lines sink."""

    name = "trace-writer"

    def __init__(self, sink: IO[str]):
        super().__init__()
        self.sink = sink
        self.count = 0

    def _emit(self, event: object) -> None:
        self.sink.write(json.dumps(event_to_json(event)) + "\n")
        self.count += 1

    # Every handler funnels into _emit.
    on_access = on_data_op = on_memcpy = on_kernel = _emit
    on_allocation = on_sync = on_flush = _emit


def _format_lines(lines: tuple[int, ...], limit: int = 8) -> str:
    shown = ", ".join(str(n) for n in lines[:limit])
    if len(lines) > limit:
        shown += f", ... ({len(lines) - limit} more)"
    return shown


class TraceWarning(UserWarning):
    """A trace loaded partially: some records were malformed or truncated.

    Carries the damage *structurally*, not just as prose: ``errors`` is the
    ``(line_number, reason)`` list of every skipped record and
    ``line_numbers`` the lines alone, so callers (the serve ingest path,
    CI assertions) can point at the exact offending lines without parsing
    the warning text.
    """

    def __init__(self, message: str, errors: Iterable[tuple[int, str]] = ()):
        super().__init__(message)
        self.errors: tuple[tuple[int, str], ...] = tuple(errors)

    @property
    def line_numbers(self) -> tuple[int, ...]:
        """The 1-based line numbers of every skipped record."""
        return tuple(line for line, _ in self.errors)


class TraceDecodeError(ValueError):
    """A trace record could not be decoded (strict mode only)."""

    def __init__(self, line_number: int, reason: str):
        self.line_number = line_number
        self.reason = reason
        super().__init__(f"trace line {line_number}: {reason}")


@dataclass
class PartialTrace:
    """The outcome of a lenient trace load."""

    events: list = field(default_factory=list)
    records_read: int = 0
    records_skipped: int = 0
    #: ``(line_number, reason)`` for every skipped record, in file order.
    errors: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.records_skipped == 0

    def summary(self) -> str:
        if self.ok:
            return f"trace loaded cleanly: {self.records_read} records"
        first_line, first_reason = self.errors[0]
        lines = tuple(line for line, _ in self.errors)
        return (
            f"partial trace load: read {self.records_read} records, "
            f"skipped {self.records_skipped} malformed/truncated at "
            f"line(s) {_format_lines(lines)} "
            f"(first: line {first_line}: {first_reason})"
        )


def _records(source: IO[str], strict: bool, result: PartialTrace) -> Iterator[object]:
    """The one lenient loop: decode each line, tallying skips into ``result``.

    Issues one :class:`TraceWarning` carrying the partial-load summary at
    the end of the stream when anything was skipped; with ``strict`` the
    first bad record raises :class:`TraceDecodeError` instead.  Stacks come
    back interned (:func:`~repro.events.codec.event_from_json`): equal
    stacks share one tuple, as the live runtime's memoized snapshots do.
    """
    for line_number, line in enumerate(source, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            event = event_from_json(json.loads(line))
        except json.JSONDecodeError as exc:
            reason = f"truncated or corrupt JSON: {exc.msg}"
        except (KeyError, ValueError, TypeError) as exc:
            reason = f"malformed record: {type(exc).__name__}: {exc}"
        else:
            result.records_read += 1
            yield event
            continue
        if strict:
            raise TraceDecodeError(line_number, reason)
        result.records_skipped += 1
        result.errors.append((line_number, reason))
    if not result.ok:
        # Level 3: past this loop and the loader, at the loader's caller.
        warnings.warn(
            TraceWarning(result.summary(), errors=result.errors), stacklevel=3
        )


def load_trace(source: IO[str], *, strict: bool = False) -> PartialTrace:
    """Load a JSON-lines trace, tolerating truncated/corrupted records.

    Malformed lines are skipped and tallied; when any were skipped a single
    :class:`TraceWarning` carrying the partial-load summary is issued.  With
    ``strict=True`` the first bad record raises :class:`TraceDecodeError`.
    """
    result = PartialTrace()
    result.events.extend(_records(source, strict, result))
    return result


def read_trace(source: IO[str], *, strict: bool = False) -> Iterator[object]:
    """Parse a JSON-lines trace back into event records.

    Lenient by default, exactly as :func:`load_trace`: the summary
    :class:`TraceWarning` is issued at the end of the stream.
    """
    yield from _records(source, strict, PartialTrace())


def replay(events: Iterable[object], tools: Iterable[Tool]) -> ToolBus:
    """Push recorded events through tools on a fresh bus; returns the bus.

    Like the live runtime's ``finalize``, the end of the stream delivers
    any accesses still pending after the last non-access event.
    """
    bus = ToolBus()
    for tool in tools:
        bus.attach(tool)
    dispatch = bus.dispatch
    for event in events:
        dispatch[type(event)](event)
    bus.flush_batch()
    return bus
