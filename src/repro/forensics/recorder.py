"""The flight recorder: a bounded per-variable timeline of mapping events.

ARBALEST's findings say *what* broke; the flight recorder keeps enough
history to say *how it got there*.  While a :class:`FlightRecorder` is
set on a machine's bus (:attr:`ToolBus.recorder
<repro.events.bus.ToolBus.recorder>`), the runtime and the detector
append one :class:`RecordedEvent` per semantic event touching a mapped
variable — map/unmap, ``target update`` transfers, kernel launches over
the variable, and every access that moved the variable's VSM state
(steady-state accesses that do not change the state are deliberately
*not* recorded; they carry no causal information and recording them
would wreck the hot path).

The recorder holds timelines only: naming the variable behind a finding
is the bus's job (:class:`~repro.events.variables.VariableIndex`), done in
every run, so a finding fingerprints the same with the recorder on or off.
The recorder lives wherever a report is built in process (``repro
report``, the ``arbalest-rec`` Fig-8 cell); the serve path runs without
one.

Each variable gets its own bounded ring buffer (:class:`VariableRing`):
memory stays bounded no matter how long the run is, and eviction is
per-variable so a chatty array cannot push a quiet one's history out.

Timestamps are **event ordinals** on the recorder's own counter, so two
runs of a deterministic program produce byte-identical timelines.

A bus without a recorder holds ``None``: every instrumentation site
guards with that one check, and the disabled path performs no
allocation at all (asserted by a tracemalloc test).
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING

from ..events.source import SourceLocation, UNKNOWN_LOCATION

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..tools.findings import Finding

#: Default per-variable ring capacity.  Sixty-four events comfortably hold
#: every semantic event of the DRACC benchmarks and the interesting suffix
#: of the SPEC workloads' histories.
DEFAULT_CAPACITY = 64


class RecordedEvent:
    """One event on one variable's timeline."""

    __slots__ = (
        "ordinal",
        "kind",
        "device_id",
        "variable",
        "state_before",
        "state_after",
        "location",
        "detail",
    )

    def __init__(
        self,
        ordinal: int,
        kind: str,
        device_id: int,
        variable: str,
        state_before: str = "",
        state_after: str = "",
        location: SourceLocation = UNKNOWN_LOCATION,
        detail: str = "",
    ) -> None:
        self.ordinal = ordinal
        self.kind = kind
        self.device_id = device_id
        self.variable = variable
        self.state_before = state_before
        self.state_after = state_after
        self.location = location
        self.detail = detail

    def to_json(self) -> dict:
        """Stable JSON form (insertion order is the schema order)."""
        payload: dict = {
            "ordinal": self.ordinal,
            "kind": self.kind,
            "device": self.device_id,
        }
        if self.state_before or self.state_after:
            payload["before"] = self.state_before
            payload["after"] = self.state_after
        if self.location is not UNKNOWN_LOCATION:
            payload["at"] = str(self.location)
        if self.detail:
            payload["detail"] = self.detail
        return payload

    def render(self) -> str:
        parts = [f"@{self.ordinal}", self.kind, f"dev{self.device_id}"]
        if self.state_before or self.state_after:
            parts.append(f"{self.state_before or '?'}->{self.state_after or '?'}")
        if self.location is not UNKNOWN_LOCATION:
            parts.append(f"at {self.location}")
        if self.detail:
            parts.append(f"({self.detail})")
        return " ".join(parts)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<RecordedEvent {self.render()}>"


class VariableRing:
    """A bounded ring of :class:`RecordedEvent`; oldest events are evicted."""

    __slots__ = ("capacity", "dropped", "_items")

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError(f"ring capacity must be positive, got {capacity}")
        self.capacity = capacity
        #: How many events eviction has discarded (reported in provenance
        #: so a truncated timeline is never mistaken for a complete one).
        self.dropped = 0
        self._items: deque[RecordedEvent] = deque(maxlen=capacity)

    def append(self, event: RecordedEvent) -> None:
        if len(self._items) == self.capacity:
            self.dropped += 1
        self._items.append(event)

    def events(self) -> tuple[RecordedEvent, ...]:
        """The retained events, oldest first."""
        return tuple(self._items)

    def __len__(self) -> int:
        return len(self._items)


class FlightRecorder:
    """Per-variable ring buffers of timeline events.

    Consulted only to attach provenance to a finding the bus's
    :class:`~repro.events.variables.VariableIndex` has already named.
    """

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        if capacity < 1:
            raise ValueError(f"recorder capacity must be positive, got {capacity}")
        self.capacity = capacity
        self.rings: dict[str, VariableRing] = {}
        #: The ordinal clock: the last ordinal handed out.
        self.ordinal = 0
        #: Total events recorded (rings may have evicted some of them).
        self.records = 0

    # -- clock -------------------------------------------------------------

    def tick(self) -> int:
        """The next event ordinal."""
        self.ordinal += 1
        return self.ordinal

    # -- recording ---------------------------------------------------------

    def record(
        self,
        variable: str,
        kind: str,
        *,
        device_id: int = 0,
        location: SourceLocation = UNKNOWN_LOCATION,
        state_before: str = "",
        state_after: str = "",
        detail: str = "",
    ) -> RecordedEvent:
        """Append one event to ``variable``'s ring (created on first use)."""
        ring = self.rings.get(variable)
        if ring is None:
            ring = self.rings[variable] = VariableRing(self.capacity)
        # Positional: the SPEC twins record tens of thousands of transitions.
        event = RecordedEvent(
            self.tick(), kind, device_id, variable, state_before, state_after,
            location, detail,
        )
        ring.append(event)
        self.records += 1
        return event

    def timeline(self, variable: str) -> tuple[tuple[RecordedEvent, ...], int]:
        """``variable``'s retained events (oldest first) and eviction count."""
        ring = self.rings.get(variable)
        if ring is None:
            return (), 0
        return ring.events(), ring.dropped

    # -- finding enrichment ------------------------------------------------

    def attach_provenance(self, finding: "Finding") -> "Finding":
        """Snapshot this recorder into ``finding.provenance``."""
        from .provenance import build_provenance

        return build_provenance(self, finding)

    # -- accounting --------------------------------------------------------

    def shadow_bytes(self) -> int:
        """Rough live footprint, for memory-bound assertions."""
        per_event = 120  # a RecordedEvent with slots, rounded up
        retained = sum(len(ring) for ring in self.rings.values())
        return retained * per_event

