"""The Tool interface: what every dynamic analysis plugs into.

A tool subscribes to the machine's bus and receives exactly the event
handlers it overrides (see :class:`repro.events.bus.ToolBus`).  The handler
set mirrors the two instrumentation layers of the paper's evaluation:

===================  =====================================================
handler               real-world analogue
===================  =====================================================
``on_access``         compiler-inserted load/store callbacks (Archer pass)
``on_allocation``     malloc/free interceptors (all sanitizers)
``on_memcpy``         libc memcpy interceptor (MSan/Valgrind definedness)
``on_data_op``        OMPT target-data-op callbacks (ARBALEST only)
``on_kernel``         OMPT target begin/end callbacks
``on_sync``           OMPT task synchronization callbacks (Archer/ARBALEST)
``on_flush``          OMPT flush callbacks (unified memory)
===================  =====================================================

Overriding ``on_data_op``/``on_sync`` is what "having OMPT" means in this
reproduction; the Valgrind/ASan/MSan models deliberately do not.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .findings import Finding, FindingKind, MAPPING_ISSUE_KINDS

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..events.columnar import EventBatch
    from ..events.records import (
        Access,
        AllocationEvent,
        DataOp,
        FlushEvent,
        KernelEvent,
        MemcpyEvent,
        SyncEvent,
    )
    from ..events.variables import VariableIndex
    from ..forensics.recorder import FlightRecorder
    from ..openmp.runtime import Machine
    from ..telemetry.registry import Telemetry


class Tool:
    """Base class for dynamic analysis tools."""

    #: Short display name ("arbalest", "valgrind", ...).
    name = "tool"

    #: Whether the access handler must run before the program reads the
    #: accessed bytes (a tool that rewrites memory from it).  While such a
    #: tool is attached the bus delivers every access as it is published,
    #: in a batch of one.
    immediate_delivery = False

    #: The bus's address-to-variable index, handed over by
    #: :meth:`ToolBus.attach <repro.events.bus.ToolBus.attach>`.
    variables: "VariableIndex | None" = None

    #: The bus's flight recorder, or ``None``; handed over like
    #: :attr:`variables`, and again whenever the bus's recorder changes.
    recorder: "FlightRecorder | None" = None

    #: The bus's telemetry registry, or ``None``; handed over like
    #: :attr:`recorder`.
    telemetry: "Telemetry | None" = None

    def __init__(self) -> None:
        self.machine: "Machine | None" = None
        self.findings: list[Finding] = []
        self._seen: set[tuple] = set()
        #: How many times each deduped site was reported (key -> count).
        self._counts: dict[tuple, int] = {}

    # -- lifecycle ---------------------------------------------------------

    def attach(self, machine: "Machine") -> "Tool":
        """Connect to a machine's bus; returns self for chaining."""
        self.machine = machine
        machine.bus.attach(self)
        return self

    def detach(self) -> None:
        if self.machine is not None:
            self.machine.bus.detach(self)
            self.machine = None

    # -- reporting -----------------------------------------------------------

    def report(self, finding: Finding) -> bool:
        """File a finding; duplicates of an already-reported site are dropped.

        Returns whether the finding was new.  An empty ``variable`` is
        resolved through the bus's address-to-variable index in every run
        (*before* the dedup key is computed, so naming cannot split one
        site into two).  While the bus carries a flight recorder, new
        findings also get a :class:`Provenance` timeline attached.
        Duplicates only bump the per-site count.
        """
        if self.variables is not None:
            finding = self.variables.resolve_variable(finding)
        key = finding.dedup_key()
        telemetry = self.telemetry
        if telemetry is not None:
            telemetry.count(f"tool.{self.name}.findings.{finding.kind.value}")
            if key in self._seen:
                telemetry.count(f"tool.{self.name}.findings_deduped")
        self._counts[key] = self._counts.get(key, 0) + 1
        if key in self._seen:
            return False
        self._seen.add(key)
        if self.recorder is not None:
            finding = self.recorder.attach_provenance(finding)
        self.findings.append(finding)
        return True

    def finding_count(self, finding: Finding) -> int:
        """How many times ``finding``'s site was reported (>= 1)."""
        return self._counts.get(finding.dedup_key(), 1)

    def findings_with_counts(self) -> list[tuple[Finding, int]]:
        """The deduped findings paired with their per-site report counts."""
        return [(f, self.finding_count(f)) for f in self.findings]

    def mapping_issue_findings(self) -> list[Finding]:
        """The findings that count for the Table III precision comparison."""
        return [f for f in self.findings if f.kind in MAPPING_ISSUE_KINDS]

    def race_findings(self) -> list[Finding]:
        return [f for f in self.findings if f.kind is FindingKind.RACE]

    def reset(self) -> None:
        """Drop all findings and dedup state (between benchmark runs)."""
        self.findings.clear()
        self._seen.clear()
        self._counts.clear()

    # -- accounting (Fig 9) ---------------------------------------------------

    def shadow_bytes(self) -> int:
        """Bytes of shadow/analysis state currently held, for Fig 9."""
        return 0

    # -- event handlers (override the ones the tool models) -------------------

    def on_access(self, access: "Access") -> None:  # pragma: no cover
        """A program load/store (never called unless overridden)."""

    def on_batch(self, batch: "EventBatch") -> None:  # pragma: no cover
        """An ordered block of accesses, for tools that vectorize.

        Never called unless overridden.  A tool that overrides it gets
        every batch here, whatever its size, and need not override
        ``on_access``; the bus delivers a batch to every other
        access-subscribing tool through ``on_access``, one access at a
        time.  Overrides process the batch's numpy columns wholesale.
        """

    def on_allocation(self, event: "AllocationEvent") -> None:  # pragma: no cover
        """A malloc/free on some device."""

    def on_memcpy(self, event: "MemcpyEvent") -> None:  # pragma: no cover
        """A raw memcpy (the only transfer view without OMPT)."""

    def on_data_op(self, op: "DataOp") -> None:  # pragma: no cover
        """An OMPT semantic data-mapping operation."""

    def on_kernel(self, event: "KernelEvent") -> None:  # pragma: no cover
        """OMPT target region begin/end."""

    def on_sync(self, event: "SyncEvent") -> None:  # pragma: no cover
        """A happens-before edge (fork/join/depend)."""

    def on_flush(self, event: "FlushEvent") -> None:  # pragma: no cover
        """An OpenMP flush (unified memory visibility)."""

    def __repr__(self) -> str:
        return f"<{type(self).__name__} findings={len(self.findings)}>"
