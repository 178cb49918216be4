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

from dataclasses import replace
from typing import TYPE_CHECKING

from .findings import Finding, FindingKind, MAPPING_ISSUE_KINDS, site_key

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
        #: How many times each reported site was reported (key -> count).
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
        Duplicates only bump the per-site count.  The tools check each
        report with :meth:`repeated` before building its finding, so a
        repeat is counted there and an override of ``report`` sees only
        new sites.
        """
        variable = self._variable(finding.variable, finding.device_id, finding.address)
        if variable != finding.variable:
            finding = replace(finding, variable=variable)
        key = finding.dedup_key()
        if self._count_repeat(key, finding.kind):
            return False
        self._counts[key] = 1
        if self.telemetry is not None:
            self.telemetry.count(f"tool.{self.name}.findings.{finding.kind.value}")
        if self.recorder is not None:
            finding = self.recorder.attach_provenance(finding)
        self.findings.append(finding)
        return True

    def repeated(
        self,
        kind: FindingKind,
        stack: tuple,
        variable: str = "",
        device_id: int = 0,
        address: int = 0,
    ) -> bool:
        """The site check: count a report of an already-reported site.

        The fields are those of the finding the caller would file; its
        site is :func:`~repro.tools.findings.site_key` of them after the
        variable resolution :meth:`report` does, so it is the finding's
        ``dedup_key``.  A repeat is counted as :meth:`report` counts a
        duplicate and returns True: the caller builds no finding.  A new
        site changes nothing and returns False: the caller files it.
        """
        key = site_key(kind, stack, self._variable(variable, device_id, address))
        return self._count_repeat(key, kind)

    def _count_repeat(self, key: tuple, kind: FindingKind) -> bool:
        count = self._counts.get(key)
        if count is None:
            return False
        self._counts[key] = count + 1
        telemetry = self.telemetry
        if telemetry is not None:
            telemetry.count(f"tool.{self.name}.findings.{kind.value}")
            telemetry.count(f"tool.{self.name}.findings_deduped")
        return True

    def _variable(self, variable: str, device_id: int, address: int) -> str:
        """A report's variable: its own, else the bus's index names its address."""
        if variable or not address or self.variables is None:
            return variable
        return self.variables.resolve_near(device_id, address)

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
