"""An executable reference for ARBALEST's mapping findings (§IV).

:class:`MappingReference` re-derives the four mapping finding kinds — use
of uninitialized memory (UUM), use of stale data (USD), buffer overflow
(BO) and invalid free (BAD_FREE) — from the event stream, with the
plainest state the paper's semantics allow:

* one Fig-4 :class:`~repro.core.vsm.VariableStateMachine` per 8-byte
  granule of every live host allocation (§IV.C's granularity);
* a plain list of live mappings, searched front to back.

Every event maps to VSM operations as §IV.A's table says: host and
device reads and writes, the four data-op kinds (an ``ALLOC`` whose CV is
its OV is a unified mapping, which makes the host value visible on the
device), and the detector's three quarantine rules for impossible
data-op streams.  A device access that leaves its mapping is a BO that
names the mapping, or no mapping at all when not even its first byte is
mapped (§IV.D); the in-bounds prefix still drives the VSM.

It overrides ``on_access`` only, so the bus hands it every access as a
row: no columns, no batches, no interval tree, no shadow words.  It
reports no races and knows no certificates; it checks the default
detector's mapping findings, fingerprints and per-site counts both.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.states import VsmOp
from repro.core.vsm import VariableStateMachine
from repro.events import Access, AllocationEvent, DataOp, DataOpKind
from repro.tools import Tool
from repro.tools.findings import Finding, FindingKind

GRANULE = 8

#: The finding kinds the reference derives.
MAPPING_KINDS = frozenset(
    {FindingKind.UUM, FindingKind.USD, FindingKind.BO, FindingKind.BAD_FREE}
)


def mapping_fingerprints(tool: Tool) -> list[tuple[str, int]]:
    """``tool``'s mapping findings as sorted (fingerprint, count) pairs."""
    return sorted(
        (f.fingerprint(), count)
        for f, count in tool.findings_with_counts()
        if f.kind in MAPPING_KINDS
    )


@dataclass
class Allocation:
    """A live host allocation: one VSM per granule from ``base``."""

    base: int
    nbytes: int
    label: str
    granules: list[VariableStateMachine]

    def holds(self, address: int) -> bool:
        return self.base <= address < self.base + self.nbytes


@dataclass
class Mapping:
    """A live OV-to-CV association."""

    ov: int
    cv: int
    nbytes: int
    device_id: int
    name: str

    @property
    def unified(self) -> bool:
        return self.cv == self.ov

    def holds(self, cv_address: int) -> bool:
        return self.cv <= cv_address < self.cv + self.nbytes


class MappingReference(Tool):
    """Per-granule, per-access re-derivation of the mapping findings."""

    name = "mapping-reference"

    def __init__(self) -> None:
        super().__init__()
        self.allocations: list[Allocation] = []
        self.mappings: list[Mapping] = []

    # -- lookups -------------------------------------------------------------

    def allocation_at(self, address: int) -> Allocation | None:
        for allocation in self.allocations:
            if allocation.holds(address):
                return allocation
        return None

    def mapping_at(self, cv_address: int) -> Mapping | None:
        for mapping in self.mappings:
            if mapping.holds(cv_address):
                return mapping
        return None

    def apply(
        self, allocation: Allocation, byte_ranges, ops: tuple[VsmOp, ...]
    ) -> list[tuple[bool, bool]]:
        """Apply ``ops`` in turn to every granule of ``allocation`` that
        one of the ``(lo, hi)`` host byte ranges overlaps.

        Returns each granule's (illegal, uninitialized) verdict of the
        first op, in granule order.
        """
        touched = sorted(
            {
                g
                for lo, hi in byte_ranges
                for g in range(
                    (lo - allocation.base) // GRANULE,
                    (hi - 1 - allocation.base) // GRANULE + 1,
                )
                if lo < hi and 0 <= g < len(allocation.granules)
            }
        )
        verdicts = []
        for g in touched:
            vsm = allocation.granules[g]
            first = vsm.apply(ops[0])
            for op in ops[1:]:
                vsm.apply(op)
            verdicts.append((first.illegal, first.uninitialized))
        return verdicts

    # -- allocations and data ops ------------------------------------------------

    def on_allocation(self, event: AllocationEvent) -> None:
        if event.device_id != 0:
            return  # device storage is reached through mappings
        if event.is_free:
            self.allocations = [a for a in self.allocations if a.base != event.address]
            return
        n = -(-event.nbytes // GRANULE)
        self.allocations.append(
            Allocation(
                event.address,
                event.nbytes,
                event.label,
                [VariableStateMachine() for _ in range(n)],
            )
        )

    def on_data_op(self, op: DataOp) -> None:
        section = [(op.ov_address, op.ov_address + op.nbytes)]
        allocation = self.allocation_at(op.ov_address)
        if op.kind is DataOpKind.ALLOC:
            if any(
                m.cv == op.cv_address
                and m.nbytes == op.nbytes
                and m.device_id == op.device_id
                for m in self.mappings
            ):
                return  # duplicate ALLOC: the live mapping stands
            unified = op.cv_address == op.ov_address
            if not unified:
                # Conflicting ALLOC: the newest mapping evicts overlapping ones.
                end = op.cv_address + op.nbytes
                self.mappings = [
                    m
                    for m in self.mappings
                    if not (m.cv < end and op.cv_address < m.cv + m.nbytes)
                ]
            self.mappings.append(
                Mapping(
                    op.ov_address,
                    op.cv_address,
                    op.nbytes,
                    op.device_id,
                    allocation.label if allocation is not None else "",
                )
            )
            # A fresh CV holds garbage; a unified one is the OV itself.
            vsm_op = VsmOp.UPDATE_TARGET if unified else VsmOp.ALLOCATE
        elif op.kind is DataOpKind.DELETE:
            mapping = next((m for m in self.mappings if m.cv == op.cv_address), None)
            if mapping is None:
                # Unmatched DELETE (double delete, wrong device address).
                self.report(
                    Finding(
                        tool=self.name,
                        kind=FindingKind.BAD_FREE,
                        message="delete of a corresponding variable that is not mapped",
                        device_id=op.device_id,
                        thread_id=op.thread_id,
                        address=op.cv_address,
                        size=op.nbytes,
                        stack=op.stack,
                    )
                )
                return
            self.mappings.remove(mapping)
            vsm_op = VsmOp.RELEASE
        elif op.kind is DataOpKind.H2D:
            vsm_op = VsmOp.UPDATE_TARGET
        else:
            vsm_op = VsmOp.UPDATE_HOST
        if allocation is not None:
            self.apply(allocation, section, (vsm_op,))

    # -- accesses -------------------------------------------------------------

    def on_access(self, access: Access) -> None:
        stride = access.stride or access.size
        elements = [
            (access.address + k * stride, access.address + k * stride + access.size)
            for k in range(access.count)
        ]
        mapping = self.mapping_at(access.address)
        if access.device_id == 0:
            allocation = self.allocation_at(access.address)
            ov_ranges = elements
        else:
            if mapping is None:
                self.report_overflow(access, None)
                return
            end = mapping.cv + mapping.nbytes
            if any(hi > end for _lo, hi in elements):
                self.report_overflow(access, mapping)
            # Only the in-bounds bytes, moved to the OV, drive the VSM.
            shift = mapping.ov - mapping.cv
            ov_ranges = [(lo + shift, min(hi, end) + shift) for lo, hi in elements]
            allocation = self.allocation_at(mapping.ov)
        if allocation is None:
            return  # not a host allocation: no VSM to drive
        if mapping is not None and mapping.unified:
            # One storage: a write from either side is the value on both.
            ops = (
                (VsmOp.WRITE_HOST, VsmOp.UPDATE_TARGET)
                if access.is_write
                else (VsmOp.READ_HOST,)
            )
        elif access.device_id == 0:
            ops = (VsmOp.WRITE_HOST,) if access.is_write else (VsmOp.READ_HOST,)
        else:
            ops = (VsmOp.WRITE_TARGET,) if access.is_write else (VsmOp.READ_TARGET,)
        illegal = [u for bad, u in self.apply(allocation, ov_ranges, ops) if bad]
        if illegal:
            self.report(
                Finding(
                    tool=self.name,
                    kind=FindingKind.UUM if all(illegal) else FindingKind.USD,
                    message="read of a value that is not valid on the reading side",
                    device_id=access.device_id,
                    thread_id=access.thread_id,
                    address=access.address,
                    size=access.size,
                    stack=access.stack,
                    variable=allocation.label or (mapping.name if mapping else ""),
                )
            )

    def report_overflow(self, access: Access, mapping: Mapping | None) -> None:
        self.report(
            Finding(
                tool=self.name,
                kind=FindingKind.BO,
                message="device access outside its corresponding variable",
                device_id=access.device_id,
                thread_id=access.thread_id,
                address=access.address,
                size=access.size,
                stack=access.stack,
                variable=mapping.name if mapping is not None else "",
            )
        )
