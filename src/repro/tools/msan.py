"""MemorySanitizer model: byte-precise uninitialized-memory tracking.

MSan shadows every byte of heap and stack with a *poison* bit, set at
allocation, cleared by stores, and **propagated** (not reported) by
memcpy-style interceptors; the report fires when poisoned data is read into
a computation.  That profile explains its Table III row exactly:

* **catches** the UUM group (22/24/49/50/51): the corresponding variable is
  a fresh runtime ``malloc`` (host offloading), arrives fully poisoned, and
  the kernel's read of it fires;
* **misses** UUMs on ``declare target`` globals (benchmark 34): image
  globals are zero-initialized by the loader, so MSan deliberately treats
  them as defined — the poison never exists.  The paper attributes this
  family of misses to "lack of OMPT" semantics; the mechanism in the real
  toolchain is that the global's device copy is created by the runtime
  outside any interceptor's view;
* **misses** all USD: stale bytes were initialized once, and definedness
  has no notion of version;
* reads that are part of a ``memcpy`` propagate instead of reporting, so
  entry transfers of uninitialized arrays are silent (matching real MSan).

Out-of-bounds reads return unpoisoned garbage in this model (MSan has no
redzones), so it reports none of the BO group — again matching Table III.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from .base import Tool
from .findings import Finding, FindingKind

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..events.records import Access, AllocationEvent, MemcpyEvent


class MsanTool(Tool):
    """The MemorySanitizer model."""

    name = "msan"

    def __init__(self) -> None:
        super().__init__()
        # (device, base) -> poison plane (True = poisoned/uninitialized).
        self._poison: dict[tuple[int, int], np.ndarray] = {}
        self._bases: dict[int, list[int]] = {}

    # -- allocations -----------------------------------------------------------

    def on_allocation(self, event: "AllocationEvent") -> None:
        from bisect import insort

        key = (event.device_id, event.address)
        if event.is_free:
            if key in self._poison:
                del self._poison[key]
                self._bases[event.device_id].remove(event.address)
            return
        # Heap is born poisoned; globals are .bss/.data → defined.
        poisoned = event.storage != "global"
        self._poison[key] = np.full(event.nbytes, poisoned, dtype=bool)
        insort(self._bases.setdefault(event.device_id, []), event.address)

    def _plane_for(self, device_id: int, address: int) -> tuple[int, np.ndarray] | None:
        from bisect import bisect_right

        bases = self._bases.get(device_id)
        if not bases:
            return None
        i = bisect_right(bases, address)
        if not i:
            return None
        base = bases[i - 1]
        plane = self._poison[(device_id, base)]
        return (base, plane) if address < base + len(plane) else None

    # -- accesses ---------------------------------------------------------------

    def on_batch(self, batch) -> None:
        if self.telemetry is not None:
            self.telemetry.count("tool.msan.access_checks", len(batch))
        # A device whose planes hold no poison at batch start stays that way
        # for the whole batch (poison is born only at alloc/memcpy, both of
        # which flush): its reads cannot report, its writes clear bytes that
        # are already clear.  Skip those events wholesale.
        dirty_devices = {
            dev
            for dev, bases in self._bases.items()
            if any(self._poison[(dev, base)].any() for base in bases)
        }
        if not dirty_devices:
            return
        accesses = batch.accesses
        handle = self._handle_access
        for pos, dev in enumerate(batch.columns.device_ids.tolist()):
            if dev in dirty_devices:
                handle(accesses[pos])

    def _handle_access(self, access: "Access") -> None:
        stride = access.element_stride
        if access.count == 1 or stride == access.size:
            spans = [(access.address, access.span)]
        else:
            spans = [(a, access.size) for a in access.element_addresses().tolist()]
        for address, span in spans:
            hit = self._plane_for(access.device_id, address)
            if hit is None:
                continue  # untracked memory reads as defined garbage
            base, plane = hit
            lo = address - base
            hi = min(lo + span, len(plane))
            if access.is_write:
                plane[lo:hi] = False
            elif plane[lo:hi].any() and not self.repeated(
                FindingKind.UUM, access.stack, "", access.device_id, address
            ):
                self.report(
                    Finding(
                        tool=self.name,
                        kind=FindingKind.UUM,
                        message=(
                            "use-of-uninitialized-value: READ of size "
                            f"{access.size} at {address:#x} touches "
                            f"{int(plane[lo:hi].sum())} poisoned byte(s)"
                        ),
                        device_id=access.device_id,
                        thread_id=access.thread_id,
                        address=address,
                        size=access.size,
                        stack=access.stack,
                    )
                )

    # -- memcpy: propagate, never report ----------------------------------------

    def on_memcpy(self, event: "MemcpyEvent") -> None:
        if self.telemetry is not None:
            self.telemetry.count("tool.msan.shadow_propagations")
        dst_hit = self._plane_for(event.dst_device, event.dst_address)
        if dst_hit is None:
            return
        dbase, dplane = dst_hit
        lo = event.dst_address - dbase
        hi = min(lo + event.nbytes, len(dplane))
        src_hit = self._plane_for(event.src_device, event.src_address)
        if src_hit is None:
            dplane[lo:hi] = False  # unknown source: defined
            return
        sbase, splane = src_hit
        slo = event.src_address - sbase
        dplane[lo:hi] = splane[slo : slo + (hi - lo)]

    # -- inspection ---------------------------------------------------------------

    def poisoned_fraction(self, device_id: int, address: int, nbytes: int) -> float:
        hit = self._plane_for(device_id, address)
        if hit is None:
            return 0.0
        base, plane = hit
        lo = address - base
        return float(plane[lo : lo + nbytes].mean())

    def shadow_bytes(self) -> int:
        # MSan keeps 1 shadow byte per application byte (plus origins we
        # do not model).
        return sum(p.nbytes for p in self._poison.values())
