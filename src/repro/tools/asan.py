"""AddressSanitizer model: redzones, quarantine, bounds checking.

ASan surrounds every heap allocation with poisoned *redzones* and keeps
freed blocks in a *quarantine* so stale pointers hit poisoned memory.  In
the paper's comparison it catches exactly the buffer-overflow row of Table
III (6/16): overflowing a corresponding variable steps off the end of the
runtime's device allocation into a redzone/unallocated shadow.  It has no
concept of definedness (no UUM) or cross-copy staleness (no USD).

The model tracks live extents per device, flags accesses whose footprint
leaves every live extent (classifying heap-buffer-overflow when the stray
byte is within REDZONE bytes of a live or quarantined block, wild access
otherwise, use-after-free when inside a quarantined block), and reports
invalid frees.  Shadow accounting follows ASan's 1-byte-per-8 ratio.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING

from .base import Tool
from .findings import Finding, FindingKind

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..events.records import Access, AllocationEvent

#: Bytes of poisoned guard assumed around allocations (ASan default order).
REDZONE = 64

#: Freed blocks remembered before their address range may be reused.
QUARANTINE_BLOCKS = 1024


class AsanTool(Tool):
    """The AddressSanitizer model."""

    name = "asan"

    def __init__(self) -> None:
        super().__init__()
        self._live: dict[tuple[int, int], int] = {}  # (device, base) -> nbytes
        self._bases: dict[int, list[int]] = {}
        self._quarantine: deque[tuple[int, int, int]] = deque(maxlen=QUARANTINE_BLOCKS)
        self._tracked_bytes = 0

    # -- allocations --------------------------------------------------------

    def on_allocation(self, event: "AllocationEvent") -> None:
        from bisect import insort

        key = (event.device_id, event.address)
        if event.is_free:
            nbytes = self._live.pop(key, None)
            if nbytes is None:
                if self.repeated(
                    FindingKind.BAD_FREE, event.stack, "", event.device_id,
                    event.address,
                ):
                    return
                self.report(
                    Finding(
                        tool=self.name,
                        kind=FindingKind.BAD_FREE,
                        message=f"attempting free on unallocated address {event.address:#x}",
                        device_id=event.device_id,
                        address=event.address,
                        stack=event.stack,
                    )
                )
                return
            self._bases[event.device_id].remove(event.address)
            self._tracked_bytes -= nbytes
            self._quarantine.append((event.device_id, event.address, nbytes))
            return
        self._live[key] = event.nbytes
        self._tracked_bytes += event.nbytes
        insort(self._bases.setdefault(event.device_id, []), event.address)

    # -- lookup helpers ----------------------------------------------------------

    def _containing_live(self, device_id: int, address: int) -> tuple[int, int] | None:
        from bisect import bisect_right

        bases = self._bases.get(device_id)
        if not bases:
            return None
        i = bisect_right(bases, address)
        if not i:
            return None
        base = bases[i - 1]
        nbytes = self._live[(device_id, base)]
        return (base, nbytes) if address < base + nbytes else None

    def _near_live(self, device_id: int, address: int) -> bool:
        """Within REDZONE bytes of some live block (→ heap-buffer-overflow)."""
        from bisect import bisect_right

        bases = self._bases.get(device_id)
        if not bases:
            return False
        i = bisect_right(bases, address)
        if i:
            base = bases[i - 1]
            if address < base + self._live[(device_id, base)] + REDZONE:
                return True
        if i < len(bases) and bases[i] - REDZONE <= address:
            return True
        return False

    def _in_quarantine(self, device_id: int, address: int) -> bool:
        return any(
            d == device_id and b <= address < b + n
            for d, b, n in self._quarantine
        )

    # -- accesses -------------------------------------------------------------

    def _check_access(self, access: "Access") -> None:
        stride = access.element_stride
        if access.count == 1 or stride == access.size:
            self._check(access, access.address, access.span)
        else:
            for addr in access.element_addresses().tolist():
                self._check(access, addr, access.size)

    def on_batch(self, batch) -> None:
        import numpy as np

        if self.telemetry is not None:
            self.telemetry.count("tool.asan.access_checks", len(batch))
        cols = batch.columns
        accesses = batch.accesses
        # Vectorized screen: a contiguous access fully inside one live block
        # can never report, whatever its kind — checking mutates nothing.
        contiguous = (cols.counts == 1) | (cols.strides == cols.sizes)
        spans = cols.sizes * cols.counts
        ok = np.zeros(len(accesses), dtype=bool)
        for dev in np.unique(cols.device_ids).tolist():
            bases = self._bases.get(dev)
            if not bases:
                continue
            m = contiguous & (cols.device_ids == dev)
            if not bool(m.any()):
                continue
            b = np.asarray(bases, dtype=np.int64)
            ends = b + np.fromiter(
                (self._live[(dev, base)] for base in bases),
                dtype=np.int64,
                count=len(bases),
            )
            a = cols.addresses[m]
            i = np.searchsorted(b, a, side="right") - 1
            ok[m] = (i >= 0) & (a + spans[m] <= ends[np.maximum(i, 0)])
        for p in np.flatnonzero(~ok).tolist():
            self._check_access(accesses[p])

    def _check(self, access: "Access", address: int, span: int) -> None:
        block = self._containing_live(access.device_id, address)
        covered = 0
        if block is not None:
            base, nbytes = block
            covered = min(span, base + nbytes - address)
        if covered >= span:
            return
        bad = address + covered
        if self._in_quarantine(access.device_id, bad):
            kind, what = FindingKind.UAF, "heap-use-after-free"
        elif self._near_live(access.device_id, bad):
            kind, what = FindingKind.BO, "heap-buffer-overflow"
        else:
            kind, what = FindingKind.WILD, "SEGV on unknown address"
        if self.repeated(kind, access.stack, "", access.device_id, bad):
            return
        self.report(
            Finding(
                tool=self.name,
                kind=kind,
                message=(
                    f"{what}: {'WRITE' if access.is_write else 'READ'} of size "
                    f"{access.size} at {bad:#x}"
                ),
                device_id=access.device_id,
                thread_id=access.thread_id,
                address=bad,
                size=access.size,
                stack=access.stack,
            )
        )

    def shadow_bytes(self) -> int:
        # ASan shadow: one shadow byte per 8 application bytes, plus
        # redzones around every live block.
        return self._tracked_bytes // 8 + 2 * REDZONE * len(self._live)
