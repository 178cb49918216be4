"""Simulated devices: the host, separate-memory accelerators, unified memory.

A :class:`Device` owns one address window, an allocator over it, the raw
buffers behind its live allocations, and (for accelerators) the present
table of mapped host ranges.  The host is device 0, accelerators are 1..n —
the same numbering OpenMP's ``device()`` clause uses.

Two behaviours matter to the reproduction:

* **Loose accesses** (`read_loose`/`write_loose`): a compute kernel that
  overflows its mapped section must not crash the simulation — the paper
  treats such an access as *undefined behaviour* that "may retrieve a valid
  value from an adjacent memory location" (§IV.D).  Loose accesses stitch
  the requested range together from whatever live buffers overlap it;
  unbacked bytes read as the 0xCB garbage pattern and writes to them vanish.
  Analysis tools still see the full access event and can report it.

* **Unified memory** (:class:`UnifiedDevice`): CV and OV share storage, so
  mapping operations allocate nothing and move nothing (§III.B).  The
  runtime consults :attr:`Device.unified` to decide this.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import TYPE_CHECKING

import numpy as np

from ..events.records import AllocationEvent
from ..memory.allocator import Allocator, Extent
from ..memory.buffer import RawBuffer
from ..memory.errors import OutOfMemoryError
from ..memory.layout import window_for_device

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .runtime import Machine

#: Byte value returned when a loose access reads unbacked memory.
GARBAGE_BYTE = 0xCB


class Device:
    """One compute device with its own memory window."""

    #: Whether this device shares physical storage with the host.
    unified = False

    def __init__(self, device_id: int, machine: "Machine"):
        from .present import PresentTable  # deferred to avoid import cycles

        self.device_id = device_id
        self.machine = machine
        self.window = window_for_device(device_id)
        self.allocator = Allocator(self.window)
        self.buffers: dict[int, RawBuffer] = {}
        self._sorted_bases: list[int] = []
        self.present = PresentTable(device_id)

    # -- allocation ---------------------------------------------------------

    def malloc(
        self,
        nbytes: int,
        *,
        storage: str = "heap",
        fill: int | None = None,
        label: str = "",
    ) -> RawBuffer:
        """Allocate device memory, publishing the allocation to tools.

        When a fault injector is wired into the machine, an accelerator
        malloc attempt may fail with an injected :class:`OutOfMemoryError`
        *before* any state changes or events — the caller's retry loop
        (see ``TargetRuntime``) simply calls again.
        """
        faults = self.machine.faults
        if (
            faults is not None
            and self.device_id != 0
            and faults.alloc_attempt(self.device_id, nbytes)
        ):
            raise OutOfMemoryError(
                f"injected OOM: device {self.device_id} malloc of {nbytes} bytes"
            )
        extent = self.allocator.alloc(nbytes)
        buf = RawBuffer(extent, self.device_id, fill=fill)
        self.buffers[extent.base] = buf
        i = bisect_right(self._sorted_bases, extent.base)
        self._sorted_bases.insert(i, extent.base)
        self.machine.bus.publish_allocation(
            AllocationEvent(
                device_id=self.device_id,
                thread_id=self.machine.current_thread,
                address=extent.base,
                nbytes=extent.size,
                is_free=False,
                storage=storage,
                label=label,
                stack=self.machine.source.snapshot(),
            )
        )
        return buf

    def free(self, base: int) -> None:
        extent = self.allocator.free(base)
        del self.buffers[base]
        self._sorted_bases.remove(base)
        self.machine.bus.publish_allocation(
            AllocationEvent(
                device_id=self.device_id,
                thread_id=self.machine.current_thread,
                address=extent.base,
                nbytes=extent.size,
                is_free=True,
                stack=self.machine.source.snapshot(),
            )
        )

    # -- lookup --------------------------------------------------------------

    def buffer_containing(self, address: int) -> RawBuffer | None:
        """The live buffer whose extent contains ``address``, if any."""
        i = bisect_right(self._sorted_bases, address)
        if not i:
            return None
        buf = self.buffers[self._sorted_bases[i - 1]]
        return buf if buf.extent.contains(address) else None

    @property
    def live_bytes(self) -> int:
        return self.allocator.live_bytes

    # -- fault recovery -------------------------------------------------------

    def spurious_reset(self) -> int:
        """Survive a spurious device reset via checkpoint/restore.

        Models a driver-level device reset that the runtime recovers from
        transparently: live buffer contents are checkpointed, the device
        memory is scrambled to the garbage pattern (the reset), and the
        checkpoint is restored.  No events are published — the recovery is
        below the OMPT layer, so analysis tools (and hence findings) are
        unaffected; only the injector's accounting sees it.  Returns the
        number of bytes restored.
        """
        restored = 0
        # In place: array views bind ``buf.data`` (kernel views once per
        # launch, host views for the buffer's lifetime), so a buffer's
        # array must never be rebound.
        for buf in self.buffers.values():
            checkpoint = buf.data.copy()
            buf.data[:] = GARBAGE_BYTE
            buf.data[:] = checkpoint
            restored += len(checkpoint)
        return restored

    # -- loose (undefined-behaviour) access -----------------------------------

    def read_loose(self, address: int, nbytes: int) -> np.ndarray:
        """Read a byte range that may spill outside live allocations.

        Bytes backed by a live buffer come from it; the rest read as
        :data:`GARBAGE_BYTE`.  Deterministic stand-in for undefined behaviour.
        """
        out = np.full(nbytes, GARBAGE_BYTE, dtype=np.uint8)
        for buf, lo, hi in self._overlaps(address, nbytes):
            out[lo - address : hi - address] = buf.data[
                lo - buf.base : hi - buf.base
            ]
        return out

    def write_loose(self, address: int, payload: np.ndarray) -> None:
        """Write a byte range; bytes outside live allocations are dropped."""
        nbytes = len(payload)
        for buf, lo, hi in self._overlaps(address, nbytes):
            buf.data[lo - buf.base : hi - buf.base] = payload[
                lo - address : hi - address
            ]

    def _overlaps(self, address: int, nbytes: int):
        """Yield ``(buffer, clipped_lo, clipped_hi)`` for live overlaps."""
        end = address + nbytes
        i = bisect_right(self._sorted_bases, address)
        if i:
            i -= 1
        while i < len(self._sorted_bases):
            base = self._sorted_bases[i]
            if base >= end:
                break
            buf = self.buffers[base]
            lo = max(address, buf.base)
            hi = min(end, buf.extent.end)
            if lo < hi:
                yield buf, lo, hi
            i += 1


class HostDevice(Device):
    """Device 0: where the host program runs and original variables live."""


class UnifiedDevice(Device):
    """An accelerator sharing physical storage with the host (§III.B).

    Mapping a variable onto a unified device creates no CV and moves no
    bytes; the runtime records the mapping (for the present table and for
    tools) but translates device accesses straight to host storage.
    """

    unified = True
