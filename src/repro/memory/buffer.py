"""Raw storage backing the simulated address space.

A :class:`RawBuffer` is the bytes behind one allocator extent.  It is a thin
wrapper over a ``numpy.uint8`` array with helpers for the three operations
the runtime performs on storage:

* typed views (``as_array``) so kernels compute directly on numpy — the
  simulation never loops over scalars for bulk math (HPC guide rule);
* byte-range reads/writes for scalar accesses;
* ``memcpy``-style block copies between buffers, the primitive the runtime
  uses to simulate host↔device transfers (§V of the paper: "memory transfer
  is simulated by dynamic memory allocation and memory block copy").

RawBuffer deliberately knows nothing about instrumentation; the instrumented
array views live in :mod:`repro.openmp.arrays` and call down into here after
publishing their access events.
"""

from __future__ import annotations

import numpy as np

from .allocator import Extent
from .errors import OutOfBoundsError


class RawBuffer:
    """Bytes behind one extent of one device's address window."""

    __slots__ = ("extent", "device_id", "data")

    def __init__(self, extent: Extent, device_id: int, *, fill: int | None = None):
        self.extent = extent
        self.device_id = device_id
        # Fresh device memory holds garbage; using a recognisable pattern
        # (0xCB, "allocated-but-uninitialised") makes stale/uninit reads
        # produce loudly-wrong values in examples rather than lucky zeros.
        pattern = 0xCB if fill is None else fill
        # Never rebound: kernel views hold ``as_array`` views of it for a
        # whole launch and host views for the buffer's lifetime, so every
        # later write must go through it in place.
        self.data = np.full(extent.size, pattern, dtype=np.uint8)

    # -- address helpers -------------------------------------------------

    @property
    def base(self) -> int:
        return self.extent.base

    @property
    def size(self) -> int:
        return self.extent.size

    def offset_of(self, address: int, size: int = 1) -> int:
        """Translate an absolute address into an offset, bounds-checked."""
        if not self.extent.contains(address, size):
            raise OutOfBoundsError(address, size)
        return address - self.extent.base

    # -- typed access ------------------------------------------------------

    def as_array(self, dtype: np.dtype | str, *, offset: int = 0, count: int = -1):
        """A numpy view of the buffer's bytes starting at ``offset``.

        The view shares storage: writes through it mutate the buffer.  When
        ``count`` is negative the view extends to the end of the buffer.
        """
        dt = np.dtype(dtype)
        avail = (self.size - offset) // dt.itemsize
        n = avail if count < 0 else count
        if offset < 0 or offset + n * dt.itemsize > self.size:
            raise OutOfBoundsError(self.base + offset, max(n, 0) * dt.itemsize)
        return self.data[offset : offset + n * dt.itemsize].view(dt)

    # -- byte access --------------------------------------------------------

    def read_bytes(self, address: int, size: int) -> np.ndarray:
        off = self.offset_of(address, size)
        return self.data[off : off + size]

    def write_bytes(self, address: int, payload: np.ndarray | bytes) -> None:
        buf = np.frombuffer(payload, dtype=np.uint8) if isinstance(payload, (bytes, bytearray)) else payload
        off = self.offset_of(address, len(buf))
        self.data[off : off + len(buf)] = buf

    # -- transfers -----------------------------------------------------------

    def copy_from(
        self,
        src: "RawBuffer",
        *,
        dst_offset: int = 0,
        src_offset: int = 0,
        nbytes: int | None = None,
    ) -> int:
        """memcpy ``nbytes`` from ``src`` into this buffer; returns the count.

        Default copies the overlapping prefix of both buffers, which is what
        the runtime wants when OV and CV were allocated with the same size.
        """
        if nbytes is None:
            nbytes = min(self.size - dst_offset, src.size - src_offset)
        if nbytes < 0 or dst_offset + nbytes > self.size:
            raise OutOfBoundsError(self.base + dst_offset, max(nbytes, 0))
        if src_offset + nbytes > src.size:
            raise OutOfBoundsError(src.base + src_offset, nbytes)
        self.data[dst_offset : dst_offset + nbytes] = src.data[
            src_offset : src_offset + nbytes
        ]
        return nbytes
