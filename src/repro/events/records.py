"""Event records published on the tool bus.

The simulated runtime stands in for two instrumentation layers of the real
tool stack:

* the **LLVM instrumentation pass** (Archer's), which reports every memory
  access of the program — here :class:`Access`, covering both scalar loads
  and vectorized slice accesses so bulk kernels cost one event, not one per
  element;
* the **OMPT device callbacks**, which report the *semantic* operations:
  corresponding-variable allocation and deletion, host↔device transfers, and
  kernel/task lifecycle — here :class:`DataOp` and :class:`KernelEvent`.

Tools that model OMPT-less detectors (Valgrind/ASan/MSan in the paper's
comparison) subscribe only to accesses and raw allocation events; the
mapping semantics reach them solely as anonymous memcpys, which is the
paper's explanation for their misses (§VI.C).

Every record is immutable.  :class:`Access` is a
:class:`~typing.NamedTuple` row: host views, slices and other generic
accesses publish one, and a bound kernel view's scalar access is published
as a lane code and becomes a row only when a tool asks for it
(:mod:`~repro.events.columnar`).  The rarer records are frozen slotted
dataclasses.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ..memory.layout import GRANULE
from .source import SourceLocation, UNKNOWN_LOCATION


class AccessOrigin(enum.Enum):
    """Who issued a memory access."""

    #: An access written by the user program (host code or kernel body).
    PROGRAM = "program"
    #: The runtime copying bytes for a data-mapping transfer.
    TRANSFER = "transfer"
    #: Internal runtime bookkeeping (never a user-visible bug).
    RUNTIME = "runtime"


class Access(NamedTuple):
    """One instrumented memory access, possibly covering many elements.

    ``count`` elements of ``size`` bytes each, starting at ``address``, with
    consecutive element starts ``stride`` bytes apart.  A scalar access is
    ``count == 1``; a contiguous slice is ``stride == size``.

    An access is a row, like the tuple the instrumentation pass hands the
    sanitizer runtime: an immutable, hashable tuple whose fields follow the
    EVENT codec's row order (:data:`~repro.events.codec.ROW_KINDS`).
    ``stack`` is captured when the access is built — the producer passes
    the machine's memoized :meth:`~repro.events.source.SourceStack.snapshot`,
    so accesses between two position changes share one tuple.
    """

    device_id: int
    thread_id: int
    address: int
    size: int
    is_write: bool
    count: int = 1
    stride: int = 0  # 0 means "== size" (contiguous)
    origin: AccessOrigin = AccessOrigin.PROGRAM
    stack: tuple[SourceLocation, ...] = (UNKNOWN_LOCATION,)

    @property
    def element_stride(self) -> int:
        return self.stride or self.size

    @property
    def nbytes(self) -> int:
        """Total bytes actually touched (excludes stride gaps)."""
        return self.size * self.count

    @property
    def span(self) -> int:
        """Bytes from the first touched byte to one past the last."""
        if self.count == 0:
            return 0
        return (self.count - 1) * self.element_stride + self.size

    @property
    def location(self) -> SourceLocation:
        return self.stack[0]

    @property
    def kind_label(self) -> str:
        """Flight-recorder event kind, e.g. ``host-read`` / ``device-write``."""
        return access_kind_label(self.device_id, self.is_write)

    def element_addresses(self) -> np.ndarray:
        """Start address of every element, as an int64 array."""
        return self.address + np.arange(self.count, dtype=np.int64) * self.element_stride

    def granule_indices(self) -> np.ndarray:
        """Sorted unique absolute indices of the 8-byte granules touched.

        Vectorized: for each element we dilate to the granules it overlaps.
        Elements never exceed 8 bytes in practice, but the code handles any
        size by expanding per-element byte extents.
        """
        if self.count == 0:
            return np.empty(0, dtype=np.int64)
        starts = self.element_addresses()
        if self.size <= GRANULE:
            first = starts // GRANULE
            last = (starts + self.size - 1) // GRANULE
            if np.array_equal(first, last):
                return np.unique(first)
            return np.unique(np.concatenate([first, last]))
        # Wide elements: expand each into its covered granule range.
        spans = [
            np.arange(s // GRANULE, (s + self.size - 1) // GRANULE + 1, dtype=np.int64)
            for s in starts.tolist()
        ]
        return np.unique(np.concatenate(spans))


#: Flight-recorder access kinds, indexed by ``(device_id != 0) * 2 + is_write``.
ACCESS_KINDS = ("host-read", "host-write", "device-read", "device-write")


def access_kind_label(device_id: int, is_write: bool) -> str:
    """The flight-recorder kind of an access by ``device_id``."""
    return ACCESS_KINDS[(device_id != 0) * 2 + bool(is_write)]


class DataOpKind(enum.Enum):
    """OMPT-level semantic data operations (target data ops)."""

    #: Corresponding variable allocated on the accelerator.
    ALLOC = "alloc"
    #: Corresponding variable deleted from the accelerator.
    DELETE = "delete"
    #: Transfer original variable -> corresponding variable.
    H2D = "h2d"
    #: Transfer corresponding variable -> original variable.
    D2H = "d2h"


@dataclass(frozen=True, slots=True)
class DataOp:
    """A semantic mapping operation on one OV/CV pair.

    ``ov_address`` is always the host storage base of the mapped section;
    ``cv_address`` is the device storage base (0 for pure-host events that
    precede CV allocation).  ``nbytes`` is the section length.
    """

    kind: DataOpKind
    device_id: int
    thread_id: int
    ov_address: int
    cv_address: int
    nbytes: int
    stack: tuple[SourceLocation, ...] = (UNKNOWN_LOCATION,)


@dataclass(frozen=True, slots=True)
class MemcpyEvent:
    """A raw ``memcpy(dst, src, n)`` as a libc interceptor would see it.

    This is the *only* view OMPT-less tools get of data-mapping transfers:
    bytes moved between two addresses, with no information about map-types,
    reference counts, or which side is the original variable.  MSan-style
    tools propagate definedness along it; semantics-aware tools ignore it
    and use :class:`DataOp` instead.
    """

    device_id: int  # device issuing the copy (the host runtime: 0)
    thread_id: int
    dst_device: int
    dst_address: int
    src_device: int
    src_address: int
    nbytes: int
    stack: tuple[SourceLocation, ...] = (UNKNOWN_LOCATION,)


class KernelPhase(enum.Enum):
    """Whether a kernel event marks region begin or end."""

    BEGIN = "begin"
    END = "end"


@dataclass(frozen=True, slots=True)
class KernelEvent:
    """Begin/end of a target region (compute kernel) on a device."""

    phase: KernelPhase
    task_id: int
    device_id: int
    thread_id: int
    nowait: bool
    name: str = "target"
    stack: tuple[SourceLocation, ...] = (UNKNOWN_LOCATION,)


@dataclass(frozen=True, slots=True)
class AllocationEvent:
    """malloc/free visibility for allocator-aware tools.

    ``storage`` distinguishes heap allocations (which sanitizers poison on
    allocation) from image globals (``.bss``/``.data``, which they treat as
    defined) — the distinction behind MSan/Valgrind missing UUMs on
    ``declare target`` globals (§V.A / §VI.C of the paper).
    """

    device_id: int
    thread_id: int
    address: int
    nbytes: int
    is_free: bool
    storage: str = "heap"
    #: Program-level variable name when known (for readable reports).
    label: str = ""
    stack: tuple[SourceLocation, ...] = (UNKNOWN_LOCATION,)


@dataclass(frozen=True, slots=True)
class SyncEvent:
    """A happens-before edge established by the program.

    ``source_task`` happened-before ``target_task`` from this point on.
    Taskwait, synchronous target-region completion, and satisfied ``depend``
    clauses all surface as sync events.
    """

    kind: str
    source_task: int
    target_task: int
    thread_id: int = 0


@dataclass(frozen=True, slots=True)
class FlushEvent:
    """An OpenMP flush making one device's temporary view globally visible.

    Only meaningful under the unified memory model (§III.B); the separate
    memory model synchronizes exclusively through transfers.
    """

    device_id: int
    thread_id: int
    address: int = 0
    nbytes: int = 0
