"""Instrumented array views: what programs and kernels touch memory through.

:class:`HostArray` is the host program's view of one variable (C-style flat
array); :class:`KernelArray` is the device-side view a compute kernel gets
for each mapped variable.  Both translate element indices to absolute
simulated addresses, publish an :class:`~repro.events.records.Access` row
for every operation when any tool is listening — its call stack captured
then, from the machine's memoized source snapshot — and then perform the
operation on the raw storage.

Design points:

* **Bulk operations are first-class.**  A slice read/write is one access
  event covering the whole element range, and the data moves with one numpy
  copy — per-element Python loops would make the SPEC-class workloads
  unusable (HPC guide: vectorize).
* **Kernel indices live in the original array's coordinate system.**  A C
  kernel writes ``b[j + i*N]`` whether or not only ``b[0:N]`` was mapped;
  translation subtracts the mapped section start.  Indices outside the
  mapped section therefore produce device addresses outside the CV — the
  buffer-overflow class of data mapping issue — and are performed as *loose*
  accesses (deterministic undefined behaviour) rather than crashing.
* **Peek/poke bypass instrumentation** so tests can assert on final memory
  without perturbing the tools under test.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Union

import numpy as np

from ..events.records import Access, AccessOrigin
from ..memory.buffer import RawBuffer

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .device import Device
    from .runtime import Machine

Index = Union[int, slice]


def _slice_bounds(index: slice, length: int) -> tuple[int, int, int]:
    start, stop, step = index.indices(length)
    if step <= 0:
        raise ValueError("negative or zero slice steps are not supported")
    count = max(0, -(-(stop - start) // step))
    return start, step, count


class _ArrayView:
    """Common machinery for host- and device-side views."""

    machine: "Machine"
    name: str
    dtype: np.dtype
    length: int

    @property
    def itemsize(self) -> int:
        return self.dtype.itemsize

    @property
    def nbytes(self) -> int:
        return self.length * self.itemsize

    # Subclasses provide address translation and storage resolution.
    def _address(self, element: int) -> int:
        raise NotImplementedError

    def _storage_device(self) -> "Device":
        raise NotImplementedError

    def _event_device_id(self) -> int:
        raise NotImplementedError

    # -- event emission --------------------------------------------------

    def _publish(self, element: int, count: int, step: int, is_write: bool) -> None:
        machine = self.machine
        bus = machine.bus
        if not bus.wants_accesses:
            return
        bus.publish_access(
            Access(
                self._event_device_id(),
                machine.current_thread,
                self._address(element),
                self.itemsize,
                is_write,
                count,
                step * self.itemsize,
                AccessOrigin.PROGRAM,
                machine.source.snapshot(),
            )
        )

    # -- raw data movement --------------------------------------------------

    def _read_raw(self, element: int, count: int, step: int) -> np.ndarray:
        device = self._storage_device()
        address = self._address(element)
        span = ((count - 1) * step + 1) * self.itemsize if count else 0
        buf = device.buffer_containing(address)
        if buf is not None and buf.extent.contains(address, span):
            view = buf.as_array(self.dtype, offset=address - buf.base, count=(count - 1) * step + 1 if count else 0)
            return view[::step].copy()
        raw = device.read_loose(address, span)
        return raw.view(self.dtype)[::step].copy()

    def _write_raw(self, element: int, count: int, step: int, values: np.ndarray) -> None:
        device = self._storage_device()
        address = self._address(element)
        span = ((count - 1) * step + 1) * self.itemsize if count else 0
        buf = device.buffer_containing(address)
        if buf is not None and buf.extent.contains(address, span):
            view = buf.as_array(
                self.dtype,
                offset=address - buf.base,
                count=(count - 1) * step + 1 if count else 0,
            )
            view[::step] = values
            return
        # Loose path: build the strided byte image then merge what is backed.
        if step == 1:
            device.write_loose(address, np.ascontiguousarray(values).view(np.uint8))
            return
        current = device.read_loose(address, span).copy()
        typed = current.view(self.dtype)
        typed[::step] = values
        device.write_loose(address, current)

    # -- instrumented element access ---------------------------------------

    def read(self, index: Index) -> Union[float, int, np.ndarray]:
        """Instrumented read of one element or a slice."""
        if isinstance(index, slice):
            start, step, count = _slice_bounds(index, self.length)
            self._publish(start, count, step, is_write=False)
            return self._read_raw(start, count, step)
        i = self._normalize(index)
        self._publish(i, 1, 1, is_write=False)
        return self._read_raw(i, 1, 1)[0]

    def write(self, index: Index, value) -> None:
        """Instrumented write of one element or a slice."""
        if isinstance(index, slice):
            start, step, count = _slice_bounds(index, self.length)
            values = np.broadcast_to(np.asarray(value, dtype=self.dtype), (count,))
            self._publish(start, count, step, is_write=True)
            self._write_raw(start, count, step, values)
            return
        i = self._normalize(index)
        self._publish(i, 1, 1, is_write=True)
        self._write_raw(i, 1, 1, np.asarray([value], dtype=self.dtype))

    def _normalize(self, index: int) -> int:
        # Negative Python indices wrap like numpy; out-of-range positives are
        # allowed on purpose (that's the buffer-overflow bug class).
        return index + self.length if index < 0 else index

    __getitem__ = read
    __setitem__ = write

    def __len__(self) -> int:
        return self.length

    def fill(self, value) -> None:
        """Instrumented whole-array store."""
        self.write(slice(0, self.length), value)

    def to_list(self) -> list:
        """Instrumented full read as a Python list (convenience)."""
        return list(self.read(slice(0, self.length)))


class HostArray(_ArrayView):
    """The original variable (OV): host storage of one program array."""

    def __init__(
        self,
        machine: "Machine",
        name: str,
        buffer: RawBuffer,
        dtype: np.dtype,
        length: int,
    ):
        self.machine = machine
        self.name = name
        self.buffer = buffer
        self.dtype = np.dtype(dtype)
        self.length = length

    @property
    def base(self) -> int:
        return self.buffer.base

    def address_of(self, element: int) -> int:
        return self.buffer.base + element * self.itemsize

    def _address(self, element: int) -> int:
        return self.address_of(element)

    def _storage_device(self) -> "Device":
        return self.machine.host

    def _event_device_id(self) -> int:
        return 0

    # -- uninstrumented escape hatches for tests ---------------------------

    def peek(self) -> np.ndarray:
        """A live, uninstrumented numpy view of the whole array."""
        return self.buffer.as_array(self.dtype, count=self.length)

    def poke(self, values) -> None:
        """Uninstrumented whole-array store (test setup only)."""
        self.peek()[:] = np.asarray(values, dtype=self.dtype)

    def __repr__(self) -> str:
        return f"HostArray({self.name!r}, n={self.length}, dtype={self.dtype})"


class KernelArray(_ArrayView):
    """The corresponding variable (CV): a kernel's view of a mapped array.

    ``section_start`` is the first original-array element that was mapped;
    ``cv_base`` is the device address holding that element.  Index ``i`` in
    kernel code refers to original element ``i``, hence device address
    ``cv_base + (i - section_start) * itemsize``.
    """

    def __init__(
        self,
        machine: "Machine",
        name: str,
        device: "Device",
        cv_base: int,
        section_start: int,
        section_length: int,
        dtype: np.dtype,
        declared_length: int,
    ):
        self.machine = machine
        self.name = name
        self.device = device
        self.cv_base = cv_base
        self.section_start = section_start
        self.section_length = section_length
        self.dtype = np.dtype(dtype)
        # Kernels index against the declared variable, not the section.
        self.length = declared_length

    def _address(self, element: int) -> int:
        return self.cv_base + (element - self.section_start) * self.itemsize

    def _storage_device(self) -> "Device":
        # Unified devices back the CV with host storage.
        return self.machine.host if self.device.unified else self.device

    def _event_device_id(self) -> int:
        return self.device.device_id

    @property
    def mapped_range(self) -> tuple[int, int]:
        """``(first_element, one_past_last_element)`` of the mapped section."""
        return self.section_start, self.section_start + self.section_length

    def __repr__(self) -> str:
        lo, hi = self.mapped_range
        return (
            f"KernelArray({self.name!r}, section=[{lo}:{hi}], "
            f"device={self.device.device_id})"
        )


class KernelContext:
    """Everything a compute kernel may touch: its mapped arrays and ids.

    Kernels are plain Python callables ``kernel(ctx)``; ``ctx[name]`` yields
    the :class:`KernelArray` for the mapped variable called ``name``,
    resolved lazily against the device's present table — so a kernel inside
    a ``target data`` region sees variables mapped by the enclosing
    construct, exactly as compiled code reuses an existing CV.
    """

    def __init__(
        self,
        machine: "Machine",
        device: "Device",
        fallback: dict[str, object] | None = None,
    ):
        self.machine = machine
        self.device = device
        self._cache: dict[str, KernelArray] = {}
        # Present entries snapshotted when the target directive executed.
        # A deferred (nowait) kernel whose mapping was meanwhile unmapped
        # resolves through this — the stale-device-pointer undefined
        # behaviour of real deferred target tasks, made deterministic.
        self._fallback = fallback or {}

    def __getitem__(self, name: str) -> KernelArray:
        view = self._cache.get(name)
        if view is not None:
            return view
        entry = self.device.present.find_by_name(name)
        if entry is None:
            entry = self._fallback.get(name)
        if entry is None:
            from ..memory.errors import NotMappedError

            raise NotMappedError(
                f"variable '{name}' has no corresponding variable on device "
                f"{self.device.device_id}; present: "
                f"{sorted(e.name for e in self.device.present.entries())}"
            )
        host_array: HostArray = entry.array  # type: ignore[assignment]
        section_start = (entry.ov_address - host_array.base) // host_array.itemsize
        view = KernelArray(
            machine=self.machine,
            name=name,
            device=self.device,
            cv_base=entry.cv_address,
            section_start=section_start,
            section_length=entry.nbytes // host_array.itemsize,
            dtype=host_array.dtype,
            declared_length=host_array.length,
        )
        self._cache[name] = view
        return view

    def __contains__(self, name: str) -> bool:
        return self.device.present.find_by_name(name) is not None

    @property
    def device_id(self) -> int:
        return self.device.device_id

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(sorted(e.name for e in self.device.present.entries()))

    def parallel_for(self, n: int, body, *, num_threads: int = 4) -> None:
        """``teams distribute parallel for``: run ``body(i)`` for i in 0..n-1.

        Iterations are divided into contiguous chunks, one per logical
        device thread; accesses inside ``body`` carry that thread's id, so
        the race-detection tools see genuinely concurrent iterations (no
        happens-before edges between sibling threads).  Execution itself is
        sequential and deterministic.
        """
        self.machine.run_parallel_region(n, body, num_threads)
