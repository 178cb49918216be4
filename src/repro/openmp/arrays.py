"""Instrumented array views: what programs and kernels touch memory through.

:class:`HostArray` is the host program's view of one variable (C-style flat
array); :class:`KernelArray` is the device-side view a compute kernel gets
for each mapped variable.  Both translate element indices to absolute
simulated addresses, publish one access for every operation when any tool
is listening — its call stack captured then, from the machine's memoized
source snapshot — and then perform the operation on the raw storage.

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
* **Views bind their live storage once.**  A kernel's mappings cannot
  change while it runs (every map or unmap is a non-access event, and
  kernels never call the runtime), so a :class:`KernelArray` resolves its
  device id, itemsize and the storage over its mapped section when it is
  built, once per launch.  A :class:`HostArray` binds its one buffer for
  the buffer's lifetime and checks on each access that the buffer is still
  the host's live buffer at its base (after a free, or a new array at the
  same base, the access takes the generic path).  An in-bounds ``int``
  index then indexes the binding, with no per-access buffer search.
* **A bound float64 scalar is a Python float.**  A float64 binding is a
  ``memoryview`` of the buffer, so a bound read returns a ``float`` and a
  bound write stores through the view with the IEEE bits numpy would have
  stored; a value the view refuses but numpy accepts (a size-1 array, a
  string) is stored as ``np.asarray([value], dtype)``, like the generic
  path.  The program's own arithmetic on what it read then follows Python
  float rules, not numpy scalar rules: ``x / 0.0`` raises
  ``ZeroDivisionError`` and an overflowing ``**`` raises ``OverflowError``
  where a numpy scalar gave ``inf`` and a warning (EXPERIMENTS.md, known
  deviations).  Other dtypes bind the ndarray and keep numpy scalars: a
  Python number would compute ``f4`` arithmetic in double precision, lose
  ``int64`` wraparound and change the error a ``u1`` overflow raises.
  Out-of-bounds indices, other index types and slices take the generic
  path and return numpy values.
* **A bound scalar access publishes one int.**  Everything a bound
  ``int``-indexed access carries but its element offset and write bit is
  fixed between a flush, a thread switch and a source-position change:
  device, thread, base address (a kernel view's section base, a host
  view's buffer base), itemsize and stack.  Either view interns that
  tuple as a slot of the bus's per-batch table once per such window (one
  epoch compare per access tells it when, :meth:`_ArrayView._intern`)
  and publishes the lane code ``self._read_code + offset`` (or
  ``_write_code``): the instrumentation pass's compact record, one add
  and no row or stack snapshot per access (:mod:`repro.events.columnar`
  owns the layout and builds rows on demand).  Slices, other index
  types, out-of-bounds indices, a host view whose buffer is no longer
  live and kernel views with no single covering buffer publish an
  ``Access`` row through the generic path below.
* **Peek/poke bypass instrumentation** so tests can assert on final memory
  without perturbing the tools under test.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Union

import numpy as np

from ..events.columnar import WRITE_CODE
from ..events.records import Access, AccessOrigin
from ..memory.buffer import RawBuffer

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..events.bus import ToolBus
    from .device import Device
    from .runtime import Machine

Index = Union[int, slice]


def _bind(array: np.ndarray) -> Union[memoryview, np.ndarray]:
    """The binding of a view's storage: float64 as a ``memoryview`` (Python
    float scalars, same IEEE bits), any other dtype as the ndarray."""
    return memoryview(array) if array.dtype == np.float64 else array


def _store_refused(data: Union[memoryview, np.ndarray], k: int, value, dtype: np.dtype) -> None:
    """Store at element ``k`` a value the binding's own store refused.

    The generic path stores ``np.asarray([value], dtype)``, which numpy
    accepts for values a binding refuses (a size-1 array, a string); a value
    numpy refuses too raises numpy's error.
    """
    np.asarray(data)[k : k + 1] = np.asarray([value], dtype=dtype)


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
    itemsize: int
    length: int
    #: Device id the access events carry (0 for the host).
    device_id: int
    #: Device whose buffers back the view.
    storage: "Device"
    #: The bound storage (see :func:`_bind`).  ``None`` means unbound:
    #: every access takes the generic path.
    _data: Union[memoryview, np.ndarray, None] = None
    #: The machine's bus, and the address a bound offset counts from.
    _bus: "ToolBus"
    _base: int
    #: The bus epoch the interned lane belongs to (-1: none interned yet).
    _epoch = -1
    #: The interned slot's codes at offset 0 (see :meth:`_intern`).
    _read_code: int
    _write_code: int

    @property
    def nbytes(self) -> int:
        return self.length * self.itemsize

    # Subclasses provide address translation.
    def _address(self, element: int) -> int:
        raise NotImplementedError

    # -- event emission --------------------------------------------------

    def _intern(self) -> None:
        """Intern this view's current slot on the bus (a new epoch began)."""
        bus = self._bus
        machine = self.machine
        code = bus.intern_lane(
            (
                self.device_id,
                machine.current_thread,
                self._base,
                self.itemsize,
                machine.source.snapshot(),
            )
        )
        self._read_code = code
        self._write_code = code + WRITE_CODE
        self._epoch = bus.lane_epoch

    def _publish(self, address: int, count: int, step: int, is_write: bool) -> None:
        machine = self.machine
        bus = machine.bus
        if not bus.wants_accesses:
            return
        itemsize = self.itemsize
        bus.publish_access(
            Access(
                self.device_id,
                machine.current_thread,
                address,
                itemsize,
                is_write,
                count,
                step * itemsize,
                AccessOrigin.PROGRAM,
                machine.source.snapshot(),
            )
        )

    # -- raw data movement --------------------------------------------------

    def _read_raw(self, address: int, count: int, step: int) -> np.ndarray:
        device = self.storage
        span = ((count - 1) * step + 1) * self.itemsize if count else 0
        buf = device.buffer_containing(address)
        if buf is not None and buf.extent.contains(address, span):
            view = buf.as_array(self.dtype, offset=address - buf.base, count=(count - 1) * step + 1 if count else 0)
            return view[::step].copy()
        raw = device.read_loose(address, span)
        return raw.view(self.dtype)[::step].copy()

    def _write_raw(self, address: int, count: int, step: int, values: np.ndarray) -> None:
        device = self.storage
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
            address = self._address(start)
            self._publish(address, count, step, is_write=False)
            return self._read_raw(address, count, step)
        address = self._address(self._normalize(index))
        self._publish(address, 1, 1, is_write=False)
        return self._read_raw(address, 1, 1)[0]

    def write(self, index: Index, value) -> None:
        """Instrumented write of one element or a slice."""
        if isinstance(index, slice):
            start, step, count = _slice_bounds(index, self.length)
            values = np.broadcast_to(np.asarray(value, dtype=self.dtype), (count,))
            address = self._address(start)
            self._publish(address, count, step, is_write=True)
            self._write_raw(address, count, step, values)
            return
        address = self._address(self._normalize(index))
        self._publish(address, 1, 1, is_write=True)
        self._write_raw(address, 1, 1, np.asarray([value], dtype=self.dtype))

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
        self.itemsize = self.dtype.itemsize
        self.length = length
        self.device_id = 0
        self.storage = machine.host
        self._bus = machine.bus
        # Bound for the buffer's lifetime: an access uses the binding only
        # while the host's live buffer at ``_base`` is still this one.
        self._base = buffer.base
        self._live = machine.host.buffers
        self._data = _bind(self.peek())

    @property
    def base(self) -> int:
        return self.buffer.base

    def address_of(self, element: int) -> int:
        return self.buffer.base + element * self.itemsize

    def _address(self, element: int) -> int:
        return self.address_of(element)

    def read(self, index: Index) -> Union[float, int, np.ndarray]:
        """Instrumented read of one element or a slice."""
        if type(index) is int:
            k = index + self.length if index < 0 else index
            if 0 <= k < self.length and self._live.get(self._base) is self.buffer:
                bus = self._bus
                if bus.wants_accesses:
                    if self._epoch != bus.lane_epoch:
                        self._intern()
                    bus.publish_access(self._read_code + k)
                return self._data[k]
        return _ArrayView.read(self, index)

    def write(self, index: Index, value) -> None:
        """Instrumented write of one element or a slice."""
        if type(index) is int:
            k = index + self.length if index < 0 else index
            if 0 <= k < self.length and self._live.get(self._base) is self.buffer:
                bus = self._bus
                if bus.wants_accesses:
                    if self._epoch != bus.lane_epoch:
                        self._intern()
                    bus.publish_access(self._write_code + k)
                try:
                    self._data[k] = value
                except (TypeError, ValueError, OverflowError):
                    _store_refused(self._data, k, value, self.dtype)
                return
        _ArrayView.write(self, index, value)

    __getitem__ = read
    __setitem__ = write

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
        self.device_id = device.device_id
        self.cv_base = self._base = cv_base
        self.section_start = section_start
        self.section_length = section_length
        self.dtype = np.dtype(dtype)
        self.itemsize = self.dtype.itemsize
        # Kernels index against the declared variable, not the section.
        self.length = declared_length
        # Bind the section's storage for this launch.  Unified devices back
        # the CV with host storage.  A section no single live buffer covers
        # (a stale nowait fallback whose CV was freed) stays unbound.
        self.storage = machine.host if device.unified else device
        self._bus = machine.bus
        nbytes = section_length * self.itemsize
        buf = self.storage.buffer_containing(cv_base)
        if nbytes and buf is not None and buf.extent.contains(cv_base, nbytes):
            self._data = _bind(
                buf.as_array(self.dtype, offset=cv_base - buf.base, count=section_length)
            )

    def _address(self, element: int) -> int:
        return self.cv_base + (element - self.section_start) * self.itemsize

    def read(self, index: Index) -> Union[float, int, np.ndarray]:
        """Instrumented read of one element or a slice."""
        data = self._data
        if data is not None and type(index) is int:
            k = (index + self.length if index < 0 else index) - self.section_start
            if 0 <= k < self.section_length:
                bus = self._bus
                if bus.wants_accesses:
                    if self._epoch != bus.lane_epoch:
                        self._intern()
                    bus.publish_access(self._read_code + k)
                return data[k]
        return _ArrayView.read(self, index)

    def write(self, index: Index, value) -> None:
        """Instrumented write of one element or a slice."""
        data = self._data
        if data is not None and type(index) is int:
            k = (index + self.length if index < 0 else index) - self.section_start
            if 0 <= k < self.section_length:
                bus = self._bus
                if bus.wants_accesses:
                    if self._epoch != bus.lane_epoch:
                        self._intern()
                    bus.publish_access(self._write_code + k)
                try:
                    data[k] = value
                except (TypeError, ValueError, OverflowError):
                    _store_refused(data, k, value, self.dtype)
                return
        _ArrayView.write(self, index, value)

    __getitem__ = read
    __setitem__ = write

    @property
    def mapped_range(self) -> tuple[int, int]:
        """``(first_element, one_past_last_element)`` of the mapped section."""
        return self.section_start, self.section_start + self.section_length

    def __repr__(self) -> str:
        lo, hi = self.mapped_range
        return (
            f"KernelArray({self.name!r}, section=[{lo}:{hi}], "
            f"device={self.device_id})"
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
