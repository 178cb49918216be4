"""The simulated OpenMP target-offloading runtime.

:class:`Machine` is the hardware: a host device, one or more accelerators
(separate-memory or unified), the tool bus, the simulated source stack, and
the logical task graph.  :class:`TargetRuntime` is the programming model on
top of it — the device directives of OpenMP 4.0+ as a Python API:

====================================  =========================================
OpenMP construct                       API
====================================  =========================================
``#pragma omp target``                 :meth:`TargetRuntime.target`
``#pragma omp target data``            :meth:`TargetRuntime.target_data`
``#pragma omp target enter data``      :meth:`TargetRuntime.target_enter_data`
``#pragma omp target exit data``       :meth:`TargetRuntime.target_exit_data`
``#pragma omp target update``          :meth:`TargetRuntime.target_update`
``#pragma omp taskwait``               :meth:`TargetRuntime.taskwait`
``map(<type>: a[lo:n])``               :func:`repro.openmp.maptypes.to` etc.
``nowait`` / ``depend(in/out: x)``     keyword arguments of :meth:`target`
====================================  =========================================

All data-mapping behaviour — reference counting, conditional transfers on
entry/exit, CV allocation and deletion — follows Table I of the paper, and
every semantic step is published to attached tools both at the OMPT level
(:class:`DataOp`, :class:`KernelEvent`) and at the libc-interceptor level
(:class:`MemcpyEvent`, :class:`AllocationEvent`), so that OMPT-aware and
OMPT-less detectors can be compared on equal footing.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Sequence, Union

import numpy as np

from ..events.bus import ToolBus
from ..events.records import (
    DataOp,
    DataOpKind,
    FlushEvent,
    KernelEvent,
    KernelPhase,
    MemcpyEvent,
    SyncEvent,
)
from ..events.source import UNKNOWN_LOCATION, SourceStack
from ..memory.buffer import RawBuffer
from ..telemetry import registry as _telemetry
from ..memory.errors import (
    DeviceError,
    MappingError,
    OutOfMemoryError,
    TransferError,
)
from .arrays import HostArray, KernelContext
from .device import Device, HostDevice, UnifiedDevice
from .maptypes import (
    MapSpec,
    MapType,
    allowed_on_enter_data,
    allowed_on_exit_data,
    allowed_on_target,
    entry_effect,
    exit_effect,
)
from .present import PresentEntry
from .scheduler import Schedule, Scheduler
from .tasks import TaskGraph

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..faults.injector import FaultInjector

Kernel = Callable[[KernelContext], None]
Section = Union[HostArray, tuple]  # HostArray or (HostArray, start, count)

#: Retry budgets for injected (or real but transient) device failures.
#: Strictly larger than any consecutive-failure run a generated
#: :class:`~repro.faults.plan.FaultPlan` can produce — the recovery
#: guarantee the chaos campaign's zero-crash assertion rests on.
MAX_TRANSFER_RETRIES = 4
MAX_ALLOC_RETRIES = 4


class Machine:
    """The simulated heterogeneous node."""

    def __init__(
        self,
        n_devices: int = 1,
        *,
        unified: bool = False,
        schedule: Schedule = Schedule.EAGER,
        seed: int = 0,
        faults: "FaultInjector | None" = None,
    ):
        if n_devices < 1:
            raise DeviceError("a machine needs at least one accelerator")
        self.bus = ToolBus()
        self.faults = faults
        self.bus.chaos = faults
        # A source-position change makes every interned kernel lane stale.
        self.source = SourceStack(on_change=self.bus.invalidate_lanes)
        self.host = HostDevice(0, self)
        self.devices: dict[int, Device] = {0: self.host}
        cls = UnifiedDevice if unified else Device
        for d in range(1, n_devices + 1):
            self.devices[d] = cls(d, self)
        self.current_thread = 0
        self.tasks = TaskGraph(self)
        self.scheduler = Scheduler(schedule, seed)

    def device(self, device_id: int) -> Device:
        try:
            return self.devices[device_id]
        except KeyError:
            raise DeviceError(
                f"no device {device_id}; available: {sorted(self.devices)}"
            ) from None

    @property
    def accelerator_ids(self) -> tuple[int, ...]:
        return tuple(d for d in sorted(self.devices) if d != 0)

    def run_parallel_region(self, n: int, body: Callable[[int], None], num_threads: int) -> None:
        """Fork/join a team of logical worker threads over iterations 0..n-1.

        All fork edges are published before any worker runs, so sibling
        workers are mutually concurrent; joins follow all bodies.
        """
        if n <= 0:
            return
        telemetry = _telemetry.ACTIVE
        if telemetry is not None:
            telemetry.count("runtime.parallel_regions")
        k = max(1, min(num_threads, n))
        parent = self.current_thread
        tids = [self.tasks.fresh_tid() for _ in range(k)]
        for tid in tids:
            self.bus.publish_sync(SyncEvent("fork", parent, tid, parent))
        # Contiguous chunking, like static scheduling of a parallel for.
        bounds = np.linspace(0, n, k + 1).astype(int)
        bus = self.bus
        try:
            for w, tid in enumerate(tids):
                self.current_thread = tid
                bus.invalidate_lanes()  # a lane slot names its thread
                for i in range(bounds[w], bounds[w + 1]):
                    body(i)
        finally:
            self.current_thread = parent
            bus.invalidate_lanes()
        for tid in tids:
            self.bus.publish_sync(SyncEvent("join", tid, parent, parent))


class TargetRuntime:
    """Device directives over one :class:`Machine`."""

    def __init__(self, machine: Machine | None = None, **machine_kwargs):
        self.machine = machine or Machine(**machine_kwargs)
        self._arrays: dict[str, HostArray] = {}
        #: Cumulative bytes actually moved over the interconnect, per
        #: direction.  Only landed copies count — retried attempts and
        #: present-hit map entries (no transfer) do not.  The mapping
        #: synthesizer's cost model is validated against these.
        self.h2d_bytes = 0
        self.d2h_bytes = 0

    # -- variables ---------------------------------------------------------

    def array(
        self,
        name: str,
        length: int,
        dtype="f8",
        *,
        storage: str = "heap",
        declare_target: bool = False,
        init=None,
    ) -> HostArray:
        """Declare a program variable (C array) of ``length`` elements.

        ``storage='heap'`` models a ``malloc``'d array (contents start as
        garbage); ``storage='global'`` models a file-scope global
        (zero-initialised ``.bss``, which sanitizers treat as *defined*
        even though the program never wrote it — see §V.A).

        ``declare_target=True`` models ``#pragma omp declare target``: the
        device image carries its own copy of the variable, created at
        device initialization *outside any allocator interceptor's view* —
        the implicit mapping §V.A says OMPT omits (our runtime publishes
        the event ARBALEST's authors proposed).  The copy is permanently
        present (it cannot be unmapped) and synchronizes only through
        ``target update``.  Requires ``storage='global'``.

        ``init`` pre-fills the host array through the normal instrumented
        write path — initialization is program behaviour, and tools must
        see it (a silent pre-fill would read as uninitialized memory to
        every definedness tracker).  Tests that need to place bytes
        *behind the tools' back* use :meth:`HostArray.poke` explicitly.
        """
        if name in self._arrays:
            raise MappingError(f"array name {name!r} already in use")
        if storage not in ("heap", "global"):
            raise ValueError(f"storage must be 'heap' or 'global', got {storage!r}")
        if declare_target and storage != "global":
            raise MappingError("declare target applies to global variables")
        dt = np.dtype(dtype)
        fill = 0 if storage == "global" else None
        buf = self.machine.host.malloc(
            length * dt.itemsize, storage=storage, fill=fill, label=name
        )
        arr = HostArray(self.machine, name, buf, dt, length)
        self._arrays[name] = arr
        recorder = self.machine.bus.recorder
        if recorder is not None:
            stack = self.machine.source.snapshot()
            recorder.record(
                name,
                "allocate",
                device_id=0,
                location=stack[0] if stack else UNKNOWN_LOCATION,
                detail=f"{arr.nbytes}B {storage}",
            )
        if init is not None:
            arr.write(slice(0, length), np.asarray(init, dtype=dt))
        if declare_target:
            self._install_declare_target(arr)
        return arr

    def _install_declare_target(self, arr: HostArray) -> None:
        """Create the device-image copy of a ``declare target`` global.

        Mirrors device initialization in libomptarget: one copy per
        accelerator, allocated as image storage (``storage='global'`` —
        loaders zero it, sanitizer interceptors never see a malloc), with a
        present-table entry pinned by an ``INT_MAX``-style reference count.
        """
        machine = self.machine
        for device_id in machine.accelerator_ids:
            dev = machine.device(device_id)
            if dev.unified:
                cv_address = arr.base
            else:
                cv_address = self._device_malloc(
                    dev, arr.nbytes, storage="global", fill=0,
                    label=f"{arr.name}(image)",
                ).base
            dev.present.insert(
                PresentEntry(
                    ov_address=arr.base,
                    nbytes=arr.nbytes,
                    cv_address=cv_address,
                    device_id=device_id,
                    ref_count=1 << 31,  # pinned: never unmapped
                    name=arr.name,
                    array=arr,
                )
            )
            machine.bus.publish_data_op(
                DataOp(
                    kind=DataOpKind.ALLOC,
                    device_id=device_id,
                    thread_id=machine.current_thread,
                    ov_address=arr.base,
                    cv_address=cv_address,
                    nbytes=arr.nbytes,
                    stack=machine.source.snapshot(),
                )
            )

    def free(self, array: HostArray) -> None:
        """``free()`` the host storage of ``array``."""
        self._arrays.pop(array.name, None)
        # Record after the free publishes (and so flushes the accesses the
        # bus still holds): the timeline keeps program order.
        self.machine.host.free(array.base)
        recorder = self.machine.bus.recorder
        if recorder is not None:
            stack = self.machine.source.snapshot()
            recorder.record(
                array.name,
                "free",
                device_id=0,
                location=stack[0] if stack else UNKNOWN_LOCATION,
                detail=f"{array.nbytes}B",
            )

    # -- directives ------------------------------------------------------------

    def target(
        self,
        kernel: Kernel,
        maps: Sequence[MapSpec] = (),
        *,
        device: int = 1,
        nowait: bool = False,
        depend_in: Iterable[HostArray] = (),
        depend_out: Iterable[HostArray] = (),
        name: str | None = None,
    ):
        """``#pragma omp target [map(...)] [nowait] [depend(...)]``.

        Entry mappings, the kernel body, and exit mappings together form the
        target task.  Synchronous targets block (body runs, then a join edge
        is published).  ``nowait`` targets follow the machine's schedule;
        their join happens at the next :meth:`taskwait` (or enclosing region
        end / :meth:`finalize`).  Returns the created task.
        """
        for spec in maps:
            if not allowed_on_target(spec.map_type):
                raise MappingError(
                    f"map-type '{spec.map_type.value}' is not allowed on target"
                )
        machine = self.machine
        dev = machine.device(device)
        kernel_name = name or getattr(kernel, "__name__", "target")
        # Snapshot the present table at directive time: a deferred kernel
        # resolves variables unmapped in the meantime through this (stale
        # device pointers, deterministically).
        present_snapshot = {e.name: e for e in dev.present.entries()}

        def run_target() -> None:
            stack = machine.source.snapshot()
            telemetry = _telemetry.ACTIVE
            if machine.faults is not None and machine.faults.kernel_launch(device):
                # Spurious device reset before launch; the runtime recovers
                # by checkpoint/restore, invisibly to the program and tools.
                machine.faults.record_reset_recovery(device, dev.spurious_reset())
                if telemetry is not None:
                    telemetry.count("runtime.reset_recoveries")
            for spec in maps:
                self._map_entry(dev, spec)
            recorder = machine.bus.recorder
            if recorder is not None:
                # One launch event per mapped variable: the timeline of each
                # variable shows which kernels could have touched it.
                launch_loc = stack[0] if stack else UNKNOWN_LOCATION
                for spec in maps:
                    recorder.record(
                        spec.array.name,
                        "kernel-launch",
                        device_id=device,
                        location=launch_loc,
                        detail=kernel_name,
                    )
            machine.bus.publish_kernel(
                KernelEvent(
                    phase=KernelPhase.BEGIN,
                    task_id=machine.current_thread,
                    device_id=device,
                    thread_id=machine.current_thread,
                    nowait=nowait,
                    name=kernel_name,
                    stack=stack,
                )
            )
            if dev.unified:
                machine.bus.publish_flush(FlushEvent(device, machine.current_thread))
            context = KernelContext(machine, dev, fallback=present_snapshot)
            if telemetry is not None:
                with telemetry.span(
                    "runtime",
                    f"kernel:{kernel_name}",
                    tid=machine.current_thread,
                    device=device,
                ):
                    kernel(context)
            else:
                kernel(context)
            if dev.unified:
                machine.bus.publish_flush(FlushEvent(device, machine.current_thread))
            machine.bus.publish_kernel(
                KernelEvent(
                    phase=KernelPhase.END,
                    task_id=machine.current_thread,
                    device_id=device,
                    thread_id=machine.current_thread,
                    nowait=nowait,
                    name=kernel_name,
                    stack=stack,
                )
            )
            for spec in maps:
                self._map_exit(dev, spec)

        def body() -> None:
            telemetry = _telemetry.ACTIVE
            if telemetry is None:
                run_target()
                return
            with telemetry.span(
                "runtime",
                f"target:{kernel_name}",
                tid=machine.current_thread,
                device=device,
                nowait=nowait,
            ):
                run_target()

        task = machine.tasks.create(
            kernel_name,
            device,
            body,
            nowait=nowait,
            depend_in=(a.base for a in depend_in),
            depend_out=(a.base for a in depend_out),
        )
        if machine.scheduler.run_at_launch(nowait):
            machine.tasks.execute(task)
            if not nowait:
                machine.tasks.join(task)
        elif not nowait:  # pragma: no cover - run_at_launch is always true here
            machine.tasks.execute(task)
            machine.tasks.join(task)
        return task

    @contextmanager
    def target_data(
        self, maps: Sequence[MapSpec], *, device: int = 1
    ) -> Iterator[None]:
        """``#pragma omp target data map(...) { ... }`` (structured mapping)."""
        for spec in maps:
            if not allowed_on_target(spec.map_type):
                raise MappingError(
                    f"map-type '{spec.map_type.value}' is not allowed on target data"
                )
        dev = self.machine.device(device)
        for spec in maps:
            self._map_entry(dev, spec)
        try:
            yield
        finally:
            # A closing region does NOT wait for nowait kernels launched
            # inside it (the Fig-2 bug class).  Which side "wins" is the
            # scheduler's interleaving choice.
            if self.machine.scheduler.exit_transfers_before_drain:
                for spec in maps:
                    self._map_exit(dev, spec)
                self.machine.tasks.run_pending()
            else:
                self.machine.tasks.run_pending()
                for spec in maps:
                    self._map_exit(dev, spec)

    def target_enter_data(self, maps: Sequence[MapSpec], *, device: int = 1) -> None:
        """``#pragma omp target enter data map(to/alloc: ...)``."""
        dev = self.machine.device(device)
        for spec in maps:
            if not allowed_on_enter_data(spec.map_type):
                raise MappingError(
                    f"map-type '{spec.map_type.value}' is not allowed on "
                    "target enter data"
                )
            self._map_entry(dev, spec)

    def target_exit_data(self, maps: Sequence[MapSpec], *, device: int = 1) -> None:
        """``#pragma omp target exit data map(from/release/delete: ...)``."""
        dev = self.machine.device(device)
        for spec in maps:
            if not allowed_on_exit_data(spec.map_type):
                raise MappingError(
                    f"map-type '{spec.map_type.value}' is not allowed on "
                    "target exit data"
                )
            self._map_exit(dev, spec)

    def target_update(
        self,
        *,
        to: Sequence[Section] = (),
        from_: Sequence[Section] = (),
        device: int = 1,
    ) -> None:
        """``#pragma omp target update to(...) from(...)``.

        Reference counting is *not* applied (§II.B); if a section is not
        present the motion has no effect, mirroring libomptarget.
        """
        dev = self.machine.device(device)
        for section in to:
            self._update_one(dev, section, DataOpKind.H2D)
        for section in from_:
            self._update_one(dev, section, DataOpKind.D2H)

    def taskwait(self) -> None:
        """``#pragma omp taskwait``: complete and join all pending tasks."""
        self.machine.tasks.taskwait()

    def finalize(self) -> None:
        """End of the simulated program: implicit final synchronization."""
        self.machine.tasks.taskwait()
        # A chaos injector may still hold a reordered OMPT callback; program
        # end delivers it (nothing can reorder past the final sync).
        self.machine.bus.flush_chaos()
        # Deliver any accesses still sitting in the bus's pending batch.
        self.machine.bus.flush_batch()

    # -- source annotation ----------------------------------------------------

    def at(self, file: str, line: int, column: int = 0, function: str = "main"):
        """Annotate the enclosed operations with a simulated source position."""
        return self.machine.source.at(file, line, column, function)

    # -- mapping internals -------------------------------------------------

    def _map_entry(self, dev: Device, spec: MapSpec) -> None:
        eff = entry_effect(spec.map_type)
        if eff is None:  # pragma: no cover - guarded by allowed_on_* checks
            raise MappingError(
                f"map-type '{spec.map_type.value}' has no entry semantics"
            )
        telemetry = _telemetry.ACTIVE
        if telemetry is not None:
            telemetry.count("runtime.map_entries")
        entry = dev.present.lookup(spec.ov_address, spec.nbytes)
        if entry is not None:
            # Already present: just bump the count.  No transfer — this is
            # the semantics OMPT-less tools cannot see.
            entry.ref_count += 1
            if telemetry is not None:
                telemetry.count("runtime.map_present_hits")
            return
        # Install-then-transfer, with rollback: if the entry transfer fails
        # past the retry budget, the present-table entry and its CV are
        # rolled back (DELETE published, so tools stay consistent) and the
        # whole structured-map entry is replayed once from scratch.
        for replay in (False, True):
            entry = self._install_entry(dev, spec)
            if not (eff.copies_to_device and not dev.unified):
                return
            try:
                self._transfer(dev, entry, DataOpKind.H2D)
                return
            except TransferError:
                self._rollback_entry(dev, entry)
                if replay:
                    raise

    def _install_entry(self, dev: Device, spec: MapSpec) -> PresentEntry:
        """Allocate the CV, insert the present entry, publish the ALLOC."""
        machine = self.machine
        if dev.unified:
            cv_address = spec.ov_address
        else:
            cv_address = self._device_malloc(
                dev, spec.nbytes, label=f"{spec.array.name}(CV)"
            ).base
        entry = PresentEntry(
            ov_address=spec.ov_address,
            nbytes=spec.nbytes,
            cv_address=cv_address,
            device_id=dev.device_id,
            ref_count=1,
            name=spec.array.name,
            array=spec.array,
        )
        dev.present.insert(entry)
        machine.bus.publish_data_op(
            DataOp(
                kind=DataOpKind.ALLOC,
                device_id=dev.device_id,
                thread_id=machine.current_thread,
                ov_address=spec.ov_address,
                cv_address=cv_address,
                nbytes=spec.nbytes,
                stack=machine.source.snapshot(),
            )
        )
        return entry

    def _rollback_entry(self, dev: Device, entry: PresentEntry) -> None:
        """Undo a failed structured-map entry: table, tools, CV storage.

        The DELETE data op is published so attached detectors unwind their
        mapping state exactly as for a normal unmap; the VSM net effect of
        an ALLOC/DELETE pair with no transfer in between is a no-op.
        """
        if _telemetry.ACTIVE is not None:
            _telemetry.ACTIVE.count("runtime.map_rollbacks")
        dev.present.remove(entry)
        self.machine.bus.publish_data_op(
            DataOp(
                kind=DataOpKind.DELETE,
                device_id=dev.device_id,
                thread_id=self.machine.current_thread,
                ov_address=entry.ov_address,
                cv_address=entry.cv_address,
                nbytes=entry.nbytes,
                stack=self.machine.source.snapshot(),
            )
        )
        if not dev.unified:
            dev.free(entry.cv_address)

    def _device_malloc(self, dev: Device, nbytes: int, **kwargs) -> "RawBuffer":
        """Device malloc with retry-with-backoff over transient OOM.

        Injected OOM faults are transient by plan construction; real
        allocator exhaustion persists through all retries and propagates.
        """
        attempt = 0
        while True:
            try:
                return dev.malloc(nbytes, **kwargs)
            except OutOfMemoryError:
                attempt += 1
                if _telemetry.ACTIVE is not None:
                    _telemetry.ACTIVE.count("runtime.alloc_retries")
                if attempt > MAX_ALLOC_RETRIES:
                    raise
                if self.machine.faults is not None:
                    self.machine.faults.record_backoff(1 << attempt)

    def _map_exit(self, dev: Device, spec: MapSpec) -> None:
        if _telemetry.ACTIVE is not None:
            _telemetry.ACTIVE.count("runtime.map_exits")
        eff = exit_effect(spec.map_type)
        entry = dev.present.lookup(spec.ov_address, spec.nbytes)
        if entry is None:
            if spec.map_type in (MapType.RELEASE, MapType.DELETE):
                return  # releasing an absent section is a no-op
            raise MappingError(
                f"cannot unmap {spec!r}: section is not present on device "
                f"{dev.device_id}"
            )
        if eff.forces_zero:
            entry.ref_count = 0
        elif eff.decrements and entry.ref_count > 0:
            entry.ref_count -= 1
        if entry.ref_count > 0:
            return
        if eff.copies_to_host and not dev.unified:
            self._transfer(dev, entry, DataOpKind.D2H)
        if _telemetry.ACTIVE is not None:
            _telemetry.ACTIVE.count("runtime.unmaps")
        dev.present.remove(entry)
        self.machine.bus.publish_data_op(
            DataOp(
                kind=DataOpKind.DELETE,
                device_id=dev.device_id,
                thread_id=self.machine.current_thread,
                ov_address=entry.ov_address,
                cv_address=entry.cv_address,
                nbytes=entry.nbytes,
                stack=self.machine.source.snapshot(),
            )
        )
        if not dev.unified:
            dev.free(entry.cv_address)

    def _update_one(self, dev: Device, section: Section, kind: DataOpKind) -> None:
        array, start, count = self._section(section)
        ov_address = array.address_of(start)
        nbytes = count * array.itemsize
        entry = dev.present.lookup(ov_address, nbytes)
        if entry is None:
            return  # not present: motion has no effect
        if dev.unified:
            return  # single storage: nothing to move
        self._transfer(dev, entry, kind, ov_address=ov_address, nbytes=nbytes)

    @staticmethod
    def _section(section: Section) -> tuple[HostArray, int, int]:
        if isinstance(section, HostArray):
            return section, 0, section.length
        array, start, count = section
        if count is None:
            count = array.length - start
        return array, start, count

    def _transfer(
        self,
        dev: Device,
        entry: PresentEntry,
        kind: DataOpKind,
        *,
        ov_address: int | None = None,
        nbytes: int | None = None,
    ) -> None:
        """memcpy between a present entry's OV and CV (or a sub-range)."""
        telemetry = _telemetry.ACTIVE
        if telemetry is not None:
            span_bytes = entry.nbytes if nbytes is None else nbytes
            telemetry.observe("runtime.transfer_bytes", span_bytes)
            with telemetry.span(
                "runtime",
                f"transfer:{kind.value}",
                tid=self.machine.current_thread,
                device=dev.device_id,
                nbytes=span_bytes,
            ):
                self._do_transfer(
                    dev, entry, kind, ov_address=ov_address, nbytes=nbytes
                )
            return
        self._do_transfer(dev, entry, kind, ov_address=ov_address, nbytes=nbytes)

    def _do_transfer(
        self,
        dev: Device,
        entry: PresentEntry,
        kind: DataOpKind,
        *,
        ov_address: int | None = None,
        nbytes: int | None = None,
    ) -> None:
        machine = self.machine
        ov_address = entry.ov_address if ov_address is None else ov_address
        nbytes = entry.nbytes if nbytes is None else nbytes
        cv_address = entry.translate(ov_address)
        ov_buf = machine.host.buffer_containing(ov_address)
        cv_buf = dev.buffer_containing(cv_address)
        if ov_buf is None or cv_buf is None:  # pragma: no cover - internal invariant
            raise MappingError("present entry refers to dead storage")
        if kind is DataOpKind.H2D:
            src_dev, src_buf, src_addr = 0, ov_buf, ov_address
            dst_dev, dst_buf, dst_addr = dev.device_id, cv_buf, cv_address
        elif kind is DataOpKind.D2H:
            src_dev, src_buf, src_addr = dev.device_id, cv_buf, cv_address
            dst_dev, dst_buf, dst_addr = 0, ov_buf, ov_address
        else:  # pragma: no cover - callers only pass motion kinds
            raise ValueError(f"not a transfer kind: {kind}")
        # Retry-with-backoff over transient (injected) transfer failures.
        # Failed attempts happen below the event layer: nothing is published
        # until the copy actually lands, so recovered faults are invisible
        # to tools and findings.
        faults = machine.faults
        attempt = 0
        while faults is not None:
            fail, _latency = faults.transfer_attempt(
                dev.device_id, kind.value, nbytes
            )
            if not fail:
                break
            attempt += 1
            if _telemetry.ACTIVE is not None:
                _telemetry.ACTIVE.count("runtime.transfer_retries")
            if attempt > MAX_TRANSFER_RETRIES:
                raise TransferError(
                    f"{kind.value} of {nbytes} bytes on device {dev.device_id} "
                    f"failed after {attempt} attempts"
                )
            faults.record_backoff(1 << attempt)
        dst_buf.copy_from(
            src_buf,
            dst_offset=dst_addr - dst_buf.base,
            src_offset=src_addr - src_buf.base,
            nbytes=nbytes,
        )
        if kind is DataOpKind.H2D:
            self.h2d_bytes += nbytes
        else:
            self.d2h_bytes += nbytes
        stack = machine.source.snapshot()
        machine.bus.publish_memcpy(
            MemcpyEvent(
                device_id=0,
                thread_id=machine.current_thread,
                dst_device=dst_dev,
                dst_address=dst_addr,
                src_device=src_dev,
                src_address=src_addr,
                nbytes=nbytes,
                stack=stack,
            )
        )
        # Recorded after the publish, which flushes the accesses the bus
        # still holds, so the accesses a transfer carries come first.
        recorder = machine.bus.recorder
        if recorder is not None:
            recorder.record(
                entry.name,
                "transfer",
                device_id=dev.device_id,
                location=stack[0] if stack else UNKNOWN_LOCATION,
                detail=f"{kind.value} {nbytes}B",
            )
        machine.bus.publish_data_op(
            DataOp(
                kind=kind,
                device_id=dev.device_id,
                thread_id=machine.current_thread,
                ov_address=ov_address,
                cv_address=cv_address,
                nbytes=nbytes,
                stack=stack,
            )
        )
