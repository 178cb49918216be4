"""The tool bus: dispatches runtime events to attached analysis tools.

The bus is the simulation's analogue of the sanitizer callback table.  It
pre-computes, per event kind, the tuple of tools that actually override the
corresponding handler, so that

* a *native* run (no tools) pays one attribute check per bulk access and
  nothing else — this is the baseline the Fig-8 overhead benchmark divides
  by; and
* an instrumented run pays only for the handlers a tool really implements
  (the paper's OMPT-less tools never see semantic data ops).

The bus also owns the run's :class:`~repro.events.variables.VariableIndex`:
every allocation and data op feeds it before fan-out (and before chaos
perturbation, so names follow the program), and every attached tool names
its address-only findings through it.  It carries the run's optional
flight recorder, telemetry registry and profiler too
(:attr:`ToolBus.recorder`, :attr:`ToolBus.telemetry`,
:attr:`ToolBus.profiler`); each is ``None`` unless a harness sets it, and
the runtime and tools reach them only through the bus.

Two robustness roles ride on top of dispatch:

* **Crash isolation** — an exception escaping a tool handler is contained
  to that tool: the bus records it, files a ``TOOL_ERROR`` finding against
  the offending tool, and keeps delivering to the others.  One buggy
  analysis must never unwind a whole campaign.  Set :attr:`ToolBus.strict`
  to re-raise instead (debugging the tools themselves).
* **Chaos injection** — when a :class:`~repro.faults.injector.FaultInjector`
  is wired in via :attr:`ToolBus.chaos`, the OMPT data-op callback stream
  may be perturbed (dropped/duplicated/reordered events) before delivery.
  Only the tools' *view* changes; the simulated program is untouched.

When the bus carries a telemetry registry it also traces its fan-out:
every non-access publish wraps each tool handler in a ``bus``-category
span, access publishes are counted (one span per access would dwarf the
trace), and isolated handler failures bump per-(tool, handler) error
counters.  The runtime, the tools and the detector count into the same
registry, read from the bus.  Without one, each publish pays one ``None``
check and nothing else.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterable

from .columnar import BATCH_CAP, EventBatch, LaneSlot, Pending, lane_code
from .records import (
    Access,
    AllocationEvent,
    DataOp,
    FlushEvent,
    KernelEvent,
    KernelPhase,
    MemcpyEvent,
    SyncEvent,
)
from .variables import VariableIndex

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..faults.injector import FaultInjector
    from ..forensics.recorder import FlightRecorder
    from ..observe.prof import Profiler
    from ..telemetry.registry import Telemetry
    from ..tools.base import Tool


@dataclass(frozen=True)
class ToolErrorRecord:
    """One isolated tool-handler failure."""

    tool: str
    handler: str
    error: str

    def to_json(self) -> dict:
        return {"tool": self.tool, "handler": self.handler, "error": self.error}


class ToolBus:
    """Fan-out of runtime events to attached tools.

    Accesses are parked in a pending batch and flushed through the tools'
    access handlers — before any non-access publish, at
    :data:`~repro.events.columnar.BATCH_CAP`, on attach/detach and at
    program end — so tools see exactly the program's event order, just
    blocked.  Each access carries the stack captured when it was built, so
    a flush after the publishing frame has exited still reports that
    frame.  A pending access is a row or a lane code (one int, see
    :mod:`~repro.events.columnar`) naming a slot this bus interned with
    :meth:`intern_lane`; the slot table is reset at every flush, and
    :attr:`lane_epoch` tells a view when its interned lane went stale.  A
    tool class that must observe each access before the program reads
    the bytes (one that rewrites memory from its access handler) declares
    :attr:`~repro.tools.base.Tool.immediate_delivery`; while one is
    attached, every access is flushed as it is published, in a batch of
    one.

    :attr:`dispatch` maps each event record type to its ``publish_*``
    method, for replaying a recorded stream.  ``variables`` shares one
    address-to-variable index between several buses (the serve shards);
    by default each bus builds its own.  Attached tools get the index,
    the :attr:`recorder` and the :attr:`telemetry` registry from the bus,
    the last two also when they are set after the tools attach.
    """

    def __init__(self, variables: VariableIndex | None = None) -> None:
        self._batch_pending: list[Pending] = []
        #: The pending batch's lane slots, indexed by its lane codes.
        self._lane_slots: list[LaneSlot] = []
        #: Bumped whenever an interned lane goes stale: at a flush that
        #: resets the slot table, at a thread switch and at a source
        #: position change.  A view re-interns when its epoch differs.
        self.lane_epoch = 0
        #: Whether any attached tool observes memory accesses.
        #: Instrumented array views consult this before even building an
        #: access, so native runs skip the event layer entirely.
        self.wants_accesses = False
        #: Pending accesses that trigger a flush: 1 while an
        #: immediate-delivery tool is attached, ``BATCH_CAP`` otherwise.
        self._cap = BATCH_CAP
        self._tools: list["Tool"] = []
        self._access: tuple["Tool", ...] = ()
        self._batched: tuple["Tool", ...] = ()
        self._data_op: tuple["Tool", ...] = ()
        self._kernel: tuple["Tool", ...] = ()
        self._allocation: tuple["Tool", ...] = ()
        self._sync: tuple["Tool", ...] = ()
        self._flush: tuple["Tool", ...] = ()
        self._memcpy: tuple["Tool", ...] = ()
        #: Address-to-variable index, fed from the event stream.
        self.variables = variables if variables is not None else VariableIndex()
        #: Optional fault injector perturbing the data-op callback stream.
        self.chaos: "FaultInjector | None" = None
        #: Optional continuous profiler sampling this bus's flushed accesses
        #: and kernel phases; ``None`` (the common case) costs one check.
        self.profiler: "Profiler | None" = None
        self._recorder: "FlightRecorder | None" = None
        self._telemetry: "Telemetry | None" = None
        #: Re-raise tool-handler exceptions instead of isolating them.
        self.strict = False
        #: Isolated handler failures, in occurrence order.
        self.errors: list[ToolErrorRecord] = []
        #: Event record type -> the ``publish_*`` method that delivers it.
        self.dispatch: dict[type, Callable[[object], None]] = {
            Access: self.publish_access,
            DataOp: self.publish_data_op,
            MemcpyEvent: self.publish_memcpy,
            KernelEvent: self.publish_kernel,
            AllocationEvent: self.publish_allocation,
            SyncEvent: self.publish_sync,
            FlushEvent: self.publish_flush,
        }

    # -- subscription ----------------------------------------------------

    def attach(self, tool: "Tool") -> None:
        if self._batch_pending:
            self.flush_batch()  # pending events predate the newcomer
        self._tools.append(tool)
        tool.variables = self.variables
        tool.recorder = self._recorder
        tool.telemetry = self._telemetry
        self._rebuild()

    @property
    def recorder(self) -> "FlightRecorder | None":
        """Optional flight recorder this bus's runtime and tools write
        timelines to; ``None`` (the common case) costs one check."""
        return self._recorder

    @recorder.setter
    def recorder(self, recorder: "FlightRecorder | None") -> None:
        self._share("recorder", recorder)

    @property
    def telemetry(self) -> "Telemetry | None":
        """Optional metric and span registry this bus's runtime and tools
        count into; ``None`` (the common case) costs one check."""
        return self._telemetry

    @telemetry.setter
    def telemetry(self, telemetry: "Telemetry | None") -> None:
        self._share("telemetry", telemetry)

    def _share(self, name: str, value) -> None:
        """Set the bus's ``name`` and hand it to every attached tool."""
        if self._batch_pending:
            self.flush_batch()  # pending accesses predate the new value
        setattr(self, "_" + name, value)
        for tool in self._tools:
            setattr(tool, name, value)

    def detach(self, tool: "Tool") -> None:
        if self._batch_pending:
            self.flush_batch()  # deliver what the tool already observed
        try:
            self._tools.remove(tool)
        except ValueError:
            name = getattr(tool, "name", None) or type(tool).__name__
            raise ValueError(
                f"cannot detach tool {name!r}: it is not attached to this bus"
            ) from None
        self._rebuild()

    def _rebuild(self) -> None:
        from ..tools.base import Tool  # local import to avoid a cycle

        def overriding(name: str) -> tuple["Tool", ...]:
            base = getattr(Tool, name)
            return tuple(
                t for t in self._tools if getattr(type(t), name, base) is not base
            )

        # A tool subscribes to accesses by overriding either handler.  Tools
        # without a vectorized ``on_batch`` are served per access by the bus
        # itself, so one failing access never hides the rest.
        self._batched = overriding("on_batch")
        per_access = overriding("on_access")
        self._access = tuple(
            t for t in self._tools if t in self._batched or t in per_access
        )
        self.wants_accesses = bool(self._access)
        immediate = any(t.immediate_delivery for t in self._access)
        self._cap = 1 if immediate else BATCH_CAP
        self._data_op = overriding("on_data_op")
        self._kernel = overriding("on_kernel")
        self._allocation = overriding("on_allocation")
        self._sync = overriding("on_sync")
        self._flush = overriding("on_flush")
        self._memcpy = overriding("on_memcpy")

    @property
    def tools(self) -> tuple["Tool", ...]:
        return tuple(self._tools)

    # -- crash isolation ---------------------------------------------------

    def _tool_error(self, tool: "Tool", handler: str, exc: BaseException) -> None:
        """Contain one handler failure: record it, file a TOOL_ERROR finding."""
        if self.strict:
            raise exc
        tool_name = getattr(tool, "name", type(tool).__name__)
        telemetry = self._telemetry
        if telemetry is not None:
            telemetry.count(f"bus.tool_errors.{tool_name}.{handler}")
        self.errors.append(
            ToolErrorRecord(
                tool=tool_name,
                handler=handler,
                error=f"{type(exc).__name__}: {exc}",
            )
        )
        from ..tools.findings import Finding, FindingKind  # cold path

        try:
            tool.report(
                Finding(
                    tool=getattr(tool, "name", type(tool).__name__),
                    kind=FindingKind.TOOL_ERROR,
                    message=(
                        f"{handler} raised {type(exc).__name__}: {exc} "
                        "(handler isolated; analysis state may be degraded)"
                    ),
                    variable=handler,
                )
            )
        except Exception:  # the tool is too broken even to report on
            pass

    # -- dispatch -----------------------------------------------------------

    def _publish_instrumented(
        self,
        telemetry: "Telemetry",
        tools: tuple["Tool", ...],
        handler: str,
        event,
    ) -> None:
        """Telemetry-enabled fan-out: one ``bus`` span per tool handler."""
        telemetry.count(f"bus.events.{handler}")
        tid = getattr(event, "thread_id", 0)
        for tool in tools:
            name = getattr(tool, "name", type(tool).__name__)
            with telemetry.span("bus", f"{name}.{handler}", tid=tid):
                try:
                    getattr(tool, handler)(event)
                except Exception as exc:
                    self._tool_error(tool, handler, exc)

    def intern_lane(self, slot: LaneSlot) -> int:
        """Add ``(device, thread, base, itemsize, stack)`` to the slot
        table; returns its read code at offset 0, valid until
        :attr:`lane_epoch` moves."""
        slots = self._lane_slots
        slots.append(slot)
        return lane_code(len(slots) - 1)

    def invalidate_lanes(self) -> None:
        """Make every interned lane stale (a thread or source change)."""
        self.lane_epoch += 1

    def publish_access(self, access: Pending) -> None:
        pending = self._batch_pending
        pending.append(access)
        if len(pending) >= self._cap:
            self.flush_batch()

    def _deliver_each(self, tool: "Tool", accesses: list[Access]) -> None:
        """Per-access delivery with per-access crash isolation."""
        on_access = tool.on_access
        for access in accesses:
            try:
                on_access(access)
            except Exception as exc:
                self._tool_error(tool, "on_access", exc)

    def flush_batch(self) -> None:
        """Deliver the pending accesses to every access-subscribing tool.

        A no-op when nothing is pending, so callers can invoke it
        unconditionally at ordering barriers.  Tools that vectorize get one
        :class:`EventBatch` through ``on_batch``, whatever its size; every
        other tool gets ``on_access`` once per access.
        """
        pending = self._batch_pending
        if not pending:
            return
        self._batch_pending = []
        slots = self._lane_slots
        if slots:
            self._lane_slots = []
            self.lane_epoch += 1
        telemetry = self._telemetry
        if telemetry is not None:
            telemetry.count("bus.batches")
            telemetry.count("bus.events.on_access", len(pending))
            telemetry.count("bus.access_fanout", len(pending) * len(self._access))
        batch = EventBatch(pending, slots)
        if self.profiler is not None:
            self.profiler.batch_events(batch, self._access)
        batched = self._batched
        for tool in self._access:
            if tool not in batched:
                self._deliver_each(tool, batch.rows())
                continue
            try:
                tool.on_batch(batch)
            except Exception as exc:
                self._tool_error(tool, "on_batch", exc)

    def publish_data_op(self, op: DataOp) -> None:
        if self._batch_pending:
            self.flush_batch()
        self.variables.observe(op)
        if self.chaos is not None:
            for event in self.chaos.perturb_data_op(op):
                self._fan_out_data_op(event)
        else:
            self._fan_out_data_op(op)

    def _fan_out_data_op(self, op: DataOp) -> None:
        telemetry = self._telemetry
        if telemetry is not None:
            self._publish_instrumented(telemetry, self._data_op, "on_data_op", op)
            return
        for tool in self._data_op:
            try:
                tool.on_data_op(op)
            except Exception as exc:
                self._tool_error(tool, "on_data_op", exc)

    def flush_chaos(self) -> None:
        """Deliver any chaos-held (reordered) data op at end of run."""
        if self._batch_pending:
            self.flush_batch()
        if self.chaos is None:
            return
        for event in self.chaos.drain():
            self._fan_out_data_op(event)

    def publish_kernel(self, event: KernelEvent) -> None:
        if self._batch_pending:
            self.flush_batch()
        profiler = self.profiler
        if profiler is not None:
            profiler.kernel_event(
                event.name if event.phase is KernelPhase.BEGIN else "host"
            )
        telemetry = self._telemetry
        if telemetry is not None:
            self._publish_instrumented(telemetry, self._kernel, "on_kernel", event)
            return
        for tool in self._kernel:
            try:
                tool.on_kernel(event)
            except Exception as exc:
                self._tool_error(tool, "on_kernel", exc)

    def publish_allocation(self, event: AllocationEvent) -> None:
        if self._batch_pending:
            self.flush_batch()
        self.variables.observe(event)
        telemetry = self._telemetry
        if telemetry is not None:
            self._publish_instrumented(
                telemetry, self._allocation, "on_allocation", event
            )
            return
        for tool in self._allocation:
            try:
                tool.on_allocation(event)
            except Exception as exc:
                self._tool_error(tool, "on_allocation", exc)

    def publish_sync(self, event: SyncEvent) -> None:
        if self._batch_pending:
            self.flush_batch()
        telemetry = self._telemetry
        if telemetry is not None:
            self._publish_instrumented(telemetry, self._sync, "on_sync", event)
            return
        for tool in self._sync:
            try:
                tool.on_sync(event)
            except Exception as exc:
                self._tool_error(tool, "on_sync", exc)

    def publish_flush(self, event: FlushEvent) -> None:
        if self._batch_pending:
            self.flush_batch()
        telemetry = self._telemetry
        if telemetry is not None:
            self._publish_instrumented(telemetry, self._flush, "on_flush", event)
            return
        for tool in self._flush:
            try:
                tool.on_flush(event)
            except Exception as exc:
                self._tool_error(tool, "on_flush", exc)

    def publish_memcpy(self, event: MemcpyEvent) -> None:
        if self._batch_pending:
            self.flush_batch()
        telemetry = self._telemetry
        if telemetry is not None:
            self._publish_instrumented(telemetry, self._memcpy, "on_memcpy", event)
            return
        for tool in self._memcpy:
            try:
                tool.on_memcpy(event)
            except Exception as exc:
                self._tool_error(tool, "on_memcpy", exc)
