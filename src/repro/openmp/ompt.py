"""OMPT-style trace recording.

The paper's tooling consumes the OMPT interface; for debugging the
simulation (and for tests asserting on the exact event stream the runtime
produces) :class:`TraceRecorder` is a tool that stores *everything* it
sees, in order, with convenience filters.  It is also the reference answer
to "what would a tool with full OMPT see here?".
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..tools.base import Tool

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..events.records import (
        Access,
        AllocationEvent,
        DataOp,
        FlushEvent,
        KernelEvent,
        MemcpyEvent,
        SyncEvent,
    )


class TraceRecorder(Tool):
    """Records every event published on the bus, in order."""

    name = "trace"

    def __init__(self, *, record_accesses: bool = True) -> None:
        super().__init__()
        self.events: list[object] = []
        self._record_accesses = record_accesses

    def on_access(self, access: "Access") -> None:
        if self._record_accesses:
            self.events.append(access)

    def on_data_op(self, op: "DataOp") -> None:
        self.events.append(op)

    def on_kernel(self, event: "KernelEvent") -> None:
        self.events.append(event)

    def on_allocation(self, event: "AllocationEvent") -> None:
        self.events.append(event)

    def on_sync(self, event: "SyncEvent") -> None:
        self.events.append(event)

    def on_flush(self, event: "FlushEvent") -> None:
        self.events.append(event)

    def on_memcpy(self, event: "MemcpyEvent") -> None:
        self.events.append(event)

    # -- filters -------------------------------------------------------------

    def of_type(self, cls: type) -> list:
        return [e for e in self.events if isinstance(e, cls)]

    def data_ops(self) -> list:
        from ..events.records import DataOp

        return self.of_type(DataOp)

    def accesses(self) -> list:
        from ..events.records import Access

        return self.of_type(Access)

    def kernels(self) -> list:
        from ..events.records import KernelEvent

        return self.of_type(KernelEvent)

    def syncs(self) -> list:
        from ..events.records import SyncEvent

        return self.of_type(SyncEvent)

    def memcpys(self) -> list:
        from ..events.records import MemcpyEvent

        return self.of_type(MemcpyEvent)

    def clear(self) -> None:
        self.events.clear()
