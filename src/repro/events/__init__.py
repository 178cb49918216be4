"""Event layer: instrumentation records, the tool bus, and source stacks."""

from .bus import ToolBus
from .columnar import BATCH_CAP, BatchColumns, EventBatch
from .records import (
    Access,
    AccessOrigin,
    AllocationEvent,
    DataOp,
    DataOpKind,
    FlushEvent,
    KernelEvent,
    KernelPhase,
    MemcpyEvent,
    SyncEvent,
)
from .source import UNKNOWN_LOCATION, SourceLocation, SourceStack
from .trace_io import (
    PartialTrace,
    TraceDecodeError,
    TraceWarning,
    TraceWriter,
    event_from_json,
    event_to_json,
    load_trace,
    read_trace,
    replay,
)

__all__ = [
    "ToolBus",
    "BATCH_CAP",
    "BatchColumns",
    "EventBatch",
    "Access",
    "AccessOrigin",
    "AllocationEvent",
    "DataOp",
    "DataOpKind",
    "FlushEvent",
    "KernelEvent",
    "KernelPhase",
    "MemcpyEvent",
    "SyncEvent",
    "SourceLocation",
    "SourceStack",
    "UNKNOWN_LOCATION",
    "TraceWriter",
    "TraceWarning",
    "TraceDecodeError",
    "PartialTrace",
    "event_to_json",
    "event_from_json",
    "read_trace",
    "load_trace",
    "replay",
]
