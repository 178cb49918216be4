"""The event schema's two encodings, pinned byte for byte.

One record of each of the seven kinds — non-default values, every enum
as a non-default member, a multi-frame stack, and a :class:`FlushEvent`,
which no DRACC trace emits — is stored twice: as its
:class:`~repro.events.trace_io.TraceWriter` JSON lines and as one
:func:`~repro.events.codec.encode_events` row table (binary: the
accesses as columns, the other kinds and the stack table in its JSON
tail).  Any change to a key, a field order, an enum encoding, a column
width or the stack layout shows up here.

To regenerate after an intended format change::

    PYTHONPATH=src python -m tests.events.test_schema_golden
"""

import io
import pathlib

from repro.events import (
    Access,
    AccessOrigin,
    AllocationEvent,
    DataOp,
    DataOpKind,
    FlushEvent,
    KernelEvent,
    KernelPhase,
    MemcpyEvent,
    SourceLocation,
    SyncEvent,
)
from repro.events.codec import decode_events, encode_events
from repro.events.trace_io import TraceWriter, read_trace

HERE = pathlib.Path(__file__).resolve().parent
GOLDEN_TRACE = HERE / "golden_events.jsonl"
GOLDEN_PAYLOAD = HERE / "golden_events_payload.bin"

KERNEL_STACK = (
    SourceLocation("stencil.c", 88, 13, "sweep"),
    SourceLocation("stencil.c", 140, 5, "run_steps"),
    SourceLocation("main.c", 21, 3, "main"),
)
HOST_STACK = (
    SourceLocation("main.c", 17, 9, "setup"),
    SourceLocation("main.c", 20, 3, "main"),
)

RECORDS = [
    Access(
        device_id=1,
        thread_id=3,
        address=(1 << 33) + 16,
        size=4,
        is_write=True,
        count=16,
        stride=12,
        origin=AccessOrigin.TRANSFER,
        stack=KERNEL_STACK,
    ),
    DataOp(
        kind=DataOpKind.D2H,
        device_id=2,
        thread_id=1,
        ov_address=1 << 32,
        cv_address=(1 << 33) + 4096,
        nbytes=256,
        stack=HOST_STACK,
    ),
    MemcpyEvent(
        device_id=0,
        thread_id=2,
        dst_device=1,
        dst_address=(1 << 33) + 4096,
        src_device=0,
        src_address=(1 << 32) + 8,
        nbytes=64,
        stack=HOST_STACK,
    ),
    KernelEvent(
        phase=KernelPhase.END,
        task_id=9,
        device_id=1,
        thread_id=2,
        nowait=True,
        name="sweep",
        stack=KERNEL_STACK,
    ),
    AllocationEvent(
        device_id=1,
        thread_id=4,
        address=(1 << 33) + 8192,
        nbytes=4096,
        is_free=True,
        storage="global",
        label="coeff",
        stack=HOST_STACK,
    ),
    SyncEvent(kind="depend", source_task=3, target_task=5, thread_id=2),
    FlushEvent(device_id=1, thread_id=2, address=(1 << 33) + 32, nbytes=48),
]


def trace_text() -> str:
    sink = io.StringIO()
    writer = TraceWriter(sink)
    for record in RECORDS:
        writer._emit(record)
    return sink.getvalue()


def test_trace_lines_match_the_golden():
    assert trace_text().encode("utf-8") == GOLDEN_TRACE.read_bytes()


def test_row_payload_matches_the_golden():
    assert encode_events(RECORDS) == GOLDEN_PAYLOAD.read_bytes()


def test_goldens_decode_to_the_records():
    with GOLDEN_TRACE.open() as source:
        assert list(read_trace(source, strict=True)) == RECORDS
    assert decode_events(GOLDEN_PAYLOAD.read_bytes()) == RECORDS


if __name__ == "__main__":
    GOLDEN_TRACE.write_bytes(trace_text().encode("utf-8"))
    GOLDEN_PAYLOAD.write_bytes(encode_events(RECORDS))
