"""The published access rows, pinned by the hash of their trace.

Every access an instrumented view publishes — a row or a lane code — ends
up as one :class:`~repro.events.trace_io.TraceWriter` line, so hashing the
trace of a program pins its rows: address, size, thread, write bit, count,
stride, origin and stack.  A view or batching change that must leave the
rows alone keeps these digests.

The 56 DRACC programs hash in about a second and run with the tier-1
suite.  The five SPEC twins at the ``large`` preset (plus each twin's
checksum, so stored bytes are pinned too) take about a minute a side and
are checked in CI with::

    PYTHONPATH=src python -m tests.events.test_trace_digest large
"""

import hashlib
import io
import sys

from repro.dracc.registry import all_benchmarks
from repro.events.trace_io import TraceWriter
from repro.openmp import TargetRuntime
from repro.specaccel.workloads import WORKLOADS

DRACC_SHA256 = "106ba7267864d6a332bb4a4bc7766549a243599b895ae7b266d18d560dfce8dd"
LARGE_SHA256 = "66eab5dcffec92d6324dd3df19e26fd5a1fe34074359ba0f246d86b0a7632169"
LARGE_LINES = 543_943


def dracc_digest() -> str:
    """sha256 over the traces of all 56 DRACC programs (two devices)."""
    digest = hashlib.sha256()
    for bench in all_benchmarks():
        rt = TargetRuntime(n_devices=2)
        sink = io.StringIO()
        TraceWriter(sink).attach(rt.machine)
        bench.run(rt)
        digest.update(sink.getvalue().encode())
    return digest.hexdigest()


def large_digest() -> tuple[str, int]:
    """sha256 over the five ``large`` twins' traces and checksums, and the
    number of trace lines."""
    digest, lines = hashlib.sha256(), 0
    for twin in WORKLOADS:
        rt = TargetRuntime(n_devices=1)
        sink = io.StringIO()
        TraceWriter(sink).attach(rt.machine)
        checksum = repr(twin.run(rt, "large"))
        rt.finalize()
        lines += sink.getvalue().count("\n")
        digest.update(sink.getvalue().encode())
        digest.update(checksum.encode())
    return digest.hexdigest(), lines


def test_dracc_trace_digest():
    assert dracc_digest() == DRACC_SHA256


if __name__ == "__main__":
    if sys.argv[1:] == ["large"]:
        got, expected = large_digest(), (LARGE_SHA256, LARGE_LINES)
    else:
        got, expected = dracc_digest(), DRACC_SHA256
    print(got)
    if got != expected:
        sys.exit(f"trace digest drifted: expected {expected}")
