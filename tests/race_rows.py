"""One access as a one-row race check, for the race-engine tests.

:meth:`~repro.tools.archer.RaceEngine.check_batch` is the engine's one
entry point.  :func:`check_row` hands it a single access and returns the
``races`` entries that check recorded, one per racy granule, so a test
can assert which granules raced as well as whether the access did.
:func:`vectorized` sends every run, however short, through the
vectorized kernels instead of the row-at-a-time path short runs take.
"""

from unittest import mock

from repro.events.columnar import BatchColumns
from repro.events.records import Access
from repro.tools import archer


def check_row(
    engine, device: int, tid: int, address: int, size: int, is_write: bool,
    count: int = 1, stride: int = 0,
) -> list[dict]:
    """Check one access (``Access`` field order); return its new races."""
    before = len(engine.races)
    racy = engine.check_batch(
        BatchColumns([Access(device, tid, address, size, is_write, count, stride)])
    )
    recorded = engine.races[before:]
    assert racy == ([0] if recorded else []), (racy, recorded)
    return recorded


def vectorized():
    """Context manager: no run is short enough for the plain-int path."""
    return mock.patch.object(archer, "_PLAIN_ROWS", 0)
