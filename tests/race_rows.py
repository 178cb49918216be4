"""One access as a one-row race check, for the race-engine tests.

:meth:`~repro.tools.archer.RaceEngine.check_batch` is the engine's one
entry point.  :func:`check_row` hands it a single access as the one-row
sequence a batch of one passes and returns the ``races`` entries that
check recorded, one per racy granule, so a test can assert which
granules raced as well as whether the access did.
:func:`vectorized` sends every run, however short, through the
vectorized kernels instead of the row-at-a-time path short runs take.
"""

from contextlib import contextmanager
from unittest import mock

from repro.events import columnar
from repro.events.records import Access
from repro.tools import archer


def check_row(
    engine, device: int, tid: int, address: int, size: int, is_write: bool,
    count: int = 1, stride: int = 0,
) -> list[dict]:
    """Check one access (``Access`` field order); return its new races."""
    before = len(engine.races)
    racy = engine.check_batch([Access(device, tid, address, size, is_write, count, stride)])
    recorded = engine.races[before:]
    assert racy == ([0] if recorded else []), (racy, recorded)
    return recorded


@contextmanager
def vectorized():
    """Context manager: no run is short enough for the plain-int path,
    and every pass of two rows or more is checked vectorized (a pass of
    one row still replays, so both halves of a run's walk are used)."""
    with mock.patch.object(archer, "_PLAIN_ROWS", 0), mock.patch.object(
        columnar, "PASS_ROWS", 2
    ):
        yield
