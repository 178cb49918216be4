"""Host-speed calibration: a fixed probe timed next to every timed window.

On a shared host the same code runs at speeds that differ by up to 1.9x
for tens of seconds at a time (a neighbour's load, not this process), so a
run that happens to fall in a slow stretch reads slow from end to end and
no choice of median or minimum inside the run can correct it.  The probe
below does a fixed amount of the kind of work the detector does (Python
objects, dict stores, bisect lookups, small numpy slices) and depends on
nothing in the package, so no change to the program can change it.  It
runs right before and right after each timed window; the window's times
are divided by the probe's slowdown over :data:`NOMINAL_S`, its duration
on an unloaded host, which turns them into times at nominal host speed.

Measured on a 2-vCPU Intel Xeon (2.0 GHz) microVM over 150 s of DRACC
passes: pass times in 7-second chunks ranged over 1.90x raw and over 1.14x
divided by the probe.
"""

from __future__ import annotations

import bisect
from time import perf_counter

import numpy as np

#: The probe's duration at nominal host speed, in seconds.
NOMINAL_S = 0.0035

_KEYS = list(range(0, 40_000, 7))
_BASE = np.arange(4096, dtype=np.float64)


class _Cell:
    __slots__ = ("x", "y")

    def __init__(self, x: int, y: int) -> None:
        self.x = x
        self.y = y


def probe() -> float:
    """Run the fixed probe once; returns its wall seconds."""
    start = perf_counter()
    cells = [_Cell(i, 2 * i) for i in range(6000)]
    table = {}
    for cell in cells:
        table[cell.x] = cell.y + cell.x
    found = 0
    for k in range(0, 6000, 3):
        found += bisect.bisect_left(_KEYS, 5 * k)
    for _ in range(150):
        picked = _BASE[::3] * 2.0
        picked.sum()
        np.nonzero(picked > 100.0)
    return perf_counter() - start


def slowdown(before: float, after: float) -> float:
    """How much slower than nominal the host ran around one window."""
    return (before + after) / 2 / NOMINAL_S
