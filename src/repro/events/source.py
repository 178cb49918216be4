"""Simulated source locations and call stacks.

Real ARBALEST reports carry the C source stack captured by the sanitizer
runtime (Fig. 7 of the paper shows ``main.c:145:5`` frames).  Our benchmarks
are Python functions standing in for C programs, so they annotate themselves
with the *simulated* source position via :class:`SourceStack` — a context
manager stack owned by the machine.  Every event snapshots the stack when it
is built, accesses included, and tools copy that snapshot into the reports
they file, which is what makes the Fig-7-style output reproducible.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterator


@dataclass(frozen=True, slots=True)
class SourceLocation:
    """One frame: ``function file:line:column``."""

    file: str
    line: int
    column: int = 0
    function: str = "main"

    def __str__(self) -> str:
        col = f":{self.column}" if self.column else ""
        return f"{self.function} {self.file}:{self.line}{col}"


#: Frame used when a benchmark did not annotate the current operation.
UNKNOWN_LOCATION = SourceLocation(file="<unknown>", line=0, function="<unknown>")


class SourceStack:
    """A stack of simulated source frames.

    Pushed frames nest, so a report taken inside nested ``at()`` blocks shows
    the full simulated call chain, innermost first (sanitizer convention).
    ``on_change`` is called after every push and pop.
    """

    def __init__(self, on_change: Callable[[], None] | None = None) -> None:
        self._frames: list[SourceLocation] = []
        # Memoized snapshot(): all accesses between two position changes
        # share one tuple, so capturing the stack of each access costs one
        # method call in the hot loop of a kernel.
        self._snapshot: tuple[SourceLocation, ...] | None = (UNKNOWN_LOCATION,)
        self._on_change = on_change

    @contextmanager
    def at(
        self, file: str, line: int, column: int = 0, function: str = "main"
    ) -> Iterator[SourceLocation]:
        """Enter a simulated source position for the duration of the block."""
        frame = SourceLocation(file=file, line=line, column=column, function=function)
        on_change = self._on_change
        self._frames.append(frame)
        self._snapshot = None
        if on_change is not None:
            on_change()
        try:
            yield frame
        finally:
            self._frames.pop()
            self._snapshot = None
            if on_change is not None:
                on_change()

    @property
    def current(self) -> SourceLocation:
        """The innermost frame, or :data:`UNKNOWN_LOCATION` when empty."""
        return self._frames[-1] if self._frames else UNKNOWN_LOCATION

    def snapshot(self) -> tuple[SourceLocation, ...]:
        """The full stack, innermost first, for embedding into a bug report."""
        snap = self._snapshot
        if snap is None:
            snap = (
                tuple(reversed(self._frames)) if self._frames else (UNKNOWN_LOCATION,)
            )
            self._snapshot = snap
        return snap
