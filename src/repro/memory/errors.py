"""Exception taxonomy for the simulated machine.

Every error raised by the runtime or by an analysis tool derives from
:class:`ReproError`, so callers can catch the whole family with one clause.
The hierarchy mirrors the fault classes the paper's evaluation talks about
(Table III column 2): use of uninitialized memory, buffer overflow, use of
stale data, plus the runtime-level faults (bad frees, double maps, ...) that
the simulated OpenMP runtime itself can raise.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by this library."""


class MemoryError_(ReproError):
    """Base class for address-space level faults."""


class OutOfMemoryError(MemoryError_):
    """The allocator could not satisfy a request."""


class InvalidFreeError(MemoryError_):
    """``free`` was called with an address that is not a live allocation base."""


class OutOfBoundsError(MemoryError_):
    """An access touched bytes outside any live allocation."""

    def __init__(self, address: int, size: int, message: str | None = None):
        self.address = address
        self.size = size
        super().__init__(
            message
            or f"access of {size} byte(s) at {address:#x} is outside any live allocation"
        )


class MisalignedAccessError(MemoryError_):
    """An access violated the alignment its caller promised."""


class RuntimeSemanticsError(ReproError):
    """Base class for misuse of the simulated OpenMP runtime API."""


class MappingError(RuntimeSemanticsError):
    """A map clause refers to storage that cannot be mapped (e.g. freed)."""


class NotMappedError(RuntimeSemanticsError):
    """A kernel touched a variable that has no corresponding variable (CV)."""


class DeviceError(RuntimeSemanticsError):
    """An operation referenced an unknown or unavailable device."""


class TransferError(DeviceError):
    """An OV↔CV transfer failed even after the runtime's retry budget."""


class TaskGraphError(RuntimeSemanticsError):
    """Malformed task dependence usage (e.g. waiting on a foreign task)."""


class ToolError(ReproError):
    """Base class for errors raised by analysis tools themselves."""


class ShadowEncodingError(ToolError):
    """A shadow word failed to round-trip through its packed encoding."""


class CertificationError(ToolError):
    """Theorem-1 certification was asked of an ineligible program."""
