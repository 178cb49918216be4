"""Finding forensics: flight recorder, provenance, reports, and diffing.

Only the recorder is imported eagerly — :mod:`repro.tools.base` loads this
package on the instrumented path, and the recorder depends on nothing but
the event/source and telemetry layers.  The provenance/report/diff modules
import the tools layer and are loaded lazily on first attribute access.
"""

from .recorder import (
    ACTIVE,
    DEFAULT_CAPACITY,
    FlightRecorder,
    RecordedEvent,
    VariableRing,
    scope,
)

__all__ = [
    "ACTIVE",
    "DEFAULT_CAPACITY",
    "FlightRecorder",
    "RecordedEvent",
    "VariableRing",
    "scope",
    "Provenance",
    "build_provenance",
    "explain",
    "DeliveryLedger",
]

_LAZY = {
    "Provenance": "provenance",
    "build_provenance": "provenance",
    "explain": "provenance",
    "DeliveryLedger": "ledger",
}


def __getattr__(name: str):
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    module = importlib.import_module(f".{module_name}", __name__)
    return getattr(module, name)
