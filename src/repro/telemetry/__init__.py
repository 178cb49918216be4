"""Telemetry: deterministic metrics and pipeline spans.

See :mod:`repro.telemetry.registry` for the metric/span registry and the
scoping rules; :func:`repro.observe.spans.write_stitched_trace` writes the
registry's span log as Chrome Trace Event JSON.
"""

from .registry import Histogram, Telemetry, scope

# NOTE: the live enabled/disabled switch is ``registry.ACTIVE``, the one
# module-level instrumentation hook (the flight recorder and the profiler
# ride on the ToolBus instead).  Read it through the module (``from
# repro.telemetry import registry``), never as a from-import, which would
# freeze the value at import time.

__all__ = ["Telemetry", "Histogram", "scope"]
