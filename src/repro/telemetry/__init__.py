"""Telemetry: deterministic metrics and pipeline spans.

See :mod:`repro.telemetry.registry` for the metric/span registry and the
scoping rules; :func:`repro.observe.spans.write_stitched_trace` writes the
registry's span log as Chrome Trace Event JSON.
"""

from .registry import Histogram, Telemetry

# NOTE: a registry instruments a run by riding on its ToolBus
# (``machine.bus.telemetry``), like the flight recorder and the profiler;
# there is no module-level switch.

__all__ = ["Telemetry", "Histogram"]
