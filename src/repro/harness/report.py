"""The forensics report harness: DRACC suites under the flight recorder.

``repro report`` runs a DRACC suite with a :class:`FlightRecorder` on the bus
and the requested tools attached, then assembles the deduped findings —
each carrying its provenance timeline and natural-language explanation —
into the ``repro-report/1`` payload that :mod:`repro.forensics.report`
renders as text, JSON-lines, or HTML and that ``repro diff`` compares
across runs.

Every benchmark gets a *fresh* machine and a *fresh* recorder, so one
benchmark's timeline can never bleed into another's and the artifact is a
pure function of (suite, tools, capacity) — byte-identical across runs.
"""

from __future__ import annotations

from typing import Iterable

from ..dracc.registry import (
    DraccBenchmark,
    all_benchmarks,
    buggy_benchmarks,
    clean_benchmarks,
)
from ..forensics import DEFAULT_CAPACITY, FlightRecorder
from ..forensics.report import SCHEMA, build_summary, finding_entry
from ..openmp.runtime import TargetRuntime
from .precision import TOOL_FACTORIES

#: Valid ``--suite`` selections for the report CLI.
REPORT_SUITES = ("buggy", "clean", "all")


def _suite(name: str) -> tuple[DraccBenchmark, ...]:
    if name == "buggy":
        return buggy_benchmarks()
    if name == "clean":
        return clean_benchmarks()
    if name == "all":
        return all_benchmarks()
    raise ValueError(
        f"unknown suite {name!r} (valid choices: {', '.join(REPORT_SUITES)})"
    )


def run_report(
    *,
    suite: str = "buggy",
    tools: Iterable[str] = ("arbalest",),
    capacity: int = DEFAULT_CAPACITY,
    benchmarks: Iterable[DraccBenchmark] | None = None,
) -> dict:
    """Run ``suite`` under the recorder and return the report payload.

    Findings are ordered by (benchmark registry order, requested tool
    order, report order within the tool) — fully deterministic.
    """
    tools = tuple(tools)
    unknown = [t for t in tools if t not in TOOL_FACTORIES]
    if unknown:
        raise ValueError(
            f"unknown tool(s) {', '.join(unknown)} "
            f"(valid choices: {', '.join(sorted(TOOL_FACTORIES))})"
        )
    benches = tuple(benchmarks) if benchmarks is not None else _suite(suite)
    findings: list[dict] = []
    for bench in benches:
        rt = TargetRuntime(n_devices=2)
        rt.machine.bus.recorder = FlightRecorder(capacity)
        attached = {
            name: TOOL_FACTORIES[name]().attach(rt.machine) for name in tools
        }
        bench.run(rt)
        for name in tools:
            for finding, count in attached[name].findings_with_counts():
                findings.append(
                    finding_entry(
                        finding,
                        count,
                        benchmark=bench.number,
                        bench_name=bench.name,
                    )
                )
    header = {
        "record": "header",
        "schema": SCHEMA,
        "suite": suite if benchmarks is None else "custom",
        "tools": list(tools),
        "capacity": capacity,
    }
    return {
        "header": header,
        "findings": findings,
        "summary": build_summary(findings, benchmarks=len(benches)),
    }
