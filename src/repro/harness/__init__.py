"""Experiment harnesses regenerating the paper's evaluation artifacts."""

from .casestudy import CaseStudyResult, run_case_study
from .chaos import (
    CHAOS_SUITES,
    MAX_EVENT_FAULT_DIVERGENCE,
    run_chaos,
    run_chaos_campaign,
)
from .overhead import (
    CONFIGS,
    LARGE_CONFIGS,
    Measurement,
    OverheadResult,
    bench_payload,
    measure_one,
    render_figures,
    run_bench,
    run_overhead_comparison,
)
from .hybrid import (
    MODES,
    HybridResult,
    HybridRow,
    run_benchmark_hybrid,
    run_hybrid_comparison,
)
from .profile import PROFILE_SUITES, inventory, run_profile
from .report import REPORT_SUITES, run_report
from .synth import (
    SynthMatrixResult,
    SynthProgramRow,
    run_synth_matrix,
    run_synth_program,
)
from .serve import (
    SERVE_BENCH_ARTIFACT,
    SERVE_CHAOS_KINDS,
    SERVE_SUITES,
    run_serve_bench,
    run_serve_chaos,
    run_serve_chaos_campaign,
    run_serve_suite,
)
from .precision import (
    EXPECTED_DETECTIONS,
    TOOL_FACTORIES,
    TOOL_ORDER,
    BenchmarkResult,
    PrecisionResult,
    run_benchmark_under_tools,
    run_precision_comparison,
)
from .tables import render_table

__all__ = [
    "run_precision_comparison",
    "run_benchmark_under_tools",
    "PrecisionResult",
    "BenchmarkResult",
    "TOOL_ORDER",
    "TOOL_FACTORIES",
    "EXPECTED_DETECTIONS",
    "run_overhead_comparison",
    "run_bench",
    "bench_payload",
    "measure_one",
    "render_figures",
    "OverheadResult",
    "Measurement",
    "CONFIGS",
    "LARGE_CONFIGS",
    "run_hybrid_comparison",
    "run_benchmark_hybrid",
    "HybridResult",
    "HybridRow",
    "MODES",
    "run_case_study",
    "CaseStudyResult",
    "run_chaos",
    "run_chaos_campaign",
    "run_profile",
    "run_report",
    "REPORT_SUITES",
    "inventory",
    "PROFILE_SUITES",
    "CHAOS_SUITES",
    "MAX_EVENT_FAULT_DIVERGENCE",
    "run_serve_suite",
    "run_serve_bench",
    "run_serve_chaos",
    "run_serve_chaos_campaign",
    "SERVE_SUITES",
    "SERVE_CHAOS_KINDS",
    "SERVE_BENCH_ARTIFACT",
    "run_synth_matrix",
    "run_synth_program",
    "SynthMatrixResult",
    "SynthProgramRow",
    "render_table",
]
