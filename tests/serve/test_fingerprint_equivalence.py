"""Fingerprints do not depend on where, or how observed, a program runs.

Findings are named by the bus's variable index in every run, so the same
program fingerprints identically live in process (no flight recorder),
replayed from its trace (:func:`baseline_fingerprints`), and served at
any shard count — over all 56 DRACC programs and all five tools.
"""

import pytest

from repro.core.detector import Arbalest
from repro.dracc.registry import all_benchmarks
from repro.harness.serve import baseline_fingerprints, record_trace
from repro.openmp.runtime import TargetRuntime
from repro.serve import (
    DEFAULT_TOOLS,
    AnalysisServer,
    LoopbackTransport,
    ServeClient,
    ServerConfig,
)

BENCHMARKS = all_benchmarks()
TOOLS = tuple(DEFAULT_TOOLS)


@pytest.fixture(scope="module")
def traces():
    return {bench.number: record_trace(bench) for bench in BENCHMARKS}


def test_suite_is_the_full_dracc_set():
    assert len(BENCHMARKS) == 56


def test_live_run_without_recorder_matches_baseline(traces):
    mismatched = []
    for bench in BENCHMARKS:
        rt = TargetRuntime(n_devices=2)
        assert rt.machine.bus.recorder is None
        tool = Arbalest().attach(rt.machine)
        bench.run(rt)
        rt.machine.bus.flush_batch()
        live = tuple(sorted(("arbalest", f.fingerprint()) for f in tool.findings))
        if live != baseline_fingerprints(traces[bench.number]):
            mismatched.append(bench.number)
    assert mismatched == []


@pytest.mark.parametrize("n_shards", [1, 4])
def test_served_matches_baseline_with_every_tool(traces, n_shards):
    mismatched = []
    for bench in BENCHMARKS:
        events = traces[bench.number]
        server = AnalysisServer(ServerConfig(n_shards=n_shards, tools=TOOLS))
        client = ServeClient(LoopbackTransport(server), client_id=bench.number)
        result = client.stream(events)
        if result.fingerprints() != baseline_fingerprints(events, TOOLS):
            mismatched.append(bench.number)
    assert mismatched == []
