"""The serve harness: equivalence suite, bench artifact, chaos campaign."""

import json

import pytest

from repro.dracc import get
from repro.faults.plan import FaultPlan
from repro.harness.serve import (
    SERVE_BENCH_PASSES,
    SERVE_CHAOS_KINDS,
    baseline_fingerprints,
    record_trace,
    run_serve_bench,
    run_serve_chaos_campaign,
    run_serve_suite,
)

#: Two quick benchmarks with very different finding shapes: 18 (stale
#: data) and 23 (buffer overflow with multi-variable attribution).
SUBSET = (get(18), get(23))


class TestServeSuite:
    def test_subset_suite_holds_the_guarantee(self):
        payload = run_serve_suite(benchmarks=SUBSET, n_shards=2)
        assert payload["ok"]
        assert payload["benchmarks"] == 2
        for session in payload["sessions"]:
            assert session["verdict"]["ok"]
            assert session["verdict"]["dropped"] == []
            assert session["verdict"]["unexpected"] == []

    def test_embedded_report_matches_the_live_golden_path(self):
        """Served findings fingerprint identically to a live recorded run.

        Both paths name findings through a bus variable index fed from
        the same events; the live one runs under a flight recorder (as
        ``repro report`` does), the served one without.  If they ever
        drift, `repro diff` against the golden report regresses — this
        is the unit-sized version.
        """
        from repro.forensics.recorder import FlightRecorder
        from repro.harness.precision import TOOL_FACTORIES
        from repro.openmp.runtime import TargetRuntime

        bench = get(23)
        rt = TargetRuntime(n_devices=2)
        rt.machine.bus.recorder = FlightRecorder()
        tool = TOOL_FACTORIES["arbalest"]().attach(rt.machine)
        bench.run(rt)
        live = sorted(
            (f.fingerprint(), f.variable) for f in tool.findings
        )

        payload = run_serve_suite(benchmarks=(bench,), n_shards=4)
        served = sorted(
            (f["fingerprint"], f["variable"])
            for f in payload["report"]["findings"]
        )
        assert served == live
        assert all(variable for _fp, variable in served)

    def test_suite_names_are_validated(self):
        with pytest.raises(ValueError, match="unknown suite"):
            run_serve_suite(suite="everything")


class TestServeBench:
    def test_artifact_shape_and_gatekeeping(self, tmp_path):
        out = tmp_path / "BENCH_serve.json"
        payload = run_serve_bench(
            suite="buggy", benchmarks=SUBSET, output=str(out)
        )
        assert payload["artifact"] == "serve-bench/1"
        assert payload["delivery_ok"]
        summary = payload["summary"]
        assert summary["events_per_sec"] > 0
        assert (
            summary["p50_frame_latency_us"]
            <= summary["p99_frame_latency_us"]
            <= summary["max_frame_latency_us"]
        )
        # The median of a fixed number of passes, with their range.
        assert payload["passes"] == SERVE_BENCH_PASSES
        low, high = summary["events_per_sec_range"]
        assert low <= summary["events_per_sec"] <= high
        low, high = summary["p99_frame_latency_us_range"]
        assert low <= summary["p99_frame_latency_us"] <= high
        on_disk = json.loads(out.read_text())
        assert on_disk == payload


class TestServeChaos:
    def test_campaign_certifies(self):
        payload = run_serve_chaos_campaign(
            schedules=1,
            faults_per_schedule=4,
            n_shards=2,
            benchmarks=SUBSET,
        )
        assert payload["ok"], payload["fingerprint_mismatches"]
        assert payload["crashes"] == []
        assert payload["runs"] == 2
        assert payload["injected_total"] == 8
        assert set(payload["injected_faults"]) <= {
            k.value for k in SERVE_CHAOS_KINDS
        }
        injected = payload["injected_faults"]
        assert payload["worker_kills_triggered"] == injected.get("worker-kill", 0)
        assert payload["frame_faults_triggered"] == sum(
            n for kind, n in injected.items() if kind.startswith("frame-")
        )

    def test_campaign_is_seed_reproducible(self):
        kwargs = dict(
            schedules=1, faults_per_schedule=3, n_shards=2, benchmarks=SUBSET
        )
        a = run_serve_chaos_campaign(seed=42, **kwargs)
        b = run_serve_chaos_campaign(seed=42, **kwargs)
        assert a["schedule_log"] == b["schedule_log"]
        assert a["retransmits"] == b["retransmits"]

    def test_different_seeds_draw_different_schedules(self):
        kwargs = dict(
            schedules=1, faults_per_schedule=6, n_shards=2, benchmarks=SUBSET
        )
        a = run_serve_chaos_campaign(seed=1, **kwargs)
        b = run_serve_chaos_campaign(seed=2, **kwargs)
        assert a["schedule_log"] != b["schedule_log"]


class TestServePlan:
    @pytest.mark.parametrize("frames", [3, 4, 7, 37])
    def test_frame_faults_land_on_first_pass_sends(self, frames):
        from repro.faults.plan import FaultKind
        from repro.harness.serve import _serve_plan

        holds = (FaultKind.FRAME_DROP, FaultKind.FRAME_REORDER)
        for seed in range(40):
            plan = _serve_plan(seed, 6, frames, 8)
            at = {
                f.index: f.kind
                for f in plan.faults
                if f.kind is not FaultKind.WORKER_KILL
            }
            assert len(at) == len(plan.faults) - len(
                plan.by_kind(FaultKind.WORKER_KILL)
            ), "two frame faults share a send"
            assert all(1 <= index <= frames for index in at)
            for index, kind in at.items():
                if kind is FaultKind.FRAME_REORDER:
                    assert at.get(index - 1) not in holds


    @pytest.mark.parametrize("attempts", [0, 1, 2, 4, 9, 200])
    def test_worker_kills_land_on_clean_attempts(self, attempts):
        from repro.faults.plan import FaultKind
        from repro.harness.serve import _serve_plan

        drawn = 0
        for seed in range(40):
            planned = FaultPlan.generate(seed, n_faults=6, kinds=SERVE_CHAOS_KINDS)
            kills = _serve_plan(seed, 6, 5, attempts).by_kind(FaultKind.WORKER_KILL)
            indices = [fault.index for fault in kills]
            assert len(set(indices)) == len(indices), "two kills share an attempt"
            assert all(0 <= index < attempts for index in indices)
            assert len(kills) == min(
                attempts, len(planned.by_kind(FaultKind.WORKER_KILL))
            )
            drawn += len(kills)
        assert drawn or attempts == 0


class TestBaseline:
    def test_baseline_is_stable_across_calls(self):
        events = record_trace(get(23))
        assert baseline_fingerprints(events) == baseline_fingerprints(events)
