"""Cross-run diffing: classification, thresholds, artifact sniffing."""

import json

import pytest

from repro.forensics.diff import (
    diff_artifacts,
    diff_bench,
    diff_reports,
    diff_serve_bench,
    load_artifact,
    render_diff,
)
from repro.forensics.report import SCHEMA, to_jsonl, write_report


def _finding(fp: str, *, bench: int = 22, count: int = 1) -> dict:
    return {
        "record": "finding",
        "benchmark": bench,
        "bench_name": f"DRACC_OMP_{bench:03d}",
        "tool": "arbalest",
        "kind": "use-of-uninitialized-memory",
        "variable": "b",
        "fingerprint": fp,
        "location": "DRACC_OMP_022.c:16",
        "message": "m",
        "count": count,
        "dropped": 0,
        "explanation": "",
        "events": [],
    }


def _report(*findings: dict) -> dict:
    return {
        "header": {
            "record": "header",
            "schema": SCHEMA,
            "suite": "buggy",
            "tools": ["arbalest"],
            "capacity": 64,
        },
        "findings": list(findings),
        "summary": {"record": "summary"},
    }


def _bench(geomean: float) -> dict:
    return {
        "workloads": {
            "pcg": {"arbalest": {"slowdown": geomean, "seconds": 1.0}}
        },
        "summary": {
            "arbalest_slowdown_geomean": geomean,
            "arbalest_slowdown_max": geomean,
            "preset": "train",  # non-numeric values are skipped
        },
    }


class TestReportDiff:
    def test_identical_reports_are_clean(self):
        r = _report(_finding("aaa"))
        d = diff_reports(r, r)
        assert (d["new"], d["fixed"], d["changed"]) == ([], [], [])
        assert not d["regression"]

    def test_new_finding_is_a_regression(self):
        d = diff_reports(_report(), _report(_finding("aaa")))
        assert [f["fingerprint"] for f in d["new"]] == ["aaa"]
        assert d["regression"]

    def test_fixed_finding_is_not_a_regression(self):
        d = diff_reports(_report(_finding("aaa")), _report())
        assert [f["fingerprint"] for f in d["fixed"]] == ["aaa"]
        assert not d["regression"]

    def test_count_drift_is_changed_not_regression(self):
        d = diff_reports(
            _report(_finding("aaa", count=1)),
            _report(_finding("aaa", count=7)),
        )
        assert d["changed"][0]["new"]["count"] == 7
        assert not d["regression"]

    def test_same_fingerprint_on_other_benchmark_is_new(self):
        d = diff_reports(
            _report(_finding("aaa", bench=22)),
            _report(_finding("aaa", bench=22), _finding("aaa", bench=24)),
        )
        assert [f["benchmark"] for f in d["new"]] == [24]


class TestBenchDiff:
    def test_within_threshold_is_clean(self):
        d = diff_bench(_bench(2.0), _bench(2.08))  # +4% < 5%
        assert not d["regression"]

    def test_growth_past_threshold_regresses(self):
        d = diff_bench(_bench(2.0), _bench(2.2))  # +10%
        assert d["regressions"] == ["arbalest_slowdown_geomean"]
        assert d["regression"]

    def test_threshold_is_adjustable(self):
        assert diff_bench(_bench(2.0), _bench(2.2), threshold=0.2)[
            "regression"
        ] is False

    def test_improvement_never_regresses(self):
        assert not diff_bench(_bench(2.0), _bench(1.5))["regression"]

    def test_workload_deltas_reported(self):
        d = diff_bench(_bench(2.0), _bench(2.2))
        assert d["workloads"]["pcg"]["rel"] == pytest.approx(0.1)


class TestArtifacts:
    def test_sniffs_report_and_bench(self, tmp_path):
        report_path = str(tmp_path / "r.jsonl")
        write_report(_report(_finding("aaa")), report_path)
        bench_path = str(tmp_path / "b.json")
        with open(bench_path, "w") as fh:
            json.dump(_bench(2.0), fh, indent=2)
        assert load_artifact(report_path)[0] == "report"
        assert load_artifact(bench_path)[0] == "bench"

    def test_type_mismatch_raises(self, tmp_path):
        report_path = str(tmp_path / "r.jsonl")
        write_report(_report(), report_path)
        bench_path = str(tmp_path / "b.json")
        with open(bench_path, "w") as fh:
            json.dump(_bench(2.0), fh)
        with pytest.raises(ValueError, match="cannot diff"):
            diff_artifacts(report_path, bench_path)

    def test_unrecognized_json_raises(self, tmp_path):
        path = str(tmp_path / "x.json")
        with open(path, "w") as fh:
            json.dump({"neither": True}, fh)
        with pytest.raises(ValueError, match="neither a bench artifact"):
            load_artifact(path)


class TestRendering:
    def test_render_marks_each_class(self):
        text = render_diff(
            diff_reports(
                _report(_finding("old"), _finding("both", count=1)),
                _report(_finding("fresh"), _finding("both", count=3)),
            )
        )
        assert "NEW" in text and "FIXED" in text and "CHANGED" in text
        assert text.rstrip().endswith("regression")

    def test_render_clean_bench(self):
        text = render_diff(diff_bench(_bench(2.0), _bench(2.0)))
        assert "within threshold" in text
        assert text.rstrip().endswith("clean")

    def test_jsonl_of_synthetic_report_parses(self):
        # The fixtures here stay honest against the real format.
        from repro.forensics.report import parse_jsonl

        parsed = parse_jsonl(to_jsonl(_report(_finding("aaa"))))
        assert parsed["findings"][0]["fingerprint"] == "aaa"


def _serve_bench(
    events_per_sec: float,
    p99: float = 200.0,
    *,
    delivery_ok: bool = True,
) -> dict:
    return {
        "artifact": "serve-bench/1",
        "suite": "buggy",
        "delivery_ok": delivery_ok,
        "summary": {
            "events_per_sec": events_per_sec,
            "p50_frame_latency_us": 30.0,
            "p99_frame_latency_us": p99,
            "max_frame_latency_us": p99 * 4,
        },
    }


class TestServeBenchDiff:
    def test_within_threshold_is_clean(self):
        d = diff_serve_bench(_serve_bench(10000.0), _serve_bench(9800.0))
        assert not d["regression"]

    def test_throughput_drop_past_threshold_regresses(self):
        d = diff_serve_bench(_serve_bench(10000.0), _serve_bench(9000.0))
        assert d["regressions"] == ["events_per_sec"]
        assert d["regression"]

    def test_throughput_gain_never_regresses(self):
        d = diff_serve_bench(_serve_bench(10000.0), _serve_bench(20000.0))
        assert not d["regression"]

    def test_p99_growth_regresses_but_p50_does_not(self):
        old = _serve_bench(10000.0, p99=100.0)
        new = _serve_bench(10000.0, p99=150.0)
        new["summary"]["p50_frame_latency_us"] = 90.0  # p50 noise: ignored
        d = diff_serve_bench(old, new)
        assert d["regressions"] == ["p99_frame_latency_us"]

    def test_delivery_failure_regresses_at_any_speed(self):
        d = diff_serve_bench(
            _serve_bench(10000.0), _serve_bench(99999.0, delivery_ok=False)
        )
        assert "delivery_ok" in d["regressions"]
        assert d["regression"]

    def test_legacy_engine_field_is_ignored(self):
        legacy = dict(_serve_bench(10000.0), engine="scalar")
        d = diff_serve_bench(legacy, _serve_bench(10000.0))
        assert not d["regression"]
        assert "engine" not in d

    def test_threshold_is_adjustable(self):
        old, new = _serve_bench(10000.0), _serve_bench(9800.0)
        assert diff_serve_bench(old, new, threshold=0.01)["regression"]

    def test_sniffed_and_dispatched_from_files(self, tmp_path):
        old_path = tmp_path / "old.json"
        new_path = tmp_path / "new.json"
        old_path.write_text(json.dumps(_serve_bench(10000.0)))
        new_path.write_text(json.dumps(_serve_bench(9000.0)))
        assert load_artifact(str(old_path))[0] == "serve-bench"
        d = diff_artifacts(str(old_path), str(new_path))
        assert d["type"] == "serve-bench"
        assert d["regression"]

    def test_serve_bench_never_diffs_against_report(self, tmp_path):
        bench_path = tmp_path / "bench.json"
        report_path = tmp_path / "report.jsonl"
        bench_path.write_text(json.dumps(_serve_bench(10000.0)))
        write_report(_report(_finding("aaa")), str(report_path))
        with pytest.raises(ValueError, match="cannot diff"):
            diff_artifacts(str(bench_path), str(report_path))

    def test_render_marks_serve_regressions(self):
        d = diff_serve_bench(_serve_bench(10000.0), _serve_bench(9000.0))
        text = render_diff(d)
        assert "events_per_sec" in text
        assert "REGRESSION" in text
        assert text.rstrip().endswith("regression")

    def test_render_names_lost_findings(self):
        d = diff_serve_bench(
            _serve_bench(10000.0), _serve_bench(10000.0, delivery_ok=False)
        )
        assert "findings were lost" in render_diff(d)


def _observed_bench(
    events_per_sec: float = 10000.0,
    *,
    slos: list | None = None,
    burning: list | None = None,
    **counters,
) -> dict:
    bench = _serve_bench(events_per_sec)
    bench["observability"] = {
        "enabled": True,
        "slos": slos
        if slos is not None
        else [{"name": "redelivery-rate", "metric": "redelivery_rate", "threshold": 0.25}],
        "watchdog": {
            "evaluations": 8,
            "burn_events": counters.pop("burn_events", 0),
            "clear_events": counters.pop("clear_events", 0),
            "burning": burning or [],
        },
        "redeliveries": counters.pop("redeliveries", 0),
        "wire_decode_errors": counters.pop("wire_decode_errors", 0),
        "journal_replay_errors": counters.pop("journal_replay_errors", 0),
        "worker_restarts": counters.pop("worker_restarts", 0),
    }
    assert not counters, f"unknown counters: {counters}"
    return bench


class TestServeBenchObservabilityDiff:
    def test_matching_slos_and_clean_watchdog_stay_clean(self):
        d = diff_serve_bench(_observed_bench(), _observed_bench(9900.0))
        assert not d["regression"]
        assert d["observability"]["redeliveries"] == {"old": 0, "new": 0, "delta": 0}

    def test_differing_slo_specs_refuse_to_compare(self):
        other = [{"name": "queue-occupancy", "metric": "queue_occupancy", "threshold": 0.9}]
        with pytest.raises(ValueError, match="different SLO specs"):
            diff_serve_bench(_observed_bench(), _observed_bench(slos=other))

    def test_burning_candidate_regresses_at_any_speed(self):
        d = diff_serve_bench(
            _observed_bench(),
            _observed_bench(99999.0, burning=["redelivery-rate"], burn_events=3),
        )
        assert "slo_burning" in d["regressions"]
        assert d["burning"] == ["redelivery-rate"]
        assert "redelivery-rate" in render_diff(d)

    def test_burning_baseline_does_not_gate_the_candidate(self):
        d = diff_serve_bench(
            _observed_bench(burning=["redelivery-rate"], burn_events=1),
            _observed_bench(),
        )
        assert not d["regression"]

    def test_error_counter_deltas_are_reported_not_gated(self):
        d = diff_serve_bench(
            _observed_bench(),
            _observed_bench(wire_decode_errors=4, worker_restarts=2),
        )
        assert not d["regression"]
        assert d["observability"]["wire_decode_errors"]["delta"] == 4
        assert d["observability"]["worker_restarts"]["delta"] == 2
        assert "wire_decode_errors: 0 -> 4 (+4)" in render_diff(d)

    def test_legacy_artifact_without_observability_still_diffs(self):
        d = diff_serve_bench(_observed_bench(), _serve_bench(9900.0))
        assert not d["regression"]
        assert d["observability"] == {}


def _matrix_bench(cells: dict) -> dict:
    """A bench artifact with per-workload arbalest slowdowns ``cells`` and
    the matching geomean summary."""
    geo = 1.0
    for value in cells.values():
        geo *= value
    geo **= 1 / len(cells)
    return {
        "workloads": {
            w: {"arbalest": {"slowdown": v}} for w, v in cells.items()
        },
        "summary": {"arbalest_slowdown_geomean": geo},
    }


class TestContributorAttribution:
    BASE = {"pcg": 2.0, "pep": 1.5, "polbm": 1.2, "pomriq": 2.1}

    def test_regressed_geomean_names_its_top_contributors(self):
        new = dict(self.BASE, pcg=2.0 * 1.4, pep=1.5 * 1.1)
        d = diff_bench(_matrix_bench(self.BASE), _matrix_bench(new))
        assert d["regression"]
        top = d["contributors"]["arbalest_slowdown_geomean"]
        assert [c["workload"] for c in top[:2]] == ["pcg", "pep"]
        assert top[0]["config"] == "arbalest"
        assert top[0]["rel"] == pytest.approx(0.4, abs=1e-3)
        assert len(top) <= 3

    def test_contributors_render_under_the_regression_line(self):
        new = dict(self.BASE, pcg=2.0 * 1.4)
        text = render_diff(
            diff_bench(_matrix_bench(self.BASE), _matrix_bench(new))
        )
        assert "driven by pcg [arbalest]" in text

    def test_clean_diff_has_no_contributors(self):
        d = diff_bench(_matrix_bench(self.BASE), _matrix_bench(self.BASE))
        assert d["contributors"] == {}


class TestCalibratedThresholds:
    def test_per_key_thresholds_override_the_flat_gate(self):
        old, new = _bench(2.0), _bench(2.08)  # +4%: clean at the flat 5%
        assert not diff_bench(old, new)["regression"]
        tight = diff_bench(
            old, new, thresholds={"arbalest_slowdown_geomean": 0.02}
        )
        assert tight["regression"]
        assert tight["deltas"]["arbalest_slowdown_geomean"]["threshold"] == 0.02
        assert tight["calibrated"] == ["arbalest_slowdown_geomean"]

    def test_wide_calibrated_gate_waves_noise_through(self):
        old, new = _bench(2.0), _bench(2.2)  # +10%: regression at 5%
        wide = diff_bench(
            old, new, thresholds={"arbalest_slowdown_geomean": 0.15}
        )
        assert not wide["regression"]

    def test_diff_artifacts_threads_a_history_ledger(self, tmp_path):
        import random

        from repro.observe.history import append_history

        rng = random.Random(5)
        ledger = str(tmp_path / "ledger.jsonl")
        for _ in range(12):
            append_history(ledger, _bench(2.0 * rng.uniform(0.9, 1.1)))
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        a.write_text(json.dumps(_bench(2.0)))
        b.write_text(json.dumps(_bench(2.12)))  # +6%: flat gate would flag
        d = diff_artifacts(str(a), str(b), history=ledger)
        # ±10% historical noise earns a gate wider than 6%.
        assert not d["regression"]
        assert "arbalest_slowdown_geomean" in d["calibrated"]
