"""Cross-run diffing: classification, artifact sniffing, timed refusals."""

import json

import pytest

from repro.forensics.diff import (
    diff_artifacts,
    diff_reports,
    diff_synth_bench,
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
            "preset": "train",
        },
    }


def _synth(synth_bytes: int) -> dict:
    return {
        "artifact": "synth-bench/1",
        "programs": {
            "pcg": {"synth_bytes": synth_bytes, "clean": True, "equivalent": True}
        },
        "summary": {"synth_bytes": synth_bytes, "ok": True},
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


class TestArtifacts:
    def test_sniffs_report_and_bench(self, tmp_path):
        report_path = str(tmp_path / "r.jsonl")
        write_report(_report(_finding("aaa")), report_path)
        synth_path = tmp_path / "s.json"
        synth_path.write_text(json.dumps(_synth(64)))
        assert load_artifact(report_path)[0] == "report"
        assert load_artifact(str(synth_path))[0] == "synth-bench"

    def test_type_mismatch_raises(self, tmp_path):
        report_path = str(tmp_path / "r.jsonl")
        write_report(_report(), report_path)
        synth_path = tmp_path / "s.json"
        synth_path.write_text(json.dumps(_synth(64)))
        with pytest.raises(ValueError, match="cannot diff"):
            diff_artifacts(report_path, str(synth_path))

    def test_unrecognized_json_raises(self, tmp_path):
        path = str(tmp_path / "x.json")
        with open(path, "w") as fh:
            json.dump({"neither": True}, fh)
        with pytest.raises(ValueError, match="cannot classify artifact"):
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
        text = render_diff(diff_synth_bench(_synth(64), _synth(64)))
        assert "no bytes grew" in text
        assert text.rstrip().endswith("clean")

    def test_render_synth_growth_regresses(self):
        text = render_diff(diff_synth_bench(_synth(64), _synth(128)))
        assert "pcg: synthesized bytes grew 64 -> 128" in text
        assert text.rstrip().endswith("regression")

    def test_jsonl_of_synthetic_report_parses(self):
        # The fixtures here stay honest against the real format.
        from repro.forensics.report import parse_jsonl

        parsed = parse_jsonl(to_jsonl(_report(_finding("aaa"))))
        assert parsed["findings"][0]["fingerprint"] == "aaa"
