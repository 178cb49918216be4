"""The checked-in golden report stays in sync with the detector.

Two gates.  ``repro diff`` semantics name the drift: a finding appearing
or disappearing on the buggy suite.  Byte equality catches everything
else (counts, timelines, header), because the report is deterministic.
Both fail here (and in CI) until the golden file is regenerated on
purpose with

    PYTHONPATH=src python -m repro report --suite buggy \
        --output tests/forensics/golden_report.jsonl
"""

import pathlib

from repro.forensics.diff import diff_reports
from repro.forensics.report import load_report
from repro.harness import run_report

GOLDEN = pathlib.Path(__file__).parent / "golden_report.jsonl"


class TestGoldenReport:
    def test_buggy_suite_matches_golden_by_fingerprint(self):
        golden = load_report(str(GOLDEN))
        fresh = run_report(suite="buggy")
        d = diff_reports(golden, fresh)
        assert d["new"] == [], (
            "findings appeared that the golden report lacks; regenerate it "
            f"if intended: {[f['fingerprint'] for f in d['new']]}"
        )
        assert d["fixed"] == [], (
            "golden findings vanished; regenerate the golden report "
            f"if intended: {[f['fingerprint'] for f in d['fixed']]}"
        )

    def test_cli_report_is_byte_identical_to_golden(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "report.jsonl"
        assert main(["report", "--suite", "buggy", "--output", str(out)]) == 0
        capsys.readouterr()
        assert out.read_bytes() == GOLDEN.read_bytes(), (
            "repro report --suite buggy drifted from the golden report; "
            "regenerate it if intended"
        )

    def test_golden_covers_all_three_effects(self):
        kinds = {f["kind"] for f in load_report(str(GOLDEN))["findings"]}
        assert kinds == {
            "use-of-uninitialized-memory",
            "buffer-overflow",
            "use-of-stale-data",
        }
