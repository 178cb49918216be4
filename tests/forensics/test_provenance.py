"""Provenance guarantees on the DRACC buggy suite.

1. Every buggy-suite finding carries a non-empty timeline that names the
   offending access and ends in the terminal ``finding`` event, plus an
   explanation with a concrete repair suggestion.
2. The report artifact is byte-identical across runs.
3. Fingerprints are stable with a telemetry registry active or not.
"""

import functools

from repro.dracc.registry import get as dracc_get
from repro.forensics.report import to_jsonl
from repro.harness import run_report
from repro.telemetry import Telemetry
from repro.telemetry import scope as telemetry_scope


@functools.lru_cache(maxsize=None)
def _buggy_payload() -> dict:
    return run_report(suite="buggy")


class TestEveryFindingExplained:
    def test_buggy_suite_produces_findings(self):
        payload = _buggy_payload()
        assert payload["summary"]["benchmarks"] == 16
        assert payload["summary"]["findings"] >= 16

    def test_every_finding_has_nonempty_provenance(self):
        for f in _buggy_payload()["findings"]:
            assert f["events"], f
            assert f["variable"], f
            assert f["events"][-1]["kind"] == "finding", f

    def test_every_explanation_suggests_a_repair(self):
        for f in _buggy_payload()["findings"]:
            assert "suggest" in f["explanation"], f
            # The explanation names the offending variable.
            assert f"`{f['variable']}`" in f["explanation"], f

    def test_usd_explanations_name_the_missing_movement(self):
        usd = [
            f
            for f in _buggy_payload()["findings"]
            if f["kind"] == "use-of-stale-data"
        ]
        assert usd
        for f in usd:
            assert "target update" in f["explanation"], f

    def test_timelines_carry_state_transitions(self):
        payload = _buggy_payload()
        transitions = [
            e
            for f in payload["findings"]
            for e in f["events"]
            if "before" in e
        ]
        assert transitions, "no VSM state transitions recorded at all"

    def test_counts_surface_dedup(self):
        # DRACC 22's bug fires once per loop iteration; dedup absorbs the
        # repeats into one finding with the count preserved.
        payload = _buggy_payload()
        f22 = [f for f in payload["findings"] if f["benchmark"] == 22]
        assert f22 and f22[0]["count"] > 1
        assert payload["summary"]["reports_total"] > payload["summary"]["findings"]


class TestDeterminism:
    def test_report_artifact_is_byte_identical_across_runs(self):
        a = to_jsonl(run_report(suite="buggy"))
        b = to_jsonl(run_report(suite="buggy"))
        assert a == b

    def test_clean_suite_is_empty_and_deterministic(self):
        bench = dracc_get(1)
        a = run_report(benchmarks=(bench,))
        assert a["findings"] == []
        assert to_jsonl(a) == to_jsonl(run_report(benchmarks=(bench,)))


class TestFingerprintStability:
    def _fingerprints(self, *, telemetry: Telemetry | None) -> list[str]:
        bench = dracc_get(22)
        if telemetry is None:
            payload = run_report(benchmarks=(bench,))
        else:
            with telemetry_scope(telemetry):
                payload = run_report(benchmarks=(bench,))
        return [f["fingerprint"] for f in payload["findings"]]

    def test_stable_across_clock_modes(self):
        bare = self._fingerprints(telemetry=None)
        shared = self._fingerprints(telemetry=Telemetry(record_spans=False))
        assert bare and bare == shared
