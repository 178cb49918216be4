"""The static/dynamic/hybrid precision harness (Table III extended)."""

import pytest

from repro.dracc.registry import get
from repro.harness import MODES, run_benchmark_hybrid, run_hybrid_comparison


@pytest.fixture(scope="module")
def comparison():
    return run_hybrid_comparison()


class TestSingleRows:
    def test_buggy_row_detected_by_all_modes(self):
        row = run_benchmark_hybrid(get(22))
        assert row.is_buggy
        assert all(row.detected[m] for m in MODES)

    def test_clean_row_reports_nothing_and_skips(self):
        row = run_benchmark_hybrid(get(1))
        assert not row.is_buggy
        assert not any(row.detected[m] for m in MODES)
        assert row.skips > 0
        assert row.certified


class TestFullComparison:
    def test_matches_expectations(self, comparison):
        assert comparison.matches_expectations(), comparison.render()

    def test_postencil_splits_the_modes(self, comparison):
        row = comparison.by_number()[503]
        assert not row.detected["static"]  # the documented OMPSan gap
        assert row.detected["dynamic"]
        assert row.detected["hybrid"]
        assert not row.certified  # swap taint: nothing to prune

    def test_scores_and_soundness(self, comparison):
        assert comparison.score("static") == (16, 17)
        assert comparison.score("dynamic") == (17, 17)
        assert comparison.score("hybrid") == (17, 17)
        assert comparison.sound
        assert comparison.total_skips() > 0
        for mode in MODES:
            assert comparison.false_positives(mode) == []

    def test_soundness_check_sees_the_overflow_variables(self, comparison):
        # The buffer-overflow rows' findings carry no variable of their
        # own; the bus's variable index must name them in a plain run, or
        # ``dynamic_variables & certified`` is empty by construction.
        rows = comparison.by_number()
        for number in (23, 25, 28, 29, 30, 31):
            assert rows[number].dynamic_variables, number
        assert comparison.soundness_violations() == []

    def test_render_contains_overall_row(self, comparison):
        text = comparison.render()
        assert "Overall" in text and "16/17" in text and "17/17" in text
        assert "certificate soundness" in text
