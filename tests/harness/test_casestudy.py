"""503.postencil case study harness (Fig 6/7)."""

import pytest

from repro.harness import run_case_study


@pytest.fixture(scope="module")
def case_study():
    return run_case_study(preset="test")


class TestCaseStudy:
    def test_reproduced(self, case_study):
        assert case_study.stale_detected
        assert case_study.clean_on_fixed
        assert case_study.reproduced

    def test_bug_changes_the_answer(self, case_study):
        assert case_study.buggy_checksum != case_study.fixed_checksum

    def test_report_has_fig7_shape(self, case_study):
        text = case_study.report_text
        assert "WARNING: ThreadSanitizer: data mapping issue (stale access)" in text
        assert "pid=104822" in text
        assert "main.c:145" in text
        assert "Location is heap block" in text
        assert "SUMMARY: ThreadSanitizer" in text

    def test_reproduced_at_train(self):
        assert run_case_study(preset="train").reproduced

    def test_render(self, case_study):
        out = case_study.render()
        assert "503.postencil" in out
        assert "no data mapping issue reported" in out
