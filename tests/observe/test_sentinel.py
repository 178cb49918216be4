"""The statistical sentinel: seeded noise passes, seeded steps fail."""

import random

import pytest

from repro.observe.sentinel import (
    bootstrap_shift_ci,
    mann_whitney,
    metric_direction,
    render_sentinel,
    run_sentinel,
)

BASE = {"pcg": 2.0, "pep": 1.5, "polbm": 1.2, "pomriq": 2.1, "postencil": 2.5}


def _entries(n, *, seed=7, step_at=None, step_frac=0.2, workload="pcg"):
    """Synthetic bench ledger entries with ±3% seeded noise, optionally
    stepping ``workload`` (and the geomean with it) at run ``step_at``."""
    rng = random.Random(seed)
    entries = []
    for i in range(n):
        bump = 1.0 + step_frac if step_at is not None and i >= step_at else 1.0
        workloads = {}
        geo = 1.0
        for w, s in BASE.items():
            value = s * rng.uniform(0.97, 1.03)
            if w == workload:
                value *= bump
            workloads[w] = value
            geo *= value
        entries.append(
            {
                "schema": "bench-history/1",
                "kind": "bench",
                "ordinal": i + 1,
                "meta": {"preset": "test"},
                "metrics": {
                    "summary": {
                        "arbalest_slowdown_geomean": geo ** (1 / len(BASE))
                    },
                    "workloads": {
                        w: {"arbalest": v} for w, v in workloads.items()
                    },
                },
            }
        )
    return entries


class TestStatistics:
    def test_metric_direction(self):
        assert metric_direction("arbalest_slowdown_geomean") == +1
        assert metric_direction("p99_frame_latency_us") == +1
        assert metric_direction("events_per_sec") == -1
        assert metric_direction("strict_savings") == -1
        assert metric_direction("mystery_metric") == 0

    def test_mann_whitney_separated_populations(self):
        a = [1.0, 1.1, 0.9, 1.05, 1.02, 0.98]
        b = [2.0, 2.1, 1.9, 2.05, 2.02]
        _, p = mann_whitney(a, b)
        assert p < 0.01

    def test_mann_whitney_identical_populations(self):
        _, p = mann_whitney([1.0] * 5, [1.0] * 5)
        assert p == 1.0

    def test_mann_whitney_rejects_empty(self):
        with pytest.raises(ValueError):
            mann_whitney([], [1.0])

    def test_bootstrap_ci_is_deterministic_and_brackets_the_shift(self):
        baseline = [1.0, 1.02, 0.98, 1.01, 0.99]
        candidate = [1.2, 1.22, 1.18, 1.21]
        lo, hi = bootstrap_shift_ci(baseline, candidate, seed=1)
        assert (lo, hi) == bootstrap_shift_ci(baseline, candidate, seed=1)
        assert 0.1 < lo <= hi < 0.3
        assert bootstrap_shift_ci(baseline, candidate, seed=2) != (lo, hi)


class TestVerdicts:
    def test_flat_noisy_history_passes(self):
        payload = run_sentinel(_entries(20))
        assert payload["ok"]
        assert payload["regressions"] == []
        assert "VERDICT: OK" in render_sentinel(payload)

    def test_seeded_step_regression_is_named_with_confidence(self):
        payload = run_sentinel(_entries(20, step_at=15, step_frac=0.2))
        assert not payload["ok"]
        worst = payload["regressions"][0]
        assert (worst["workload"], worst["config"]) == ("pcg", "arbalest")
        assert worst["metric"] == "slowdown"
        assert worst["confidence"] > 0.95
        assert worst["shift_rel"] > 0.1
        text = render_sentinel(payload)
        assert "VERDICT: REGRESSION" in text
        assert "pcg/arbalest/slowdown" in text

    def test_improvement_is_not_a_regression(self):
        payload = run_sentinel(_entries(20, step_at=15, step_frac=-0.2))
        assert payload["ok"]
        verdicts = {
            (v["workload"], v["metric"]): v["verdict"]
            for v in payload["verdicts"]
        }
        assert verdicts[("pcg", "slowdown")] == "improvement"

    def test_verdicts_are_deterministic(self):
        entries = _entries(20, step_at=15)
        assert run_sentinel(entries) == run_sentinel(entries)

    def test_insufficient_history_is_reported_not_guessed(self):
        payload = run_sentinel(_entries(5))
        assert payload["ok"]
        assert all(
            v["verdict"] == "insufficient-history" for v in payload["verdicts"]
        )

    def test_legacy_engine_tags_form_one_series(self):
        """Entries tagged with the legacy ``engine`` meta key and untagged
        ones after them are one population: a step at the boundary is
        convicted, not split off as a separate series."""
        stepped, flat = _entries(20, step_at=15), _entries(20)
        for entries in (stepped, flat):
            for e in entries[:15]:
                e["meta"]["engine"] = "columnar"
        payload = run_sentinel(stepped)
        assert payload["entries"] == 20
        assert "engine" not in payload and "skipped_entries" not in payload
        assert not payload["ok"]
        assert ("pcg", "arbalest", "slowdown") in {
            (r["workload"], r["config"], r["metric"]) for r in payload["regressions"]
        }
        calm = run_sentinel(flat)
        assert calm["ok"]
        assert all(v["verdict"] != "insufficient-history" for v in calm["verdicts"])

    def test_window_must_allow_a_candidate_population(self):
        with pytest.raises(ValueError):
            run_sentinel(_entries(20), window=1)

    def test_empty_ledger_is_ok_with_no_history_verdict(self):
        payload = run_sentinel([])
        assert payload["ok"]
        assert "NO HISTORY" in render_sentinel(payload)
