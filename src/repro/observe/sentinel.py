"""Statistical perf-regression sentinel over the bench-history ledger.

The fixed 5% threshold in ``repro diff`` is threshold folklore: on a noisy
machine it cries wolf, on a quiet one it waves through a real 4% loss.  The
sentinel replaces it with two classical tests over the *history* of runs:

* a **Mann-Whitney U** change-point test (normal approximation with tie
  correction — no scipy in this environment) comparing the last ``window``
  runs against everything before them, per metric series; and
* a **seeded bootstrap confidence interval** on the relative median shift,
  so a verdict also says *how big* the change is, with uncertainty.

A series regresses only when all three hold: the shift points in the bad
direction for that metric, the Mann-Whitney p-value clears ``alpha``, and
the bootstrap CI excludes zero on the bad side with the median shift beyond
a practical floor (``min_shift``, default 2% — statistically real but
microscopic moves are not actionable).  Everything is seeded and
deterministic: the same ledger always yields the same verdicts.

Metric direction is inferred from the name (``slowdown``/``latency``/
``bytes`` up = bad; ``events_per_sec``/``clean`` up = good); unknown metrics
are skipped rather than guessed.
"""

from __future__ import annotations

import math
import random
from statistics import median
from typing import Sequence

from .history import load_history

#: Two-sided significance level for the Mann-Whitney verdict.
DEFAULT_ALPHA = 0.05

#: Change-point window: the last N runs are the candidate population.
DEFAULT_WINDOW = 5

#: Bootstrap resamples for the shift confidence interval.
DEFAULT_BOOTSTRAP = 1000

#: Practical floor: relative median shifts below this are never regressions.
DEFAULT_MIN_SHIFT = 0.02

#: Default RNG seed — verdicts must be reproducible from the ledger alone.
DEFAULT_SEED = 108

#: Minimum populations for a statistically meaningful verdict.
MIN_BASELINE = 4
MIN_CANDIDATE = 3

_UP_IS_GOOD = ("per_sec", "clean", "equivalent", "strict_savings", "programs")
_UP_IS_BAD = (
    "slowdown",
    "latency",
    "seconds",
    "bytes",
    "overhead",
    "tax",
    "redeliver",
    "error",
)


def metric_direction(metric: str) -> int:
    """+1 when an increase is a regression, -1 when a decrease is, 0 skip."""
    name = metric.lower()
    for hint in _UP_IS_GOOD:
        if hint in name:
            return -1
    for hint in _UP_IS_BAD:
        if hint in name:
            return +1
    return 0


def mann_whitney(a: Sequence[float], b: Sequence[float]) -> tuple[float, float]:
    """Two-sided Mann-Whitney U test: returns ``(u_b, p_value)``.

    Normal approximation with tie correction and continuity correction —
    adequate for the n >= 3-ish populations a bench ledger provides, and
    dependency-free (no scipy in this environment).
    """
    n1, n2 = len(a), len(b)
    if n1 < 1 or n2 < 1:
        raise ValueError("mann_whitney needs non-empty populations")
    pooled = [(value, 0) for value in a] + [(value, 1) for value in b]
    pooled.sort(key=lambda item: item[0])
    n = n1 + n2
    ranks = [0.0] * n
    tie_term = 0.0
    i = 0
    while i < n:
        j = i
        while j + 1 < n and pooled[j + 1][0] == pooled[i][0]:
            j += 1
        rank = (i + j) / 2.0 + 1.0
        for k in range(i, j + 1):
            ranks[k] = rank
        t = j - i + 1
        if t > 1:
            tie_term += t * t * t - t
        i = j + 1
    r2 = sum(rank for rank, (_, group) in zip(ranks, pooled) if group == 1)
    u2 = r2 - n2 * (n2 + 1) / 2.0
    mu = n1 * n2 / 2.0
    var = n1 * n2 / 12.0 * ((n + 1) - tie_term / (n * (n - 1)))
    if var <= 0.0:  # every value identical: no evidence of change
        return u2, 1.0
    z = (u2 - mu - math.copysign(0.5, u2 - mu)) / math.sqrt(var)
    p = math.erfc(abs(z) / math.sqrt(2.0))
    return u2, min(1.0, p)


def bootstrap_shift_ci(
    baseline: Sequence[float],
    candidate: Sequence[float],
    *,
    seed: int | str = DEFAULT_SEED,
    resamples: int = DEFAULT_BOOTSTRAP,
    confidence: float = 0.95,
) -> tuple[float, float]:
    """Seeded bootstrap CI for the relative median shift candidate/baseline."""
    rng = random.Random(f"sentinel:{seed}")
    n1, n2 = len(baseline), len(candidate)
    shifts = []
    for _ in range(resamples):
        base = sorted(baseline[rng.randrange(n1)] for _ in range(n1))
        cand = sorted(candidate[rng.randrange(n2)] for _ in range(n2))
        base_med = median(base)
        if base_med == 0:
            continue
        shifts.append((median(cand) - base_med) / abs(base_med))
    if not shifts:
        return 0.0, 0.0
    shifts.sort()
    tail = (1.0 - confidence) / 2.0
    lo = shifts[max(0, int(math.floor(tail * len(shifts))))]
    hi = shifts[min(len(shifts) - 1, int(math.ceil((1.0 - tail) * len(shifts))) - 1)]
    return lo, hi


def extract_series(entries: list[dict]) -> dict[tuple[str, str, str], list[float]]:
    """Per-(workload, config, metric) value series, in ledger order."""
    series: dict[tuple[str, str, str], list[float]] = {}

    def push(workload: str, config: str, metric: str, value) -> None:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            return
        series.setdefault((workload, config, metric), []).append(float(value))

    for entry in entries:
        metrics = entry.get("metrics", {})
        kind = entry.get("kind")
        if kind == "bench":
            for metric, value in metrics.get("summary", {}).items():
                push("summary", "geomean", metric, value)
            for workload, configs in metrics.get("workloads", {}).items():
                for config, value in configs.items():
                    push(workload, config, "slowdown", value)
        elif kind == "serve-bench":
            suite = str(metrics.get("suite", "serve"))
            for metric, value in metrics.get("summary", {}).items():
                push(suite, "serve", metric, value)
        elif kind == "synth-bench":
            for metric, value in metrics.get("summary", {}).items():
                push("synth", "matrix", metric, value)
    return series


def _verdict_for(
    key: tuple[str, str, str],
    values: list[float],
    *,
    window: int,
    alpha: float,
    seed: int | str,
    resamples: int,
    min_shift: float,
) -> dict:
    workload, config, metric = key
    direction = metric_direction(metric)
    out = {
        "workload": workload,
        "config": config,
        "metric": metric,
        "runs": len(values),
        "verdict": "ok",
    }
    if direction == 0:
        out["verdict"] = "skipped-unknown-direction"
        return out
    baseline = values[:-window]
    candidate = values[-window:]
    if len(baseline) < MIN_BASELINE or len(candidate) < MIN_CANDIDATE:
        out["verdict"] = "insufficient-history"
        out["baseline_n"] = len(baseline)
        out["candidate_n"] = len(candidate)
        return out
    base_med = median(baseline)
    cand_med = median(candidate)
    shift = (cand_med - base_med) / abs(base_med) if base_med else 0.0
    _, p = mann_whitney(baseline, candidate)
    lo, hi = bootstrap_shift_ci(
        baseline,
        candidate,
        seed=f"{seed}:{workload}:{config}:{metric}",
        resamples=resamples,
    )
    out.update(
        {
            "baseline_n": len(baseline),
            "candidate_n": len(candidate),
            "baseline_median": round(base_med, 6),
            "candidate_median": round(cand_med, 6),
            "shift_rel": round(shift, 6),
            "p_value": round(p, 6),
            "confidence": round(1.0 - p, 6),
            "ci95_rel": [round(lo, 6), round(hi, 6)],
            "direction": "up-is-bad" if direction > 0 else "up-is-good",
        }
    )
    significant = p < alpha
    ci_excludes_zero_bad = lo > 0.0 if direction > 0 else hi < 0.0
    bad = shift * direction > 0 and abs(shift) >= min_shift
    good = shift * direction < 0 and abs(shift) >= min_shift
    if significant and ci_excludes_zero_bad and bad:
        out["verdict"] = "regression"
    elif significant and good:
        out["verdict"] = "improvement"
    return out


def run_sentinel(
    history: str | list[dict],
    *,
    kind: str = "bench",
    window: int = DEFAULT_WINDOW,
    alpha: float = DEFAULT_ALPHA,
    seed: int | str = DEFAULT_SEED,
    resamples: int = DEFAULT_BOOTSTRAP,
    min_shift: float = DEFAULT_MIN_SHIFT,
) -> dict:
    """Change-point verdicts for every metric series in the ledger.

    ``history`` is a ledger path or pre-loaded entries; only entries of
    ``kind`` participate.
    """
    entries = load_history(history, kind=kind) if isinstance(history, str) else [
        entry for entry in history if entry.get("kind") == kind
    ]
    if window < MIN_CANDIDATE:
        raise ValueError(f"window must be >= {MIN_CANDIDATE}, got {window}")
    payload: dict = {
        "schema": "sentinel/1",
        "kind": kind,
        "window": window,
        "alpha": alpha,
        "seed": seed,
        "min_shift": min_shift,
        "entries": len(entries),
        "verdicts": [],
        "regressions": [],
        "ok": True,
    }
    if not entries:
        return payload
    verdicts = [
        _verdict_for(
            key,
            values,
            window=window,
            alpha=alpha,
            seed=seed,
            resamples=resamples,
            min_shift=min_shift,
        )
        for key, values in sorted(extract_series(entries).items())
    ]
    rank = {"regression": 0, "improvement": 1, "ok": 2}
    verdicts.sort(
        key=lambda v: (
            rank.get(v["verdict"], 3),
            -v.get("confidence", 0.0),
            v["workload"],
            v["config"],
            v["metric"],
        )
    )
    payload["verdicts"] = verdicts
    payload["regressions"] = [
        {
            "workload": v["workload"],
            "config": v["config"],
            "metric": v["metric"],
            "shift_rel": v["shift_rel"],
            "confidence": v["confidence"],
        }
        for v in verdicts
        if v["verdict"] == "regression"
    ]
    payload["ok"] = not payload["regressions"]
    return payload


def noise_thresholds(
    history: str | list[dict],
    *,
    kind: str = "bench",
    floor: float = 0.01,
    seed: int | str = DEFAULT_SEED,
    resamples: int = 500,
    quantile: float = 0.95,
    confidence: float = 0.95,
) -> dict[str, float]:
    """Per-summary-metric noise gates for ``repro diff --history``.

    For each summary geomean series in the ledger, bootstrap the
    ``quantile`` of the absolute run-to-run relative deltas and take the
    upper ``confidence`` bound: a two-artifact diff then only flags a
    metric when it moved more than that machine's own historical noise,
    never less than ``floor``.  Seeded and deterministic, like the
    sentinel itself.
    """
    entries = load_history(history, kind=kind) if isinstance(history, str) else [
        entry for entry in history if entry.get("kind") == kind
    ]
    out: dict[str, float] = {}
    for (workload, config, metric), values in sorted(extract_series(entries).items()):
        if workload != "summary" or config != "geomean" or len(values) < 4:
            continue
        deltas = [
            abs((values[i + 1] - values[i]) / values[i])
            for i in range(len(values) - 1)
            if values[i]
        ]
        if not deltas:
            continue
        rng = random.Random(f"noise:{seed}:{metric}")
        stats = []
        for _ in range(resamples):
            sample = sorted(
                deltas[rng.randrange(len(deltas))] for _ in range(len(deltas))
            )
            stats.append(sample[min(len(sample) - 1, int(quantile * len(sample)))])
        stats.sort()
        upper = stats[min(len(stats) - 1, int(confidence * len(stats)))]
        out[metric] = max(floor, round(upper, 4))
    return out


def render_sentinel(payload: dict) -> str:
    """Human-readable sentinel report."""
    lines = [
        f"sentinel: {payload['entries']} {payload['kind']} run(s), "
        f"window={payload['window']}, alpha={payload['alpha']}"
    ]
    shown = 0
    for v in payload["verdicts"]:
        if v["verdict"] in ("skipped-unknown-direction",):
            continue
        if v["verdict"] == "ok" and shown >= 12:
            continue
        cell = f"{v['workload']}/{v['config']}/{v['metric']}"
        if v["verdict"] == "insufficient-history":
            lines.append(
                f"  ?  {cell}: insufficient history "
                f"(baseline {v.get('baseline_n', 0)}, candidate {v.get('candidate_n', 0)})"
            )
            continue
        mark = {"regression": "✗", "improvement": "✓", "ok": "·"}[v["verdict"]]
        lines.append(
            f"  {mark}  {cell}: {v['verdict']} "
            f"shift {v['shift_rel']:+.1%} "
            f"(CI95 [{v['ci95_rel'][0]:+.1%}, {v['ci95_rel'][1]:+.1%}], "
            f"confidence {v['confidence']:.1%}, "
            f"median {v['baseline_median']} → {v['candidate_median']})"
        )
        shown += 1
    if payload["regressions"]:
        worst = payload["regressions"][0]
        lines.append(
            f"VERDICT: REGRESSION — {worst['workload']}/{worst['config']}/"
            f"{worst['metric']} shifted {worst['shift_rel']:+.1%} "
            f"(confidence {worst['confidence']:.1%})"
        )
    elif payload["entries"] == 0:
        lines.append("VERDICT: NO HISTORY — ledger has no entries of this kind")
    else:
        lines.append("VERDICT: OK — no statistically significant regression")
    return "\n".join(lines)
