"""Cross-run regression diffing of report and bench artifacts.

``repro diff old new`` compares two artifacts of the same type:

* **report** artifacts (``repro-report/1`` JSONL): findings are matched by
  ``(benchmark, tool, fingerprint)`` — the fingerprint is ordinal- and
  address-independent, so the same bug matches across runs — and
  classified as *new* (regression), *fixed*, or *changed* (same site,
  different report count);
* **bench** artifacts (``BENCH_fig8.json`` shape): the summary geomean
  slowdowns are compared; any geomean that grew by more than the relative
  ``threshold`` is a regression;
* **serve-bench** artifacts (``BENCH_serve.json``, ``serve-bench/1``
  shape): throughput (events/sec) dropping or p99 frame latency growing
  by more than the relative ``threshold`` is a regression, and a
  candidate whose delivery verdict is false regresses at any speed.
  Observability fields gate too: artifacts measured under different SLO
  specs refuse to compare, and a candidate
  whose SLO watchdog is still burning regresses regardless of timing;
* **synth-bench** artifacts (``BENCH_synth.json``, ``synth-bench/1``
  shape): synthesized transfer bytes growing on any program, or a
  clean/equivalence verdict lost, is a regression — no threshold, the
  byte counts are deterministic.

A diff with at least one regression is what makes the CLI exit non-zero —
the CI gate in one command.
"""

from __future__ import annotations

import json

from .report import parse_jsonl

#: Default relative slowdown-growth tolerance for bench diffs (5%).
#: This is the *fallback* gate: ``repro diff --history`` replaces it with
#: per-metric noise-calibrated thresholds bootstrapped from the bench
#: ledger (:func:`repro.observe.sentinel.noise_thresholds`), and
#: ``repro sentinel`` supersedes two-artifact diffing entirely with
#: change-point statistics over the full history window.
DEFAULT_THRESHOLD = 0.05

#: Which per-workload config column feeds each summary geomean — used to
#: attribute a geomean regression to the cells that drove it.
GEOMEAN_CONFIGS = {
    "arbalest_slowdown_geomean": "arbalest",
    "arbalest_cert_slowdown_geomean": "arbalest-cert",
    "arbalest_rec_slowdown_geomean": "arbalest-rec",
    "arbalest_prof_slowdown_geomean": "arbalest-prof",
    "recorder_overhead_geomean": "arbalest-rec",
    "profiler_overhead_geomean": "arbalest-prof",
}


def load_artifact(path: str) -> tuple[str, dict]:
    """Sniff and load ``path`` as ``("report", ...)`` or ``("bench", ...)``."""
    with open(path) as fh:
        text = fh.read()
    try:
        whole = json.loads(text)
    except json.JSONDecodeError:
        whole = None
    if isinstance(whole, dict):
        if whole.get("artifact") == "serve-bench/1":
            return "serve-bench", whole
        if whole.get("artifact") == "synth-bench/1":
            return "synth-bench", whole
        if "workloads" in whole and "summary" in whole:
            return "bench", whole
        raise ValueError(
            f"{path}: JSON document is neither a bench artifact "
            "(workloads+summary), a serve-bench artifact (serve-bench/1), "
            "a synth-bench artifact (synth-bench/1), nor a JSONL report"
        )
    # Not one JSON document: JSON-lines report (parse_jsonl validates).
    return "report", parse_jsonl(text)


# -- report diffing ----------------------------------------------------------


def diff_reports(old: dict, new: dict) -> dict:
    """Classify findings as new / fixed / changed between two reports."""

    def index(payload: dict) -> dict[tuple, dict]:
        return {
            (f["benchmark"], f["tool"], f["fingerprint"]): f
            for f in payload["findings"]
        }

    a, b = index(old), index(new)
    new_keys = sorted(set(b) - set(a))
    fixed_keys = sorted(set(a) - set(b))
    changed = [
        {"old": a[k], "new": b[k]}
        for k in sorted(set(a) & set(b))
        if a[k]["count"] != b[k]["count"]
    ]
    return {
        "type": "report",
        "new": [b[k] for k in new_keys],
        "fixed": [a[k] for k in fixed_keys],
        "changed": changed,
        # Only *new* findings gate: fixed bugs and count drift are progress
        # or noise, not regressions.
        "regression": bool(new_keys),
    }


# -- bench diffing -----------------------------------------------------------


def _geomean_contributors(
    old: dict, new: dict, config: str, *, limit: int = 3
) -> list[dict]:
    """The per-workload cells that drove a geomean move, worst first."""
    rows: list[dict] = []
    shared = set(old.get("workloads", {})) & set(new.get("workloads", {}))
    for w in sorted(shared):
        o = old["workloads"][w].get(config, {}).get("slowdown")
        n = new["workloads"][w].get(config, {}).get("slowdown")
        if o and n:
            rows.append(
                {
                    "workload": w,
                    "config": config,
                    "old": o,
                    "new": n,
                    "rel": round((n - o) / o, 4),
                }
            )
    rows.sort(key=lambda r: (-r["rel"], r["workload"]))
    return rows[:limit]


def diff_bench(
    old: dict,
    new: dict,
    *,
    threshold: float = DEFAULT_THRESHOLD,
    thresholds: dict[str, float] | None = None,
) -> dict:
    """Compare summary geomeans (and per-workload detector slowdowns).

    ``thresholds`` overrides the flat ``threshold`` per summary key —
    this is how ``repro diff --history`` feeds in noise-calibrated gates
    bootstrapped from the bench ledger.  Every regressed geomean is
    attributed to the top per-workload cells that drove it.
    """
    thresholds = thresholds or {}
    deltas: dict[str, dict] = {}
    regressions: list[str] = []
    contributors: dict[str, list[dict]] = {}
    old_summary = old.get("summary", {})
    new_summary = new.get("summary", {})
    for key in sorted(set(old_summary) & set(new_summary)):
        o, n = old_summary[key], new_summary[key]
        if not isinstance(o, (int, float)) or not isinstance(n, (int, float)):
            continue
        rel = (n - o) / o if o else 0.0
        gate = thresholds.get(key, threshold)
        deltas[key] = {"old": o, "new": n, "rel": round(rel, 4)}
        if key in thresholds:
            deltas[key]["threshold"] = gate
        if key.endswith("geomean") and rel > gate:
            regressions.append(key)
            config = GEOMEAN_CONFIGS.get(key)
            if config is not None:
                top = _geomean_contributors(old, new, config)
                if top:
                    contributors[key] = top
    workloads: dict[str, dict] = {}
    shared = set(old.get("workloads", {})) & set(new.get("workloads", {}))
    for w in sorted(shared):
        o = old["workloads"][w].get("arbalest", {}).get("slowdown")
        n = new["workloads"][w].get("arbalest", {}).get("slowdown")
        if o and n:
            workloads[w] = {"old": o, "new": n, "rel": round((n - o) / o, 4)}
    return {
        "type": "bench",
        "threshold": threshold,
        "calibrated": sorted(thresholds) if thresholds else [],
        "deltas": deltas,
        "workloads": workloads,
        "contributors": contributors,
        "regressions": regressions,
        "regression": bool(regressions),
    }


def diff_serve_bench(
    old: dict, new: dict, *, threshold: float = DEFAULT_THRESHOLD
) -> dict:
    """Compare two serve-bench artifacts: throughput down or p99 up.

    A candidate with ``delivery_ok`` false is a regression regardless of
    timing — a server that sheds findings has no throughput worth
    reporting.

    Observability-era artifacts carry an ``observability`` section.  Two
    rules extend the gate:

    * artifacts measured under **different SLO specs** are incomparable —
      the watchdog's burn counts mean different things — so a spec
      mismatch is an error, not a verdict;
    * a candidate whose watchdog is **still burning** at the end of the
      bench regresses regardless of timing: the run violated its own
      SLOs while producing the numbers being compared.
    """
    old_obs = old.get("observability") or {}
    new_obs = new.get("observability") or {}
    old_slos = old_obs.get("slos")
    new_slos = new_obs.get("slos")
    if old_slos is not None and new_slos is not None and old_slos != new_slos:
        old_names = ", ".join(s.get("name", "?") for s in old_slos)
        new_names = ", ".join(s.get("name", "?") for s in new_slos)
        raise ValueError(
            "cannot diff serve-bench artifacts measured under different "
            f"SLO specs: baseline has [{old_names}], candidate has "
            f"[{new_names}]"
        )
    deltas: dict[str, dict] = {}
    regressions: list[str] = []
    old_summary = old.get("summary", {})
    new_summary = new.get("summary", {})
    for key in sorted(set(old_summary) & set(new_summary)):
        o, n = old_summary[key], new_summary[key]
        if not isinstance(o, (int, float)) or not isinstance(n, (int, float)):
            continue
        rel = (n - o) / o if o else 0.0
        deltas[key] = {"old": o, "new": n, "rel": round(rel, 4)}
        # Throughput regresses downward; latency regresses upward.
        if key == "events_per_sec" and rel < -threshold:
            regressions.append(key)
        elif key.endswith("latency_us") and key.startswith("p99") and rel > threshold:
            regressions.append(key)
    if not new.get("delivery_ok", True):
        regressions.append("delivery_ok")
    burning = (new_obs.get("watchdog") or {}).get("burning") or []
    if burning:
        regressions.append("slo_burning")
    observability: dict[str, dict] = {}
    for key in (
        "redeliveries",
        "wire_decode_errors",
        "journal_replay_errors",
        "worker_restarts",
    ):
        o, n = old_obs.get(key), new_obs.get(key)
        if isinstance(o, (int, float)) and isinstance(n, (int, float)):
            observability[key] = {"old": o, "new": n, "delta": n - o}
    old_watch = old_obs.get("watchdog") or {}
    new_watch = new_obs.get("watchdog") or {}
    for key in ("burn_events", "clear_events"):
        o, n = old_watch.get(key), new_watch.get(key)
        if isinstance(o, (int, float)) and isinstance(n, (int, float)):
            observability[key] = {"old": o, "new": n, "delta": n - o}
    return {
        "type": "serve-bench",
        "threshold": threshold,
        "deltas": deltas,
        "observability": observability,
        "burning": sorted(burning),
        "regressions": regressions,
        "regression": bool(regressions),
    }


def _synth_clean(program: dict) -> bool:
    """A program's clean verdict; legacy artifacts split it in two fields."""
    if "clean" in program:
        return program["clean"]
    return program.get("clean_scalar", True) and program.get("clean_columnar", True)


def diff_synth_bench(old: dict, new: dict) -> dict:
    """Compare two synthesis-matrix artifacts (``synth-bench/1``).

    Transfer bytes are deterministic (counted, not timed), so there is no
    tolerance threshold: on any shared program, synthesized bytes growing,
    a clean verdict lost, or value equivalence lost is a
    regression; so is a program disappearing from the corpus.  Byte
    *savings* and new programs are reported as progress, not gated.
    """
    old_programs = old.get("programs", {})
    new_programs = new.get("programs", {})
    regressions: list[str] = []
    programs: dict[str, dict] = {}
    for name in sorted(set(old_programs) - set(new_programs)):
        regressions.append(f"{name}: missing from candidate")
    for name in sorted(set(old_programs) & set(new_programs)):
        o, n = old_programs[name], new_programs[name]
        entry: dict = {
            "synth_bytes": {"old": o["synth_bytes"], "new": n["synth_bytes"]}
        }
        if n["synth_bytes"] > o["synth_bytes"]:
            regressions.append(
                f"{name}: synthesized bytes grew "
                f"{o['synth_bytes']} -> {n['synth_bytes']}"
            )
        for key, was, now in (
            ("clean", _synth_clean(o), _synth_clean(n)),
            ("equivalent", o.get("equivalent", True), n.get("equivalent", True)),
        ):
            entry[key] = {"old": was, "new": now}
            if was and not now:
                regressions.append(f"{name}: {key} verdict lost")
        programs[name] = entry
    deltas: dict[str, dict] = {}
    old_summary = old.get("summary", {})
    new_summary = new.get("summary", {})
    for key in sorted(set(old_summary) & set(new_summary)):
        o, n = old_summary[key], new_summary[key]
        if isinstance(o, (int, float)) and isinstance(n, (int, float)):
            deltas[key] = {"old": o, "new": n, "delta": n - o}
    return {
        "type": "synth-bench",
        "deltas": deltas,
        "programs": programs,
        "new_programs": sorted(set(new_programs) - set(old_programs)),
        "regressions": regressions,
        "regression": bool(regressions),
    }


def diff_artifacts(
    old_path: str,
    new_path: str,
    *,
    threshold: float = DEFAULT_THRESHOLD,
    history: str | None = None,
) -> dict:
    """Load two artifacts, require matching types, and diff them.

    ``history`` (a bench-history ledger path) replaces the flat threshold
    with per-metric noise-calibrated gates for bench diffs; the other
    artifact types ignore it.
    """
    old_type, old_payload = load_artifact(old_path)
    new_type, new_payload = load_artifact(new_path)
    if old_type != new_type:
        raise ValueError(
            f"cannot diff a {old_type} artifact against a {new_type} artifact"
        )
    if old_type == "report":
        return diff_reports(old_payload, new_payload)
    if old_type == "serve-bench":
        return diff_serve_bench(old_payload, new_payload, threshold=threshold)
    if old_type == "synth-bench":
        return diff_synth_bench(old_payload, new_payload)
    thresholds = None
    if history is not None:
        from ..observe.sentinel import noise_thresholds

        thresholds = noise_thresholds(history)
    return diff_bench(
        old_payload, new_payload, threshold=threshold, thresholds=thresholds
    )


# -- rendering ---------------------------------------------------------------


def _finding_line(f: dict) -> str:
    var = f" [{f['variable']}]" if f.get("variable") else ""
    where = f" at {f['location']}" if f.get("location") else ""
    return (
        f"{f['bench_name']}: {f['tool']}: {f['kind']}{var}{where}  "
        f"#{f['fingerprint']}"
    )


def render_diff(result: dict) -> str:
    lines: list[str] = []
    if result["type"] == "report":
        for f in result["new"]:
            lines.append(f"NEW      {_finding_line(f)}")
        for f in result["fixed"]:
            lines.append(f"FIXED    {_finding_line(f)}")
        for pair in result["changed"]:
            lines.append(
                f"CHANGED  {_finding_line(pair['new'])} "
                f"(count {pair['old']['count']} -> {pair['new']['count']})"
            )
        if not lines:
            lines.append("reports are identical (by fingerprint)")
        lines.append("")
        lines.append(
            f"{len(result['new'])} new, {len(result['fixed'])} fixed, "
            f"{len(result['changed'])} changed"
        )
    elif result["type"] == "synth-bench":
        for key, d in result["deltas"].items():
            sign = "+" if d["delta"] >= 0 else ""
            lines.append(f"{key}: {d['old']} -> {d['new']} ({sign}{d['delta']})")
        for name in result.get("new_programs", []):
            lines.append(f"NEW PROGRAM  {name}")
        for message in result["regressions"]:
            lines.append(f"REGRESSION  {message}")
        lines.append("")
        lines.append(
            "REGRESSION: " + ", ".join(result["regressions"])
            if result["regression"]
            else "synthesized mappings hold: no bytes grew, no verdict lost"
        )
    elif result["type"] == "serve-bench":
        for key, d in result["deltas"].items():
            marker = " << REGRESSION" if key in result["regressions"] else ""
            lines.append(
                f"{key}: {d['old']} -> {d['new']} ({d['rel']:+.1%}){marker}"
            )
        for key, d in result.get("observability", {}).items():
            sign = "+" if d["delta"] >= 0 else ""
            lines.append(f"  {key}: {d['old']} -> {d['new']} ({sign}{d['delta']})")
        if "delivery_ok" in result["regressions"]:
            lines.append("delivery_ok: false << REGRESSION (findings were lost)")
        if "slo_burning" in result["regressions"]:
            lines.append(
                "slo burning: "
                + ", ".join(result.get("burning", []))
                + " << REGRESSION (candidate ended its bench in violation)"
            )
        lines.append("")
        verdict = (
            "REGRESSION: " + ", ".join(result["regressions"])
            if result["regression"]
            else f"within threshold ({result['threshold']:.0%})"
        )
        lines.append(verdict)
    else:
        for key, d in result["deltas"].items():
            marker = " << REGRESSION" if key in result["regressions"] else ""
            gate = (
                f" [gate {d['threshold']:.1%}]" if "threshold" in d else ""
            )
            lines.append(
                f"{key}: {d['old']} -> {d['new']} "
                f"({d['rel']:+.1%}){gate}{marker}"
            )
            for c in result.get("contributors", {}).get(key, []):
                lines.append(
                    f"    driven by {c['workload']} [{c['config']}]: "
                    f"{c['old']} -> {c['new']} ({c['rel']:+.1%})"
                )
        for w, d in result["workloads"].items():
            lines.append(
                f"  {w} arbalest slowdown: {d['old']} -> {d['new']} "
                f"({d['rel']:+.1%})"
            )
        lines.append("")
        if result.get("calibrated"):
            lines.append(
                "thresholds calibrated from bench history for: "
                + ", ".join(result["calibrated"])
            )
        verdict = (
            f"REGRESSION: {', '.join(result['regressions'])} grew beyond "
            "the gate"
            if result["regression"]
            else f"within threshold ({result['threshold']:.0%})"
        )
        lines.append(verdict)
    lines.append("regression" if result["regression"] else "clean")
    return "\n".join(lines) + "\n"
