"""Cross-run regression diffing of artifacts with deterministic verdicts.

``repro diff old new`` compares two artifacts of the same type:

* **report** artifacts (``repro-report/1`` JSONL): findings are matched by
  ``(benchmark, tool, fingerprint)`` — the fingerprint is ordinal- and
  address-independent, so the same bug matches across runs — and
  classified as *new* (regression), *fixed*, or *changed* (same site,
  different report count);
* **synth-bench** artifacts (``BENCH_synth.json``, ``synth-bench/1``
  shape): synthesized transfer bytes growing on any program, or a
  clean/equivalence verdict lost, is a regression — no threshold, the
  byte counts are deterministic.

Timed artifacts (``BENCH_fig8.json`` and ``serve-bench/1``) are refused:
two timings differ by noise, so their one gate is ``repro sentinel``,
which calibrates its verdicts from the bench-history ledger.

A diff with at least one regression is what makes the CLI exit non-zero —
the CI gate in one command.
"""

from __future__ import annotations

import json

from ..observe.history import artifact_kind
from .report import parse_jsonl


def load_artifact(path: str) -> tuple[str, dict]:
    """Sniff and load ``path`` as ``("report", ...)`` or ``("synth-bench", ...)``.

    A timed artifact raises ``ValueError`` naming ``repro sentinel``.
    """
    with open(path) as fh:
        text = fh.read()
    try:
        whole = json.loads(text)
    except json.JSONDecodeError:
        whole = None
    if isinstance(whole, dict):
        try:
            kind = artifact_kind(whole)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
        if kind != "synth-bench":
            raise ValueError(
                f"{path}: {kind} artifacts are timed; gate them with "
                f"`repro sentinel --kind {kind}` over the bench-history ledger"
            )
        return kind, whole
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


def diff_artifacts(old_path: str, new_path: str) -> dict:
    """Load two artifacts, require matching types, and diff them."""
    old_type, old_payload = load_artifact(old_path)
    new_type, new_payload = load_artifact(new_path)
    if old_type != new_type:
        raise ValueError(
            f"cannot diff a {old_type} artifact against a {new_type} artifact"
        )
    if old_type == "report":
        return diff_reports(old_payload, new_payload)
    return diff_synth_bench(old_payload, new_payload)


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
    else:
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
    lines.append("regression" if result["regression"] else "clean")
    return "\n".join(lines) + "\n"
