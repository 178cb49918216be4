"""Report artifacts: findings + provenance + metrics, machine-diffable.

A *report* is one run's deduped findings with their provenance timelines,
in a stable shape that renders three ways:

* **JSON-lines** (the tracked artifact format, ``repro-report/1``): one
  ``header`` record, one ``finding`` record per deduped finding, one
  ``summary`` record.  Every field is ordinal-clock deterministic — two
  runs of the same program produce byte-identical files, which is what
  makes ``repro diff`` meaningful;
* **text** — the terminal rendering;
* **HTML** — a self-contained page (:mod:`repro.forensics.html`).

This module owns the *format*; :mod:`repro.harness.report` owns running
the benchmarks that fill it.
"""

from __future__ import annotations

import json

from ..tools.findings import Finding

#: Artifact schema tag; bump on incompatible layout changes.
SCHEMA = "repro-report/1"


def finding_entry(
    finding: Finding, count: int, *, benchmark: int, bench_name: str
) -> dict:
    """One ``finding`` record (plain JSON-serializable dict)."""
    loc = finding.location
    entry: dict = {
        "record": "finding",
        "benchmark": benchmark,
        "bench_name": bench_name,
        "tool": finding.tool,
        "kind": finding.kind.value,
        "variable": finding.variable,
        "fingerprint": finding.fingerprint(),
        "location": f"{loc.file}:{loc.line}" if finding.has_stack else "",
        "message": finding.message,
        "count": count,
    }
    provenance = finding.provenance
    if provenance is not None:
        entry["dropped"] = provenance.dropped
        entry["explanation"] = provenance.explanation
        entry["events"] = [e.to_json() for e in provenance.events]
    else:
        entry["dropped"] = 0
        entry["explanation"] = ""
        entry["events"] = []
    return entry


def build_summary(findings: list[dict], *, benchmarks: int) -> dict:
    by_kind: dict[str, int] = {}
    by_tool: dict[str, int] = {}
    for f in findings:
        by_kind[f["kind"]] = by_kind.get(f["kind"], 0) + 1
        by_tool[f["tool"]] = by_tool.get(f["tool"], 0) + 1
    return {
        "record": "summary",
        "benchmarks": benchmarks,
        "findings": len(findings),
        "reports_total": sum(f["count"] for f in findings),
        "by_kind": {k: by_kind[k] for k in sorted(by_kind)},
        "by_tool": {k: by_tool[k] for k in sorted(by_tool)},
    }


def to_jsonl(payload: dict) -> str:
    """Serialize a report payload to the JSON-lines artifact form."""
    lines = [json.dumps(payload["header"], sort_keys=True)]
    lines += [json.dumps(f, sort_keys=True) for f in payload["findings"]]
    lines.append(json.dumps(payload["summary"], sort_keys=True))
    return "\n".join(lines) + "\n"


def parse_jsonl(text: str) -> dict:
    """Inverse of :func:`to_jsonl`; validates the schema tag."""
    header: dict | None = None
    findings: list[dict] = []
    summary: dict = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        record = json.loads(line)
        kind = record.get("record")
        if kind == "header":
            if record.get("schema") != SCHEMA:
                raise ValueError(
                    f"line {lineno}: unsupported report schema "
                    f"{record.get('schema')!r} (expected {SCHEMA!r})"
                )
            header = record
        elif kind == "finding":
            findings.append(record)
        elif kind == "summary":
            summary = record
        else:
            raise ValueError(f"line {lineno}: unknown record type {kind!r}")
    if header is None:
        raise ValueError("not a report artifact: no header record")
    return {"header": header, "findings": findings, "summary": summary}


def write_report(payload: dict, path: str) -> None:
    """Atomic write of the JSONL artifact (tmp + rename, like the benches)."""
    import os

    tmp = f"{path}.tmp"
    with open(tmp, "w") as fh:
        fh.write(to_jsonl(payload))
    os.replace(tmp, path)


def load_report(path: str) -> dict:
    with open(path) as fh:
        return parse_jsonl(fh.read())


# -- text rendering ----------------------------------------------------------


def render_text(payload: dict) -> str:
    header = payload["header"]
    lines = [
        f"report: suite={header['suite']} tools={','.join(header['tools'])} "
        f"capacity={header['capacity']}",
        "",
    ]
    current_bench = None
    for f in payload["findings"]:
        if f["benchmark"] != current_bench:
            current_bench = f["benchmark"]
            lines.append(f"== {f['bench_name']} ==")
        where = f" at {f['location']}" if f["location"] else ""
        var = f" [{f['variable']}]" if f["variable"] else ""
        times = f" (x{f['count']})" if f["count"] > 1 else ""
        lines.append(
            f"  {f['tool']}: {f['kind']}{var}{where}{times}  "
            f"#{f['fingerprint']}"
        )
        if f["events"]:
            if f["dropped"]:
                lines.append(f"    ... {f['dropped']} older event(s) evicted ...")
            for e in f["events"]:
                parts = [f"@{e['ordinal']}", e["kind"], f"dev{e['device']}"]
                if "before" in e:
                    parts.append(f"{e['before'] or '?'}->{e['after'] or '?'}")
                if "at" in e:
                    parts.append(f"at {e['at']}")
                if "detail" in e:
                    parts.append(f"({e['detail']})")
                lines.append("    " + " ".join(parts))
        if f["explanation"]:
            lines.append(f"    why: {f['explanation']}")
    if not payload["findings"]:
        lines.append("no findings")
    summary = payload["summary"]
    lines += [
        "",
        f"{summary['findings']} finding(s) over {summary['benchmarks']} "
        f"benchmark(s), {summary['reports_total']} raw report(s) before "
        "dedup",
    ]
    for kind, n in summary.get("by_kind", {}).items():
        lines.append(f"  {kind}: {n}")
    return "\n".join(lines) + "\n"
