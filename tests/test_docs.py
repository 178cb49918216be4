"""Numbers quoted in EXPERIMENTS.md match the committed artifacts, the
commands it gives for regenerating them exist, and the package and example
lists in README.md and DESIGN.md name exactly what the tree holds."""

import argparse
import json
import pathlib
import re

import pytest

from repro.cli import build_parser

ROOT = pathlib.Path(__file__).resolve().parent.parent

#: ``BENCH_fig8.json`` summary key -> how EXPERIMENTS.md quotes it.
FIG8_QUOTES = {
    "arbalest_slowdown_geomean": r"(?<![-\w])arbalest\s+geomean\s+\**(\d+\.\d+)×",
    "arbalest_cert_slowdown_geomean": r"arbalest-cert\s+geomean\s+\**(\d+\.\d+)×",
    "profiler_overhead_geomean": r"`profiler_overhead_geomean`\s+\**(\d+\.\d+)",
}


@pytest.mark.parametrize("key", sorted(FIG8_QUOTES))
def test_quoted_fig8_geomeans_match_the_artifact(key):
    summary = json.loads((ROOT / "BENCH_fig8.json").read_text())["summary"]
    text = (ROOT / "EXPERIMENTS.md").read_text()
    quoted = re.findall(FIG8_QUOTES[key], text)
    assert quoted, f"EXPERIMENTS.md no longer quotes {key}"
    assert all(float(q) == summary[key] for q in quoted), (
        f"EXPERIMENTS.md quotes {key} as {quoted}; "
        f"BENCH_fig8.json says {summary[key]}"
    )


#: How EXPERIMENTS.md quotes the serve bench's served throughput.
SERVE_EVENTS_PER_SEC = r"`events_per_sec`\s+\**(\d+(?:\.\d+)?)"


def test_quoted_served_events_per_sec_matches_the_artifact():
    summary = json.loads((ROOT / "BENCH_serve.json").read_text())["summary"]
    text = (ROOT / "EXPERIMENTS.md").read_text()
    quoted = re.findall(SERVE_EVENTS_PER_SEC, text)
    assert quoted, "EXPERIMENTS.md no longer quotes the served events/sec"
    assert all(float(q) == summary["events_per_sec"] for q in quoted), (
        f"EXPERIMENTS.md quotes events_per_sec as {quoted}; "
        f"BENCH_serve.json says {summary['events_per_sec']}"
    )


def _section(heading: str) -> str:
    """EXPERIMENTS.md from the heading starting with ``heading`` to the
    next heading of any level."""
    text = (ROOT / "EXPERIMENTS.md").read_text()
    chunks = re.split(r"^(?=#{1,6} )", text, flags=re.M)
    matches = [c for c in chunks if c.startswith(heading)]
    assert len(matches) == 1, f"EXPERIMENTS.md has no single {heading!r} section"
    return matches[0]


def _table_cells(section: str) -> dict[tuple[str, str], str]:
    """``(row label, column header) -> cell`` of the markdown-style table
    in ``section`` (rows start ``| ``; the ``|---`` separator is skipped)."""
    rows = [
        [cell.strip() for cell in line.strip().strip("|").split("|")]
        for line in section.splitlines()
        if line.startswith("| ")
    ]
    assert rows, "section quotes no table"
    header, body = rows[0], rows[1:]
    return {
        (row[0], column): cell
        for row in body
        for column, cell in zip(header[1:], row[1:])
    }


@pytest.mark.parametrize(
    "heading,cell",
    [
        ("## F8 ", lambda c: f"{c['slowdown']:.2f}x"),
        ("## F9 ", lambda c: f"{(c['app_bytes'] + c['shadow_bytes']) / 1024:.0f}K"),
    ],
    ids=["fig8", "fig9"],
)
def test_figure_tables_match_the_artifact(heading, cell):
    payload = json.loads((ROOT / "BENCH_fig8.json").read_text())
    quoted = _table_cells(_section(heading))
    expected = {
        (workload, config): cell(row[config])
        for workload, row in payload["workloads"].items()
        for config in payload["configs"]
    }
    assert quoted == expected


#: A word of a Regenerate: command that names a file or directory.
PATH_WORD = re.compile(r"^[\w.-]+/(?:[\w.-]+/)*(?:[\w-]+\.\w+)?$")


def test_regenerate_lines_name_what_exists():
    (subcommands,) = (
        action.choices
        for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    paragraphs = [
        " ".join(p.split())
        for p in (ROOT / "EXPERIMENTS.md").read_text().split("\n\n")
        if p.startswith("Regenerate:")
    ]
    assert paragraphs, "EXPERIMENTS.md has no Regenerate: lines"
    missing = []
    for paragraph in paragraphs:
        for span in re.findall(r"`([^`]+)`", paragraph):
            words = span.split()
            if words[:3] == ["python", "-m", "repro"] and len(words) > 3:
                if words[3] not in subcommands:
                    missing.append(f"repro {words[3]}")
            missing += [
                word
                for word in words
                if PATH_WORD.match(word) and not (ROOT / word).exists()
            ]
    assert not missing, f"Regenerate: lines name what does not exist: {missing}"


def test_quoted_fig8_spread_matches_the_ledger():
    # F8b quotes each summary geomean of the committed artifact with its
    # min–max over the last five ledgered runs like it; the artifact is
    # the last of them.
    payload = json.loads((ROOT / "BENCH_fig8.json").read_text())
    entries = [
        json.loads(line)
        for line in (ROOT / "BENCH_history.jsonl").read_text().splitlines()
    ]
    runs = [
        e["metrics"]["summary"]
        for e in entries
        if e["kind"] == "bench" and e["meta"] == payload["meta"]
    ][-5:]
    assert len(runs) == 5
    assert runs[-1] == payload["summary"]
    rows = re.findall(
        r"^\| `(\w+)` \| (\d+\.\d+) \| (\d+\.\d+)–(\d+\.\d+) \|$",
        _section("### F8b "),
        flags=re.M,
    )
    assert rows, "F8b no longer quotes the summary spread"
    for key, committed, low, high in rows:
        series = [run[key] for run in runs]
        assert float(committed) == payload["summary"][key], key
        assert (float(low), float(high)) == (min(series), max(series)), key


def test_package_lists_name_every_subpackage_and_nothing_else():
    (architecture,) = re.findall(
        r"^## Architecture\n+```\n(.*?)^```",
        (ROOT / "README.md").read_text(),
        flags=re.M | re.S,
    )
    readme_map = set(re.findall(r"^  (\w+)/ ", architecture, flags=re.M))
    design = (ROOT / "DESIGN.md").read_text()
    inventory = design[design.index("## 2. Package inventory") :]
    inventory = inventory[: inventory.index("\n## ")]
    design_rows = set(re.findall(r"^\| `(\w+)/`", inventory, flags=re.M))
    packages = {
        path.parent.name for path in (ROOT / "src" / "repro").glob("*/__init__.py")
    }
    assert readme_map == packages, (sorted(readme_map), sorted(packages))
    assert design_rows == packages, (sorted(design_rows), sorted(packages))


def test_examples_table_lists_every_example():
    listed = re.findall(
        r"^\| `(examples/\w+\.py)` \|",
        (ROOT / "README.md").read_text(),
        flags=re.M,
    )
    scripts = sorted(
        str(path.relative_to(ROOT)) for path in (ROOT / "examples").glob("*.py")
    )
    assert sorted(listed) == scripts
