"""Numbers quoted in EXPERIMENTS.md match the committed artifacts."""

import json
import pathlib
import re

import pytest

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
