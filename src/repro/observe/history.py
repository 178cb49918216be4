"""The bench-history ledger: one JSONL line per benchmark run.

Single-artifact BENCH files answer "what did the last run measure"; the
ledger answers "what has this machine measured *over time*", which is what
the statistical sentinel (:mod:`repro.observe.sentinel`) needs to separate
noise from regressions.  Every ``repro bench``, ``repro serve --bench`` and
``repro synth --score`` run appends one self-describing entry:

.. code-block:: json

    {"schema": "bench-history/1", "kind": "bench", "ordinal": 7,
     "meta": {"preset": "train", "reps": 5, "python": "3.11.7", ...},
     "metrics": {"summary": {...}, "workloads": {"pcg": {"arbalest": 2.4}}}}

``ordinal`` is a monotonic per-ledger run counter (the sentinel's x-axis);
``meta`` carries the environment fingerprint (python/numpy versions,
platform) so cross-machine entries can be told apart, and fingerprint
changes are reported alongside verdicts.  Entries written before the bus
had a single dispatch path carry a legacy ``engine`` meta key; readers
ignore it.

The ledger is append-only JSONL so concurrent CI jobs can cat their shards
together, and :func:`seed_history` migrates the pre-ledger ``BENCH_*.json``
artifacts so history starts with whatever the repo already measured.
"""

from __future__ import annotations

import json
import os
import platform
import sys
from typing import Iterable

import numpy as np

#: Schema tag stamped on every ledger line.
HISTORY_SCHEMA = "bench-history/1"

#: Default ledger path, tracked in-repo so history survives checkouts.
DEFAULT_HISTORY = "BENCH_history.jsonl"

#: Artifact kinds the ledger accepts (mirrors ``forensics.diff`` sniffing).
HISTORY_KINDS = ("bench", "serve-bench", "synth-bench")


def env_fingerprint() -> dict:
    """The environment facts that make timings comparable (or not)."""
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": sys.platform,
        "machine": platform.machine(),
    }


def run_meta(
    *,
    preset: str | None = None,
    reps: int | None = None,
    **extra,
) -> dict:
    """A self-describing ``meta`` block for a bench artifact/ledger entry."""
    meta: dict = {}
    if preset is not None:
        meta["preset"] = preset
    if reps is not None:
        meta["reps"] = reps
    meta.update(env_fingerprint())
    for key, value in sorted(extra.items()):
        if value is not None:
            meta[key] = value
    return meta


def _bench_metrics(payload: dict) -> dict:
    workloads = {}
    for name, configs in payload.get("workloads", {}).items():
        cells = {}
        for config, cell in configs.items():
            if isinstance(cell, dict) and "slowdown" in cell:
                cells[config] = cell["slowdown"]
        if cells:
            workloads[name] = cells
    return {"summary": _numeric(payload.get("summary", {})), "workloads": workloads}


def _numeric(mapping: dict) -> dict:
    """Numeric cells only — bools are counters' cousins, not metrics."""
    return {
        key: value
        for key, value in mapping.items()
        if isinstance(value, (int, float)) and not isinstance(value, bool)
    }


def _serve_metrics(payload: dict) -> dict:
    metrics: dict = {"summary": _numeric(payload.get("summary", {}))}
    metrics["suite"] = payload.get("suite")
    metrics["delivery_ok"] = bool(payload.get("delivery_ok", False))
    for key in ("events", "frames", "stream_seconds"):
        value = payload.get(key)
        if isinstance(value, (int, float)):
            metrics[key] = value
    return metrics


def _synth_metrics(payload: dict) -> dict:
    summary = payload.get("summary", {})
    metrics: dict = {"summary": _numeric(summary) if isinstance(summary, dict) else {}}
    if isinstance(summary, dict):
        metrics["ok"] = bool(summary.get("ok", False))
    return metrics


def artifact_kind(payload: dict) -> str:
    """Classify a bench payload the same way ``forensics.diff`` sniffs it."""
    artifact = payload.get("artifact")
    if artifact == "serve-bench/1":
        return "serve-bench"
    if artifact == "synth-bench/1":
        return "synth-bench"
    if "workloads" in payload and "summary" in payload:
        return "bench"
    raise ValueError(
        "cannot classify artifact for the history ledger: "
        f"artifact={artifact!r}, keys={sorted(payload)[:8]}"
    )


def history_entry(payload: dict, *, meta: dict | None = None) -> dict:
    """Distil one bench payload into a ledger entry (without ordinal)."""
    kind = artifact_kind(payload)
    if kind == "bench":
        metrics = _bench_metrics(payload)
    elif kind == "serve-bench":
        metrics = _serve_metrics(payload)
    else:
        metrics = _synth_metrics(payload)
    if meta is None:
        meta = payload.get("meta")
    if meta is None:
        meta = run_meta()
    return {
        "schema": HISTORY_SCHEMA,
        "kind": kind,
        "meta": meta,
        "metrics": metrics,
    }


def load_history(path: str, *, kind: str | None = None) -> list[dict]:
    """Load and validate ledger entries, optionally filtered by kind."""
    if kind is not None and kind not in HISTORY_KINDS:
        raise ValueError(f"unknown history kind {kind!r}: expected {HISTORY_KINDS}")
    entries: list[dict] = []
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                entry = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}:{lineno}: not valid JSON: {exc}") from None
            if entry.get("schema") != HISTORY_SCHEMA:
                raise ValueError(
                    f"{path}:{lineno}: schema {entry.get('schema')!r} is not "
                    f"{HISTORY_SCHEMA!r}"
                )
            if entry.get("kind") not in HISTORY_KINDS:
                raise ValueError(
                    f"{path}:{lineno}: unknown entry kind {entry.get('kind')!r}"
                )
            entries.append(entry)
    if kind is not None:
        entries = [entry for entry in entries if entry["kind"] == kind]
    return entries


def _next_ordinal(path: str) -> int:
    if not os.path.exists(path):
        return 1
    last = 0
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                last = max(last, int(json.loads(line).get("ordinal", 0)))
            except (json.JSONDecodeError, TypeError, ValueError):
                continue  # ordinal scan is best-effort; load_history validates
    return last + 1


def append_history(path: str, payload: dict, *, meta: dict | None = None) -> dict:
    """Append one bench payload to the ledger; returns the written entry."""
    entry = history_entry(payload, meta=meta)
    entry = {
        "schema": entry["schema"],
        "kind": entry["kind"],
        "ordinal": _next_ordinal(path),
        "meta": entry["meta"],
        "metrics": entry["metrics"],
    }
    with open(path, "a", encoding="utf-8") as handle:
        handle.write(json.dumps(entry, sort_keys=True) + "\n")
    return entry


def seed_history(path: str, artifacts: Iterable[str]) -> int:
    """Migrate pre-ledger ``BENCH_*.json`` artifacts into the ledger.

    Entries are marked ``seeded`` in their meta (their environment
    fingerprint is unknown — the artifact predates the ledger).  Returns
    the number of entries appended; unreadable or unclassifiable files are
    skipped rather than aborting the migration.
    """
    appended = 0
    for artifact in artifacts:
        try:
            with open(artifact, "r", encoding="utf-8") as handle:
                payload = json.load(handle)
            meta = payload.get("meta")
            if meta is None:
                meta = {
                    "seeded": True,
                    "source": os.path.basename(artifact),
                }
                for key in ("preset", "repetitions"):
                    if key in payload:
                        meta["reps" if key == "repetitions" else key] = payload[key]
            append_history(path, payload, meta=meta)
            appended += 1
        except (OSError, ValueError):
            continue
    return appended
