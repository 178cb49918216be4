"""Service-level metric snapshots and Prometheus text exposition.

The serve stack already counts everything that matters — per-session
ordering stats live on :class:`~repro.serve.server._Session`, per-shard
detector stats on :class:`~repro.serve.shard.ShardWorker`, journal depth
on :class:`~repro.serve.journal.ShardJournal` — but each count lives
where it is produced.  :func:`service_snapshot` walks the whole tree once
and aggregates it into one JSON document (the shape the bench artifact
embeds), and :func:`render_prometheus` lowers that document to the
Prometheus text exposition format served at ``/metrics``.
:func:`parse_exposition` reads that format back strictly: it is the
oracle the tests and the CI scrape check ``/metrics`` against.

Both are read-only over live server state: scraping never perturbs the
hot path, and two scrapes of an idle server render byte-identical text
(sorted clients, shards, stages, buckets).

Histograms are the stack's power-of-two
:class:`~repro.telemetry.registry.Histogram`\\ s; exposition lowers them to
cumulative ``le`` buckets at the power-of-two edges plus ``+Inf``, which
is exactly what ``histogram_quantile()`` in PromQL expects.
"""

from __future__ import annotations

__all__ = [
    "service_snapshot",
    "render_prometheus",
    "parse_exposition",
    "metric_value",
    "METRICS_SCHEMA",
]

METRICS_SCHEMA = "serve-metrics/1"


def _session_snapshot(session) -> dict:
    sup = session.supervisor
    return {
        "queue_depth": session.parked,
        "next_seq": session.next_seq,
        "finished": session.finished,
        "degraded": session.degraded,
        "degraded_markers": len(session.ledger.markers),
        "dup_frames": session.dup_frames,
        "shed_frames": session.shed_frames,
        "nacks_sent": session.nacks_sent,
        "events_delivered": sup.events_delivered,
        # One per (frame, shard) slice delivery attempt, redeliveries
        # after a worker crash included — not one per event.
        "delivery_attempts": sup.delivery_attempts,
        "duplicates_dropped": sup.duplicates_dropped,
        "worker_restarts": sup.worker_restarts,
        "findings": len(session.ledger.delivered),
        "shards": {
            str(worker.shard_id): {
                "alive": worker.alive,
                "applied": worker.applied,
                "restarts": worker.restarts,
                "replayed_events": worker.replayed_events,
                "journal_entries": len(worker.journal),
            }
            for worker in sup.workers
        },
    }


def service_snapshot(server, observer=None) -> dict:
    """Aggregate live server (and observer) state into one document."""
    sessions = {
        str(client_id): _session_snapshot(server.sessions[client_id])
        for client_id in sorted(server.sessions)
    }
    totals = {
        "sessions": len(sessions),
        "finished_sessions": sum(1 for s in sessions.values() if s["finished"]),
        "degraded_sessions": sum(1 for s in sessions.values() if s["degraded"]),
        "in_flight_events": sum(s["queue_depth"] for s in sessions.values()),
        "queue_cap": server.config.queue_cap,
    }
    for key in (
        "degraded_markers",
        "dup_frames",
        "shed_frames",
        "nacks_sent",
        "events_delivered",
        "delivery_attempts",
        "duplicates_dropped",
        "worker_restarts",
        "findings",
    ):
        totals[key] = sum(s[key] for s in sessions.values())
    totals["shards_alive"] = sum(
        1
        for s in sessions.values()
        for shard in s["shards"].values()
        if shard["alive"]
    )
    totals["shards_total"] = sum(len(s["shards"]) for s in sessions.values())
    totals["journal_entries"] = sum(
        shard["journal_entries"]
        for s in sessions.values()
        for shard in s["shards"].values()
    )
    totals["replayed_events"] = sum(
        shard["replayed_events"]
        for s in sessions.values()
        for shard in s["shards"].values()
    )
    snapshot = {
        "schema": METRICS_SCHEMA,
        "frames_handled": server.frames_handled,
        "drained": server.drained,
        "sessions": sessions,
        "totals": totals,
    }
    if observer is not None:
        snapshot["observer"] = observer.stats()
        snapshot["latency"] = observer.latency_summary()
        profiler = getattr(observer, "profiler", None)
        if profiler is not None:
            snapshot["profile"] = {
                "events": profiler.events,
                "samples": profiler.samples,
                "stride": profiler.stride,
                "by_phase": profiler.samples_by_phase(),
                "governor_tax": (
                    profiler.governor.last_tax
                    if profiler.governor is not None
                    else None
                ),
            }
    return snapshot


# -- Prometheus text exposition -------------------------------------------


def _escape_label_value(value) -> str:
    """Escape a label value per the Prometheus text exposition spec.

    Backslash, double-quote and newline are the three characters the spec
    requires escaping inside quoted label values; anything else passes
    through verbatim.  Order matters: backslash first, or the escapes we
    just introduced would be re-escaped.
    """
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


def _labels(**labels) -> str:
    if not labels:
        return ""
    body = ",".join(
        f'{k}="{_escape_label_value(labels[k])}"' for k in sorted(labels)
    )
    return "{" + body + "}"


class _Exposition:
    """Accumulates HELP/TYPE metadata and samples per metric family."""

    def __init__(self) -> None:
        self.lines: list[str] = []

    def family(self, name: str, kind: str, help_text: str) -> None:
        self.lines.append(f"# HELP {name} {help_text}")
        self.lines.append(f"# TYPE {name} {kind}")

    def sample(self, name: str, value, **labels) -> None:
        if isinstance(value, bool):
            value = int(value)
        if isinstance(value, float) and value == int(value):
            value = int(value)
        self.lines.append(f"{name}{_labels(**labels)} {value}")

    def histogram(self, name: str, summary: dict, **labels) -> None:
        """Lower a power-of-two histogram summary to cumulative buckets.

        ``summary`` is a :meth:`Histogram.snapshot` dict (bucket keys are
        ``"<=2^k"``); the exposition gets one cumulative sample per edge
        plus ``+Inf``, then ``_sum`` and ``_count``.
        """
        cumulative = 0
        for key in sorted(summary["buckets"], key=lambda k: int(k[4:])):
            cumulative += summary["buckets"][key]
            edge = 1 << int(key[4:])
            self.sample(
                f"{name}_bucket", cumulative, le=str(edge), **labels
            )
        self.sample(f"{name}_bucket", summary["count"], le="+Inf", **labels)
        self.sample(f"{name}_sum", summary["sum"], **labels)
        self.sample(f"{name}_count", summary["count"], **labels)

    def render(self) -> str:
        return "\n".join(self.lines) + "\n"


def render_prometheus(snapshot: dict) -> str:
    """Lower a :func:`service_snapshot` document to exposition text."""
    exp = _Exposition()
    totals = snapshot["totals"]

    exp.family(
        "repro_serve_frames_handled_total",
        "counter",
        "Inbound frames handled by the protocol engine.",
    )
    exp.sample("repro_serve_frames_handled_total", snapshot["frames_handled"])

    gauges = [
        ("repro_serve_sessions", totals["sessions"], "Sessions ever opened."),
        (
            "repro_serve_in_flight_events",
            totals["in_flight_events"],
            "Events parked in reorder buffers across all sessions.",
        ),
        (
            "repro_serve_queue_cap",
            totals["queue_cap"],
            "Per-session reorder buffer capacity in events.",
        ),
        (
            "repro_serve_degraded_sessions",
            totals["degraded_sessions"],
            "Sessions currently marked DEGRADED.",
        ),
        (
            "repro_serve_shards_alive",
            totals["shards_alive"],
            "Shard workers currently alive.",
        ),
        (
            "repro_serve_shards_total",
            totals["shards_total"],
            "Shard workers configured across all sessions.",
        ),
        (
            "repro_serve_journal_entries",
            totals["journal_entries"],
            "Journaled event frames across all shards.",
        ),
    ]
    for name, value, help_text in gauges:
        exp.family(name, "gauge", help_text)
        exp.sample(name, value)

    counters = [
        (
            "repro_serve_dup_frames_total",
            totals["dup_frames"],
            "Duplicate EVENT frames dropped (re-ACKed or re-NACKed).",
        ),
        (
            "repro_serve_shed_frames_total",
            totals["shed_frames"],
            "Frames shed by reorder-buffer backpressure.",
        ),
        (
            "repro_serve_nacks_total",
            totals["nacks_sent"],
            "NACK frames sent.",
        ),
        (
            "repro_serve_degraded_markers_total",
            totals["degraded_markers"],
            "DEGRADED markers recorded in delivery ledgers.",
        ),
        (
            "repro_serve_worker_restarts_total",
            totals["worker_restarts"],
            "Shard worker restarts (crash recovery).",
        ),
        (
            "repro_serve_events_delivered_total",
            totals["events_delivered"],
            "Events fully applied on every shard they route to.",
        ),
        (
            "repro_serve_replayed_events_total",
            totals["replayed_events"],
            "Journal entries re-applied during worker restarts.",
        ),
        (
            "repro_serve_findings_total",
            totals["findings"],
            "Findings delivered across all finished sessions.",
        ),
    ]
    for name, value, help_text in counters:
        exp.family(name, "counter", help_text)
        exp.sample(name, value)

    exp.family(
        "repro_serve_session_queue_depth",
        "gauge",
        "Reorder-buffer depth per session, in parked events.",
    )
    for client, sess in snapshot["sessions"].items():
        exp.sample(
            "repro_serve_session_queue_depth",
            sess["queue_depth"],
            client=client,
        )
    exp.family(
        "repro_serve_shard_applied_total",
        "counter",
        "Events applied per shard worker.",
    )
    exp.family(
        "repro_serve_shard_restarts_total",
        "counter",
        "Restarts per shard worker.",
    )
    exp.family(
        "repro_serve_shard_alive",
        "gauge",
        "Liveness per shard worker (1 = alive).",
    )
    for client, sess in snapshot["sessions"].items():
        for shard, stats in sess["shards"].items():
            exp.sample(
                "repro_serve_shard_applied_total",
                stats["applied"],
                client=client,
                shard=shard,
            )
            exp.sample(
                "repro_serve_shard_restarts_total",
                stats["restarts"],
                client=client,
                shard=shard,
            )
            exp.sample(
                "repro_serve_shard_alive",
                stats["alive"],
                client=client,
                shard=shard,
            )

    observer = snapshot.get("observer")
    if observer is not None:
        observer_counters = [
            (
                "repro_serve_redeliveries_total",
                observer["redeliveries"],
                "Frames that needed redelivery (dup, shed, crash-redriven).",
            ),
            (
                "repro_serve_wire_decode_errors_total",
                observer["decode_errors"],
                "Wire frames rejected by the decoder or payload parser.",
            ),
            (
                "repro_serve_journal_replay_errors_total",
                observer["replay_errors"],
                "Journal entries skipped during replay (malformed).",
            ),
            (
                "repro_serve_slo_evaluations_total",
                observer["watchdog"]["evaluations"],
                "SLO watchdog window evaluations.",
            ),
            (
                "repro_serve_slo_burn_events_total",
                observer["watchdog"]["burn_events"],
                "SLO burn transitions observed by the watchdog.",
            ),
        ]
        for name, value, help_text in observer_counters:
            exp.family(name, "counter", help_text)
            exp.sample(name, value)
        exp.family(
            "repro_serve_slo_burning",
            "gauge",
            "Whether the named SLO is currently burning (1 = burning).",
        )
        burning = set(observer["watchdog"]["burning"])
        for spec in observer["watchdog"]["specs"]:
            exp.sample(
                "repro_serve_slo_burning",
                spec["name"] in burning,
                slo=spec["name"],
            )

    profile = snapshot.get("profile")
    if profile is not None:
        exp.family(
            "repro_serve_profile_events_total",
            "counter",
            "Access events seen by the continuous profiler's ordinal clock.",
        )
        exp.sample("repro_serve_profile_events_total", profile["events"])
        exp.family(
            "repro_serve_profile_samples_total",
            "counter",
            "Profile samples taken (per shard phase).",
        )
        for phase in sorted(profile["by_phase"]):
            exp.sample(
                "repro_serve_profile_samples_total",
                profile["by_phase"][phase],
                shard=phase,
            )
        exp.family(
            "repro_serve_profile_stride",
            "gauge",
            "Current profiler sampling stride (events per sample).",
        )
        exp.sample("repro_serve_profile_stride", profile["stride"])
        if profile.get("governor_tax") is not None:
            exp.family(
                "repro_serve_profile_tax",
                "gauge",
                "Profiling tax measured by the governor over its last window.",
            )
            exp.sample(
                "repro_serve_profile_tax", round(profile["governor_tax"], 6)
            )

    latency = snapshot.get("latency")
    if latency is not None:
        exp.family(
            "repro_serve_frame_latency_us",
            "histogram",
            "Wall-clock frame handling latency in microseconds.",
        )
        exp.histogram("repro_serve_frame_latency_us", latency["frame"])

    return exp.render()


def _parse_label_body(body: str) -> dict:
    """Parse ``key="value",...`` honoring the exposition escape rules.

    Values may contain commas, quotes, backslashes and newlines — escaped
    as ``\\\\``, ``\\"`` and ``\\n`` — so a naive split on ``,`` is wrong.
    This is a small state machine: scan each key up to ``=``, then consume
    the quoted value unescaping as we go.
    """
    labels: dict = {}
    i, n = 0, len(body)
    while i < n:
        eq = body.find("=", i)
        if eq < 0:
            raise ValueError(f"malformed label body (no '='): {body[i:]!r}")
        key = body[i:eq]
        if not key or not key.replace("_", "").isalnum():
            raise ValueError(f"malformed label name: {key!r}")
        if eq + 1 >= n or body[eq + 1] != '"':
            raise ValueError(f"label value for {key!r} is not quoted")
        value_chars: list[str] = []
        i = eq + 2
        while True:
            if i >= n:
                raise ValueError(f"unterminated label value for {key!r}")
            ch = body[i]
            if ch == "\\":
                if i + 1 >= n:
                    raise ValueError(f"dangling escape in label value for {key!r}")
                esc = body[i + 1]
                if esc == "n":
                    value_chars.append("\n")
                elif esc in ('"', "\\"):
                    value_chars.append(esc)
                else:
                    raise ValueError(f"unknown escape \\{esc} in value for {key!r}")
                i += 2
                continue
            if ch == '"':
                i += 1
                break
            value_chars.append(ch)
            i += 1
        labels[key] = "".join(value_chars)
        if i < n:
            if body[i] != ",":
                raise ValueError(f"expected ',' between label pairs at {body[i:]!r}")
            i += 1
    return labels


def parse_exposition(text: str) -> dict[str, list[tuple[dict, float]]]:
    """Parse Prometheus text exposition into ``name -> [(labels, value)]``.

    Strict enough to double as a validity check: every sample line must
    be ``name[{labels}] value`` with a float-parseable value, and label
    bodies must be escape-aware ``key="value"`` pairs.  Raises
    ``ValueError`` on anything else — the CI job feeds the live
    ``/metrics`` body through this parser as its exposition-validity gate.
    """
    families: dict[str, list[tuple[dict, float]]] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        name_part, _, value_part = line.rpartition(" ")
        if not name_part:
            raise ValueError(f"malformed exposition line: {line!r}")
        if value_part == "+Inf":
            value = float("inf")
        else:
            value = float(value_part)  # raises ValueError on junk
        labels: dict = {}
        if name_part.endswith("}"):
            name, _, label_body = name_part.partition("{")
            labels = _parse_label_body(label_body[:-1])
        else:
            name = name_part
        if not name.replace("_", "").replace(":", "").isalnum():
            raise ValueError(f"malformed metric name: {name!r}")
        families.setdefault(name, []).append((labels, value))
    return families


def metric_value(
    families: dict[str, list[tuple[dict, float]]], name: str, **labels
) -> float | None:
    """The sample value matching ``labels`` exactly, or ``None``."""
    for sample_labels, value in families.get(name, []):
        if sample_labels == labels:
            return value
    return None
