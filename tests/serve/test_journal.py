"""Shard journals: write-ahead dedup, ack watermarks, mirror round-trip."""

import io
import json
from dataclasses import replace

from repro.dracc import get
from repro.events.records import SyncEvent
from repro.events.trace_io import event_to_json
from repro.harness.serve import record_trace
from repro.serve import ShardJournal, ShardWorker

EVENT = SyncEvent(kind="taskwait", source_task=1, target_task=2, thread_id=0)


class TestDedup:
    def test_first_record_accepted_duplicate_dropped(self):
        journal = ShardJournal(0)
        assert journal.record(1, 0, EVENT)
        assert not journal.record(1, 0, EVENT)
        assert len(journal) == 1
        assert journal.duplicates_dropped == 1

    def test_dedup_is_per_client(self):
        journal = ShardJournal(0)
        assert journal.record(1, 0, EVENT)
        assert journal.record(2, 0, EVENT)  # same seq, different client
        assert len(journal) == 2

    def test_seen_queries_without_recording(self):
        journal = ShardJournal(0)
        journal.record(1, 5, EVENT)
        assert journal.seen(1, 5)
        assert not journal.seen(1, 6)


class TestAckWatermark:
    def test_watermark_advances_monotonically(self):
        journal = ShardJournal(0)
        assert journal.acked_seq(1) == -1
        journal.mark_acked(1, 3)
        journal.mark_acked(1, 1)  # stale ack must not regress it
        assert journal.acked_seq(1) == 3

    def test_watermark_is_per_client(self):
        journal = ShardJournal(0)
        journal.mark_acked(1, 9)
        assert journal.acked_seq(2) == -1


class TestReplay:
    def test_replay_preserves_append_order(self):
        journal = ShardJournal(0)
        for seq in (0, 1, 2):
            journal.record(1, seq, replace(EVENT, source_task=seq))
        assert [seq for _c, seq, _e in journal.replay()] == [0, 1, 2]

    def test_replay_snapshot_unaffected_by_later_appends(self):
        journal = ShardJournal(0)
        journal.record(1, 0, EVENT)
        snapshot = journal.replay()
        journal.record(1, 1, EVENT)
        assert len(list(snapshot)) == 1


class TestMirror:
    def test_sink_mirror_loads_back_identically(self):
        sink = io.StringIO()
        journal = ShardJournal(3, sink=sink)
        journal.record(1, 0, EVENT)
        journal.record(1, 1, replace(EVENT, source_task=7))
        journal.record(1, 0, EVENT)  # duplicate: not mirrored
        sink.seek(0)
        loaded = ShardJournal.load(3, sink)
        assert list(loaded.replay()) == list(journal.replay())
        assert loaded.stats()["entries"] == 2

    def test_mirror_lines_keep_the_event_to_json_format(self):
        trace = record_trace(get(22))
        sink = io.StringIO()
        journal = ShardJournal(0, sink=sink)
        for seq, event in enumerate(trace):
            journal.record(1, seq, event)
        assert sink.getvalue().splitlines() == [
            json.dumps(
                {"c": 1, "s": seq, "e": event_to_json(event)},
                sort_keys=True,
                separators=(",", ":"),
            )
            for seq, event in enumerate(trace)
        ]

    def test_dict_mirror_replays_to_the_live_findings(self):
        # Mirror lines as journals wrote them when entries were
        # ``event_to_json`` dicts: ``{"c", "s", "e": <dict>}``.
        trace = record_trace(get(22))
        lines = "".join(
            json.dumps({"c": 1, "s": seq, "e": event_to_json(event)}) + "\n"
            for seq, event in enumerate(trace)
        )
        live = ShardWorker(0)
        for seq, event in enumerate(trace):
            live.deliver(1, seq, event)
        replayed = ShardWorker(0, journal=ShardJournal.load(0, io.StringIO(lines)))
        replayed.restart()
        assert replayed.replayed_events == len(trace)
        assert replayed.journal.load_errors == 0

        def fingerprints(worker):
            return sorted(
                (tool, finding.fingerprint(), count)
                for tool, finding, count in worker.findings()
            )

        assert fingerprints(live)
        assert fingerprints(replayed) == fingerprints(live)
