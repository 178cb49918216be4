"""Shard journals: write-ahead dedup, ack watermarks, mirror round-trip."""

import io
import json
import random
from dataclasses import replace

from repro.dracc import get
from repro.events.records import SyncEvent
from repro.events.trace_io import event_to_json
from repro.harness.serve import record_trace
from repro.serve import ShardJournal, ShardWorker

EVENT = SyncEvent(kind="taskwait", source_task=1, target_task=2, thread_id=0)


def one(seq: int, event=EVENT) -> list:
    """A one-event slice."""
    return [(seq, event)]


class TestDedup:
    def test_first_record_accepted_duplicate_dropped(self):
        journal = ShardJournal(0)
        assert journal.record(1, one(0)) == one(0)
        assert journal.record(1, one(0)) == []
        assert len(journal) == 1
        assert journal.duplicates_dropped == 1

    def test_dedup_is_per_client(self):
        journal = ShardJournal(0)
        assert journal.record(1, one(0))
        assert journal.record(2, one(0))  # same seq, different client
        assert len(journal) == 2

    def test_seen_queries_without_recording(self):
        journal = ShardJournal(0)
        journal.record(1, one(5))
        assert journal.seen(1, 5)
        assert not journal.seen(1, 6)

    def test_duplicate_slice_is_neither_journaled_nor_mirrored(self):
        sink = io.StringIO()
        journal = ShardJournal(0, sink=sink)
        entries = [(seq, replace(EVENT, source_task=seq)) for seq in (2, 5, 9)]
        journal.record(1, entries)
        mirrored = sink.getvalue()
        assert journal.record(1, list(entries)) == []
        assert sink.getvalue() == mirrored
        assert len(journal) == 3
        assert journal.duplicates_dropped == 3

    def test_redelivered_head_is_dropped_and_the_tail_kept(self):
        journal = ShardJournal(0)
        journal.record(1, [(0, EVENT), (3, EVENT)])
        assert journal.record(1, [(3, EVENT), (4, EVENT)]) == [(4, EVENT)]
        assert [seq for _c, seq, _e in journal.replay()] == [0, 3, 4]
        assert journal.duplicates_dropped == 1

    def test_watermark_dedup_agrees_with_seen(self):
        # Each shard sees a client's seqs in increasing order, with gaps
        # (the seqs routed elsewhere) and redeliveries of slices it holds.
        rng = random.Random(7)
        journal = ShardJournal(0)
        held: list[list] = []
        next_seq = 0
        for _ in range(200):
            if held and rng.random() < 0.3:
                entries = rng.choice(held)
            else:
                seqs = []
                for _ in range(rng.randint(1, 5)):
                    next_seq += rng.randint(1, 3)
                    seqs.append(next_seq)
                entries = [(seq, EVENT) for seq in seqs]
                held.append(entries)
            expected = [e for e in entries if not journal.seen(1, e[0])]
            assert journal.record(1, entries) == expected
        journaled = [seq for _c, seq, _e in journal.replay()]
        assert journaled == sorted(set(seq for s in held for seq, _ in s))
        assert all(journal.seen(1, seq) for seq in journaled)


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
        journal.record(1, [(seq, replace(EVENT, source_task=seq)) for seq in (0, 1)])
        journal.record(1, one(2, replace(EVENT, source_task=2)))
        assert [seq for _c, seq, _e in journal.replay()] == [0, 1, 2]

    def test_replay_snapshot_unaffected_by_later_appends(self):
        journal = ShardJournal(0)
        journal.record(1, one(0))
        snapshot = journal.replay()
        journal.record(1, one(1))
        assert len(list(snapshot)) == 1


class TestMirror:
    def test_sink_mirror_loads_back_identically(self):
        sink = io.StringIO()
        journal = ShardJournal(3, sink=sink)
        journal.record(1, one(0))
        journal.record(1, one(1, replace(EVENT, source_task=7)))
        journal.record(1, one(0))  # duplicate: not mirrored
        sink.seek(0)
        loaded = ShardJournal.load(3, sink)
        assert list(loaded.replay()) == list(journal.replay())
        assert loaded.stats()["entries"] == 2

    def test_mirror_lines_keep_the_event_to_json_format(self):
        trace = record_trace(get(22))
        sink = io.StringIO()
        journal = ShardJournal(0, sink=sink)
        journal.record(1, list(enumerate(trace))[:40])
        journal.record(2, [(0, trace[0])])
        journal.record(1, list(enumerate(trace))[40:])
        lines = sink.getvalue().splitlines()
        assert lines[:40] + lines[41:] == [
            json.dumps(
                {"c": 1, "s": seq, "e": event_to_json(event)},
                sort_keys=True,
                separators=(",", ":"),
            )
            for seq, event in enumerate(trace)
        ]
        sink.seek(0)
        loaded = ShardJournal.load(0, sink)
        assert list(loaded.replay()) == list(journal.replay())
        assert loaded.load_errors == 0

    def test_dict_mirror_replays_to_the_live_findings(self):
        # Mirror lines as journals wrote them when entries were
        # ``event_to_json`` dicts: ``{"c", "s", "e": <dict>}``.
        trace = record_trace(get(22))
        lines = "".join(
            json.dumps({"c": 1, "s": seq, "e": event_to_json(event)}) + "\n"
            for seq, event in enumerate(trace)
        )
        live = ShardWorker(0)
        live.deliver(1, list(enumerate(trace)))
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
