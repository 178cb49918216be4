"""Structured JSONL logging: ordinal clock, identity fields, sink."""

import io
import json

import pytest

from repro.observe import ObserveLog


class TestEvents:
    def test_ordinals_are_a_deterministic_clock(self):
        log = ObserveLog()
        entries = [log.event("a"), log.event("b"), log.event("c")]
        assert [e["ordinal"] for e in entries] == [1, 2, 3]

    def test_identity_fields_lead_and_none_is_dropped(self):
        log = ObserveLog()
        entry = log.event(
            "wire.decode_error", client=7, seq=3, shard=None, detail="bad", x=None
        )
        assert entry == {
            "event": "wire.decode_error",
            "ordinal": 1,
            "client": 7,
            "seq": 3,
            "detail": "bad",
        }

    def test_extra_fields_are_sorted(self):
        log = ObserveLog()
        entry = log.event("e", zebra=1, alpha=2)
        assert list(entry) == ["event", "ordinal", "alpha", "zebra"]

    def test_named_filters_in_order(self):
        log = ObserveLog()
        log.event("a")
        log.event("b", n=1)
        log.event("b", n=2)
        assert [e["n"] for e in log.named("b")] == [1, 2]


class TestSink:
    def test_sink_receives_compact_sorted_jsonl(self):
        sink = io.StringIO()
        log = ObserveLog(sink)
        log.event("slo.burn", slo="redelivery-rate", value=0.5)
        (line,) = sink.getvalue().splitlines()
        assert line == json.dumps(
            json.loads(line), sort_keys=True, separators=(",", ":")
        )
        assert json.loads(line)["slo"] == "redelivery-rate"

    def test_capacity_bounds_memory_not_the_sink(self):
        sink = io.StringIO()
        log = ObserveLog(sink, capacity=2)
        for n in range(5):
            log.event("e", n=n)
        assert [e["n"] for e in log.entries] == [3, 4]
        assert log.stats() == {"emitted": 5, "retained": 2, "evicted": 3}
        assert len(sink.getvalue().splitlines()) == 5  # sink saw everything

    def test_nonpositive_capacity_rejected(self):
        with pytest.raises(ValueError, match="capacity"):
            ObserveLog(capacity=0)

