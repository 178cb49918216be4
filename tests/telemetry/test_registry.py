"""Telemetry registry: metrics, spans, bus scoping, and the disabled default."""

import json

from repro.core.detector import Arbalest
from repro.dracc.registry import get as dracc_get
from repro.events.bus import ToolBus
from repro.harness import run_profile
from repro.observe import SpanLog, spans_by_frame, stitch_traces
from repro.openmp.runtime import TargetRuntime
from repro.telemetry import Histogram, Telemetry


class TestCounters:
    def test_count_accumulates(self):
        t = Telemetry()
        t.count("a")
        t.count("a", 4)
        t.count("b")
        assert t.counters == {"a": 5, "b": 1}

    def test_gauge_keeps_last_value(self):
        t = Telemetry()
        t.gauge("x", 10)
        t.gauge("x", 3)
        assert t.gauges == {"x": 3}


class TestHistogram:
    def test_power_of_two_buckets(self):
        h = Histogram()
        for v in (1, 2, 3, 4, 5, 1024):
            h.observe(v)
        snap = h.snapshot()
        assert snap["count"] == 6
        assert snap["sum"] == 1039
        assert snap["min"] == 1
        assert snap["max"] == 1024
        # 1 -> bucket 0; 2 -> 1; 3,4 -> 2; 5 -> 3; 1024 -> 10.
        assert snap["buckets"] == {
            "<=2^0": 1,
            "<=2^1": 1,
            "<=2^2": 2,
            "<=2^3": 1,
            "<=2^10": 1,
        }

    def test_bucket_keys_sorted_regardless_of_order(self):
        a, b = Histogram(), Histogram()
        for v in (1, 100, 7):
            a.observe(v)
        for v in (7, 1, 100):
            b.observe(v)
        assert json.dumps(a.snapshot()) == json.dumps(b.snapshot())

    def test_observe_via_registry(self):
        t = Telemetry()
        t.observe("sizes", 64)
        t.observe("sizes", 64)
        assert t.histograms["sizes"].count == 2


class TestSpans:
    def test_span_records_interval(self):
        t = Telemetry()
        with t.span("cat", "outer", tid=3, device=1):
            with t.span("cat", "inner"):
                pass
        spans = t.span_log.spans
        assert len(spans) == 2
        outer = next(s for s in spans if s["name"] == "outer")
        inner = next(s for s in spans if s["name"] == "inner")
        # The logical thread rides in the tags beside the span's args.
        assert outer["tags"] == {"tid": 3, "device": 1}
        # Ordinals advance at every boundary: proper containment.
        assert outer["b"] < inner["b"] < inner["e"] < outer["e"]

    def test_ordinal_clock_has_no_wall_timestamps(self):
        t = Telemetry()
        with t.span("cat", "s"):
            pass
        (span,) = t.span_log.spans
        assert set(span) == {"name", "cat", "b", "e", "tags"}
        assert span["e"] - span["b"] > 0

    def test_record_spans_false_keeps_ordinal_but_drops_records(self):
        t = Telemetry(record_spans=False)
        with t.span("cat", "s"):
            t.count("inside")
        assert t.span_log.spans == []
        assert t.ordinal == 2  # the clock still ticked at both boundaries
        assert t.counters == {"inside": 1}


def _run_dracc(number: int, telemetry: Telemetry | None = None) -> Arbalest:
    rt = TargetRuntime(n_devices=2)
    rt.machine.bus.telemetry = telemetry
    detector = Arbalest().attach(rt.machine)
    dracc_get(number).run(rt)
    return detector


class TestScope:
    """A registry instruments the runs whose bus carries it, and no other."""

    def test_disabled_by_default(self):
        assert ToolBus().telemetry is None

    def test_telemetry_stays_on_its_own_bus(self):
        t = Telemetry()
        counted = _run_dracc(22, t)
        assert counted.telemetry is t
        assert t.counters["tool.arbalest.findings.use-of-uninitialized-memory"] >= 1
        snapshot = json.dumps(t.snapshot(), sort_keys=True)
        spans = list(t.span_log.spans)

        # A second runtime in the same process has a bus of its own.
        other = _run_dracc(22)
        assert other.telemetry is None
        assert other.findings
        assert json.dumps(t.snapshot(), sort_keys=True) == snapshot
        assert t.span_log.spans == spans

    def test_telemetry_set_after_attach_reaches_the_tools(self):
        rt = TargetRuntime(n_devices=2)
        detector = Arbalest().attach(rt.machine)
        t = rt.machine.bus.telemetry = Telemetry()
        dracc_get(22).run(rt)
        assert detector.telemetry is t
        assert t.counters["tool.arbalest.findings.use-of-uninitialized-memory"] >= 1
        assert any(name.startswith("detector.accesses.") for name in t.counters)
        assert any(name.startswith("vsm.") for name in t.counters)


class TestSnapshot:
    def test_snapshot_is_json_serializable_and_sorted(self):
        t = Telemetry()
        t.count("z")
        t.count("a")
        t.gauge("g", 1.5)
        t.observe("h", 9)
        with t.span("cat", "s"):
            pass
        snap = t.snapshot()
        assert json.loads(json.dumps(snap)) == snap
        assert list(snap["counters"]) == ["a", "z"]
        assert snap["clock"] == "ordinal"
        assert snap["spans"] == {"finished": 1, "ordinal_ticks": 2}


class TestChromeTrace:
    """``repro profile`` writes the registry's spans as a stitched document."""

    def _profiled(self, tmp_path):
        out = tmp_path / "trace.json"
        run_profile(suite="dracc", benchmark=22, output=str(out))
        return json.loads(out.read_text())

    def test_complete_events_with_required_keys(self, tmp_path):
        trace = self._profiled(tmp_path)
        assert set(trace) == {"traceEvents", "displayTimeUnit", "otherData"}
        assert trace["otherData"]["clock"] == "ordinal"
        assert trace["otherData"]["processes"] == ["telemetry"]
        complete = [e for e in trace["traceEvents"] if e["ph"] == "X"]
        assert complete
        for event in complete:
            for key in ("name", "cat", "ph", "pid", "tid", "ts", "dur"):
                assert key in event
            assert "tid" in event["args"]  # the logical thread, as a tag
        others = [e for e in trace["traceEvents"] if e["ph"] != "X"]
        assert [(e["ph"], e["name"]) for e in others] == [("M", "process_name")]

    def test_events_sorted_parents_first(self):
        t = Telemetry()
        with t.span("runtime", "target:k", tid=1, device=0):
            with t.span("bus", "arbalest.on_data_op", tid=1):
                pass
        events = stitch_traces([t.span_log])["traceEvents"]
        spans = sorted((e for e in events if e["ph"] == "X"), key=lambda e: e["ts"])
        assert [e["name"] for e in spans] == ["target:k", "arbalest.on_data_op"]
        parent, child = spans
        assert child["ts"] + child["dur"] < parent["ts"] + parent["dur"]

    def test_round_trips_json(self, tmp_path):
        trace = self._profiled(tmp_path)
        assert json.loads(json.dumps(trace)) == trace

    def test_stitches_with_a_serve_span_log(self):
        t = Telemetry()
        with t.span("runtime", "target:k", tid=1, client=7, seq=3):
            pass
        server = SpanLog("server")
        with server.span("handle:EVENT", client=7, seq=3):
            pass
        document = stitch_traces([t.span_log, server])
        assert document["otherData"]["processes"] == ["server", "telemetry"]
        (frame,) = spans_by_frame(document).values()
        assert sorted(e["name"] for e in frame) == ["handle:EVENT", "target:k"]
        assert {e["pid"] for e in frame} == {0, 1}
