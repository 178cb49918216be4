"""Trace record/replay: round-trips and offline-analysis equivalence."""

import io

import pytest

from repro.core import Arbalest
from repro.dracc import get
from repro.events import (
    Access,
    AccessOrigin,
    AllocationEvent,
    DataOp,
    DataOpKind,
    FlushEvent,
    KernelEvent,
    KernelPhase,
    MemcpyEvent,
    SourceLocation,
    SyncEvent,
)
from repro.events.trace_io import (
    TraceDecodeError,
    TraceWarning,
    TraceWriter,
    event_from_json,
    event_to_json,
    load_trace,
    read_trace,
    replay,
)
from repro.openmp import TargetRuntime
from repro.tools import MsanTool, ValgrindTool

STACK = (SourceLocation("main.c", 42, 5, "main"),)

SAMPLE_EVENTS = [
    Access(
        device_id=1,
        thread_id=3,
        address=1 << 33,
        size=8,
        is_write=True,
        count=16,
        stride=24,
        origin=AccessOrigin.PROGRAM,
        stack=STACK,
    ),
    DataOp(
        kind=DataOpKind.H2D,
        device_id=1,
        thread_id=0,
        ov_address=1 << 32,
        cv_address=1 << 33,
        nbytes=512,
        stack=STACK,
    ),
    MemcpyEvent(
        device_id=0,
        thread_id=0,
        dst_device=1,
        dst_address=1 << 33,
        src_device=0,
        src_address=1 << 32,
        nbytes=512,
        stack=STACK,
    ),
    KernelEvent(
        phase=KernelPhase.BEGIN,
        task_id=7,
        device_id=1,
        thread_id=7,
        nowait=True,
        name="stencil",
        stack=STACK,
    ),
    AllocationEvent(
        device_id=0,
        thread_id=0,
        address=1 << 32,
        nbytes=4096,
        is_free=False,
        storage="global",
        label="coeff",
        stack=STACK,
    ),
    SyncEvent(kind="depend", source_task=3, target_task=5, thread_id=0),
    FlushEvent(device_id=1, thread_id=2, address=0, nbytes=0),
]


class TestRoundTrip:
    @pytest.mark.parametrize("event", SAMPLE_EVENTS, ids=lambda e: type(e).__name__)
    def test_event_roundtrip(self, event):
        assert event_from_json(event_to_json(event)) == event

    def test_unknown_tag_rejected(self):
        with pytest.raises(ValueError):
            event_from_json({"t": "mystery"})

    def test_untraceable_object_rejected(self):
        with pytest.raises(TypeError):
            event_to_json(object())

    def test_stream_roundtrip(self):
        sink = io.StringIO()
        writer = TraceWriter(sink)
        for event in SAMPLE_EVENTS:
            writer._emit(event)
        sink.seek(0)
        assert list(read_trace(sink)) == SAMPLE_EVENTS

    def test_equal_stacks_loaded_in_one_call_share_one_tuple(self):
        sink = io.StringIO()
        writer = TraceWriter(sink)
        for _ in range(2):
            for event in SAMPLE_EVENTS:
                writer._emit(event)
        for load in (
            lambda text: list(read_trace(io.StringIO(text))),
            lambda text: load_trace(io.StringIO(text)).events,
        ):
            events = load(sink.getvalue())
            stacks = [e.stack for e in events if hasattr(e, "stack")]
            first: dict[tuple, tuple] = {}
            for stack in stacks:
                assert stack is first.setdefault(stack, stack)
            assert len(first) < len(stacks)


def damaged_trace() -> io.StringIO:
    """Three good records; the middle one truncated mid-write."""
    sink = io.StringIO()
    writer = TraceWriter(sink)
    for event in SAMPLE_EVENTS[:3]:
        writer._emit(event)
    lines = sink.getvalue().splitlines()
    lines[1] = lines[1][: len(lines[1]) // 2]  # killed mid-write
    return io.StringIO("\n".join(lines) + "\n")


class TestDamagedTraces:
    def test_load_trace_skips_and_summarizes(self):
        with pytest.warns(TraceWarning, match="read 2 records, skipped 1"):
            result = load_trace(damaged_trace())
        assert not result.ok
        assert result.records_read == 2
        assert result.records_skipped == 1
        assert result.events == [SAMPLE_EVENTS[0], SAMPLE_EVENTS[2]]
        (line_number, reason) = result.errors[0]
        assert line_number == 2
        assert "truncated or corrupt JSON" in reason
        assert "line 2" in result.summary()

    def test_load_trace_clean_issues_no_warning(self, recwarn):
        sink = io.StringIO()
        writer = TraceWriter(sink)
        for event in SAMPLE_EVENTS:
            writer._emit(event)
        sink.seek(0)
        result = load_trace(sink)
        assert result.ok
        assert result.records_read == len(SAMPLE_EVENTS)
        assert not [w for w in recwarn.list if w.category is TraceWarning]

    def test_read_trace_is_lenient_too(self):
        with pytest.warns(TraceWarning):
            events = list(read_trace(damaged_trace()))
        assert events == [SAMPLE_EVENTS[0], SAMPLE_EVENTS[2]]

    def test_strict_mode_raises_with_line_number(self):
        with pytest.raises(TraceDecodeError) as exc_info:
            load_trace(damaged_trace(), strict=True)
        assert exc_info.value.line_number == 2
        with pytest.raises(TraceDecodeError):
            list(read_trace(damaged_trace(), strict=True))

    def test_malformed_record_reported_not_crashed(self):
        # Valid JSON, wrong shape: a missing field must not raise KeyError.
        source = io.StringIO('{"t": "access"}\n')
        with pytest.warns(TraceWarning, match="malformed record"):
            result = load_trace(source)
        assert result.records_skipped == 1


class TestStructuredWarnings:
    def test_warning_carries_line_numbers_structurally(self):
        with pytest.warns(TraceWarning) as record:
            load_trace(damaged_trace())
        warning = record[0].message
        assert warning.line_numbers == (2,)
        assert warning.errors[0][0] == 2
        assert "truncated or corrupt JSON" in warning.errors[0][1]

    def test_every_bad_line_is_listed(self):
        good = event_to_json(SAMPLE_EVENTS[0])
        import json as _json

        lines = [
            _json.dumps(good),
            "not json",
            _json.dumps(good),
            '{"t": "access"}',
            _json.dumps(good),
        ]
        with pytest.warns(TraceWarning) as record:
            result = load_trace(io.StringIO("\n".join(lines) + "\n"))
        assert record[0].message.line_numbers == (2, 4)
        assert result.records_read == 3


class TestDeclaredSizeValidation:
    """Mangled-but-parseable records are rejected, never zero-padded."""

    def _mangle(self, event, **overrides):
        data = event_to_json(event)
        data.update(overrides)
        return data

    @pytest.mark.parametrize("size", [0, -8])
    def test_non_positive_access_size_rejected(self, size):
        data = self._mangle(SAMPLE_EVENTS[0], size=size)
        with pytest.raises(ValueError, match="rejected rather than zero-padded"):
            event_from_json(data)

    def test_boolean_size_is_not_an_integer(self):
        # JSON `true` would satisfy isinstance(x, int) without the guard.
        data = self._mangle(SAMPLE_EVENTS[0], size=True)
        with pytest.raises(ValueError, match="must be an integer"):
            event_from_json(data)

    def test_negative_data_op_nbytes_rejected(self):
        data = self._mangle(SAMPLE_EVENTS[1], n=-512)  # "n" is the wire key
        with pytest.raises(ValueError, match="rejected rather than zero-padded"):
            event_from_json(data)

    def test_negative_address_rejected(self):
        data = self._mangle(SAMPLE_EVENTS[0], addr=-1)
        with pytest.raises(ValueError):
            event_from_json(data)

    #: Mistyped ids, flags and names, as ``(sample, override)``: each is
    #: refused naming its JSON key, and skipped by a lenient load.
    MISTYPED = [
        (0, {"dev": "x"}),
        (0, {"tid": None}),
        (0, {"dev": -1}),
        (0, {"w": 1}),
        (1, {"tid": 1.5}),
        (2, {"src_dev": "0"}),
        (3, {"task": None}),
        (3, {"nowait": 0}),
        (3, {"name": 7}),
        (4, {"free": "no"}),
        (4, {"storage": None}),
        (5, {"src": "3"}),
        (5, {"kind": 1}),
        (6, {"addr": -1}),
        (6, {"n": "8"}),
        (1, {"stack": [["a.c", "three", None, 7]]}),
    ]

    def test_rejection_is_a_skipped_record_in_lenient_loads(self):
        import json as _json

        bad = [self._mangle(SAMPLE_EVENTS[0], size=0)]
        for sample, override in self.MISTYPED:
            data = self._mangle(SAMPLE_EVENTS[sample], **override)
            (key,) = override
            with pytest.raises(ValueError, match=f"field '{key}'|declares {key}="):
                event_from_json(data)
            bad.append(data)
        source = io.StringIO("".join(_json.dumps(data) + "\n" for data in bad))
        with pytest.warns(TraceWarning, match="malformed record"):
            result = load_trace(source)
        assert result.records_skipped == len(bad)
        assert result.events == []


class TestOfflineEquivalence:
    """Recording a run and replaying the trace yields identical findings."""

    def record(self, benchmark_number: int) -> tuple[list, Arbalest]:
        rt = TargetRuntime(n_devices=2)
        sink = io.StringIO()
        writer = TraceWriter(sink).attach(rt.machine)
        online = Arbalest().attach(rt.machine)
        get(benchmark_number).run(rt)
        sink.seek(0)
        return list(read_trace(sink)), online

    @pytest.mark.parametrize("number", [22, 26, 23, 1, 34])
    def test_arbalest_offline_equals_online(self, number):
        events, online = self.record(number)
        offline = Arbalest()
        replay(events, [offline])
        assert [f.dedup_key() for f in offline.findings] == [
            f.dedup_key() for f in online.findings
        ]

    def test_baselines_replay_too(self):
        events, _ = self.record(23)  # the BO benchmark
        vg, msan = ValgrindTool(), MsanTool()
        replay(events, [vg, msan])
        assert vg.mapping_issue_findings()
        assert not msan.mapping_issue_findings()

    def test_trace_is_plain_json_lines(self):
        rt = TargetRuntime(n_devices=1)
        sink = io.StringIO()
        TraceWriter(sink).attach(rt.machine)
        a = rt.array("a", 4)
        a.fill(1.0)
        rt.finalize()
        import json

        lines = [l for l in sink.getvalue().splitlines() if l]
        assert lines
        for line in lines:
            record = json.loads(line)
            assert "t" in record and record["v"] == 1
