"""The flight recorder core: rings, clock, disabled path; the variable index."""

import tracemalloc

import pytest

from repro.core.detector import Arbalest
from repro.dracc.registry import buggy_benchmarks, get as dracc_get
from repro.forensics import (
    DEFAULT_CAPACITY,
    FlightRecorder,
    RecordedEvent,
    VariableRing,
)
from repro.events.records import AllocationEvent, DataOp, DataOpKind
from repro.events.variables import RETIRED_RANGES, VariableIndex
from repro.faults import FaultInjector, FaultPlan
from repro.harness.chaos import _plan_seed
from repro.openmp.runtime import TargetRuntime


def _event(ordinal: int, kind: str = "map") -> RecordedEvent:
    return RecordedEvent(ordinal=ordinal, kind=kind, device_id=0, variable="a")


def _run_dracc(
    number: int, recorder: FlightRecorder | None = None, faults=None
) -> Arbalest:
    bench = dracc_get(number)
    rt = TargetRuntime(n_devices=2, faults=faults)
    rt.machine.bus.recorder = recorder
    detector = Arbalest().attach(rt.machine)
    bench.run(rt)
    return detector


class TestVariableRing:
    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError, match="positive"):
            VariableRing(0)

    def test_under_capacity_keeps_everything(self):
        ring = VariableRing(4)
        for i in range(3):
            ring.append(_event(i))
        assert [e.ordinal for e in ring.events()] == [0, 1, 2]
        assert ring.dropped == 0

    def test_eviction_drops_oldest_first(self):
        ring = VariableRing(4)
        for i in range(10):
            ring.append(_event(i))
        assert len(ring) == 4
        assert [e.ordinal for e in ring.events()] == [6, 7, 8, 9]
        assert ring.dropped == 6

    def test_wraparound_order_is_oldest_first(self):
        ring = VariableRing(3)
        for i in range(5):  # not a multiple of capacity
            ring.append(_event(i))
        assert [e.ordinal for e in ring.events()] == [2, 3, 4]


class TestClock:
    def test_private_clock_without_telemetry(self):
        rec = FlightRecorder()
        assert [rec.tick(), rec.tick(), rec.tick()] == [1, 2, 3]

    def test_record_stamps_monotonic_ordinals(self):
        rec = FlightRecorder()
        first = rec.record("a", "map")
        second = rec.record("b", "unmap")
        assert second.ordinal == first.ordinal + 1


def _register(index: VariableIndex, base: int, nbytes: int, name: str) -> None:
    """Name host range ``[base, base + nbytes)`` through its allocation event."""
    index.observe(
        AllocationEvent(
            device_id=0,
            thread_id=0,
            address=base,
            nbytes=nbytes,
            is_free=False,
            label=name,
        )
    )


def _free(index: VariableIndex, base: int) -> None:
    index.observe(
        AllocationEvent(
            device_id=0, thread_id=0, address=base, nbytes=0, is_free=True
        )
    )


class TestAddressIndex:
    """The bus's variable index, fed through its event stream."""

    def test_exact_resolution(self):
        index = VariableIndex()
        _register(index, 0x1000, 64, "a")
        assert index.resolve(0, 0x1000) == "a"
        assert index.resolve(0, 0x103F) == "a"
        assert index.resolve(0, 0x1040) == ""
        assert index.resolve(1, 0x1000) == ""  # wrong device

    def test_most_recent_registration_wins(self):
        index = VariableIndex()
        _register(index, 0x1000, 64, "old")
        _register(index, 0x1000, 64, "new")
        assert index.resolve(0, 0x1010) == "new"

    def test_released_range_still_resolves_as_retired(self):
        index = VariableIndex()
        _register(index, 0x1000, 64, "a")
        _free(index, 0x1000)
        assert index.resolve(0, 0x1010) == "a"  # use-after-free attribution

    def test_retired_list_is_bounded(self):
        index = VariableIndex()
        for i in range(RETIRED_RANGES + 50):
            base = 0x1000 + i * 0x100
            _register(index, base, 16, f"v{i}")
            _free(index, base)
        assert len(index) == RETIRED_RANGES

    def test_resolve_near_attributes_overflow(self):
        index = VariableIndex()
        _register(index, 0x1000, 64, "a")
        # One past the end: a classic off-by-one overflow address.
        assert index.resolve_near(0, 0x1040) == "a"
        # Far beyond the slack: stays unattributed.
        assert index.resolve_near(0, 0x1040 + 5000) == ""

    def test_resolve_near_prefers_closest_range(self):
        index = VariableIndex()
        _register(index, 0x1000, 64, "far")
        _register(index, 0x2000, 64, "near")
        assert index.resolve_near(0, 0x2041) == "near"

    def _dracc_023_layout(self) -> VariableIndex:
        """DRACC 023/025's device layout: ``a``'s CV is half its host size,
        with a 64-byte gap before ``b``'s CV."""
        index = VariableIndex()
        for name, host, cv, nbytes in (
            ("a", 0x1_0000_0000, 0x2_0000_0000, 0x100),
            ("b", 0x1_0000_0240, 0x2_0000_0140, 0x200),
        ):
            _register(index, host, 0x200, name)
            index.observe(
                DataOp(
                    kind=DataOpKind.ALLOC,
                    device_id=1,
                    thread_id=0,
                    ov_address=host,
                    cv_address=cv,
                    nbytes=nbytes,
                )
            )
        return index

    def test_overrun_is_attributed_to_the_range_it_ran_past(self):
        # 0x30 past a's CV end, 0x10 short of b's CV: the access ran past
        # a, so it is a's overflow however close b's storage begins.
        index = self._dracc_023_layout()
        assert index.resolve_near(1, 0x2_0000_0130) == "a"
        assert index.resolve_near(1, 0x2_0000_0100) == "a"

    def test_underrun_falls_back_to_the_range_above(self):
        # Below every range (DRACC 025's lower-half underrun).
        index = self._dracc_023_layout()
        assert index.resolve_near(1, 0x1_FFFF_FF00) == "a"


class TestDisabledPath:
    def test_recorder_stays_on_its_own_bus(self):
        recorder = FlightRecorder()
        recorded = _run_dracc(22, recorder)
        assert recorded.recorder is recorder
        assert recorded.findings[0].provenance is not None
        records = recorder.records
        assert records

        # A second runtime in the same process has a bus of its own.
        other = _run_dracc(22)
        assert other.recorder is None
        assert other.findings and other.findings[0].provenance is None
        assert recorder.records == records

    def test_recorder_set_after_attach_reaches_the_tools(self):
        rt = TargetRuntime(n_devices=2)
        detector = Arbalest().attach(rt.machine)
        recorder = rt.machine.bus.recorder = FlightRecorder()
        dracc_get(22).run(rt)
        assert detector.recorder is recorder
        assert detector.findings[0].provenance is not None

    def test_zero_forensics_allocations_when_disabled(self):
        assert _run_dracc(22).recorder is None  # warm every code path first
        tracemalloc.start()
        try:
            detector = _run_dracc(22)
            snapshot = tracemalloc.take_snapshot()
        finally:
            tracemalloc.stop()
        assert detector.recorder is None
        forensics_allocs = snapshot.filter_traces(
            [tracemalloc.Filter(True, "*repro/forensics/*")]
        ).statistics("filename")
        assert forensics_allocs == [], [
            f"{s.traceback}: {s.size}B" for s in forensics_allocs
        ]


class _CountingArbalest(Arbalest):
    """Counts the detector's batches and the accesses in them."""

    def __init__(self) -> None:
        super().__init__()
        self.calls = {"on_batch": 0, "accesses": 0}

    def on_batch(self, batch) -> None:
        self.calls["on_batch"] += 1
        self.calls["accesses"] += len(batch)
        super().on_batch(batch)


class TestBatchPath:
    def test_recorder_keeps_the_batch_path(self):
        # A recorder changes what is written down, not how accesses are
        # processed: the same batches reach the same on_batch.
        def calls(recording: bool) -> dict:
            rt = TargetRuntime(n_devices=2)
            if recording:
                rt.machine.bus.recorder = FlightRecorder()
            detector = _CountingArbalest().attach(rt.machine)
            dracc_get(8).run(rt)
            return detector.calls

        plain = calls(False)
        assert plain["on_batch"] >= 1
        assert calls(True) == plain


class TestBoundedMemory:
    def test_rings_bounded_on_chatty_benchmark(self):
        # DRACC 22 reports the same site 256 times; a tiny ring must not
        # grow past its capacity and must report what it evicted.
        rec = FlightRecorder(capacity=8)
        _run_dracc(22, rec)
        assert rec.rings
        assert all(len(ring) <= 8 for ring in rec.rings.values())

    def test_recorder_bounded_under_chaos_campaign(self):
        # One recorder across the faulted runs of a one-schedule campaign
        # (seed 1) over four buggy benchmarks, with the campaign's plans.
        rec = FlightRecorder(capacity=16)
        injected = 0
        for bench in buggy_benchmarks()[:4]:
            plan = FaultPlan.generate(_plan_seed(1, 0, bench.number), n_faults=6)
            injector = FaultInjector(plan)
            _run_dracc(bench.number, rec, injector)
            injected += len(injector.log)
        assert injected > 0
        assert all(len(ring) <= 16 for ring in rec.rings.values())
        # Rough live footprint stays small even across many faulted runs.
        assert rec.shadow_bytes() < 1_000_000

    def test_default_capacity_is_the_documented_one(self):
        assert FlightRecorder().capacity == DEFAULT_CAPACITY
