"""Event records: access geometry and granule math."""

import numpy as np
import pytest

from repro.events import Access, SourceLocation, SourceStack, UNKNOWN_LOCATION
from repro.events.trace_io import event_from_json, event_to_json
from repro.memory import BASE_ADDRESS, GRANULE
from repro.openmp import TargetRuntime
from repro.openmp.ompt import TraceRecorder

A = BASE_ADDRESS  # granule-aligned by construction


def access(address=A, size=8, count=1, stride=0, is_write=False):
    return Access(
        device_id=0,
        thread_id=0,
        address=address,
        size=size,
        is_write=is_write,
        count=count,
        stride=stride,
    )


class TestGeometry:
    def test_scalar_span(self):
        a = access(size=8)
        assert a.span == 8
        assert a.nbytes == 8

    def test_contiguous_slice(self):
        a = access(size=8, count=10, stride=8)
        assert a.span == 80
        assert a.nbytes == 80

    def test_strided(self):
        a = access(size=8, count=4, stride=24)
        assert a.span == 3 * 24 + 8
        assert a.nbytes == 32

    def test_zero_stride_means_contiguous(self):
        assert access(size=4, count=4).element_stride == 4

    def test_element_addresses(self):
        a = access(size=4, count=3, stride=16)
        assert a.element_addresses().tolist() == [A, A + 16, A + 32]


class TestGranuleIndices:
    def test_aligned_scalar(self):
        assert access(size=8).granule_indices().tolist() == [A // GRANULE]

    def test_contiguous_range(self):
        g = access(size=8, count=4, stride=8).granule_indices()
        assert g.tolist() == [A // GRANULE + i for i in range(4)]

    def test_unaligned_element_dilates(self):
        a = access(address=A + 4, size=8)
        assert a.granule_indices().tolist() == [A // GRANULE, A // GRANULE + 1]

    def test_strided_skips_gaps(self):
        # 4-byte elements every 16 bytes: granules 0 and 2 of the block.
        g = access(size=4, count=2, stride=16).granule_indices()
        assert g.tolist() == [A // GRANULE, A // GRANULE + 2]

    def test_wide_element_covers_all_granules(self):
        g = access(size=64).granule_indices()
        assert len(g) == 8

    def test_empty_access(self):
        assert access(count=0).granule_indices().size == 0

    def test_indices_unique_and_sorted(self):
        g = access(size=8, count=16, stride=4).granule_indices()  # overlapping
        assert (np.diff(g) > 0).all()


class TestRow:
    def test_fields_cannot_be_assigned(self):
        a = access()
        for name in Access._fields:
            with pytest.raises(AttributeError):
                setattr(a, name, getattr(a, name))

    def test_live_access_round_trips_through_json(self):
        rt = TargetRuntime()
        recorder = TraceRecorder()
        rt.machine.bus.attach(recorder)
        a = rt.array("a", 8)
        with rt.machine.source.at("main.c", 7, 3):
            a.write(slice(0, 8, 2), 1.0)
        rt.machine.bus.flush_batch()
        (live,) = recorder.of_type(Access)
        assert live.stack == (SourceLocation("main.c", 7, 3),)
        assert event_from_json(event_to_json(live)) == live


class TestSourceStack:
    def test_empty_stack_is_unknown(self):
        s = SourceStack()
        assert s.current is UNKNOWN_LOCATION
        assert s.snapshot() == (UNKNOWN_LOCATION,)

    def test_nesting_innermost_first(self):
        s = SourceStack()
        with s.at("main.c", 10):
            with s.at("kernel.c", 5, function="kern"):
                snap = s.snapshot()
        assert snap[0] == SourceLocation("kernel.c", 5, 0, "kern")
        assert snap[1] == SourceLocation("main.c", 10)
        assert s.current is UNKNOWN_LOCATION

    def test_str_rendering(self):
        loc = SourceLocation("main.c", 145, 5, "main")
        assert str(loc) == "main main.c:145:5"
