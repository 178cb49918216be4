"""Instrumented arrays: event geometry, data movement, kernel views."""

import numpy as np
import pytest

from repro.events import Access, AccessOrigin
from repro.memory import NotMappedError
from repro.openmp import Schedule, TargetRuntime, TraceRecorder, to, tofrom


def runtime():
    rt = TargetRuntime(n_devices=1)
    trace = TraceRecorder().attach(rt.machine)
    return rt, trace


class TestHostArray:
    def test_scalar_roundtrip(self):
        rt, _ = runtime()
        a = rt.array("a", 4, "f8")
        a[2] = 1.5
        assert a[2] == 1.5

    def test_negative_index_wraps(self):
        rt, _ = runtime()
        a = rt.array("a", 4, init=[0, 1, 2, 3])
        assert a[-1] == 3.0

    def test_slice_read_returns_copy(self):
        rt, _ = runtime()
        a = rt.array("a", 8, init=list(range(8)))
        s = a[2:5]
        assert s.tolist() == [2, 3, 4]
        s[:] = 99
        assert a.peek()[2] == 2  # copy, not view

    def test_slice_write_broadcast_and_array(self):
        rt, _ = runtime()
        a = rt.array("a", 6, init=[0.0] * 6)
        a[0:3] = 7.0
        a[3:6] = np.array([1.0, 2.0, 3.0])
        assert a.peek().tolist() == [7, 7, 7, 1, 2, 3]

    def test_stepped_slice(self):
        rt, _ = runtime()
        a = rt.array("a", 8, init=[0.0] * 8)
        a[0:8:2] = 5.0
        assert a.peek().tolist() == [5, 0, 5, 0, 5, 0, 5, 0]
        assert a[1:8:2].tolist() == [0, 0, 0, 0]

    def test_fill(self):
        rt, _ = runtime()
        a = rt.array("a", 5)
        a.fill(2.5)
        assert (a.peek() == 2.5).all()

    def test_event_geometry_scalar(self):
        rt, trace = runtime()
        a = rt.array("a", 4, "f4")
        a[1] = 1.0
        rt.machine.bus.flush_batch()
        ev = trace.accesses()[-1]
        assert ev.is_write and ev.size == 4 and ev.count == 1
        assert ev.address == a.base + 4

    def test_event_geometry_strided(self):
        rt, trace = runtime()
        a = rt.array("a", 8, init=[0.0] * 8)
        _ = a[1:8:3]
        rt.machine.bus.flush_batch()
        ev = trace.accesses()[-1]
        assert not ev.is_write
        assert ev.count == 3 and ev.stride == 24 and ev.address == a.base + 8

    def test_no_events_without_tools(self):
        rt = TargetRuntime(n_devices=1)  # nothing attached
        a = rt.array("a", 4)
        a.fill(0.0)  # must simply not crash (fast path)
        assert not rt.machine.bus.wants_accesses

    def test_peek_poke_uninstrumented(self):
        rt, trace = runtime()
        a = rt.array("a", 4)
        n = len(trace.accesses())
        a.poke([1, 2, 3, 4])
        _ = a.peek()
        assert len(trace.accesses()) == n

    def test_dtypes(self):
        rt, _ = runtime()
        for dt, val in (("i4", 7), ("i8", -3), ("f4", 0.5), ("u1", 255)):
            arr = rt.array(f"x{dt}", 3, dt)
            arr[1] = val
            assert arr[1] == val

    def test_duplicate_name_rejected(self):
        rt, _ = runtime()
        rt.array("a", 4)
        from repro.memory import MappingError

        with pytest.raises(MappingError):
            rt.array("a", 4)


class TestKernelArray:
    def test_device_events_carry_device_id(self):
        rt, trace = runtime()
        a = rt.array("a", 4, init=[1.0] * 4)
        rt.target(lambda ctx: ctx["a"].read(0), maps=[to(a)])
        dev_reads = [e for e in trace.accesses() if e.device_id == 1]
        assert len(dev_reads) == 1
        assert not dev_reads[0].is_write

    def test_unmapped_name_raises(self):
        rt, trace = runtime()
        a = rt.array("a", 4, init=[1.0] * 4)
        with pytest.raises(NotMappedError):
            rt.target(lambda ctx: ctx["missing"], maps=[to(a)])

    def test_section_indexing_in_original_coordinates(self):
        rt, trace = runtime()
        a = rt.array("a", 10, init=list(range(10)))
        got = []
        # Map elements [4:8); the kernel still says a[5].
        rt.target(lambda ctx: got.append(ctx["a"][5]), maps=[to(a, 4, 4)])
        assert got == [5.0]

    def test_out_of_section_access_reads_garbage_not_crash(self):
        rt, trace = runtime()
        a = rt.array("a", 10, init=list(range(10)))
        got = []
        rt.target(lambda ctx: got.append(ctx["a"][9]), maps=[to(a, 0, 4)])
        # Value is deterministic garbage (0xCB pattern), NOT a[9].
        assert got[0] != 9.0

    def test_out_of_section_write_does_not_corrupt_host(self):
        rt, trace = runtime()
        a = rt.array("a", 4, init=[1.0] * 4)
        b = rt.array("b", 4, init=[2.0] * 4)

        def k(ctx):
            A = ctx["a"]
            for i in range(8):  # runs off the end of a's CV
                A[i] = 0.0

        rt.target(k, maps=[tofrom(a)])
        assert b.peek().tolist() == [2.0] * 4  # b never mapped, untouched

    def test_mapped_range(self):
        rt, trace = runtime()
        a = rt.array("a", 10, init=[0.0] * 10)
        ranges = []
        rt.target(lambda ctx: ranges.append(ctx["a"].mapped_range), maps=[to(a, 2, 5)])
        assert ranges == [(2, 7)]

    def test_context_names_and_contains(self):
        rt, trace = runtime()
        a = rt.array("a", 4, init=[0.0] * 4)
        b = rt.array("b", 4, init=[0.0] * 4)
        seen = {}

        def k(ctx):
            seen["names"] = ctx.names
            seen["has_a"] = "a" in ctx
            seen["has_c"] = "c" in ctx
            seen["device"] = ctx.device_id

        rt.target(k, maps=[to(a), to(b)])
        assert seen["names"] == ("a", "b")
        assert seen["has_a"] and not seen["has_c"]
        assert seen["device"] == 1

    def test_bulk_kernel_ops(self):
        rt, trace = runtime()
        a = rt.array("a", 100, init=[1.0] * 100)

        def k(ctx):
            A = ctx["a"]
            A[0:100] = np.asarray(A[0:100]) * 3.0

        rt.target(k, maps=[tofrom(a)])
        assert (a.peek() == 3.0).all()

    # -- the bound branch: an in-section int index on a bound view ----------

    def run_kernel(self, rt, trace, maps, body, region=None, **kwargs):
        """Run ``body(A)`` in a kernel, inside a ``target data`` region when
        ``region`` lists its maps.  Returns what the kernel saw (its view
        ``A``, thread, stack and ``body``'s result) and the accesses it
        published."""
        out = {}

        def kernel(ctx):
            out["view"] = ctx["a"]
            out["tid"] = rt.machine.current_thread
            out["stack"] = rt.machine.source.snapshot()
            out["result"] = body(ctx["a"])

        rt.machine.bus.flush_batch()
        before = len(trace.accesses())
        if region is None:
            rt.target(kernel, maps=maps, **kwargs)
        else:
            with rt.target_data(region):
                rt.target(kernel, maps=maps, **kwargs)
        rt.finalize()
        rt.machine.bus.flush_batch()
        return out, trace.accesses()[before:]

    def row(self, out, address, is_write, size=8):
        return Access(
            1, out["tid"], address, size, is_write, 1, size,
            AccessOrigin.PROGRAM, out["stack"],
        )

    def test_bound_partial_section_first_and_last(self):
        rt, trace = runtime()
        a = rt.array("a", 64, init=[float(i) for i in range(64)])

        def body(A):
            first, last = A[16], A[47]
            A[16] = -1.0
            A[47] = -2.0
            return first, last

        out, accesses = self.run_kernel(rt, trace, [tofrom(a, 16, 32)], body)
        view = out["view"]
        assert view._data is not None and len(view._data) == 32
        assert out["result"] == (16.0, 47.0)
        assert a.peek()[16] == -1.0 and a.peek()[47] == -2.0
        cv = view.cv_base
        assert accesses == [
            self.row(out, cv, False),
            self.row(out, cv + 31 * 8, False),
            self.row(out, cv, True),
            self.row(out, cv + 31 * 8, True),
        ]

    def test_bound_negative_index(self):
        rt, trace = runtime()
        a = rt.array("a", 8, init=[float(i) for i in range(8)])

        def body(A):
            A[-2] = 60.0
            return A[-1]

        out, accesses = self.run_kernel(rt, trace, [tofrom(a)], body)
        assert out["view"]._data is not None
        assert out["result"] == 7.0
        assert a.peek()[6] == 60.0
        cv = out["view"].cv_base
        assert accesses == [self.row(out, cv + 6 * 8, True), self.row(out, cv + 7 * 8, False)]

    def test_just_outside_the_section_stays_loose(self):
        rt, trace = runtime()
        a = rt.array("a", 64, init=[float(i) for i in range(64)])

        def body(A):
            before, past = A[15], A[48]
            A[15] = 5.0
            A[48] = 5.0
            return before, past

        out, accesses = self.run_kernel(rt, trace, [tofrom(a, 16, 32)], body)
        # Neither neighbour is backed on the device: both read the garbage
        # pattern, and the stores vanish instead of reaching the host.
        garbage = np.frombuffer(b"\xcb" * 8, dtype="f8")[0]
        assert out["result"] == (garbage, garbage)
        assert a.peek()[15] == 15.0 and a.peek()[48] == 48.0
        cv = out["view"].cv_base
        assert accesses == [
            self.row(out, cv - 8, False),
            self.row(out, cv + 32 * 8, False),
            self.row(out, cv - 8, True),
            self.row(out, cv + 32 * 8, True),
        ]

    def test_bound_on_unified_device(self):
        rt = TargetRuntime(n_devices=1, unified=True)
        trace = TraceRecorder().attach(rt.machine)
        a = rt.array("a", 8, init=[float(i) for i in range(8)])

        def body(A):
            A[3] = 30.0
            return A[4]

        out, accesses = self.run_kernel(rt, trace, [tofrom(a, 2, 4)], body)
        view = out["view"]
        # Unified: the CV is the OV, and the view indexes host storage.
        assert view._data is not None and view.cv_base == a.address_of(2)
        assert out["result"] == 4.0 and a.peek()[3] == 30.0
        assert accesses == [
            self.row(out, a.address_of(3), True),
            self.row(out, a.address_of(4), False),
        ]

    def test_stale_nowait_fallback_stays_unbound(self):
        # The exit mapping runs before the deferred kernel, so the kernel
        # resolves ``a`` through the freed CV: the view cannot bind.
        rt = TargetRuntime(n_devices=1, schedule=Schedule.DEFER_HOST_FIRST)
        trace = TraceRecorder().attach(rt.machine)
        a = rt.array("a", 4, init=[1.0] * 4)

        def body(A):
            A[1] = 9.0
            return A[1]

        out, accesses = self.run_kernel(
            rt, trace, (), body, region=[tofrom(a)], nowait=True
        )
        view = out["view"]
        assert view._data is None
        # The store to freed memory vanished; the read sees the garbage.
        garbage = np.frombuffer(b"\xcb" * 8, dtype="f8")[0]
        assert out["result"] == garbage
        assert a.peek().tolist() == [1.0] * 4
        cv = view.cv_base
        assert accesses == [self.row(out, cv + 8, True), self.row(out, cv + 8, False)]

    def test_numpy_int_index_matches_int_index(self):
        rt, trace = runtime()
        a = rt.array("a", 8, init=[float(i) for i in range(8)])

        def body(A):
            A[np.int64(2)] = 20.0
            return A[np.int64(2)], A[2]

        out, accesses = self.run_kernel(rt, trace, [tofrom(a)], body)
        assert out["result"] == (20.0, 20.0) and a.peek()[2] == 20.0
        cv = out["view"].cv_base
        assert accesses == [
            self.row(out, cv + 16, True),
            self.row(out, cv + 16, False),
            self.row(out, cv + 16, False),
        ]

    def test_float_store_into_int_array_truncates(self):
        rt, trace = runtime()
        a = rt.array("a", 4, "i8", init=[0] * 4)

        def body(A):
            A[1] = 2.9  # bound branch
            A[5] = 7.9  # loose: past the declared array, never stored
            A[2] = -2.9
            return A[1], A[2]

        out, accesses = self.run_kernel(rt, trace, [tofrom(a)], body)
        assert out["result"] == (2, -2)
        assert a.peek().tolist() == [0, 2, -2, 0]
        cv = out["view"].cv_base
        assert accesses == [
            self.row(out, cv + 8, True),
            self.row(out, cv + 40, True),
            self.row(out, cv + 16, True),
            self.row(out, cv + 8, False),
            self.row(out, cv + 16, False),
        ]

    @pytest.mark.parametrize("index", [1, 6], ids=["bound", "loose"])
    def test_u1_overflow_raises_after_publishing(self, index):
        rt, trace = runtime()
        a = rt.array("a", 8, "u1", init=[0] * 8)
        raised = []

        def body(A):
            with pytest.raises(OverflowError):
                A[index] = 256
            raised.append(True)

        out, accesses = self.run_kernel(rt, trace, [tofrom(a, 0, 4)], body)
        assert raised == [True]
        assert a.peek().tolist() == [0] * 8
        cv = out["view"].cv_base
        assert accesses == [self.row(out, cv + index, True, size=1)]


class TestFloat64Binding:
    """Bound float64 views hand out Python floats and store numpy's bits;
    other dtypes keep numpy scalars."""

    VALUES = [0.1, -0.0, 1e308, -2.5e-310, float("inf"), float("nan"), 3.0, -7.25]

    def kernel(self, rt, maps, body):
        """Run ``body(A)`` on the kernel view of ``a``; returns its result."""
        out = {}

        def k(ctx):
            out["view"] = ctx["a"]
            out["result"] = body(ctx["a"])

        rt.target(k, maps=maps)
        return out["view"], out["result"]

    @staticmethod
    def bits(x) -> bytes:
        return np.float64(x).tobytes()

    def test_host_read_is_float_bit_equal_to_peek(self):
        rt, _ = runtime()
        a = rt.array("a", len(self.VALUES), init=self.VALUES)
        for i in [*range(len(self.VALUES)), -1, -len(self.VALUES)]:
            got = a[i]
            assert type(got) is float
            assert self.bits(got) == a.peek()[i].tobytes()

    def test_kernel_read_is_float_bit_equal_to_peek(self):
        rt, _ = runtime()
        a = rt.array("a", len(self.VALUES), init=self.VALUES)
        n = len(self.VALUES)
        view, got = self.kernel(
            rt, [to(a)], lambda A: [A[i] for i in [*range(n), -1, -n]]
        )
        assert isinstance(view._data, memoryview)
        expected = [*a.peek(), a.peek()[-1], a.peek()[0]]
        assert [type(x) for x in got] == [float] * (n + 2)
        assert [self.bits(x) for x in got] == [x.tobytes() for x in expected]

    STORES = [
        7,
        -(2**62) - 1,
        True,
        np.float32(0.1),
        np.float64(0.3),
        np.int64(2**62 + 1),
        np.array([2.5]),
        np.array(-1.5),
        "1.25",
    ]

    @pytest.mark.parametrize("value", STORES, ids=repr)
    @pytest.mark.parametrize("side", ["host", "kernel"])
    def test_store_leaves_numpy_bytes_and_publishes_once(self, side, value):
        rt, trace = runtime()
        a = rt.array("a", 4, init=[0.0] * 4)
        rt.machine.bus.flush_batch()
        before = len(trace.accesses())
        if side == "host":
            a[2] = value
        else:
            def body(A):
                A[2] = value

            self.kernel(rt, [tofrom(a)], body)
        expected = np.asarray([value], dtype="f8").tobytes()
        assert a.peek()[2].tobytes() == expected
        rt.machine.bus.flush_batch()
        writes = [e for e in trace.accesses()[before:] if e.is_write and e.count == 1]
        assert len(writes) == 1

    @pytest.mark.parametrize("side", ["host", "kernel"])
    def test_store_numpy_refuses_raises_after_publishing(self, side):
        rt, trace = runtime()
        a = rt.array("a", 4, init=[0.0] * 4)
        rt.machine.bus.flush_batch()
        before = len(trace.accesses())
        if side == "host":
            with pytest.raises(TypeError):
                a[1] = 1j
        else:
            def body(A):
                with pytest.raises(TypeError):
                    A[1] = 1j

            self.kernel(rt, [tofrom(a)], body)
        assert a.peek().tolist() == [0.0] * 4
        rt.machine.bus.flush_batch()
        writes = [e for e in trace.accesses()[before:] if e.is_write and e.count == 1]
        assert len(writes) == 1

    @pytest.mark.parametrize(
        "dtype, scalar", [("f4", np.float32), ("i8", np.int64), ("u1", np.uint8)]
    )
    def test_other_dtypes_keep_numpy_scalars(self, dtype, scalar):
        rt, _ = runtime()
        a = rt.array("a", 4, dtype, init=[1, 2, 3, 4])
        assert type(a[1]) is scalar and type(a[-1]) is scalar
        view, got = self.kernel(rt, [tofrom(a)], lambda A: (A[1], A[-1]))
        assert isinstance(view._data, np.ndarray)
        assert [type(x) for x in got] == [scalar, scalar]
        assert got == (2, 4)

    def test_host_read_after_free_takes_the_generic_path(self):
        rt, trace = runtime()
        a = rt.array("a", 4, init=[1.0] * 4)
        base = a.base
        rt.free(a)
        garbage = np.frombuffer(b"\xcb" * 8, dtype="f8")[0]
        assert a[0] == garbage
        a[1] = 9.0  # lands on no live buffer: dropped
        assert a[1] == garbage
        # A new array at the same base: the stale view reads and writes it,
        # as the generic path resolves the address, never the freed buffer.
        b = rt.array("b", 4, init=[5.0] * 4)
        assert b.base == base
        assert a[2] == 5.0
        a[3] = 7.0
        assert b.peek().tolist() == [5.0, 5.0, 5.0, 7.0]
        assert a.buffer.data.view("f8").tolist() == [1.0] * 4
        rt.machine.bus.flush_batch()
        last = trace.accesses()[-1]
        assert last.address == base + 24 and last.is_write
