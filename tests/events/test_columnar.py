"""Batched access delivery: batching, columns, lane codes, flush ordering,
pass splitting."""

from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.events import Access, DataOp, DataOpKind, SyncEvent, ToolBus
from repro.events.columnar import (
    BATCH_CAP,
    PASS_ROWS,
    BatchColumns,
    EventBatch,
    decode_lane,
    granule_passes,
    lane_code,
    slot_of,
)
from repro.memory import BASE_ADDRESS
from repro.openmp import Schedule, TargetRuntime, delete, to, tofrom
from repro.openmp.arrays import HostArray, KernelArray, _ArrayView
from repro.tools import Tool
from tests.per_access import per_access


def make_access(i=0, *, device_id=1, is_write=False, size=8, count=1):
    return Access(
        device_id=device_id,
        thread_id=0,
        address=BASE_ADDRESS + 8 * i,
        size=size,
        is_write=is_write,
        count=count,
    )


class Recorder(Tool):
    """Records the dispatch shape: which handler saw which events."""

    name = "recorder"

    def __init__(self):
        super().__init__()
        self.calls = []  # ("access", event) | ("batch", [events]) | ...

    def on_access(self, access):
        self.calls.append(("access", access))

    def on_batch(self, batch):
        self.calls.append(("batch", list(batch.accesses)))

    def on_data_op(self, op):
        self.calls.append(("data_op", op))

    def on_sync(self, event):
        self.calls.append(("sync", event))


class TestEngineSelection:
    """One dispatch path: only the attached tool classes set its pace.

    A vectorizing tool gets every batch through ``on_batch``, however
    small; an immediate-delivery tool makes every batch one access long.
    """

    def test_unknown_engine_rejected(self):
        # There is no engine axis left to select.
        with pytest.raises(TypeError):
            ToolBus(engine="simd")

    def test_scalar_never_batches(self):
        """An immediate-delivery tool gets each access as it is published,
        in a batch of one."""
        bus = ToolBus()
        t = per_access(Recorder)()
        bus.attach(t)
        access = make_access()
        bus.publish_access(access)
        assert t.calls == [("batch", [access])]
        assert not bus._batch_pending

    def test_immediate_tool_sets_the_pace_for_the_whole_bus(self):
        bus = ToolBus()
        batched, immediate = Recorder(), per_access(Recorder)()
        bus.attach(batched)
        bus.attach(immediate)
        bus.publish_access(make_access())
        assert [(c[0], len(c[1])) for c in batched.calls] == [("batch", 1)]
        bus.detach(immediate)
        bus.publish_access(make_access())
        assert len(batched.calls) == 1  # parked again
        bus.flush_batch()
        assert len(batched.calls) == 2


class TestBatchAccumulation:
    def test_accesses_park_until_flush(self):
        bus = ToolBus()
        t = Recorder()
        bus.attach(t)
        for i in range(4):
            bus.publish_access(make_access(i))
        assert t.calls == []  # nothing delivered yet
        bus.flush_batch()
        # However small, the batch reaches the vectorizing tool whole.
        assert t.calls == [("batch", [make_access(i) for i in range(4)])]

    def test_large_flush_dispatches_one_batch(self):
        bus = ToolBus()
        t = Recorder()
        bus.attach(t)
        n = 100
        for i in range(n):
            bus.publish_access(make_access(i))
        bus.flush_batch()
        assert len(t.calls) == 1
        kind, events = t.calls[0]
        assert kind == "batch" and len(events) == n

    def test_batch_cap_triggers_flush(self):
        bus = ToolBus()
        t = Recorder()
        bus.attach(t)
        for i in range(BATCH_CAP):
            bus.publish_access(make_access(i % 512))
        # The cap-triggered flush already delivered everything.
        assert len(t.calls) == 1
        assert len(t.calls[0][1]) == BATCH_CAP
        assert not bus._batch_pending

    def test_order_preserved_within_batch(self):
        bus = ToolBus()
        t = Recorder()
        bus.attach(t)
        sent = [make_access(i) for i in range(10)]
        for a in sent:
            bus.publish_access(a)
        bus.flush_batch()
        assert t.calls[0][1] == sent


class TestFlushOrdering:
    """Every non-access publish drains the pending batch first."""

    def test_data_op_flushes_first(self):
        bus = ToolBus()
        t = Recorder()
        bus.attach(t)
        bus.publish_access(make_access())
        bus.publish_data_op(
            DataOp(
                kind=DataOpKind.ALLOC,
                device_id=1,
                thread_id=0,
                ov_address=BASE_ADDRESS,
                cv_address=BASE_ADDRESS + (1 << 20),
                nbytes=64,
            )
        )
        assert [c[0] for c in t.calls] == ["batch", "data_op"]

    def test_sync_flushes_first(self):
        bus = ToolBus()
        t = Recorder()
        bus.attach(t)
        bus.publish_access(make_access())
        bus.publish_sync(SyncEvent("fork", 0, 1))
        assert [c[0] for c in t.calls] == ["batch", "sync"]

    def test_attach_flushes_pending(self):
        bus = ToolBus()
        t1 = Recorder()
        bus.attach(t1)
        bus.publish_access(make_access())
        t2 = Recorder()
        bus.attach(t2)  # must not see the predating access
        bus.flush_batch()
        assert len(t1.calls) == 1
        assert t2.calls == []

    def test_detach_flushes_pending(self):
        bus = ToolBus()
        t = Recorder()
        bus.attach(t)
        bus.publish_access(make_access())
        bus.detach(t)  # the tool observed the access while attached
        assert len(t.calls) == 1


class TestCrashIsolation:
    def test_on_batch_error_is_contained(self):
        class Exploding(Tool):
            name = "exploding"

            def on_access(self, access):
                pass

            def on_batch(self, batch):
                raise RuntimeError("boom")

        bus = ToolBus()
        bus.attach(Exploding())
        for i in range(3):
            bus.publish_access(make_access(i))
        bus.flush_batch()  # must not raise
        assert len(bus.errors) == 1
        assert bus.errors[0].handler == "on_batch"

    @pytest.mark.parametrize("n", [1, 63, 100])
    def test_per_access_tool_sees_every_access_after_a_failure(self, n):
        """A tool without ``on_batch`` is isolated per access: one raising
        access never hides the rest of its batch, whatever its size."""

        class FirstAccessExplodes(Tool):
            name = "first-explodes"

            def __init__(self):
                super().__init__()
                self.seen = 0

            def on_access(self, access):
                self.seen += 1
                if self.seen == 1:
                    raise RuntimeError("boom")

        bus = ToolBus()
        tool = FirstAccessExplodes()
        bus.attach(tool)
        for i in range(n):
            bus.publish_access(make_access(i))
        bus.flush_batch()
        assert tool.seen == n
        assert [e.handler for e in bus.errors] == ["on_access"]


class TestBatchColumns:
    COLUMNS = (
        ("device_ids", "device_id"),
        ("thread_ids", "thread_id"),
        ("addresses", "address"),
        ("sizes", "size"),
        ("is_write", "is_write"),
        ("counts", "count"),
        ("strides", "stride"),
    )

    def test_columns_match_records(self):
        accesses = [
            Access(
                device_id=i % 2,
                thread_id=i % 3,
                address=BASE_ADDRESS + 64 * i,
                size=(4, 8)[i % 2],
                is_write=bool(i % 3),
                count=(1, 16, 4)[i % 3],  # scalar, bulk, strided
                stride=(0, 0, 24)[i % 3],
            )
            for i in range(12)
        ]
        cols = BatchColumns(accesses)
        for column, field in self.COLUMNS:
            values = getattr(cols, column).tolist()
            assert values == [getattr(a, field) for a in accesses], column
        assert cols.is_write.dtype == np.bool_

    def test_empty_batch_has_empty_columns(self):
        cols = BatchColumns([])
        for column, _field in self.COLUMNS:
            assert getattr(cols, column).shape == (0,), column

    def test_columns_are_lazy_and_cached(self):
        batch = EventBatch([make_access()])
        assert batch._columns is None
        first = batch.columns
        assert batch.columns is first


def _passes(blocks, granules, tags):
    return granule_passes(
        np.array(blocks, dtype=np.int64),
        np.array(granules, dtype=np.int64),
        np.array(tags, dtype=np.int64),
        with_leaders=True,
    )


def _expected_leaders(keys, tags):
    """Each row's leader by a plain scan: itself when kept, else the kept
    row it repeats (the last kept row on its key)."""
    last_tag: dict = {}
    last_kept: dict = {}
    leaders = []
    for pos, (key, tag) in enumerate(zip(keys, tags)):
        if last_tag.get(key) != tag:
            last_kept[key] = pos
        last_tag[key] = tag
        leaders.append(last_kept[key])
    return leaders


_ROWS = st.lists(
    st.tuples(st.integers(0, 2), st.integers(0, 6), st.integers(0, 2)),
    max_size=120,
)


class TestGranulePasses:
    def test_empty(self):
        order, cuts, repeats, leaders = _passes([], [], [])
        assert order.size == 0 and cuts == [0]
        assert repeats.size == 0 and leaders.size == 0

    def test_all_distinct_is_one_key_sorted_pass(self):
        n = PASS_ROWS + 3
        granules = list(range(n))[::-1]
        order, cuts, repeats, _ = _passes([0] * n, granules, [0] * n)
        assert cuts == [0, n]
        assert order.tolist() == list(range(n))[::-1]  # sorted on the granule
        assert repeats.size == 0

    def test_short_segments_replay_as_they_stand(self):
        # Fewer rows than the cut-off: no sort, no drop, program order.
        n = PASS_ROWS - 1
        order, cuts, repeats, leaders = _passes([0] * n, [3] * n, [0] * n)
        assert cuts == [0] and order.tolist() == list(range(n))
        assert repeats.size == 0 and leaders.size == 0

    def test_same_tag_repeats_drop_to_their_leader(self):
        # Granule 4: tag 7 at rows 0, 1, 2 (1 and 2 repeat 0), tag 8 at row
        # 3, tag 7 again at rows 4, 5 (5 repeats 4).  Granule 5 at row 6,
        # then PASS_ROWS more granules once each.
        n = 7 + PASS_ROWS
        order, cuts, repeats, leaders = _passes(
            [0] * n,
            [4, 4, 4, 4, 4, 4, 5, *range(100, 100 + PASS_ROWS)],
            [7, 7, 7, 8, 7, 7, 7, *[7] * PASS_ROWS],
        )
        assert dict(zip(repeats.tolist(), leaders.tolist())) == {1: 0, 2: 0, 5: 4}
        # One pass of every granule's first row; granule 4's rows 3 and 4
        # fall short of the cut-off and replay.
        assert cuts == [0, n - 5]
        assert order.tolist() == [0, 6, *range(7, n), 3, 4]

    def test_cut_off(self):
        # PASS_ROWS granules hit twice and one granule hit five times with
        # alternating tags: pass 0 holds every granule, pass 1 the twice-hit
        # ones and the hot one; the hot granule's other rows fall short of
        # the cut-off and replay one at a time, in order.
        n = PASS_ROWS
        granules = [*range(n), *range(n), *[n] * 5]
        tags = [0] * n + [1] * n + [0, 1, 0, 1, 0]
        order, cuts, repeats, _ = _passes([0] * len(granules), granules, tags)
        assert cuts == [0, n + 1, 2 * n + 2]
        assert order[cuts[-1]:].tolist() == [2 * n + 2, 2 * n + 3, 2 * n + 4]
        assert repeats.size == 0

    def test_passes_cut_per_block(self):
        # Granule 0 of PASS_ROWS blocks, block b at row b and again (other
        # tag) at row PASS_ROWS + b: two passes, each cut into one run per
        # block, in block order.
        n = PASS_ROWS
        blocks = [*range(n)][::-1] * 2
        order, cuts, _, _ = _passes(blocks, [0] * 2 * n, [0] * n + [1] * n)
        assert cuts == list(range(2 * n + 1))
        assert order.tolist() == [*range(n)][::-1] + [*range(n, 2 * n)][::-1]

    @settings(max_examples=200, deadline=None)
    @given(_ROWS)
    def test_passes_keep_every_granules_program_order(self, rows):
        blocks, granules, tags = map(list, zip(*rows)) if rows else ([], [], [])
        order, cuts, repeats, leaders = _passes(blocks, granules, tags)
        keys = list(zip(blocks, granules))
        expected = (
            _expected_leaders(keys, tags)
            if len(rows) >= PASS_ROWS
            else list(range(len(rows)))  # too short to sort: nothing drops
        )
        # Every row is kept or repeats its leader, exactly once.
        kept = order.tolist()
        assert sorted(kept + repeats.tolist()) == list(range(len(rows)))
        assert [pos for pos in range(len(rows)) if expected[pos] == pos] == sorted(kept)
        assert leaders.tolist() == [expected[pos] for pos in repeats.tolist()]
        # Walking the passes, then the replay, meets each granule's kept
        # rows in program order.
        seen: dict = {}
        for pos in kept:
            seen.setdefault(keys[pos], []).append(pos)
        assert all(positions == sorted(positions) for positions in seen.values())
        # Each run: one block's granules, distinct and in key order.  A run
        # whose first key does not follow the last one starts a pass; each
        # pass holds distinct granules, is no smaller than the cut-off and
        # no larger than the pass before it.
        passes: list[list] = []
        for lo, hi in zip(cuts, cuts[1:]):
            run_keys = [keys[pos] for pos in kept[lo:hi]]
            assert run_keys == sorted(set(run_keys))
            assert len({block for block, _ in run_keys}) == 1
            if not passes or run_keys[0] <= passes[-1][-1]:
                passes.append([])
            passes[-1] += run_keys
        sizes = [len(keys_in_pass) for keys_in_pass in passes]
        assert sizes == sorted(sizes, reverse=True)
        assert all(size >= PASS_ROWS for size in sizes)
        # Pass k holds every granule's k-th kept row.
        in_passes = Counter(key for keys_in_pass in passes for key in keys_in_pass)
        for key, positions in seen.items():
            assert in_passes[key] == min(len(positions), len(passes)), key
        # The replay is in program order and would not fill a pass.
        tail = kept[cuts[-1]:]
        assert tail == sorted(tail)
        assert len({keys[pos] for pos in tail}) < PASS_ROWS


class TestFirstOccurrencePasses:
    """Pass ``k`` of :func:`granule_passes` holds each granule's ``k``-th row."""

    def test_repeats_split_in_order(self):
        # PASS_ROWS granules hit three times, the tag changing each time:
        # one occurrence per pass, in program order.
        n = PASS_ROWS
        order, cuts, repeats, _ = _passes(
            [0] * 3 * n, [*range(n)] * 3, [0] * n + [1] * n + [0] * n
        )
        assert cuts == [0, n, 2 * n, 3 * n]
        assert order.tolist() == list(range(3 * n))
        assert repeats.size == 0

    def test_passes_are_ascending(self):
        # Granules met in descending order, twice each: every pass is
        # sorted on the granule.
        n = PASS_ROWS
        granules = [g for g in reversed(range(n)) for _ in range(2)]
        order, cuts, _, _ = _passes([0] * 2 * n, granules, [0, 1] * n)
        assert cuts == [0, n, 2 * n]
        for lo, hi in zip(cuts, cuts[1:]):
            assert (np.diff(np.array(granules)[order[lo:hi]]) > 0).all()

    def test_replaying_passes_preserves_per_key_order(self):
        rng = np.random.default_rng(7)
        blocks = rng.integers(0, 3, size=400)
        granules = rng.integers(0, 40, size=400)
        tags = rng.integers(0, 3, size=400)
        order, cuts, repeats, _ = _passes(blocks, granules, tags)
        assert len(cuts) > 1  # some rows run in passes
        assert sorted([*order.tolist(), *repeats.tolist()]) == list(range(400))
        seen: dict = {}
        for pos in order.tolist():
            seen.setdefault((int(blocks[pos]), int(granules[pos])), []).append(pos)
        for key, positions in seen.items():
            assert positions == sorted(positions), key


# Lane-code programs: kernels mixing bound reads and writes, out-of-section,
# negative and np.int64 indices, slices, bursts past BATCH_CAP, rt.at
# changes and parallel_for thread switches, with host code in between.
_NAME = st.sampled_from(["a", "b"])
_LEAF = st.one_of(
    st.tuples(st.just("r"), _NAME, st.integers(-24, 40)),
    st.tuples(st.just("w"), _NAME, st.integers(-24, 40)),
    st.tuples(st.just("r64"), _NAME, st.integers(0, 15)),
    st.tuples(st.just("sr"), _NAME, st.integers(0, 16), st.integers(0, 16)),
    st.tuples(st.just("sw"), _NAME, st.integers(0, 16), st.integers(0, 16)),
    st.tuples(st.just("burst"), _NAME, st.integers(1, 160)),
)
_LEAVES = st.lists(_LEAF, max_size=4)
_KERNEL_OP = st.one_of(
    _LEAF,
    st.tuples(st.just("at"), st.integers(1, 99), _LEAVES),
    st.tuples(st.just("pfor"), st.integers(1, 6), st.integers(1, 3), _LEAVES),
)
# Host code: bound reads and writes, negative and out-of-range indices,
# slices, rt.at changes, host parallel regions (a thread switch per
# worker), a free and a new array at the same base, and reads and writes
# through the freed array's stale view.
_HOST_LEAF = st.one_of(
    st.tuples(st.just("r"), _NAME, st.integers(-24, 40)),
    st.tuples(st.just("w"), _NAME, st.integers(-24, 40)),
    st.tuples(st.just("sr"), _NAME, st.integers(0, 16), st.integers(0, 16)),
)
_HOST_LEAVES = st.lists(_HOST_LEAF, max_size=4)
_HOST_OP = st.one_of(
    _HOST_LEAF,
    st.tuples(st.just("at"), st.integers(1, 99), _HOST_LEAVES),
    st.tuples(st.just("pfor"), st.integers(1, 6), st.integers(1, 3), _HOST_LEAVES),
    st.tuples(st.just("realloc"), _NAME),
    st.tuples(st.just("stale"), _NAME, st.integers(0, 15), st.booleans()),
)
_KERNEL = st.tuples(
    st.booleans(),  # nowait (deferred: the schedule runs it at taskwait)
    st.lists(_KERNEL_OP, min_size=1, max_size=6),
    st.lists(_HOST_OP, max_size=4),  # host code before the taskwait
)
PROGRAMS = st.tuples(
    st.lists(_KERNEL, min_size=1, max_size=3),
    st.booleans(),  # an immediate-delivery tool attached
    st.booleans(),  # a stale nowait kernel (its CV freed before it runs)
)


class Capture(Tool):
    """Checks every delivered batch's lane decoding and keeps its rows."""

    name = "capture"

    def __init__(self, bus):
        super().__init__()
        self.bus = bus
        self.rows = []

    def on_access(self, access):
        assert not self.bus._lane_slots  # the flush took the slot table
        self.rows.append(access)

    def on_batch(self, batch):
        assert not self.bus._lane_slots
        codes = [item for item in batch._items if type(item) is int]
        # The batch's slot table holds exactly the slots its codes name.
        assert {slot_of(code) for code in codes} == set(
            range(len(batch._slots))
        )
        decoded = batch.columns
        rows = list(batch.accesses)
        reference = BatchColumns(rows)
        for field in BatchColumns.__slots__:
            got, want = getattr(decoded, field), getattr(reference, field)
            assert got.dtype == want.dtype and got.tolist() == want.tolist(), field
        self.rows.extend(rows)


class TestLaneCodes:
    """Bound host and kernel scalar accesses publish lane codes; every row
    a tool builds from one equals the row the generic view path
    publishes."""

    N_A, N_B = 24, 16
    SECTION = (4, 12)  # a[4:16] is mapped
    DTYPES = {"a": "f8", "b": "f4"}

    def _host_ops(self, rt, arrays, freed, reads, ops, shift=0):
        """Run host ``ops``; every scalar read appends its value's bits to
        ``reads`` (garbage may be a NaN)."""
        for op in ops:
            kind = op[0]
            if kind == "r":
                reads.append(np.float64(arrays[op[1]][op[2] + shift]).tobytes())
            elif kind == "w":
                arrays[op[1]][op[2] + shift] = -1.0
            elif kind == "sr":
                arrays[op[1]][op[2] : op[3]]
            elif kind == "at":
                with rt.at("host.c", op[1]):
                    self._host_ops(rt, arrays, freed, reads, op[2], shift)
            elif kind == "pfor":
                _, n, threads, body = op
                rt.machine.run_parallel_region(
                    n,
                    lambda i: self._host_ops(rt, arrays, freed, reads, body, shift + i),
                    threads,
                )
            elif kind == "realloc":  # the new array takes the freed base
                rt.taskwait()  # no deferred kernel maps the freed array
                name = op[1]
                old = freed[name] = arrays[name]
                rt.free(old)
                arrays[name] = rt.array(name, old.length, self.DTYPES[name])
                assert arrays[name].base == old.base
            elif op[1] in freed:  # "stale": the freed array's view
                _, name, index, is_write = op
                if is_write:
                    freed[name][index] = -2.0
                else:
                    reads.append(np.float64(freed[name][index]).tobytes())

    def _ops(self, rt, ctx, ops, shift=0):
        for op in ops:
            kind = op[0]
            if kind == "r":
                ctx[op[1]][op[2] + shift]
            elif kind == "w":
                ctx[op[1]][op[2] + shift] = float(op[2])
            elif kind == "r64":
                ctx[op[1]][np.int64(op[2])]
            elif kind == "sr":
                ctx[op[1]][op[2] : op[3]]
            elif kind == "sw":
                ctx[op[1]][op[2] : op[3]] = 2.0
            elif kind == "burst":  # long enough to cross BATCH_CAP
                view = ctx[op[1]]
                lo, hi = view.mapped_range
                for j in range(op[2]):
                    if j % 3:
                        view[lo + j % (hi - lo)]
                    else:
                        view[lo + j % (hi - lo)] = 1.0
            elif kind == "at":
                with rt.at("kernel.c", op[1], function="k"):
                    self._ops(rt, ctx, op[2], shift)
            else:  # parallel_for: a thread switch per worker
                _, n, threads, body = op
                ctx.parallel_for(
                    n, lambda i: self._ops(rt, ctx, body, shift + i), num_threads=threads
                )

    def _run(self, program):
        kernels, immediate, stale = program
        rt = TargetRuntime(n_devices=1, schedule=Schedule.DEFER_KERNEL_FIRST)
        bus = rt.machine.bus
        arrays = {
            name: rt.array(name, n, self.DTYPES[name], init=[float(i) for i in range(n)])
            for name, n in (("a", self.N_A), ("b", self.N_B))
        }
        freed, reads = {}, []
        capture = Capture(bus).attach(rt.machine)
        if immediate:
            per_access(Recorder)().attach(rt.machine)
        for nowait, body, host in kernels:
            with rt.at("main.c", 10):
                rt.target(
                    lambda ctx, body=body: self._ops(rt, ctx, body),
                    maps=[tofrom(arrays["a"], *self.SECTION), tofrom(arrays["b"])],
                    nowait=nowait,
                )
            self._host_ops(rt, arrays, freed, reads, host)
            rt.taskwait()
        if stale:
            b = arrays["b"]
            rt.target_enter_data([to(b)])
            rt.target(lambda ctx: self._ops(rt, ctx, [("burst", "b", 20)]), nowait=True)
            rt.target_exit_data([delete(b)])
        rt.finalize()
        assert not bus._lane_slots and not bus._batch_pending
        return (
            capture.rows,
            reads,
            arrays["a"].peek().tobytes(),
            arrays["b"].peek().tobytes(),
        )

    @settings(max_examples=60, deadline=None)
    @given(PROGRAMS)
    def test_lanes_decode_to_the_generic_rows(self, program):
        self._check(program)

    def _check(self, program):
        with mock.patch("repro.events.bus.BATCH_CAP", 97):
            lanes = self._run(program)
            # The reference: every access takes the generic row path.
            generic_path = dict(
                read=_ArrayView.read,
                write=_ArrayView.write,
                __getitem__=_ArrayView.read,
                __setitem__=_ArrayView.write,
            )
            with mock.patch.multiple(
                KernelArray, **generic_path
            ), mock.patch.multiple(HostArray, **generic_path):
                generic = self._run(program)
        assert lanes == generic

    def test_mixed_batch_decodes_its_rows_apart(self):
        """One kernel batch holding lane codes, slices, ``np.int64`` and
        out-of-section rows decodes to the generic path's columns."""
        kernel = [
            ("burst", "a", 70),
            ("sr", "a", 2, 9),
            ("r64", "b", 3),
            ("at", 7, [("w", "b", 2), ("r", "a", 30)]),
            ("pfor", 4, 2, [("r", "a", 4), ("w", "b", 0)]),
            ("burst", "b", 30),
        ]
        batches = []
        on_batch = Capture.on_batch

        def spy(tool, batch):
            batches.append({type(item) is int for item in batch._items})
            on_batch(tool, batch)

        with mock.patch.object(Capture, "on_batch", spy):
            self._check(([(False, kernel, [])], False, False))
        assert {True, False} in batches  # codes and rows in one batch

    def test_indexed_rows_leave_the_codes_to_the_columns(self):
        """Rows a tool builds from lane codes stay off the pending list:
        a later ``columns`` still decodes codes alone."""
        slots = [(1, 0, BASE_ADDRESS, 8, ()), (1, 2, BASE_ADDRESS + 512, 4, ())]
        codes = [lane_code(0, 3), lane_code(1, 5, is_write=True), lane_code(0)]
        batch = EventBatch(list(codes), slots)
        row = batch.accesses[0]
        assert row == decode_lane(codes[0], slots)
        assert batch.accesses[0] is row and batch.rows()[0] is row  # built once
        cols = batch.columns
        assert batch._items == codes
        assert all(type(item) is int for item in batch._items)
        fresh = BatchColumns(codes, slots)
        for field in BatchColumns.__slots__:
            assert np.array_equal(getattr(cols, field), getattr(fresh, field)), field


class TestScalarAccessesStayScalar:
    """Regression guards, counted with wrappers: a bound host access builds
    no row when published, and a batch of one or a transfer is race-checked
    with no columns built."""

    @staticmethod
    def _counting_rows():
        """Patch ``Access`` construction; returns (patch, calls)."""
        calls = []
        new = Access.__new__

        def counted(cls, *args, **kwargs):
            calls.append(args)
            return new(cls, *args, **kwargs)

        return mock.patch.object(Access, "__new__", counted), calls

    @staticmethod
    def _counting_columns():
        return mock.patch.object(
            BatchColumns, "__init__", autospec=True, side_effect=BatchColumns.__init__
        )

    @pytest.mark.parametrize("dtype", ["f8", "f4", "i8"])
    def test_bound_host_access_builds_no_row(self, dtype):
        from repro.core.detector import Arbalest

        rt = TargetRuntime(n_devices=1)
        a = rt.array("a", 8, dtype, init=list(range(8)))
        Arbalest().attach(rt.machine)
        bus = rt.machine.bus
        rows, calls = self._counting_rows()
        with rows, mock.patch.object(
            bus, "publish_access", wraps=bus.publish_access
        ) as publish:
            with rt.at("host.c", 3):
                a[2] = 5
                a[-1] = a[2]
            # A thread switch per worker; the forks and joins flush.
            rt.machine.run_parallel_region(2, lambda i: a[i], 2)
        assert calls == []
        published = [call.args[0] for call in publish.call_args_list]
        assert len(published) == 5 and all(type(p) is int for p in published)
        rt.finalize()

    @pytest.mark.parametrize("tool", ["arbalest", "archer"])
    def test_batch_of_one_builds_no_columns(self, tool):
        from repro.core.detector import Arbalest
        from repro.tools import ArcherTool

        rt = TargetRuntime(n_devices=1)
        a = rt.array("a", 16, init=[0.0] * 16)
        cls = {"arbalest": Arbalest, "archer": ArcherTool}[tool]
        per_access(cls)().attach(rt.machine)
        with self._counting_columns() as init:
            a[3] = 1.0
            rt.target(
                lambda ctx: ctx.parallel_for(
                    16, lambda i: ctx["a"].write(i, ctx["a"][i] + 1.0), num_threads=2
                ),
                maps=[tofrom(a)],
            )
            _ = a[3]
        assert init.call_count == 0
        rt.finalize()

    @pytest.mark.parametrize("tool", ["arbalest", "archer"])
    def test_transfer_builds_no_columns(self, tool):
        from repro.core.detector import Arbalest
        from repro.tools import ArcherTool

        rt = TargetRuntime(n_devices=1)
        a = rt.array("a", 16, init=[0.0] * 16)
        cls = {"arbalest": Arbalest, "archer": ArcherTool}[tool]
        checked = []

        class Spy(cls):
            def on_memcpy(self, event):
                checked.append(event)
                super().on_memcpy(event)

        Spy().attach(rt.machine)
        rt.machine.bus.flush_batch()  # the init writes' batch builds its columns
        with self._counting_columns() as init:
            rt.target_enter_data([to(a)])
            rt.target_exit_data([delete(a)])
        assert checked and init.call_count == 0
        rt.finalize()
