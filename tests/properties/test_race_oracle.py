"""The FastTrack engine versus a brute-force happens-before oracle.

The oracle replays a random trace of sync edges and single-granule accesses
and decides races the slow, obviously-correct way: two accesses to the same
granule conflict (at least one write) and race iff neither happens-before
the other in the transitive closure of {program order within a thread} ∪
{published sync edges}.

FastTrack must agree with the oracle on *which granules ever raced* —
including the read-share escalation cases single-epoch read tracking gets
wrong.  A multi-row batch must in turn agree with one-row-at-a-time
delivery on everything it leaves behind, whatever its rows' shapes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.events.columnar import PASS_ROWS, BatchColumns
from repro.events.records import Access
from repro.tools import RaceEngine
from repro.tools.archer import _PLAIN_ROWS
from tests.race_rows import check_row, vectorized

N_THREADS = 4
N_GRANULES = 4
BASE = 1 << 40


@dataclass(frozen=True)
class Sync:
    source: int
    target: int


@dataclass(frozen=True)
class Mem:
    tid: int
    granule: int
    is_write: bool


events_strategy = st.lists(
    st.one_of(
        st.builds(
            Sync,
            source=st.integers(0, N_THREADS - 1),
            target=st.integers(0, N_THREADS - 1),
        ),
        st.builds(
            Mem,
            tid=st.integers(0, N_THREADS - 1),
            granule=st.integers(0, N_GRANULES - 1),
            is_write=st.booleans(),
        ),
    ),
    max_size=40,
)


class HbOracle:
    """O(n²) happens-before closure over the event list."""

    def __init__(self) -> None:
        #: every event gets an id; hb[(a, b)] = a happens-before b.
        self.accesses: list[tuple[int, Mem]] = []
        self._edges: list[tuple[int, int]] = []  # event-id -> event-id
        self._last_of_thread: dict[int, int] = {}
        self._counter = 0

    def _new_event(self, tid: int) -> int:
        eid = self._counter
        self._counter += 1
        prev = self._last_of_thread.get(tid)
        if prev is not None:
            self._edges.append((prev, eid))
        self._last_of_thread[tid] = eid
        return eid

    def sync(self, source: int, target: int) -> None:
        # Release on source, acquire on target: edge release -> acquire.
        rel = self._new_event(source)
        acq = self._new_event(target)
        self._edges.append((rel, acq))

    def access(self, mem: Mem) -> None:
        self.accesses.append((self._new_event(mem.tid), mem))

    def racing_granules(self) -> set[int]:
        n = self._counter
        reach = [set() for _ in range(n)]
        # Transitive closure by reverse topological sweep (ids are already
        # topological: edges always go from lower to higher id).
        succs: list[list[int]] = [[] for _ in range(n)]
        for a, b in self._edges:
            succs[a].append(b)
        for a in range(n - 1, -1, -1):
            for b in succs[a]:
                reach[a].add(b)
                reach[a] |= reach[b]
        racy = set()
        for i, (e1, m1) in enumerate(self.accesses):
            for e2, m2 in self.accesses[i + 1 :]:
                if m1.granule != m2.granule:
                    continue
                if not (m1.is_write or m2.is_write):
                    continue
                if e2 not in reach[e1] and e1 not in reach[e2]:
                    racy.add(m1.granule)
        return racy


def assert_fasttrack_agrees_with_oracle(events) -> None:
    engine = RaceEngine()
    engine.track(0, BASE, 8 * N_GRANULES)
    oracle = HbOracle()
    detected: set[int] = set()
    for ev in events:
        if isinstance(ev, Sync):
            if ev.source == ev.target:
                continue  # self-sync is meaningless
            engine.handle_sync("edge", ev.source, ev.target)
            oracle.sync(ev.source, ev.target)
        else:
            racy = check_row(engine, 0, ev.tid, BASE + 8 * ev.granule, 8, ev.is_write)
            detected |= {(race["address"] - BASE) // 8 for race in racy}
            oracle.access(ev)
    expected = oracle.racing_granules()
    assert detected == expected, (
        f"fasttrack={sorted(detected)} oracle={sorted(expected)} "
        f"events={events}"
    )


@settings(max_examples=400, deadline=None)
@given(events_strategy)
def test_fasttrack_agrees_with_oracle(events):
    assert_fasttrack_agrees_with_oracle(events)


def read_share_trace(n_granules, reads, excluded, writer, granule) -> list:
    """Reads of ``n_granules`` granules, each optionally followed by a sync
    out of the reader; then a sync from every thread but ``excluded`` into
    ``writer``, which writes."""
    events = []
    for tid, g, handoff in reads:
        events.append(Mem(tid, g % n_granules, False))
        if handoff is not None:
            events.append(Sync(tid, handoff))
    events += [Sync(t, writer) for t in range(N_THREADS) if t != excluded]
    events.append(Mem(writer, granule % n_granules, True))
    return events


thread_strategy = st.integers(0, N_THREADS - 1)
#: The shape where a read ordered after the previous read of a read-shared
#: granule must still enter the granule's read vector: the write is ordered
#: after every reader but one, so a read left out of the vector is a race
#: the engine can miss.
read_share_strategy = st.builds(
    read_share_trace,
    n_granules=st.integers(1, 2),
    reads=st.lists(
        st.tuples(thread_strategy, st.integers(0, 1), st.none() | thread_strategy),
        min_size=4,
        max_size=8,
    ),
    excluded=thread_strategy,
    writer=thread_strategy,
    granule=st.integers(0, 1),
)


@settings(max_examples=1000, deadline=None)
@given(read_share_strategy)
def test_fasttrack_agrees_with_oracle_on_read_shared_granules(events):
    assert_fasttrack_agrees_with_oracle(events)


# -- the batch kernel versus per-access delivery ------------------------------

#: Two adjacent blocks: an access near the end of the first runs past it.
BLOCK_GRANULES = 3
BLOCK_BASES = (BASE, BASE + 8 * BLOCK_GRANULES)
HOT = BASE + 8


@dataclass(frozen=True)
class Row:
    """One access row: ``count`` elements of ``size`` bytes, ``stride``
    bytes apart (0: contiguous); unaligned ones straddle granules."""

    device: int
    tid: int
    address: int
    size: int
    is_write: bool
    count: int = 1
    stride: int = 0


@dataclass(frozen=True)
class Transfer:
    """A memcpy as the race check takes it: a two-row run of its own, a
    read of the source and then a write of the destination."""

    rows: tuple[Row, Row]


address_strategy = st.integers(BASE - 8, BASE + 16 * BLOCK_GRANULES + 8)
scalar_strategy = st.builds(
    Row,
    device=st.integers(0, 1),
    tid=thread_strategy,
    address=st.one_of(st.just(HOT), address_strategy),
    size=st.sampled_from((1, 4, 8, 12, 16)),
    is_write=st.booleans(),
)
#: Nine to twice the pass cut-off and more back-to-back accesses to one
#: granule by mixed threads: past the passes, into the one-at-a-time replay.
burst_strategy = st.lists(
    st.builds(
        Row,
        device=st.just(1),
        tid=thread_strategy,
        address=st.just(HOT),
        size=st.just(8),
        is_write=st.booleans(),
    ),
    min_size=9,
    max_size=2 * PASS_ROWS + 4,
)
#: One thread's loop over consecutive granules, as a kernel issues it.
sweep_strategy = st.builds(
    lambda tid, is_write, first, length: [
        Row(1, tid, BASE + 8 * g, 8, is_write) for g in range(first, first + length)
    ],
    tid=thread_strategy,
    is_write=st.booleans(),
    first=st.integers(0, BLOCK_GRANULES),
    length=st.integers(2, BLOCK_GRANULES + 1),
)
#: A contiguous slice (stride 0 or its element size), whole blocks
#: included; it is clipped to the block holding its first byte.
bulk_strategy = st.builds(
    lambda device, tid, address, size, is_write, count, explicit: Row(
        device, tid, address, size, is_write, count, size if explicit else 0
    ),
    device=st.integers(0, 1),
    tid=thread_strategy,
    address=st.one_of(st.sampled_from(BLOCK_BASES), address_strategy),
    size=st.sampled_from((4, 8)),
    is_write=st.booleans(),
    count=st.integers(2, 2 * BLOCK_GRANULES),
    explicit=st.booleans(),
)
#: Elements with gaps between them; each is clipped to its own block.
strided_strategy = st.builds(
    Row,
    device=st.integers(0, 1),
    tid=thread_strategy,
    address=address_strategy,
    size=st.sampled_from((4, 8)),
    is_write=st.booleans(),
    count=st.integers(2, 4),
    stride=st.sampled_from((12, 16, 24)),
)
transfer_strategy = st.builds(
    lambda tid, src, dst, nbytes: Transfer(
        (Row(0, tid, src, nbytes, False), Row(1, tid, dst, nbytes, True))
    ),
    tid=thread_strategy,
    src=st.one_of(st.sampled_from(BLOCK_BASES), address_strategy),
    dst=st.one_of(st.sampled_from(BLOCK_BASES), address_strategy),
    nbytes=st.integers(0, 16 * BLOCK_GRANULES),
)
batch_trace_strategy = st.lists(
    st.one_of(
        st.builds(
            Sync,
            source=st.integers(0, N_THREADS - 1),
            target=st.integers(0, N_THREADS - 1),
        ),
        scalar_strategy,
        burst_strategy,
        sweep_strategy,
        bulk_strategy,
        strided_strategy,
        transfer_strategy,
    ),
    max_size=40,
)


def shadow_state(engine: RaceEngine) -> dict:
    """Every block's final write/read epochs and read-share clocks."""
    state = {}
    for base, block in sorted(engine._blocks.items()):
        block.materialize()
        shared = {}
        if block.share_row is not None:
            for g in np.flatnonzero(block.share_row >= 0).tolist():
                clocks = block.share[block.share_row[g]].tolist()
                while clocks and clocks[-1] == 0:
                    clocks.pop()
                shared[g] = clocks
        state[base] = (block.write.tolist(), block.read.tolist(), shared)
    return state


def replay(trace, check) -> tuple[RaceEngine, RaceEngine]:
    """Feed ``trace`` to two engines over the same blocks: every sync to
    both, every sync-free run of rows to ``check(first, second, rows)``
    (a transfer as a run of its own); return both engines once their
    races, shadow bytes and shadow state are asserted equal."""
    engines = RaceEngine(), RaceEngine()
    for engine in engines:
        for base in BLOCK_BASES:
            engine.track(0, base, 8 * BLOCK_GRANULES)
    run: list[Row] = []

    def deliver() -> None:
        if run:
            rows = [
                Access(a.device, a.tid, a.address, a.size, a.is_write, a.count, a.stride)
                for a in run
            ]
            check(*engines, rows)
            run.clear()

    for ev in trace:
        if isinstance(ev, Sync):
            deliver()
            if ev.source != ev.target:
                for engine in engines:
                    engine.handle_sync("edge", ev.source, ev.target)
        elif isinstance(ev, Transfer):
            deliver()
            run.extend(ev.rows)
            deliver()
        else:
            run.extend(ev if isinstance(ev, list) else [ev])
    deliver()

    def races(engine: RaceEngine) -> list:
        return sorted(tuple(sorted(race.items())) for race in engine.races)

    first, second = engines
    assert races(first) == races(second)
    assert first.shadow_bytes == second.shadow_bytes
    assert shadow_state(first) == shadow_state(second)
    return engines


@settings(max_examples=300, deadline=None)
@given(batch_trace_strategy)
def test_batch_kernel_matches_per_access_delivery(trace):
    def check(batched, single, rows):
        with vectorized():
            got = batched.check_batch(BatchColumns(rows))
        want = [i for i, a in enumerate(rows) if check_row(single, *a[:7])]
        assert got == want, f"run={rows}"

    replay(trace, check)


@settings(max_examples=300, deadline=None)
@given(batch_trace_strategy)
def test_short_rows_match_their_columns(trace):
    """A short run handed as rows (contiguous ones checked in plain ints,
    a strided one sending the run through columns) leaves what the same
    run leaves as columns checked by the vectorized kernels."""

    def check(by_rows, by_columns, rows):
        for lo in range(0, len(rows), _PLAIN_ROWS):
            short = rows[lo : lo + _PLAIN_ROWS]
            got = by_rows.check_batch(short)
            with vectorized():
                want = by_columns.check_batch(BatchColumns(short))
            assert got == want, f"run={short}"

    replay(trace, check)
