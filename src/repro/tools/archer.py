"""Archer model: FastTrack vector-clock data race detection.

Archer [Atzeni et al., IPDPS'16] is ThreadSanitizer specialised for OpenMP:
it consumes the compiler's load/store instrumentation plus OMPT
synchronization callbacks and runs the FastTrack algorithm [Flanagan &
Freund, PLDI'09].  This module implements that algorithm over the simulated
machine's logical threads:

* every logical thread ``t`` carries a vector clock ``C_t``;
* ``fork``/``join``/``depend`` sync events release the source thread's
  clock into the target and tick the source (release semantics);
* per 8-byte granule the engine keeps a last-write epoch and last-read
  epoch, escalating reads to a read vector when reads of the same granule
  are mutually concurrent (the FastTrack read-share case), after which
  every read of the granule enters its thread's clock in the vector until
  the next write; a block keeps its read vectors as the rows of one clock
  matrix;
* a race is a write not ordered after every previous access, or a read not
  ordered after the previous write.

The engine is shared: :class:`ArcherTool` wraps it as a standalone tool
(which, per Table III, reports *races only* and therefore scores 0/16 on
the DRACC mapping issues), and ARBALEST embeds the same engine, which is
why the paper finds their runtime overheads nearly identical (Fig 8).

Checks are vectorized, giving amortized O(1) per element like the real
shadow-cell implementation.  The engine has one entry point,
:meth:`RaceEngine.check_batch`: a sync-free run of accesses as a batch's
columns, or a selection of its positions, which every thread's clock
sees frozen.  Each row is handled by its shape, in program order: a
strided row stands for its elements; a contiguous row over several
granules runs the span kernel at its place (O(1) when it installs one
epoch pair over a whole uniform block); the one-granule rows between
those drop an access that repeats its granule's previous thread and kind
(a same-epoch no-op) and are checked with one numpy gather-and-compare
per pass of distinct granules and block, whatever threads and kinds the
pass mixes (a pass too small to pay for it, a row at a time).  A short
run of contiguous rows — a batch of one, a transfer's two rows (a read
of the source, then a write of the destination), a small batch — is
checked a row at a time in plain ints.  Every path
applies the one-granule rules of :meth:`RaceEngine._check_one`, which
stays on plain Python ints.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections.abc import Iterable, Sequence
from itertools import repeat
from typing import TYPE_CHECKING

import numpy as np

from ..clocks.epoch import CLOCK_BITS, MAX_CLOCK
from ..clocks.vector_clock import VectorClock
from ..events.columnar import BatchColumns, granule_passes
from ..events.records import Access
from ..memory.layout import GRANULE
from .base import Tool
from .findings import Finding, FindingKind

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..events.records import AllocationEvent, MemcpyEvent, SyncEvent

_CLOCK_MASK = np.uint64(MAX_CLOCK)
_CLOCK_SHIFT = np.uint64(CLOCK_BITS)
#: A block's read-share matrix before its first escalation.
_NO_SHARE = np.zeros((0, 0), dtype=np.uint64)
#: A run of at most this many contiguous rows (a batch of one, a transfer,
#: a small batch) is checked a row at a time in plain ints: about 1.5 µs a
#: scalar row against about 80 µs of vectorized set-up.
_PLAIN_ROWS = 32


class _RaceBlock:
    """Race-detection shadow for one allocation: epochs per granule.

    ``write``/``read`` hold each granule's last-write and last-read epoch.
    A read-shared granule (FastTrack's read vector) owns a row of
    ``share``, one ``uint64`` clock matrix per block whose column ``t``
    is thread ``t``'s last read clock; ``share_row[g]`` is granule ``g``'s
    row, -1 when it is not shared.  Both appear at the block's first
    escalation, columns grow when a new thread id escalates, and a write
    releases the granule's row (released rows are reclaimed the next time
    the matrix is reallocated).

    ``uniform`` is the same trick as the VSM shadow's uniform-word summary:
    while every granule stores the same ``(write, read)`` epoch pair — true
    at birth and preserved by the whole-array installs bulk kernels perform
    — the pair lives here and the epoch arrays are stale.  Any per-granule
    operation (or any racy/escalating outcome, so ``races`` entries match
    the materialized path exactly) calls :meth:`materialize` first.  A
    uniform block has no shared granule.
    """

    __slots__ = (
        "base",
        "nbytes",
        "write",
        "read",
        "uniform",
        "share_row",
        "share",
        "n_rows",
        "n_shared",
    )

    def __init__(self, base: int, nbytes: int):
        self.base = base
        self.nbytes = nbytes
        n = -(-nbytes // GRANULE)
        self.write = np.zeros(n, dtype=np.uint64)
        self.read = np.zeros(n, dtype=np.uint64)
        self.uniform: tuple[int, int] | None = (0, 0)
        self.share_row: np.ndarray | None = None
        self.share = _NO_SHARE
        self.n_rows = 0  # rows handed out, live or released
        self.n_shared = 0  # live rows: the read-shared granules

    def materialize(self) -> None:
        u = self.uniform
        if u is not None:
            self.write.fill(u[0])
            self.read.fill(u[1])
            self.uniform = None

    @property
    def shadow_nbytes(self) -> int:
        """Bytes the block's arrays hold, read-share matrix included."""
        held = self.write.nbytes + self.read.nbytes + self.share.nbytes
        if self.share_row is not None:
            held += self.share_row.nbytes
        return held

    def unshare(self, g) -> None:
        """Release the rows of the shared granules ``g``."""
        self.share_row[g] = -1
        self.n_shared -= len(g)

    def escalate(
        self, g: np.ndarray, prev: np.ndarray, tids: np.ndarray, clocks: np.ndarray
    ) -> None:
        """Enter reads ``tids@clocks`` of granules ``g`` in their read vectors.

        ``g`` are distinct; a granule not yet shared gets a zeroed row
        seeded with its previous read epoch ``prev``.
        """
        if self.share_row is None:
            self.share_row = np.full(len(self.write), -1, dtype=np.intp)
        rows = self.share_row[g]
        new = rows < 0
        n_new = int(np.count_nonzero(new))
        prev_tids = (prev[new] >> _CLOCK_SHIFT).astype(np.intp)
        width = int(tids.max()) + 1
        if n_new:
            width = max(width, int(prev_tids.max()) + 1)
        if self.n_rows + n_new > len(self.share) or width > self.share.shape[1]:
            self._reallocate(n_new, width)
            rows = self.share_row[g]
        if n_new:
            fresh = np.arange(self.n_rows, self.n_rows + n_new)
            self.n_rows += n_new
            self.n_shared += n_new
            rows[new] = fresh
            self.share_row[g[new]] = fresh
            self.share[fresh, prev_tids] = prev[new] & _CLOCK_MASK
        self.share[rows, tids] = clocks

    def _reallocate(self, extra_rows: int, width: int) -> None:
        """Compact the live rows into a zeroed matrix with room for
        ``extra_rows`` more and at least ``width`` columns."""
        live = np.flatnonzero(self.share_row >= 0)
        old = self.share
        share = np.zeros(
            (max(2 * (len(live) + extra_rows), 16), max(width, old.shape[1])),
            dtype=np.uint64,
        )
        share[: len(live), : old.shape[1]] = old[self.share_row[live]]
        self.share_row[live] = np.arange(len(live))
        self.share = share
        self.n_rows = len(live)


class RaceEngine:
    """FastTrack over logical threads; feed it sync events and accesses."""

    def __init__(self) -> None:
        self._clocks: dict[int, VectorClock] = {}
        # Highest thread id seen + 1: no clock, stored epoch or read-vector
        # column names a thread beyond it.
        self._n_threads = 0
        # Blocks are keyed by base address alone: device windows are
        # globally disjoint, and a unified-memory device access arrives
        # with a *host-window* address — address-keying makes host and
        # device views of shared storage collide on the same shadow,
        # exactly as TSan sees one process address space.
        self._blocks: dict[int, _RaceBlock] = {}
        self._bases: list[int] = []
        # The blocks in address order, and check_batch's arrays of their
        # bases, ends and granule counts (built on demand after a track).
        self._sorted_blocks: list[_RaceBlock] = []
        self._bounds: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None
        # Dense-array snapshots of thread clocks for vectorized compares.
        # A thread's clock only changes at synchronization events, so the
        # snapshot is valid between syncs — the common case is thousands of
        # accesses per sync.
        self._clock_arrays: dict[int, np.ndarray] = {}
        # Packed current epoch (tid@C_t[tid]) per thread, same lifetime as
        # the snapshots above.  Plain ints: the scalar fast path compares
        # them without constructing any numpy value.
        self._epoch_cache: dict[int, int] = {}
        self.races: list[dict] = []

    # -- clocks -------------------------------------------------------------

    def clock_of(self, tid: int) -> VectorClock:
        clock = self._clocks.get(tid)
        if clock is None:
            clock = VectorClock()
            clock.set(tid, 1)
            self._clocks[tid] = clock
            self._n_threads = max(self._n_threads, tid + 1)
        return clock

    def _clock_array(self, tid: int) -> np.ndarray:
        """The thread's clock as a dense uint64 array for vector compares."""
        cached = self._clock_arrays.get(tid)
        if cached is not None:
            return cached
        clock = self.clock_of(tid)
        arr = np.fromiter(clock, count=len(clock), dtype=np.uint64)
        self._clock_arrays[tid] = arr
        return arr

    def _clock_matrix(self, tids: list[int]) -> np.ndarray:
        """The clocks of ``tids`` as the rows of one matrix, zero-padded to
        every thread id, so any stored epoch's thread indexes a column."""
        arrays = [self._clock_array(t) for t in tids]
        matrix = np.zeros((len(arrays), self._n_threads), dtype=np.uint64)
        for row, arr in zip(matrix, arrays):
            row[: len(arr)] = arr
        return matrix

    def _current_epoch(self, tid: int) -> int:
        """The thread's packed epoch ``tid@C_t[tid]`` as a plain int."""
        epoch = self._epoch_cache.get(tid)
        if epoch is None:
            epoch = (tid << CLOCK_BITS) | self.clock_of(tid).get(tid)
            self._epoch_cache[tid] = epoch
        return epoch

    def handle_sync(self, kind: str, source: int, target: int) -> None:
        """A happens-before edge source → target (release/acquire pair)."""
        src = self.clock_of(source)
        dst = self.clock_of(target)
        dst.join(src)
        src.increment(source)
        self._clock_arrays.pop(source, None)
        self._clock_arrays.pop(target, None)
        self._epoch_cache.pop(source, None)
        self._epoch_cache.pop(target, None)

    # -- allocations --------------------------------------------------------

    def track(self, device_id: int, base: int, nbytes: int) -> None:
        """Start tracking an allocation; address reuse resets its shadow."""
        if nbytes <= 0:
            return
        block = _RaceBlock(base, nbytes)
        i = bisect_left(self._bases, base)
        if base in self._blocks:
            self._sorted_blocks[i] = block
        else:
            self._bases.insert(i, base)
            self._sorted_blocks.insert(i, block)
        self._blocks[base] = block
        self._bounds = None

    def untrack(self, device_id: int, base: int) -> None:
        """Free: the shadow persists (TSan's is direct-mapped), so races
        involving a stale pointer into freed storage are still observed —
        e.g. a deferred kernel writing a corresponding variable that the
        region exit already deleted.  Re-allocation at the same base
        resets the epochs (see :meth:`track`)."""
        return

    @property
    def shadow_bytes(self) -> int:
        return sum(b.shadow_nbytes for b in self._blocks.values())

    # -- accesses ----------------------------------------------------------------

    def _check_one(
        self, block: _RaceBlock, device_id: int, tid: int, g: int, is_write: bool
    ) -> list[int]:
        """FastTrack for a single granule, epochs as plain Python ints.

        The first comparison is the same-epoch shortcut (the ~80% case in
        real FastTrack): if the stored write (read) epoch already equals the
        acting thread's current epoch, every check already ran when that
        epoch was installed, so return without building any clock array or
        numpy temporary.  Every other path applies the same rule per
        granule (see :meth:`_check_rows`).
        """
        my_epoch = self._current_epoch(tid)
        u = block.uniform
        if u is not None:
            # Same-epoch shortcut straight off the summary; anything else
            # will touch (or install into) individual granules.
            if (u[0] if is_write else u[1]) == my_epoch:
                return []
            block.materialize()
        we = int(block.write[g])
        racy = False
        if is_write:
            if we == my_epoch:
                return []
            clock = self.clock_of(tid)
            racy = we != 0 and (we & MAX_CLOCK) > clock.get(we >> CLOCK_BITS)
            if not racy:
                re = int(block.read[g])
                racy = re != 0 and (re & MAX_CLOCK) > clock.get(re >> CLOCK_BITS)
            if block.n_shared and block.share_row[g] >= 0:
                if not racy:
                    vec = block.share[block.share_row[g]]
                    clock_vec = self._clock_array(tid)
                    k = min(len(vec), len(clock_vec))
                    racy = bool(np.any(vec[:k] > clock_vec[:k]) or np.any(vec[k:] > 0))
                block.unshare([g])  # the write resets sharing
            block.write[g] = my_epoch
            block.read[g] = 0
        else:
            re = int(block.read[g])
            if re == my_epoch:
                return []
            clock = self.clock_of(tid)
            racy = we != 0 and (we & MAX_CLOCK) > clock.get(we >> CLOCK_BITS)
            if (re != 0 and (re & MAX_CLOCK) > clock.get(re >> CLOCK_BITS)) or (
                block.n_shared and block.share_row[g] >= 0
            ):
                # Previous read is concurrent: escalate to a read vector;
                # a read of a shared granule enters its own clock there.
                block.escalate(
                    np.array([g]),
                    np.array([re], dtype=np.uint64),
                    np.array([tid]),
                    np.array([my_epoch & MAX_CLOCK], dtype=np.uint64),
                )
            block.read[g] = my_epoch
        if not racy:
            return []
        self._record(block, [g], [device_id], [tid], [is_write])
        return [g]

    @staticmethod
    def _ordered(epochs: np.ndarray, clocks: np.ndarray, ti: np.ndarray) -> np.ndarray:
        """``epochs[i] <= C_t`` where ``C_t`` is row ``ti[i]`` of ``clocks``
        (see :meth:`_clock_matrix`); the empty epoch is always ordered."""
        return (epochs & _CLOCK_MASK) <= clocks[ti, epochs >> _CLOCK_SHIFT]

    def _check_rows(
        self,
        block: _RaceBlock,
        g: np.ndarray,
        is_write: np.ndarray,
        my: np.ndarray,
        clocks: np.ndarray,
        ti: np.ndarray,
    ) -> np.ndarray:
        """Vectorized FastTrack over the distinct granules ``g`` of ``block``.

        Row ``i`` is an access to ``g[i]`` by the thread whose current
        epoch is ``my[i]`` and whose clock is row ``ti[i]`` of ``clocks``;
        the granules being distinct, the rows are independent and may mix
        threads and kinds.  Each row follows :meth:`_check_one`'s rules,
        same-epoch no-op included.  Returns the indices of the racy rows.
        """
        u = block.uniform
        if u is not None:
            summary = np.where(is_write, np.uint64(u[0]), np.uint64(u[1]))
            if bool((summary == my).all()):
                return np.zeros(0, dtype=np.intp)
            block.materialize()
        w = block.write[g]
        r = block.read[g]
        live = None
        noop = np.where(is_write, w, r) == my
        if np.count_nonzero(noop):
            live = (~noop).nonzero()[0]
            g, is_write, my, ti, w, r = (
                g[live], is_write[live], my[live], ti[live], w[live], r[live]
            )
        r_ordered = self._ordered(r, clocks, ti)
        racy = ~self._ordered(w, clocks, ti) | (is_write & ~r_ordered)
        if block.n_shared:
            # Writes to shared granules: one gather of their read vectors,
            # one compare against the acting clocks; the write resets sharing.
            shared = (is_write & (block.share_row[g] >= 0)).nonzero()[0]
            if len(shared):
                vecs = block.share[block.share_row[g[shared]]]
                acting = clocks[ti[shared], : vecs.shape[1]]
                racy[shared] |= (vecs > acting).any(axis=1)
                block.unshare(g[shared])
        # Reads whose previous read is concurrent escalate to read vectors;
        # every read of a shared granule enters its own clock there.
        escalating = ~r_ordered
        if block.n_shared:
            escalating |= block.share_row[g] >= 0
        escalating = (~is_write & escalating).nonzero()[0]
        if len(escalating):
            mine = my[escalating]
            block.escalate(
                g[escalating],
                r[escalating],
                (mine >> _CLOCK_SHIFT).astype(np.intp),
                mine & _CLOCK_MASK,
            )
        writes = g[is_write]
        block.write[writes] = my[is_write]
        block.read[writes] = 0
        reads = ~is_write
        block.read[g[reads]] = my[reads]
        hit = racy.nonzero()[0]
        return hit if live is None else live[hit]

    def _check_span(
        self, block: _RaceBlock, device_id: int, tid: int, lo: int, hi: int,
        is_write: bool,
    ) -> list[int]:
        """Vectorized FastTrack over the contiguous granules ``[lo, hi)``."""
        sel = slice(lo, hi)
        my_epoch_int = self._current_epoch(tid)
        # Uniform fast path: kernels install one epoch pair per array, so
        # the span usually stores one (write, read) pair (the uniform
        # summary, or the same pair on every granule): two plain-int checks.
        # A whole-block ordered install stays O(1); a racy or escalating
        # outcome falls through on materialized arrays, as per access.
        u = block.uniform
        if u is not None:
            w0, r0 = u
        elif not block.n_shared:
            wsel, rsel = block.write[sel], block.read[sel]
            w0, r0 = int(wsel[0]), int(rsel[0])
            if not ((wsel == w0).all() and (rsel == r0).all()):
                w0 = None
        else:
            w0 = None
        if w0 is not None:
            if (w0 if is_write else r0) == my_epoch_int:
                return []  # the same-epoch rule, on every granule
            clock = self.clock_of(tid)
            w_ord = w0 == 0 or (w0 & MAX_CLOCK) <= clock.get(w0 >> CLOCK_BITS)
            r_ord = r0 == 0 or (r0 & MAX_CLOCK) <= clock.get(r0 >> CLOCK_BITS)
            if w_ord and r_ord:
                if u is not None and lo == 0 and hi >= len(block.write):
                    block.uniform = (my_epoch_int, 0) if is_write else (w0, my_epoch_int)
                    return []
                block.materialize()
                if is_write:
                    block.write[sel] = np.uint64(my_epoch_int)
                    block.read[sel] = 0
                else:
                    block.read[sel] = np.uint64(my_epoch_int)
                return []
            block.materialize()
        local = np.arange(lo, hi)
        n = hi - lo
        racy_g = local[
            self._check_rows(
                block,
                local,
                np.full(n, is_write),
                np.full(n, my_epoch_int, dtype=np.uint64),
                self._clock_matrix([tid]),
                np.zeros(n, dtype=np.intp),
            )
        ].tolist()
        self._record(block, racy_g, repeat(device_id), repeat(tid), repeat(is_write))
        return racy_g

    def _record(
        self,
        block: _RaceBlock,
        granules: list[int],
        device_ids: Iterable[int],
        tids: Iterable[int],
        is_writes: Iterable[bool],
    ) -> None:
        """Append one ``races`` entry per racy granule, each with its own
        row's device (a block is reachable through host and device
        addresses)."""
        base = block.base
        self.races += [
            {
                "device_id": device_id,
                "address": base + g * GRANULE,
                "tid": tid,
                "is_write": is_write,
            }
            for g, device_id, tid, is_write in zip(
                granules, device_ids, tids, is_writes
            )
        ]

    # -- the entry point --------------------------------------------------------

    def check_batch(
        self,
        columns: BatchColumns | Sequence[Access],
        positions: np.ndarray | None = None,
    ) -> list[int]:
        """Check an ordered run of accesses: the engine's one entry point.

        ``columns`` is a batch's :class:`~repro.events.columnar.BatchColumns`
        or a sequence of ``Access`` rows (a batch of one, a transfer), and
        ``positions``, if given, the ascending positions of the rows to
        check (every row otherwise).  The run must not span a sync event:
        thread clocks are frozen across it, as the bus's batch-flush
        ordering guarantees.  A row is clipped to the block holding its
        first byte (one that misses every block touches nothing) and is
        handled by its shape, in program order:

        * a strided row (``count > 1``, stride other than its size) stands
          for its elements, each a row at the row's position;
        * a contiguous row covering several granules is checked at its
          place by :meth:`_check_span`, O(1) when it installs one epoch
          pair over a whole uniform block;
        * the one-granule rows between those go through :meth:`_check_run`.

        A run of at most :data:`_PLAIN_ROWS` contiguous rows (a batch of one,
        a transfer, a small batch) is checked a row at a time by
        :meth:`_check_plain`; such a run handed as rows builds no columns.
        Returns the sorted positions whose access raced.
        """
        if not isinstance(columns, BatchColumns):  # a run of rows
            if positions is None and len(columns) <= _PLAIN_ROWS:
                if not self._bases:
                    return []
                racy = self._check_short(columns)
                if racy is not None:
                    return racy
            columns = BatchColumns(columns)
        fields = (
            columns.device_ids, columns.thread_ids, columns.addresses,
            columns.sizes, columns.is_write, columns.counts, columns.strides,
        )
        if positions is not None:
            fields = tuple(field[positions] for field in fields)
        devices, tids, addresses, spans, writes, counts, strides = fields
        n = len(addresses)
        if n == 0 or not self._bases:
            return []
        if n <= _PLAIN_ROWS:
            racy = self._check_short(list(zip(*(field.tolist() for field in fields))))
            if racy is not None:
                return racy if positions is None else positions[racy].tolist()
        row_pos = None  # each row's run index, once strided rows expand
        if np.count_nonzero(counts != 1):
            sizes = spans
            step = np.where(strides == 0, sizes, strides)
            spans = np.where(counts > 0, (counts - 1) * step + sizes, 0)
            strided = (counts > 1) & (step != sizes)
            if np.count_nonzero(strided):
                reps = np.where(strided, counts, 1)
                row_pos = np.repeat(np.arange(n), reps)
                k = np.arange(len(row_pos)) - (reps.cumsum() - reps)[row_pos]
                addresses = addresses[row_pos] + k * step[row_pos]
                spans = np.where(strided, sizes, spans)[row_pos]
                devices, tids, writes = (
                    devices[row_pos], tids[row_pos], writes[row_pos]
                )
        if self._bounds is None:
            blocks = self._sorted_blocks
            self._bounds = (
                np.array(self._bases, dtype=np.int64),
                np.array([b.base + b.nbytes for b in blocks], dtype=np.int64),
                np.array([len(b.write) for b in blocks], dtype=np.int64),
            )
        bases, ends, granules = self._bounds
        bi = bases.searchsorted(addresses, "right") - 1
        safe = np.maximum(bi, 0)
        base_of = bases[safe]
        first = (addresses - base_of) // GRANULE
        stop = np.minimum(granules[safe], -((base_of - addresses - spans) // GRANULE))
        width = np.where(
            (bi >= 0) & (addresses < ends[safe]) & (spans > 0), stop - first, 0
        )
        # Runs of one-granule rows, cut at every span and every miss.
        racy_rows: list = []
        start = 0
        for row in [*(width != 1).nonzero()[0].tolist(), len(width)]:
            if row > start:
                run = slice(start, row)
                hit = self._check_run(
                    bi[run], first[run], devices[run], tids[run], writes[run]
                )
                if len(hit):
                    racy_rows.append(hit + start)
            if row < len(width) and width[row] > 1 and self._check_span(
                self._sorted_blocks[bi[row]], int(devices[row]), int(tids[row]),
                int(first[row]), int(stop[row]), bool(writes[row]),
            ):
                racy_rows.append([row])
            start = row + 1
        if not racy_rows:
            return []
        rows = np.concatenate(racy_rows)
        if row_pos is not None:
            rows = row_pos[rows]
        if positions is not None:
            rows = positions[rows]
        return np.unique(rows).tolist()

    def _check_short(self, rows: Sequence[tuple]) -> list[int] | None:
        """A short run of rows in ``Access`` field order, a row at a time in
        plain ints: the indices of the racy rows, or ``None`` if a row is
        strided (the columns expand those)."""
        if not all(
            count == 1 or stride in (0, size)
            for _, _, _, size, _, count, stride, *_ in rows
        ):
            return None
        return [
            i
            for i, (device, tid, address, size, is_write, count, *_) in enumerate(rows)
            if self._check_plain(device, tid, address, count * size, is_write)
        ]

    def _check_plain(
        self, device_id: int, tid: int, address: int, span: int, is_write: bool
    ) -> list[int]:
        """One contiguous row in plain ints: the granules of ``[address,
        address + span)`` in the block holding ``address``."""
        i = bisect_right(self._bases, address)
        if not i or span <= 0:
            return []
        block = self._sorted_blocks[i - 1]
        if address >= block.base + block.nbytes:
            return []
        lo = (address - block.base) // GRANULE
        hi = min(len(block.write), -(-(address + span - block.base) // GRANULE))
        if hi - lo == 1:
            return self._check_one(block, device_id, tid, lo, is_write)
        return self._check_span(block, device_id, tid, lo, hi, is_write)

    def _check_run(
        self,
        blk: np.ndarray,
        g: np.ndarray,
        device_ids: np.ndarray,
        tids: np.ndarray,
        is_writes: np.ndarray,
    ) -> np.ndarray:
        """Vectorized FastTrack over one-granule rows: row ``i`` touches
        granule ``g[i]`` of block number ``blk[i]``.

        Because the clocks are frozen, a row whose previous row on the same
        granule has the same thread and kind is a same-epoch no-op:
        :func:`~repro.events.columnar.granule_passes` drops it and splits
        the rest into passes of distinct granules.  One :meth:`_check_rows`
        call per pass and block keeps every granule's program order, and
        the rows past the last pass replay one at a time, in order.
        Returns the indices of the racy rows.
        """
        order, cuts, _, _ = granule_passes(blk, g, tids << 1 | is_writes)
        racy_rows: list[np.ndarray] = []
        if len(cuts) > 1:
            # The acting threads' clocks as matrix rows; slot = each thread's.
            present = np.bincount(tids[order[: cuts[-1]]]) > 0
            slot = present.cumsum() - 1
            acting = present.nonzero()[0].tolist()
            clocks = self._clock_matrix(acting)
            my_of = np.array([self._current_epoch(t) for t in acting], dtype=np.uint64)
        for lo, hi in zip(cuts, cuts[1:]):  # one block's part of a pass
            rows = order[lo:hi]
            block = self._sorted_blocks[int(blk[rows[0]])]
            p_g, p_ti = g[rows], slot[tids[rows]]
            hit = self._check_rows(block, p_g, is_writes[rows], my_of[p_ti], clocks, p_ti)
            if len(hit):
                hit_rows = rows[hit]
                racy_rows.append(hit_rows)
                self._record(
                    block, p_g[hit].tolist(), device_ids[hit_rows].tolist(),
                    tids[hit_rows].tolist(), is_writes[hit_rows].tolist(),
                )
        late = order[cuts[-1]:]
        if len(late):  # rows replayed one at a time
            blocks = self._sorted_blocks
            racy_rows += [
                np.array([row])
                for row, b, device_id, tid, gi, is_write in zip(
                    late.tolist(),
                    *(column[late].tolist() for column in (blk, device_ids, tids, g, is_writes)),
                )
                if self._check_one(blocks[b], device_id, tid, gi, is_write)
            ]
        if not racy_rows:
            return np.zeros(0, dtype=np.intp)
        return np.concatenate(racy_rows)


def transfer_rows(event: "MemcpyEvent") -> list[Access]:
    """A transfer as the two-row run a race check takes: a read of the
    source, then a write of the destination, on the acting thread."""
    return [
        Access(event.src_device, event.thread_id, event.src_address,
               event.nbytes, False),
        Access(event.dst_device, event.thread_id, event.dst_address,
               event.nbytes, True),
    ]


class ArcherTool(Tool):
    """Archer as a standalone tool: races only, nothing about mappings.

    It has OMPT synchronization callbacks (that is Archer's whole point)
    but no data-op semantics are needed: transfers are plain memcpys to it.
    """

    name = "archer"

    def __init__(self) -> None:
        super().__init__()
        self.engine = RaceEngine()

    # allocation tracking (all devices; host offloading makes device memory
    # ordinary heap memory)
    def on_allocation(self, event: "AllocationEvent") -> None:
        if event.is_free:
            self.engine.untrack(event.device_id, event.address)
        else:
            self.engine.track(event.device_id, event.address, event.nbytes)

    def on_sync(self, event: "SyncEvent") -> None:
        self.engine.handle_sync(event.kind, event.source_task, event.target_task)

    def _report_race(self, access: "Access") -> None:
        if self.repeated(
            FindingKind.RACE, access.stack, "", access.device_id, access.address
        ):
            return
        self.report(
            Finding(
                tool=self.name,
                kind=FindingKind.RACE,
                message=(
                    f"conflicting {'write' if access.is_write else 'read'} "
                    f"of size {access.size} not ordered with a previous access"
                ),
                device_id=access.device_id,
                thread_id=access.thread_id,
                address=access.address,
                size=access.size,
                stack=access.stack,
            )
        )

    def on_batch(self, batch) -> None:
        if self.telemetry is not None:
            self.telemetry.count("tool.archer.access_checks", len(batch))
        accesses = batch.accesses
        # A batch of one is checked as its row, with no columns built.
        run = accesses if len(batch) == 1 else batch.columns
        for pos in self.engine.check_batch(run):
            self._report_race(accesses[pos])

    def on_memcpy(self, event: "MemcpyEvent") -> None:
        # The runtime's transfer is itself a read + a write on the acting
        # thread; unsynchronized kernels racing a transfer are caught here
        # (the Fig-2 line-14-vs-line-11 conflict).
        if self.telemetry is not None:
            self.telemetry.count("tool.archer.memcpy_checks")
        if self.engine.check_batch(transfer_rows(event)) and not self.repeated(
            FindingKind.RACE, event.stack, "", event.dst_device, event.dst_address
        ):
            self.report(
                Finding(
                    tool=self.name,
                    kind=FindingKind.RACE,
                    message="data-mapping transfer races with an unsynchronized access",
                    device_id=event.dst_device,
                    thread_id=event.thread_id,
                    address=event.dst_address,
                    size=event.nbytes,
                    stack=event.stack,
                )
            )

    def shadow_bytes(self) -> int:
        return self.engine.shadow_bytes
