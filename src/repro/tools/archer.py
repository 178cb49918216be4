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
  epoch, escalating reads to a full read vector when reads of the same
  granule are mutually concurrent (the FastTrack read-share case);
* a race is a write not ordered after every previous access, or a read not
  ordered after the previous write.

The engine is shared: :class:`ArcherTool` wraps it as a standalone tool
(which, per Table III, reports *races only* and therefore scores 0/16 on
the DRACC mapping issues), and ARBALEST embeds the same engine, which is
why the paper finds their runtime overheads nearly identical (Fig 8).

Checks are vectorized: for a bulk access the epoch arrays of the covered
granule range are compared against the acting thread's clock with numpy,
giving amortized O(1) per element like the real shadow-cell implementation.
"""

from __future__ import annotations

from bisect import bisect_right, insort
from typing import TYPE_CHECKING

import numpy as np

from ..clocks.epoch import CLOCK_BITS, MAX_CLOCK
from ..clocks.vector_clock import VectorClock
from ..memory.layout import GRANULE
from ..telemetry import registry as _telemetry
from .base import Tool
from .findings import Finding, FindingKind

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..events.records import Access, AllocationEvent, MemcpyEvent, SyncEvent

_CLOCK_MASK = np.uint64(MAX_CLOCK)
_CLOCK_SHIFT = np.uint64(CLOCK_BITS)


class _RaceBlock:
    """Race-detection shadow for one allocation: epochs per granule.

    ``uniform`` is the same trick as the VSM shadow's uniform-word summary:
    while every granule stores the same ``(write, read)`` epoch pair — true
    at birth and preserved by the whole-array installs bulk kernels perform
    — the pair lives here and the epoch arrays are stale.  Any per-granule
    operation (or any racy/escalating outcome, so ``races`` entries match
    the materialized path exactly) calls :meth:`materialize` first.
    """

    __slots__ = ("base", "nbytes", "write", "read", "shared", "uniform")

    def __init__(self, base: int, nbytes: int):
        self.base = base
        self.nbytes = nbytes
        n = -(-nbytes // GRANULE)
        self.write = np.zeros(n, dtype=np.uint64)
        self.read = np.zeros(n, dtype=np.uint64)
        # Read-shared granules: local index -> np.uint64 clock vector
        # (component i = last read clock of thread i).
        self.shared: dict[int, np.ndarray] = {}
        self.uniform: tuple[int, int] | None = (0, 0)

    def materialize(self) -> None:
        u = self.uniform
        if u is not None:
            self.write.fill(u[0])
            self.read.fill(u[1])
            self.uniform = None

    @property
    def shadow_nbytes(self) -> int:
        return self.write.nbytes + self.read.nbytes + 16 * len(self.shared)


class RaceEngine:
    """FastTrack over logical threads; feed it sync events and accesses."""

    def __init__(self) -> None:
        self._clocks: dict[int, VectorClock] = {}
        # Blocks are keyed by base address alone: device windows are
        # globally disjoint, and a unified-memory device access arrives
        # with a *host-window* address — address-keying makes host and
        # device views of shared storage collide on the same shadow,
        # exactly as TSan sees one process address space.
        self._blocks: dict[int, _RaceBlock] = {}
        self._bases: list[int] = []
        self._sizes: dict[int, int] = {}
        # Dense-array snapshots of thread clocks for vectorized compares.
        # A thread's clock only changes at synchronization events, so the
        # snapshot is valid between syncs — the common case is thousands of
        # accesses per sync.
        self._clock_arrays: dict[int, np.ndarray] = {}
        # Packed current epoch (tid@C_t[tid]) per thread, same lifetime as
        # the snapshots above.  Plain ints: the scalar fast path compares
        # them without constructing any numpy value.
        self._epoch_cache: dict[int, int] = {}
        # Last block hit by _block_for: kernels hammer one array, so this
        # avoids the bisect in the overwhelmingly common case.
        self._last_block: _RaceBlock | None = None
        self.races: list[dict] = []

    # -- clocks -------------------------------------------------------------

    def clock_of(self, tid: int) -> VectorClock:
        clock = self._clocks.get(tid)
        if clock is None:
            clock = VectorClock()
            clock.set(tid, 1)
            self._clocks[tid] = clock
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
        if base not in self._blocks:
            insort(self._bases, base)
        self._blocks[base] = _RaceBlock(base, nbytes)
        self._sizes[base] = nbytes
        self._last_block = None

    def untrack(self, device_id: int, base: int) -> None:
        """Free: the shadow persists (TSan's is direct-mapped), so races
        involving a stale pointer into freed storage are still observed —
        e.g. a deferred kernel writing a corresponding variable that the
        region exit already deleted.  Re-allocation at the same base
        resets the epochs (see :meth:`track`)."""
        return

    def _block_for(self, device_id: int, address: int) -> _RaceBlock | None:
        cached = self._last_block
        if cached is not None and cached.base <= address < cached.base + cached.nbytes:
            return cached
        i = bisect_right(self._bases, address)
        if not i:
            return None
        base = self._bases[i - 1]
        if address < base + self._sizes[base]:
            block = self._blocks[base]
            self._last_block = block
            return block
        return None

    @property
    def shadow_bytes(self) -> int:
        return sum(b.shadow_nbytes for b in self._blocks.values())

    # -- accesses ----------------------------------------------------------------

    def check_access(self, access: "Access") -> list[int]:
        """Check one instrumented access; the single entry point for tools.

        Scalar and contiguous accesses go through :meth:`check_range`;
        strided accesses are checked with one vectorized pass over the
        touched granules instead of a per-element Python loop.  Returns the
        local granule indices that raced.
        """
        stride = access.element_stride
        if access.count == 1 or stride == access.size:
            return self.check_range(
                access.device_id,
                access.thread_id,
                access.address,
                access.span,
                access.is_write,
            )
        return self.check_strided(access)

    def check_strided(self, access: "Access") -> list[int]:
        """Vectorized check of a strided access's granule set."""
        block = self._block_for(access.device_id, access.address)
        if block is not None:
            local = access.granule_indices() - block.base // GRANULE
            if len(local) and bool(
                (local[0] >= 0) & (local[-1] < len(block.write))
            ):
                return self._check_granule_array(
                    block,
                    access.device_id,
                    access.thread_id,
                    local,
                    access.is_write,
                )
        # Rare: the access straddles block boundaries (or hits untracked
        # memory); fall back to per-element range checks.
        racy: list[int] = []
        for addr in access.element_addresses().tolist():
            racy += self.check_range(
                access.device_id,
                access.thread_id,
                addr,
                access.size,
                access.is_write,
            )
        return racy

    def check_range(
        self,
        device_id: int,
        tid: int,
        address: int,
        span: int,
        is_write: bool,
    ) -> list[int]:
        """Check all granules of ``[address, address+span)``; record races.

        Returns the local granule indices that raced (for reporting).
        """
        block = self._block_for(device_id, address)
        if block is None or span <= 0:
            return []
        lo = max(0, (address - block.base) // GRANULE)
        hi = min(len(block.write), -(-(address + span - block.base) // GRANULE))
        if hi <= lo:
            return []
        if hi - lo == 1:
            # Scalar fast path: one granule, plain-int epoch algebra.
            return self._check_one(block, device_id, tid, lo, is_write)
        return self._check_span(block, device_id, tid, lo, hi, is_write)

    def _check_one(
        self, block: _RaceBlock, device_id: int, tid: int, g: int, is_write: bool
    ) -> list[int]:
        """FastTrack for a single granule, epochs as plain Python ints.

        The first comparison is the same-epoch shortcut (the ~80% case in
        real FastTrack): if the stored write (read) epoch already equals the
        acting thread's current epoch, every check already ran when that
        epoch was installed, so return without building any clock array or
        numpy temporary.
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
            vec = block.shared.pop(g, None)  # the write resets sharing
            if vec is not None and not racy:
                clock_vec = self._clock_array(tid)
                k = min(len(vec), len(clock_vec))
                racy = bool(np.any(vec[:k] > clock_vec[:k]) or np.any(vec[k:] > 0))
            block.write[g] = my_epoch
            block.read[g] = 0
        else:
            re = int(block.read[g])
            if re == my_epoch:
                return []
            clock = self.clock_of(tid)
            racy = we != 0 and (we & MAX_CLOCK) > clock.get(we >> CLOCK_BITS)
            if re != 0 and (re & MAX_CLOCK) > clock.get(re >> CLOCK_BITS):
                # Previous read is concurrent: escalate to a read vector.
                vec = block.shared.get(g)
                if vec is None:
                    vec = np.zeros(
                        max((re >> CLOCK_BITS) + 1, tid + 1), dtype=np.uint64
                    )
                    vec[re >> CLOCK_BITS] = re & MAX_CLOCK
                    block.shared[g] = vec
                if len(vec) <= tid:
                    vec = np.concatenate(
                        [vec, np.zeros(tid + 1 - len(vec), dtype=np.uint64)]
                    )
                    block.shared[g] = vec
                vec[tid] = my_epoch & MAX_CLOCK
            block.read[g] = my_epoch
        if not racy:
            return []
        self.races.append(
            {
                "device_id": device_id,
                "address": block.base + g * GRANULE,
                "tid": tid,
                "is_write": is_write,
            }
        )
        return [g]

    def _ordered(self, epochs: np.ndarray, clock_vec: np.ndarray) -> np.ndarray:
        """epoch <= C_t, vectorized; the empty epoch is always ordered."""
        tids = (epochs >> _CLOCK_SHIFT).astype(np.intp)
        clocks = epochs & _CLOCK_MASK
        known = np.zeros(len(epochs), dtype=np.uint64)
        in_range = tids < len(clock_vec)
        known[in_range] = clock_vec[tids[in_range]]
        return clocks <= known

    def _check_span(
        self, block: _RaceBlock, device_id: int, tid: int, lo: int, hi: int,
        is_write: bool,
    ) -> list[int]:
        """Vectorized FastTrack over the contiguous granules ``[lo, hi)``."""
        sel = slice(lo, hi)
        my_epoch_int = self._current_epoch(tid)
        u = block.uniform
        if u is not None:
            # Uniform-summary fast path: both stored epochs are scalars, so
            # the whole span is two plain-int ordering checks.  A full-block
            # ordered install stays O(1); a racy or escalating outcome falls
            # through on materialized arrays so the recorded races and
            # shared vectors are identical to per-access delivery's.
            uw, ur = u
            if (uw if is_write else ur) == my_epoch_int:
                return []
            clock = self.clock_of(tid)
            w_ord = uw == 0 or (uw & MAX_CLOCK) <= clock.get(uw >> CLOCK_BITS)
            r_ord = ur == 0 or (ur & MAX_CLOCK) <= clock.get(ur >> CLOCK_BITS)
            if w_ord and r_ord:
                if lo == 0 and hi >= len(block.write):
                    block.uniform = (
                        (my_epoch_int, 0) if is_write else (uw, my_epoch_int)
                    )
                else:
                    block.materialize()
                    if is_write:
                        block.write[sel] = np.uint64(my_epoch_int)
                        block.read[sel] = 0
                    else:
                        block.read[sel] = np.uint64(my_epoch_int)
                return []
            block.materialize()
        my_epoch = np.uint64(my_epoch_int)
        # Range-level same-epoch shortcut: if this thread already installed
        # its current epoch on every granule, all checks already ran.
        if is_write:
            if not block.shared and bool((block.write[sel] == my_epoch).all()):
                return []
        elif bool((block.read[sel] == my_epoch).all()):
            return []
        # Uniform-epoch fast path: a kernel installs one epoch across the
        # whole array, so the span usually stores a single (write, read)
        # epoch pair — two scalar ordering checks replace the vectorized
        # clock-vector gathers.  Races and read-share escalation fall
        # through to the general path below.
        if not block.shared:
            wsel = block.write[sel]
            rsel = block.read[sel]
            w0 = wsel[0]
            r0 = rsel[0]
            if bool((wsel == w0).all()) and bool((rsel == r0).all()):
                w0i = int(w0)
                r0i = int(r0)
                clock = self.clock_of(tid)
                w_ord = w0i == 0 or (w0i & MAX_CLOCK) <= clock.get(w0i >> CLOCK_BITS)
                r_ord = r0i == 0 or (r0i & MAX_CLOCK) <= clock.get(r0i >> CLOCK_BITS)
                if w_ord and r_ord:
                    if is_write:
                        block.write[sel] = my_epoch
                        block.read[sel] = 0
                    else:
                        block.read[sel] = my_epoch
                    return []
        clock_vec = self._clock_array(tid)
        my_clock = np.uint64(my_epoch_int & MAX_CLOCK)

        racy = ~self._ordered(block.write[sel], clock_vec)
        if is_write:
            racy |= ~self._ordered(block.read[sel], clock_vec)
            # Shared-read granules need their whole vector checked.
            if block.shared:
                for g, vec in list(block.shared.items()):
                    if lo <= g < hi:
                        k = min(len(vec), len(clock_vec))
                        bad = np.any(vec[:k] > clock_vec[:k]) or np.any(vec[k:] > 0)
                        if bad:
                            racy[g - lo] = True
                        block.shared.pop(g)  # the write resets sharing
            block.write[sel] = my_epoch
            block.read[sel] = 0
        else:
            # Read: escalate to shared where the previous read is concurrent.
            prev = block.read[sel]
            conc = (~self._ordered(prev, clock_vec)) & (prev != 0)
            if conc.any():
                for off in np.nonzero(conc)[0]:
                    g = lo + int(off)
                    vec = block.shared.get(g)
                    if vec is None:
                        old = int(prev[off])
                        vec = np.zeros(max((old >> CLOCK_BITS) + 1, tid + 1), dtype=np.uint64)
                        vec[old >> CLOCK_BITS] = old & MAX_CLOCK
                        block.shared[g] = vec
                    if len(vec) <= tid:
                        vec = np.concatenate([vec, np.zeros(tid + 1 - len(vec), dtype=np.uint64)])
                        block.shared[g] = vec
                    vec[tid] = my_clock
            block.read[sel] = my_epoch
        racy_local = (np.nonzero(racy)[0] + lo).tolist()
        for g in racy_local:
            self.races.append(
                {
                    "device_id": device_id,
                    "address": block.base + g * GRANULE,
                    "tid": tid,
                    "is_write": is_write,
                }
            )
        return racy_local

    def _check_granule_array(
        self,
        block: _RaceBlock,
        device_id: int,
        tid: int,
        local: np.ndarray,
        is_write: bool,
    ) -> list[int]:
        """Vectorized FastTrack over a sorted array of local granule indices
        (the strided-access path — same algorithm as :meth:`_check_span`,
        fancy indexing instead of a slice)."""
        if len(local) == 0:
            return []
        if len(local) == 1:
            return self._check_one(block, device_id, tid, int(local[0]), is_write)
        my_epoch_int = self._current_epoch(tid)
        u = block.uniform
        if u is not None:
            if (u[0] if is_write else u[1]) == my_epoch_int:
                return []
            block.materialize()
        my_epoch = np.uint64(my_epoch_int)
        if is_write:
            if not block.shared and bool((block.write[local] == my_epoch).all()):
                return []
        elif bool((block.read[local] == my_epoch).all()):
            return []
        clock_vec = self._clock_array(tid)
        my_clock = np.uint64(my_epoch_int & MAX_CLOCK)

        racy = ~self._ordered(block.write[local], clock_vec)
        if is_write:
            racy |= ~self._ordered(block.read[local], clock_vec)
            if block.shared:
                touched = set(local.tolist())
                for g, vec in list(block.shared.items()):
                    if g in touched:
                        k = min(len(vec), len(clock_vec))
                        bad = np.any(vec[:k] > clock_vec[:k]) or np.any(vec[k:] > 0)
                        if bad:
                            racy[np.searchsorted(local, g)] = True
                        block.shared.pop(g)
            block.write[local] = my_epoch
            block.read[local] = 0
        else:
            prev = block.read[local]
            conc = (~self._ordered(prev, clock_vec)) & (prev != 0)
            if conc.any():
                for off in np.nonzero(conc)[0]:
                    g = int(local[off])
                    vec = block.shared.get(g)
                    if vec is None:
                        old = int(prev[off])
                        vec = np.zeros(max((old >> CLOCK_BITS) + 1, tid + 1), dtype=np.uint64)
                        vec[old >> CLOCK_BITS] = old & MAX_CLOCK
                        block.shared[g] = vec
                    if len(vec) <= tid:
                        vec = np.concatenate([vec, np.zeros(tid + 1 - len(vec), dtype=np.uint64)])
                        block.shared[g] = vec
                    vec[tid] = my_clock
            block.read[local] = my_epoch
        racy_local = local[racy].tolist()
        for g in racy_local:
            self.races.append(
                {
                    "device_id": device_id,
                    "address": block.base + g * GRANULE,
                    "tid": tid,
                    "is_write": is_write,
                }
            )
        return racy_local

    # -- columnar entry point ---------------------------------------------------

    def check_batch(
        self,
        device_ids: np.ndarray,
        tids: np.ndarray,
        addresses: np.ndarray,
        sizes: np.ndarray,
        is_writes: np.ndarray,
    ) -> list[int]:
        """Vectorized FastTrack over an ordered run of scalar accesses.

        The columns describe ``count == 1`` accesses, and the run must not
        span a sync event (thread clocks are frozen across it — the bus's
        batch-flush ordering guarantees this).  Per-granule program order is
        preserved by splitting each run into first-occurrence passes;
        accesses that miss every tracked block, straddle a granule, or
        overrun their block are replayed through :meth:`check_range` in
        place.  Returns the run positions whose access raced (unordered).
        """
        from ..events.columnar import first_occurrence_passes

        n = len(addresses)
        if n == 0 or not self._bases:
            return []
        bases = np.array(self._bases, dtype=np.int64)
        ends = bases + np.fromiter(
            (self._sizes[b] for b in self._bases), np.int64, count=len(bases)
        )
        bi = np.searchsorted(bases, addresses, side="right") - 1
        safe = np.maximum(bi, 0)
        base_of = bases[safe]
        in_block = (bi >= 0) & (addresses + sizes <= ends[safe])
        g = (addresses - base_of) // GRANULE
        g_last = (addresses + sizes - 1 - base_of) // GRANULE
        eligible = in_block & (g == g_last)

        racy_positions: list[int] = []

        def replay(pos: int) -> None:
            racy = self.check_range(
                int(device_ids[pos]),
                int(tids[pos]),
                int(addresses[pos]),
                int(sizes[pos]),
                bool(is_writes[pos]),
            )
            if racy:
                racy_positions.append(pos)

        def vector_segment(seg: np.ndarray) -> None:
            keys = bi[seg] * np.int64(1 << 40) + g[seg]
            passes, remainder = first_occurrence_passes(keys)
            tid_span = int(tids[seg].max()) + 1
            for p in passes:
                idxs = seg[p]
                gk = (
                    (bi[idxs] * tid_span + tids[idxs]) * 64 + device_ids[idxs]
                ) * 2 + is_writes[idxs]
                for key in np.unique(gk).tolist():
                    sel = idxs[gk == key]
                    block = self._blocks[int(base_of[sel[0]])]
                    srt = np.argsort(g[sel])
                    loc_sorted = g[sel][srt].astype(np.intp)
                    pos_sorted = sel[srt]
                    racy_g = self._check_granule_array(
                        block,
                        int(device_ids[sel[0]]),
                        int(tids[sel[0]]),
                        loc_sorted,
                        bool(is_writes[sel[0]]),
                    )
                    for rg in racy_g:
                        racy_positions.append(
                            int(pos_sorted[np.searchsorted(loc_sorted, rg)])
                        )
            # High-multiplicity granules past the pass cap: ordered replay.
            for ridx in remainder.tolist():
                replay(int(seg[ridx]))

        # Order-preserving segmentation: vector-process maximal eligible
        # runs, replaying each straggler at its original position.
        stragglers = np.flatnonzero(~eligible)
        order = np.arange(n, dtype=np.intp)
        start = 0
        for b in stragglers.tolist():
            if b > start:
                vector_segment(order[start:b])
            replay(b)
            start = b + 1
        if start < n:
            vector_segment(order[start:n])
        return racy_positions


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

    def on_access(self, access: "Access") -> None:
        if _telemetry.ACTIVE is not None:
            _telemetry.ACTIVE.count("tool.archer.access_checks")
        racy = self.engine.check_access(access)
        if racy:
            self._report_race(access)

    def _report_race(self, access: "Access") -> None:
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
        engine = self.engine
        if _telemetry.ACTIVE is not None:
            _telemetry.ACTIVE.count("tool.archer.access_checks", len(batch))
        accesses = batch.accesses
        cols = batch.columns
        counts = cols.counts
        racy_positions: list[int]
        if bool((counts == 1).all()):
            racy_positions = engine.check_batch(
                cols.device_ids,
                cols.thread_ids,
                cols.addresses,
                cols.sizes,
                cols.is_write,
            )
        else:
            # Bulk (multi-element) accesses interleave with scalar ones:
            # vector-check the scalar runs, replay each bulk event in place.
            racy_positions = []
            bulk = np.flatnonzero(counts != 1)
            start = 0
            for b in bulk.tolist():
                if b > start:
                    racy_positions += [
                        start + p
                        for p in engine.check_batch(
                            cols.device_ids[start:b],
                            cols.thread_ids[start:b],
                            cols.addresses[start:b],
                            cols.sizes[start:b],
                            cols.is_write[start:b],
                        )
                    ]
                if engine.check_access(accesses[b]):
                    racy_positions.append(b)
                start = b + 1
            if start < len(accesses):
                racy_positions += [
                    start + p
                    for p in engine.check_batch(
                        cols.device_ids[start:],
                        cols.thread_ids[start:],
                        cols.addresses[start:],
                        cols.sizes[start:],
                        cols.is_write[start:],
                    )
                ]
        for pos in sorted(racy_positions):
            self._report_race(accesses[pos])

    def on_memcpy(self, event: "MemcpyEvent") -> None:
        # The runtime's transfer is itself a read + a write on the acting
        # thread; unsynchronized kernels racing a transfer are caught here
        # (the Fig-2 line-14-vs-line-11 conflict).
        if _telemetry.ACTIVE is not None:
            _telemetry.ACTIVE.count("tool.archer.memcpy_checks")
        racy_r = self.engine.check_range(
            event.src_device, event.thread_id, event.src_address, event.nbytes, False
        )
        racy_w = self.engine.check_range(
            event.dst_device, event.thread_id, event.dst_address, event.nbytes, True
        )
        if racy_r or racy_w:
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
