"""Columnar event batching: accumulate accesses, dispatch them in blocks.

Handing every :class:`~repro.events.records.Access` to every subscribed
tool one Python call at a time costs, for element-wise kernels, one
interpreter round-trip *per element per tool*.  The bus instead parks
accesses and flushes them as an :class:`EventBatch` — the ordered run of
pending accesses plus lazily-built numpy columns ``(device, thread,
address, size, is_write, count, stride)`` — through the tools'
``on_batch`` protocol, so the VSM table lookups and FastTrack epoch
comparisons in the hot path run as whole-array gather/scatter.

A pending access is either an ``Access`` row or a **lane code**: the one
int a bound host or kernel view publishes per in-bounds scalar access,
``(slot << 1 | is_write) << OFFSET_BITS | offset``.  The slot indexes the
bus's per-batch slot table of ``(device, thread, base, itemsize, stack)``
tuples, so the code names the access completely: its address is ``base +
offset * itemsize``.  The lane (slot and write bit) sits above the
offset, so a view holding its lane's code (:func:`lane_code`) builds an
access's code with one add.  This module is the only one that knows the
layout.  :class:`BatchColumns` decodes a batch's codes with one
``np.fromiter`` plus shifts and gathers, and a row is built only when a
tool asks :attr:`EventBatch.accesses` for one (a finding, an access
applied in place, a per-access tool).  A batch of rows only keeps the one
``zip(*accesses)`` transpose.

Ordering contract (see EXPERIMENTS.md §E): a batch only ever spans a window
in which mappings, shadow blocks, and thread clocks are frozen, because the
bus flushes the pending batch before delivering *any* non-access event
(data ops, kernels, allocations, syncs, flushes, memcpys).  Within a batch,
accesses to distinct granules commute; per-granule order is preserved by
processing a batch in passes of distinct granules (:func:`granule_passes`,
which also drops a row that repeats its granule's previous step).
"""

from __future__ import annotations

from itertools import islice
from typing import Sequence, Union

import numpy as np

from .records import Access, AccessOrigin

#: Flush threshold: bounds both memory held by a pending batch and the
#: latency between an access occurring and a tool observing it.
BATCH_CAP = 65536

#: Lane-code layout: the element offset fills the low ``OFFSET_BITS``, the
#: write bit and the slot number sit above it.  A view's offsets stay below
#: ``1 << OFFSET_BITS`` (no simulated array holds 2**40 elements), and a
#: slot table never holds more than ``BATCH_CAP`` slots (it is reset at
#: every flush, and a view interns a slot only to publish a code), so a
#: code fits an int64 column.
OFFSET_BITS = 40
_OFFSET_MASK = (1 << OFFSET_BITS) - 1
_SLOT_SHIFT = OFFSET_BITS + 1
#: Added to a slot's read code to make its write code.
WRITE_CODE = 1 << OFFSET_BITS

#: One slot: ``(device_id, thread_id, base, itemsize, stack)``.
LaneSlot = tuple[int, int, int, int, tuple]
#: What a pending batch holds: rows and lane codes, in publish order.
Pending = Union[Access, int]


def lane_code(slot: int, offset: int = 0, is_write: bool = False) -> int:
    """The code of an access at element ``offset`` through slot ``slot``.

    ``lane_code(slot)`` is the slot's read code at offset 0; a view adds
    an offset (and :data:`WRITE_CODE` for a write) to it.
    """
    return (slot << 1 | is_write) << OFFSET_BITS | offset


def slot_of(code: int) -> int:
    """The slot number a lane code names."""
    return code >> _SLOT_SHIFT


def decode_lane(code: int, slots: Sequence[LaneSlot]) -> Access:
    """The ``Access`` row a lane code stands for."""
    device, thread, base, size, stack = slots[code >> _SLOT_SHIFT]
    return Access(
        device,
        thread,
        base + (code & _OFFSET_MASK) * size,
        size,
        bool(code >> OFFSET_BITS & 1),
        1,
        size,
        AccessOrigin.PROGRAM,
        stack,
    )


def decode_rows(items: list[Pending], slots: Sequence[LaneSlot]) -> list[Access]:
    """Replace every lane code in ``items`` by its row, in place; return it."""
    if slots:
        for pos, item in enumerate(items):
            if type(item) is int:
                items[pos] = decode_lane(item, slots)
    return items  # type: ignore[return-value]


class BatchColumns:
    """The column view of one batch (one numpy array per field).

    The seven fields tools read become int64 (``is_write``: bool) arrays;
    ``origin`` and ``stack`` are left on the rows and the slot table.
    Rows come from one ``zip(*rows)`` transpose; lane codes decode with
    shifts and one gather per slot field, the slot table being small.
    """

    __slots__ = (
        "device_ids",
        "thread_ids",
        "addresses",
        "sizes",
        "is_write",
        "counts",
        "strides",
    )

    def __init__(
        self, accesses: Sequence[Pending], slots: Sequence[LaneSlot] = ()
    ):
        if slots:
            self._decode(accesses, slots)
            return
        # zip(*[]) yields no columns, so an empty batch gets empty ones.
        fields = tuple(islice(zip(*accesses), 7)) or ((),) * 7
        devices, threads, addresses, sizes, writes, counts, strides = fields
        self.device_ids = np.array(devices, dtype=np.int64)
        self.thread_ids = np.array(threads, dtype=np.int64)
        self.addresses = np.array(addresses, dtype=np.int64)
        self.sizes = np.array(sizes, dtype=np.int64)
        self.is_write = np.array(writes, dtype=np.bool_)
        self.counts = np.array(counts, dtype=np.int64)
        self.strides = np.array(strides, dtype=np.int64)

    def _decode(self, items: Sequence[Pending], slots: Sequence[LaneSlot]) -> None:
        n = len(items)
        row_pos: list[int] = []
        try:
            codes = np.fromiter(items, dtype=np.int64, count=n)
        except TypeError:  # rows among the codes: decode those apart
            row_pos = [pos for pos, item in enumerate(items) if type(item) is not int]
            codes = np.fromiter(
                (item if type(item) is int else 0 for item in items),
                dtype=np.int64,
                count=n,
            )
        table = np.array([slot[:4] for slot in slots], dtype=np.int64)
        slot = codes >> _SLOT_SHIFT
        sizes = table[:, 3][slot]
        self.device_ids = table[:, 0][slot]
        self.thread_ids = table[:, 1][slot]
        self.addresses = table[:, 2][slot] + (codes & _OFFSET_MASK) * sizes
        self.sizes = sizes
        self.is_write = (codes >> OFFSET_BITS & 1).astype(np.bool_)
        self.counts = np.ones(n, dtype=np.int64)
        self.strides = sizes.copy()
        if row_pos:
            rows = BatchColumns([items[pos] for pos in row_pos])
            for field in self.__slots__:
                getattr(self, field)[row_pos] = getattr(rows, field)


class BatchRows:
    """A batch's accesses as a sequence of rows, each built on first use.

    Indexing a lane code decodes it and keeps the row in a list of this
    view's own, so a row is built at most once however many tools ask for
    it, and the batch's pending list stays as published (its columns
    decode the codes alone).
    """

    __slots__ = ("_items", "_slots", "_rows")

    def __init__(self, items: list[Pending], slots: Sequence[LaneSlot]):
        self._items = items
        self._slots = slots
        #: The pending list with the rows built so far; copied on first use.
        self._rows: list[Pending] | None = None

    def __len__(self) -> int:
        return len(self._items)

    def __getitem__(self, pos):
        if type(pos) is slice:
            return [self[i] for i in range(*pos.indices(len(self._items)))]
        rows = self._rows
        item = (self._items if rows is None else rows)[pos]
        if type(item) is int:
            if rows is None:
                rows = self._rows = list(self._items)
            item = rows[pos] = decode_lane(item, self._slots)
        return item

    def __iter__(self):
        return iter(self.decoded())

    def decoded(self) -> list[Access]:
        """Every access as a row, in this view's own list."""
        if self._rows is None:
            self._rows = list(self._items)
        return decode_rows(self._rows, self._slots)


class EventBatch:
    """An ordered run of pending accesses plus their lazily-built columns.

    ``accesses`` is the pending list the batch takes over (rows and lane
    codes) and ``slots`` the slot table its codes index.
    """

    __slots__ = ("_items", "_slots", "_columns", "_rows")

    def __init__(
        self, accesses: Sequence[Pending], slots: Sequence[LaneSlot] = ()
    ):
        self._items = accesses if type(accesses) is list else list(accesses)
        self._slots = slots
        self._columns: BatchColumns | None = None
        self._rows: BatchRows | None = None

    def __len__(self) -> int:
        return len(self._items)

    @property
    def accesses(self) -> Sequence[Access]:
        """The batch as rows; a lane code becomes a row when indexed."""
        if not self._slots:
            return self._items  # type: ignore[return-value]
        rows = self._rows
        if rows is None:
            rows = self._rows = BatchRows(self._items, self._slots)
        return rows

    def rows(self) -> list[Access]:
        """Every access as a row (decodes the whole batch once)."""
        if not self._slots:
            return self._items  # type: ignore[return-value]
        return self.accesses.decoded()  # type: ignore[attr-defined]

    def stack_at(self, pos: int):
        """The stack of access ``pos``, read without building its row."""
        item = self._items[pos]
        if type(item) is int:
            return self._slots[item >> _SLOT_SHIFT][4]
        return item.stack

    @property
    def columns(self) -> BatchColumns:
        cols = self._columns
        if cols is None:
            cols = self._columns = BatchColumns(self._items, self._slots)
        return cols


#: The smallest pass :func:`granule_passes` vectorizes; later rows replay
#: one at a time (a hot accumulator stays linear).  A replayed row costs
#: ~1.3 µs in the VSM walk and ~3 µs in the race check, a vectorized pass
#: ~10 and ~40 µs.
PASS_ROWS = 16
#: Bits of a row's granule in its sort key ``block << _KEY_SHIFT | granule``.
_KEY_SHIFT = 40
_NO_ROWS = np.zeros(0, dtype=np.intp)


def granule_passes(
    blocks: np.ndarray,
    granules: np.ndarray,
    tags: np.ndarray,
    *,
    with_leaders: bool = False,
) -> tuple[np.ndarray, list[int], np.ndarray, np.ndarray | None]:
    """Split rows ``0..n-1`` into passes with at most one row per granule.

    Row ``i`` steps granule ``granules[i]`` of block ``blocks[i]`` with
    what ``tags[i]`` names (an op, a thread and kind).  One stable sort
    puts each granule's rows in program order; a row whose previous row
    on its granule has the same tag repeats an idempotent step and is
    dropped.  The kept rows are ranked per granule, and pass ``k`` holds
    every granule's ``k``-th row, so processing the passes in sequence
    keeps each granule's order.  Passes shrink as ``k`` grows; from the
    first one smaller than :data:`PASS_ROWS` on, the rows replay one at a
    time.  Fewer rows than that replay as they stand: sorting them would
    cost more than stepping their repeats.

    Returns ``(order, cuts, repeats, leaders)``.  ``order`` holds the kept
    rows: each ``order[cuts[k]:cuts[k + 1]]`` is one block's part of one
    pass, sorted by granule, and ``order[cuts[-1]:]`` the rows to replay,
    in program order.  ``repeats`` are the dropped rows and ``leaders``
    the kept row each one repeats, built only ``with_leaders`` (``None``
    otherwise: the race check needs no leader).
    """
    no_leaders = _NO_ROWS if with_leaders else None
    if len(granules) < PASS_ROWS:  # too short to pay for the sort
        return np.arange(len(granules)), [0], _NO_ROWS, no_leaders
    key = blocks << _KEY_SHIFT | granules
    order = key.argsort(kind="stable")
    key = key[order]
    same = key[1:] == key[:-1]
    repeats, leaders = _NO_ROWS, no_leaders
    if np.count_nonzero(same):
        tag = tags[order]
        repeat = same & (tag[1:] == tag[:-1])
        if np.count_nonzero(repeat):
            kept = np.concatenate(([True], ~repeat)).nonzero()[0]
            repeats = order[1:][repeat]
            order, key = order[kept], key[kept]
            if with_leaders:  # a kept row's repeats follow it in key order
                leaders = np.repeat(order, np.diff(kept, append=len(tag)) - 1)
            same = key[1:] == key[:-1]
    one_block = key[0] >> _KEY_SHIFT == key[-1] >> _KEY_SHIFT
    if np.count_nonzero(same):
        # rank = the row's index among its granule's rows.
        at = np.arange(len(key))
        rank = at - np.maximum.accumulate(np.where(np.concatenate(([True], ~same)), at, 0))
        sizes = np.bincount(rank)  # non-increasing
        ends = sizes[sizes >= PASS_ROWS].cumsum()
        # Rank-major order; the replayed ranks share one key (a radix sort).
        by_rank = np.minimum(rank, len(ends)).astype(np.uint16).argsort(kind="stable")
        order, key = order[by_rank], key[by_rank]
        cuts = [0, *ends.tolist()]
    else:
        cuts = [0, len(key)] if len(key) >= PASS_ROWS else [0]
    order[cuts[-1]:].sort()
    if not one_block and len(cuts) > 1:  # cut each pass per block
        block = key[: cuts[-1]] >> _KEY_SHIFT
        cuts = sorted({*cuts, *((block[1:] != block[:-1]).nonzero()[0] + 1).tolist()})
    return order, cuts, repeats, leaders
