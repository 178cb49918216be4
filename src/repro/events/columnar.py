"""Columnar event batching: accumulate accesses, dispatch them in blocks.

Handing every :class:`~repro.events.records.Access` to every subscribed
tool one Python call at a time costs, for element-wise kernels, one
interpreter round-trip *per element per tool*.  The bus instead parks
accesses and flushes them as an :class:`EventBatch` — a list of the
original records plus lazily-built numpy columns ``(device, thread,
address, size, is_write, count, stride)`` — through the tools'
``on_batch`` protocol, so the VSM table lookups and FastTrack epoch
comparisons in the hot path run as whole-array gather/scatter.

Ordering contract (see EXPERIMENTS.md §N): a batch only ever spans a window
in which mappings, shadow blocks, and thread clocks are frozen, because the
bus flushes the pending batch before delivering *any* non-access event
(data ops, kernels, allocations, syncs, flushes, memcpys).  Within a batch,
accesses to distinct granules commute; per-granule order is preserved by
processing batches in first-occurrence passes (:func:`first_occurrence_passes`).
"""

from __future__ import annotations

from itertools import islice
from typing import TYPE_CHECKING, Sequence

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .records import Access

#: Flush threshold: bounds both memory held by a pending batch and the
#: latency between an access occurring and a tool observing it.
BATCH_CAP = 65536

#: Below this many pending accesses a flush dispatches per-event through
#: ``on_access`` instead of building an :class:`EventBatch`: column
#: construction and the vectorized setup in each tool's ``on_batch`` have a
#: fixed cost that only amortizes over runs of scalar traffic, and bulk
#: kernels produce batches of a handful of large accesses where that setup
#: is pure overhead.
MIN_BATCH = 64


class BatchColumns:
    """The column view of one batch (one numpy array per field).

    An :class:`~repro.events.records.Access` is a row, so the columns come
    from one ``zip(*accesses)`` transpose: the seven fields tools read
    become int64 (``is_write``: bool) arrays; ``origin`` and ``stack`` are
    left on the records.
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

    def __init__(self, accesses: Sequence["Access"]):
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


class EventBatch:
    """An ordered run of accesses plus their lazily-built columns."""

    __slots__ = ("accesses", "_columns")

    def __init__(self, accesses: Sequence["Access"]):
        self.accesses = list(accesses)
        self._columns: BatchColumns | None = None

    def __len__(self) -> int:
        return len(self.accesses)

    @property
    def columns(self) -> BatchColumns:
        cols = self._columns
        if cols is None:
            cols = self._columns = BatchColumns(self.accesses)
        return cols


def first_occurrence_passes(
    keys: np.ndarray, *, max_passes: int = 8
) -> tuple[list[np.ndarray], np.ndarray]:
    """Split positions ``0..n-1`` into passes with at most one event per key.

    Within a pass every key is unique, so a vectorized state transition over
    the pass cannot collapse two updates to the same granule; processing the
    passes in sequence replays each key's events in their original order
    (``np.unique(..., return_index=True)`` selects *first* occurrences).

    Returns ``(passes, remainder)``: ``passes`` is a list of ascending index
    arrays, and ``remainder`` holds any positions left after ``max_passes``
    rounds — high-multiplicity keys the caller must replay one event at a
    time to stay linear instead of quadratic.
    """
    k = np.asarray(keys)
    remaining = np.arange(len(k), dtype=np.intp)
    passes: list[np.ndarray] = []
    while remaining.size:
        if len(passes) >= max_passes:
            break
        _uniq, first = np.unique(k[remaining], return_index=True)
        first.sort()
        passes.append(remaining[first])
        if first.size == remaining.size:
            remaining = remaining[:0]
            break
        mask = np.ones(remaining.size, dtype=bool)
        mask[first] = False
        remaining = remaining[mask]
    return passes, remaining
