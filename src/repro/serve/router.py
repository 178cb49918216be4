"""Address-range sharding: which shard owns which slice of memory.

Detector state — ARBALEST's variable state machines, Archer's per-granule
epochs, the allocators' extent maps — is keyed by address, and device
address windows are globally disjoint (:mod:`repro.memory.layout`), so an
address-range partition splits the detector into independent shards *if*
every event about one variable lands on one shard.  Two rules make that
true:

1. **Claims follow allocations.**  An allocation event claims
   ``[addr, addr + nbytes)`` for a shard (round-robin over arrival order,
   which is deterministic because the server applies frames in sequence
   order).  Later address lookups route by containment, falling back to
   the nearest preceding claim — exactly how the detector itself
   attributes a stray access to the allocation it overran, so a buffer
   overflow past the end of a claim still reaches the shard that owns the
   overrun allocation.

2. **Mapping pairs bind.**  A data op carries both the original variable
   (host) and corresponding variable (device) addresses.  The CV range is
   bound to the OV's shard the first time they appear together, so both
   sides of a mapping — whose interleaved host/device accesses are what
   the VSM consumes — are always analyzed by the same worker.

Claims are never retired on free: a use-after-free access must keep
routing to the shard that watched the allocation die.
"""

from __future__ import annotations

from bisect import bisect_right, insort

__all__ = ["AddressRouter"]


class AddressRouter:
    """Deterministic address-range → shard assignment."""

    def __init__(self, n_shards: int):
        if n_shards < 1:
            raise ValueError(f"need at least one shard, got {n_shards}")
        self.n_shards = n_shards
        self._bases: list[int] = []
        self._claims: dict[int, tuple[int, int]] = {}  # base -> (end, shard)
        self._next_shard = 0
        self.claims_made = 0
        self.bindings = 0
        self.rebinds = 0

    # -- internals ---------------------------------------------------------

    def _owner_at(self, addr: int) -> tuple[int, int, int] | None:
        """The claim ``(base, end, shard)`` containing or preceding ``addr``."""
        i = bisect_right(self._bases, addr)
        if i == 0:
            return None
        base = self._bases[i - 1]
        end, shard = self._claims[base]
        return base, end, shard

    def _assign(self) -> int:
        shard = self._next_shard
        self._next_shard = (self._next_shard + 1) % self.n_shards
        return shard

    # -- claims ------------------------------------------------------------

    def claim(self, addr: int, size: int, *, shard: int | None = None) -> int:
        """Claim ``[addr, addr + size)``; returns the owning shard.

        If the range is already inside an existing claim, the existing
        owner wins (address reuse after free keeps its shard).  A claim
        that extends past an existing one grows it.
        """
        size = max(size, 1)
        hit = self._owner_at(addr)
        if hit is not None:
            base, end, owner = hit
            if addr < end:  # containment (possibly partial): extend if needed
                if addr + size > end:
                    self._claims[base] = (addr + size, owner)
                return owner
        owner = shard if shard is not None else self._assign()
        insort(self._bases, addr)
        self._claims[addr] = (addr + size, owner)
        self.claims_made += 1
        return owner

    def bind(self, ov_addr: int, cv_addr: int, size: int) -> tuple[int, int]:
        """Co-locate a mapping pair; returns ``(ov_shard, cv_shard)``.

        The OV's shard is authoritative.  The device allocation usually
        claims the CV range round-robin *before* the data op names its OV
        — so an already-claimed CV range is **rebound** to the OV's shard
        here.  The rebind is sound because allocation events broadcast to
        every shard (the new owner already knows the allocation) and the
        data op is ordered before any device access to the CV, so no
        access history is stranded on the old owner.
        """
        ov_shard = self.claim(ov_addr, size)
        hit = self._owner_at(cv_addr)
        if hit is not None and cv_addr < hit[1]:
            base, end, old = hit
            if old != ov_shard:
                self._claims[base] = (max(end, cv_addr + size), ov_shard)
                self.rebinds += 1
            cv_shard = ov_shard
        else:
            cv_shard = self.claim(cv_addr, size, shard=ov_shard)
        self.bindings += 1
        return ov_shard, cv_shard

    # -- lookup ------------------------------------------------------------

    def route(self, addr: int) -> int:
        """The shard responsible for ``addr``.

        Containment first; then the nearest preceding claim (overrun
        attribution); then the nearest following claim; and for a bare
        address with no claims at all, shard 0 — any deterministic answer
        is correct, since no detector state exists anywhere yet.
        """
        return self.route_range(addr)[2]

    def route_range(self, addr: int) -> tuple[float, float, int]:
        """``(lo, hi, shard)``: :meth:`route` for every address in ``[lo, hi)``.

        The range runs between consecutive claim bases, so it holds
        ``addr`` and stays exact until the next :meth:`claim` or
        :meth:`bind` — the only calls that add a base or move a claim to
        another shard.  A caller routing a run of accesses reuses it and
        bisects only on a miss.
        """
        bases = self._bases
        i = bisect_right(bases, addr)
        hi = bases[i] if i < len(bases) else float("inf")
        if i:
            lo = bases[i - 1]
            return lo, hi, self._claims[lo][1]
        # below every claim: the nearest following one, or shard 0
        return float("-inf"), hi, self._claims[hi][1] if bases else 0

    def stats(self) -> dict:
        return {
            "claims": self.claims_made,
            "bindings": self.bindings,
            "rebinds": self.rebinds,
            "shards": self.n_shards,
        }
