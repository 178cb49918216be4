"""Mapping registry: live OV↔CV associations, backed by the interval tree.

The detector must answer two address questions:

* *host address*: which shadow block covers it? (every host allocation
  gets a block);
* *device address*: which mapping does this CV address belong to — and
  hence which OV granules carry its state — or is it a buffer overflow?

Both are interval stabbing queries; both registries keep one
:class:`~repro.core.interval_tree.IntervalTree` with its last-lookup cache,
which is what turns the O(log m) lookup into the amortized O(1) the paper
claims (§IV.C).  Data ops stab the trees one address at a time; the
detector's access path answers a whole batch at once with ``searchsorted``
over a sorted snapshot of both registries.
"""

from __future__ import annotations

from dataclasses import dataclass

from .interval_tree import IntervalTree
from .shadow import ShadowBlock


@dataclass
class MappingRecord:
    """One live data mapping (CV) known to the detector."""

    name: str
    ov_base: int
    cv_base: int
    nbytes: int
    device_id: int
    #: Unified-memory mapping: CV and OV are the same storage.
    unified: bool
    #: Statically proven mapping-issue-free: accesses through this record
    #: skip VSM transitions entirely (static-assisted dynamic detection).
    certified: bool = False
    #: The proof came from a sub-variable :class:`~repro.staticlint.
    #: certificate.SectionCert` (the mapping sits inside the certified
    #: element range) rather than a whole-variable grant.  Purely
    #: attribution — the skip path is the same ``certified`` fast path.
    certified_section: bool = False

    @property
    def cv_end(self) -> int:
        return self.cv_base + self.nbytes

    def cv_contains(self, address: int, span: int = 1) -> bool:
        return self.cv_base <= address and address + span <= self.cv_end

    def to_ov(self, cv_address: int) -> int:
        """Translate a device (CV) address to its host (OV) address."""
        return self.ov_base + (cv_address - self.cv_base)


class MappingRegistry:
    """Live mappings keyed by CV address range (all devices in one tree)."""

    def __init__(self, *, certified: frozenset[str] | None = None) -> None:
        self._tree: IntervalTree[MappingRecord] = IntervalTree()
        # Reverse lookup (host address -> mapping) is a plain scan: unlike
        # CV ranges, OV ranges are NOT unique — one host section can be
        # present on several devices at once — and m is small (§IV.C), so
        # a list beats maintaining a multimap tree.
        self._records: list[MappingRecord] = []
        #: Variable names a SafetyCertificate proved mapping-issue-free;
        #: records added under these names are stamped ``certified``.
        self.certified = frozenset(certified or ())

    def __len__(self) -> int:
        return len(self._tree)

    def add(self, record: MappingRecord) -> None:
        if record.name and record.name in self.certified:
            record.certified = True
        self._tree.insert(record.cv_base, record.cv_end, record)
        self._records.append(record)

    def drop(self, cv_base: int) -> MappingRecord | None:
        """Remove the mapping starting at ``cv_base``.

        Returns the removed record, or ``None`` when no mapping starts
        there — a double delete (unmatched ``cv_address``) is a program bug
        the detector reports, not a reason to crash the analysis.
        """
        try:
            record = self._tree.remove(cv_base)
        except KeyError:
            return None
        self._records.remove(record)
        return record

    def find(self, cv_address: int) -> MappingRecord | None:
        """The mapping containing ``cv_address`` (amortized O(1))."""
        return self._tree.stab(cv_address)

    def find_exact(
        self, cv_base: int, nbytes: int, device_id: int
    ) -> MappingRecord | None:
        """A live mapping identical in (CV base, size, device), if any.

        The detector's quarantine logic uses this to recognize a duplicated
        ALLOC callback (chaos, or a buggy OMPT producer) and treat it as
        idempotent instead of corrupting the interval tree.
        """
        for record in self._records:
            if (
                record.cv_base == cv_base
                and record.nbytes == nbytes
                and record.device_id == device_id
            ):
                return record
        return None

    def drop_overlapping(self, lo: int, hi: int) -> list[MappingRecord]:
        """Remove and return every mapping whose CV range overlaps ``[lo, hi)``.

        Recovery path for conflicting ALLOC callbacks: the newest mapping
        wins, stale overlapping records are evicted so the tree invariant
        (disjoint CV intervals) survives a perturbed event stream.
        """
        victims = [r for r in self._records if r.cv_base < hi and lo < r.cv_end]
        for record in victims:
            self._tree.remove(record.cv_base)
            self._records.remove(record)
        return victims

    def find_by_ov(self, ov_address: int) -> MappingRecord | None:
        """A live mapping whose host section contains ``ov_address``.

        When several devices map the section, the most recently created
        mapping wins — the best guess for 'who holds the fresh value'.
        """
        for record in reversed(self._records):
            if record.ov_base <= ov_address < record.ov_base + record.nbytes:
                return record
        return None

    def records(self) -> list[MappingRecord]:
        return list(self._records)

    @property
    def lookup_stats(self) -> tuple[int, int]:
        """(cache hits, cache misses) of the underlying tree."""
        return self._tree.cache_hits, self._tree.cache_misses


class ShadowRegistry:
    """Shadow blocks for host allocations, keyed by host address range.

    ``budget_bytes`` caps the total live shadow storage.  Under pressure
    the registry does not fail: a new block that would exceed the budget is
    *coarsened* to a single granule spanning the whole allocation, which
    starts (and conservatively stays, under partial updates) in the VSM
    ``INVALID`` state.  The precision loss is accounted in
    :attr:`coarsened_blocks` / :attr:`coarsened_bytes` — degraded tracking,
    never a crash.

    ``certified`` names variables a :class:`~repro.staticlint.certificate.
    SafetyCertificate` proved mapping-issue-free: their allocations get
    **no shadow block at all** (``create`` returns ``None`` and records the
    address range so ``drop``/lookups stay consistent).  The savings are
    accounted in :attr:`skipped_blocks` / :attr:`skipped_bytes`.

    ``sections`` carries the certificate's sub-variable grants as
    ``label -> (lo, hi, length)`` element ranges.  A section-certified
    variable still gets its full shadow block (it has real findings outside
    the section, so the VSM must keep running there), but the registry
    remembers the certified *byte* subrange of each such allocation —
    shrunk inward to granule alignment, so skipping transitions inside it
    can never perturb the state of granules outside it.  The detector uses
    :meth:`section_for_base` to stamp mappings that sit entirely inside the
    range.
    """

    def __init__(
        self,
        *,
        granule: int = 8,
        budget_bytes: int | None = None,
        certified: frozenset[str] | None = None,
        sections: dict[str, tuple[int, int, int]] | None = None,
    ) -> None:
        self._tree: IntervalTree[ShadowBlock] = IntervalTree()
        self.granule = granule
        self.budget_bytes = budget_bytes
        self._total_shadow = 0
        #: Blocks created at degraded (whole-allocation) granularity.
        self.coarsened_blocks = 0
        #: Application bytes tracked only at degraded granularity.
        self.coarsened_bytes = 0
        self.certified = frozenset(certified or ())
        #: Address ranges of certified allocations (base -> end): tracked
        #: so certified accesses are recognized without a shadow block.
        self._skipped: dict[int, int] = {}
        self.skipped_blocks = 0
        self.skipped_bytes = 0
        #: Sub-variable grants: label -> (lo, hi, length) element ranges.
        self.sections = dict(sections or {})
        #: Certified byte subranges of live blocks: base -> (byte_lo, byte_hi).
        self._section_ranges: dict[int, tuple[int, int]] = {}
        self.section_blocks = 0
        self.section_bytes = 0

    def __len__(self) -> int:
        return len(self._tree)

    def create(
        self, base: int, nbytes: int, label: str = "", telemetry=None
    ) -> ShadowBlock | None:
        """Track a new allocation; ``telemetry`` (the caller's registry)
        counts certified skips, coarsenings and section grants."""
        if label and label in self.certified:
            self._skipped[base] = base + nbytes
            self.skipped_blocks += 1
            self.skipped_bytes += nbytes
            if telemetry is not None:
                telemetry.count("staticlint.shadow_skips")
            return None
        granule = self.granule
        if self.budget_bytes is not None:
            projected = -(-nbytes // granule) * 8
            if self._total_shadow + projected > self.budget_bytes:
                granule = max(granule, nbytes)
                self.coarsened_blocks += 1
                self.coarsened_bytes += nbytes
                if telemetry is not None:
                    telemetry.count("detector.shadow_coarsenings")
                    telemetry.observe("detector.coarsened_block_bytes", nbytes)
        block = self._make_block(base, nbytes, granule, label)
        self._tree.insert(base, base + nbytes, block)
        self._total_shadow += block.shadow_nbytes
        if label and label in self.sections:
            self._record_section(base, nbytes, self.sections[label], telemetry)
        return block

    def _record_section(
        self, base: int, nbytes: int, section: tuple[int, int, int], telemetry
    ) -> None:
        lo, hi, length = section
        if length <= 0 or nbytes % length:
            return  # allocation does not look like `length` elements
        itemsize = nbytes // length
        granule = self.granule
        byte_lo = base + lo * itemsize
        byte_hi = base + min(hi, length) * itemsize
        # Shrink inward to granule boundaries: a skipped transition must
        # never share a granule with an uncertified byte.
        byte_lo = -(-(byte_lo) // granule) * granule
        byte_hi = (byte_hi // granule) * granule
        if byte_hi <= byte_lo:
            return
        self._section_ranges[base] = (byte_lo, byte_hi)
        self.section_blocks += 1
        self.section_bytes += byte_hi - byte_lo
        if telemetry is not None:
            telemetry.count("staticlint.section_grants")

    def section_for_base(self, base: int) -> tuple[int, int] | None:
        """The certified byte subrange of the block at ``base``, if any."""
        return self._section_ranges.get(base)

    def _make_block(
        self, base: int, nbytes: int, granule: int, label: str
    ) -> ShadowBlock:
        """Block construction hook (multi-device registries override)."""
        return ShadowBlock(base, nbytes, granule=granule, label=label)

    def drop(self, base: int) -> ShadowBlock | None:
        if self._skipped.pop(base, None) is not None:
            return None  # certified allocation: there never was a block
        self._section_ranges.pop(base, None)
        block = self._tree.remove(base)
        self._total_shadow -= block.shadow_nbytes
        return block

    def skipped_range(self, address: int) -> tuple[int, int] | None:
        """The certified allocation range containing ``address``, if any."""
        for base, end in self._skipped.items():
            if base <= address < end:
                return (base, end)
        return None

    def skipped_ranges(self) -> list[tuple[int, int]]:
        """``(base, end)`` of every certified allocation, by base."""
        return sorted(self._skipped.items())

    def find(self, address: int) -> ShadowBlock | None:
        return self._tree.stab(address)

    def blocks(self) -> list[ShadowBlock]:
        return [b for _, _, b in self._tree.items()]

    @property
    def shadow_bytes(self) -> int:
        """Total live shadow storage, for the Fig 9 space accounting."""
        return self._total_shadow
