"""ARBALEST: the on-the-fly data mapping issue detector.

The detector composes the pieces exactly as Figure 5 lays them out:

* **runtime data collection** — it subscribes to the full event set: OMPT
  data ops and kernel events, the instrumentation pass's memory accesses,
  allocation interceptors, and task synchronization;
* **dynamic analysis** — per 8-byte granule of every host allocation it
  drives the variable state machine through the shadow block's one
  ``apply`` (:class:`~repro.core.shadow.ShadowBlock`, or the §IV.C
  multi-device :class:`~repro.core.multidevice.MultiShadowBlock`), per
  granule range or per batch pass of distinct granules; a batch's device
  addresses are resolved to their mappings at once, by ``searchsorted``
  over a sorted snapshot of the interval-tree registries; the embedded
  FastTrack engine (shared with the Archer model) supplies race detection,
  which Theorem 1 needs;
* **bug report generation** — illegal transitions and overflow checks
  produce :class:`~repro.tools.findings.Finding`s wrapped into Fig-7-style
  :class:`~repro.core.reports.BugReport`s.

Event-to-VSM mapping (§IV.A):

==============================  ==========================================
runtime event                    VSM operation on the affected OV granules
==============================  ==========================================
host program read/write          read_host / write_host
device program read/write        read_target / write_target (via CV→OV)
DataOp ALLOC                     allocate  (unified: update_target)
DataOp DELETE                    release
DataOp H2D (entry/update to)     update_target
DataOp D2H (exit/update from)    update_host
==============================  ==========================================

Buffer-overflow extension (§IV.D): a device access whose address does not
fall inside the mapping of the kernel's own variable — a different interval
or no interval at all — is reported as a data-mapping-related buffer
overflow, and only the in-bounds part drives the VSM.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import repeat
from typing import TYPE_CHECKING

import numpy as np

from ..events.source import UNKNOWN_LOCATION
from ..memory.layout import GRANULE
from ..events.columnar import granule_passes
from ..events.records import ACCESS_KINDS
from ..tools.archer import RaceEngine, transfer_rows
from ..tools.base import Tool
from ..tools.findings import Finding, FindingKind
from .registry import MappingRecord, MappingRegistry, ShadowRegistry
from .reports import Anomaly, BlockInfo, BugReport
from .states import VsmOp

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..events.records import (
        Access,
        AllocationEvent,
        DataOp,
        KernelEvent,
        MemcpyEvent,
        SyncEvent,
    )

#: Flight-recorder event kinds for each OMPT data-op kind.
_DATA_OP_EVENT_KINDS = {
    "alloc": "map",
    "delete": "unmap",
    "h2d": "update-to-device",
    "d2h": "update-to-host",
}

#: Access kinds, gathered by ``(device_id != 0) * 2 + is_write`` arrays.
_ACCESS_KINDS = np.array(ACCESS_KINDS, dtype=object)


def _issue_variable(block, rec: MappingRecord | None) -> str:
    """The variable a VSM issue names: its block's, else its mapping's."""
    return block.label or (rec.name if rec is not None else "")


class _Lookup:
    """Both registries as sorted numpy tables, for :meth:`Arbalest.on_batch`.

    Row 0 of each table is a sentinel interval ``[-1, -1)`` that holds no
    address, so a ``searchsorted`` miss lands on it and reads as "no
    mapping" or "no block" without an emptiness check.  The registries
    change only on allocations and data ops, and the bus flushes pending
    accesses before either, so a snapshot holds for the whole batch.
    """

    __slots__ = (
        "recs", "cv_bases", "cv_ends", "shifts", "devices", "unified",
        "separate", "certified", "cert_mapping", "section", "blocks",
        "b_bases", "b_ends", "b_grans", "skip_bases", "skip_ends", "certifies",
    )

    def __init__(self, mappings: MappingRegistry, shadows: ShadowRegistry) -> None:
        recs = sorted(mappings.records(), key=lambda r: r.cv_base)
        blocks = shadows.blocks()  # ascending base
        self.recs: list[MappingRecord | None] = [None, *recs]
        self.blocks = [None, *blocks]
        # ``shifts`` moves a CV address to its OV (0 when unified);
        # ``devices`` is the mapping's device, 1 for the sentinel as for an
        # access no mapping holds; ``certified`` marks certified
        # separate-memory mappings only, as a host access skips by
        # allocation, not by mapping, and ``cert_mapping`` every certified
        # one, through which a device access applied in place skips.
        table = np.array(
            [(-1, -1, 0, 1, 0, 0, 0, 0, 0)]
            + [
                (r.cv_base, r.cv_end, r.ov_base - r.cv_base, r.device_id,
                 not r.unified, r.unified, r.certified and not r.unified,
                 r.certified, r.certified_section)
                for r in recs
            ],
            dtype=np.int64,
        ).T
        self.cv_bases, self.cv_ends, self.shifts, self.devices = table[:4].copy()
        (self.separate, self.unified, self.certified, self.cert_mapping,
         self.section) = table[4:].astype(bool)
        self.b_bases, self.b_ends, self.b_grans = np.array(
            [(-1, -1, 1)] + [(b.base, b.base + b.nbytes, b.granule) for b in blocks],
            dtype=np.int64,
        ).T.copy()
        self.skip_bases, self.skip_ends = np.array(
            [(-1, -1), *shadows.skipped_ranges()], dtype=np.int64
        ).T.copy()
        #: Whether any mapping or allocation is certified.
        self.certifies = (
            np.count_nonzero(self.cert_mapping) > 0 or len(self.skip_bases) > 1
        )


class Arbalest(Tool):
    """The data mapping issue detector (single-accelerator VSM).

    Parameters
    ----------
    granule:
        Tracking granularity in bytes; 8 is the paper's sound choice.  The
        §IV.C whole-array ablation passes a granule larger than any
        allocation, so each allocation has one VSM state.
    race_detection:
        Run the embedded FastTrack engine (needed for Theorem-1
        certification and responsible for most of the overhead, §VI.E):
        one :meth:`~repro.tools.archer.RaceEngine.check_batch` per batch
        over every access the certificate does not skip, and one two-row
        call (source read, destination write) per transfer.
    shadow_budget_bytes:
        Optional cap on live shadow storage.  Under pressure new blocks are
        coarsened to whole-allocation granularity (conservative ``INVALID``
        start state) instead of failing — precision loss is accounted in
        :meth:`degradation_stats`, the analysis never crashes.
    certificate:
        A :class:`~repro.staticlint.certificate.SafetyCertificate` (or any
        iterable of variable names) from the static linter.  Allocations of
        certified variables get no shadow block and their accesses skip VSM
        transitions *and* the race engine's per-access check — the
        static-assisted mode.  The §IV.D device bounds check stays on as a
        safety net (a certified variable overflowing would mean the
        certificate is unsound).  Trade-off, by construction: on certified
        variables the cert-pruned run can miss data races the full run
        would flag; the certificate only proves mapping-issue freedom.
        Skip counts are in :meth:`cert_stats`.

    **Quarantine (chaos hardening).**  A perturbed OMPT stream — duplicated,
    dropped, or reordered callbacks — can present the detector with events
    its bookkeeping says are impossible.  Rather than corrupting the mapping
    registry or unwinding the run, such events are quarantined with a
    documented recovery transition, logged in :attr:`quarantine_log`:

    * *duplicate ALLOC* (identical CV base/size/device): idempotent — the
      existing mapping is kept, the event is absorbed;
    * *conflicting ALLOC* (overlapping a live separate-memory CV range):
      newest-wins — stale overlapping mappings are evicted, the new one is
      installed;
    * *unmatched DELETE*: reported as a ``BAD_FREE`` finding (a real
      double-delete looks identical) and absorbed;
    * *unknown-region device access*: reported as a buffer overflow (§IV.D
      already defines this) — no registry mutation, no crash.
    """

    name = "arbalest"

    def __init__(
        self,
        *,
        granule: int = GRANULE,
        race_detection: bool = True,
        shadow_budget_bytes: int | None = None,
        certificate=None,
    ) -> None:
        super().__init__()
        self.granule = granule
        if certificate is None:
            certified: frozenset[str] = frozenset()
        elif hasattr(certificate, "variables"):
            certified = frozenset(certificate.variables)
        else:
            certified = frozenset(certificate)
        self.certified = certified
        # Sub-variable grants: var -> (lo, hi, length) element ranges the
        # linter proved issue-free on variables it could not whole-certify.
        self.cert_sections: dict[str, tuple[int, int, int]] = {}
        if certificate is not None and hasattr(certificate, "sections"):
            self.cert_sections = {
                c.var: (c.lo, c.hi, c.length)
                for c in certificate.sections
                if c.var not in certified
            }
        self.cert_access_skips = 0
        self.cert_section_skips = 0
        self.shadows = ShadowRegistry(
            granule=granule,
            budget_bytes=shadow_budget_bytes,
            certified=certified,
            sections=self.cert_sections,
        )
        self.mappings = MappingRegistry(certified=certified)
        self.race_engine = RaceEngine() if race_detection else None
        self.bug_reports: list[BugReport] = []
        self.quarantine_log: list[dict] = []
        self._alloc_info: dict[int, "AllocationEvent"] = {}

    # ------------------------------------------------------------------
    # runtime data collection
    # ------------------------------------------------------------------

    def on_allocation(self, event: "AllocationEvent") -> None:
        if event.device_id == 0:
            if event.is_free:
                self.shadows.drop(event.address)
                self._alloc_info.pop(event.address, None)
            else:
                self.shadows.create(
                    event.address, event.nbytes, event.label, self.telemetry
                )
                self._alloc_info[event.address] = event
        if self.race_engine is not None:
            if event.is_free:
                self.race_engine.untrack(event.device_id, event.address)
            else:
                self.race_engine.track(event.device_id, event.address, event.nbytes)

    def on_sync(self, event: "SyncEvent") -> None:
        if self.race_engine is not None:
            self.race_engine.handle_sync(
                event.kind, event.source_task, event.target_task
            )

    def on_kernel(self, event: "KernelEvent") -> None:
        # Kernel begin/end carry no VSM transitions of their own; the
        # mapping entry/exit DataOps around them do the work.
        return

    def on_memcpy(self, event: "MemcpyEvent") -> None:
        # Transfers drive the VSM through their semantic DataOp; here they
        # only feed the race engine (a transfer racing a kernel is a bug
        # Theorem 1 must see).
        if self.race_engine is None:
            return
        # Certified mapping: its transfer schedule is statically proven
        # ordered, so the race probe is skipped along with the VSM (same
        # trade the per-access certificate skip makes).
        cv = event.dst_address if event.dst_device != 0 else event.src_address
        rec = self.mappings.find(cv)
        if rec is not None and rec.certified:
            return
        if self.race_engine.check_batch(transfer_rows(event)) and not self.repeated(
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

    # -- OMPT data operations ------------------------------------------------

    def on_data_op(self, op: "DataOp") -> None:
        telemetry = self.telemetry
        if telemetry is not None:
            with telemetry.span(
                "detector",
                f"data_op:{op.kind.value}",
                tid=op.thread_id,
                device=op.device_id,
                nbytes=op.nbytes,
            ):
                self._handle_data_op(op)
            telemetry.gauge("detector.live_mappings", len(self.mappings))
            telemetry.gauge("detector.shadow_bytes", self.shadows.shadow_bytes)
            hits, misses = self.mapping_lookup_stats()
            telemetry.gauge("detector.lookup_hits", hits)
            telemetry.gauge("detector.lookup_misses", misses)
            return
        self._handle_data_op(op)

    def _handle_data_op(self, op: "DataOp") -> None:
        unified = op.cv_address == op.ov_address
        if op.kind.value == "alloc":
            if (
                self.mappings.find_exact(op.cv_address, op.nbytes, op.device_id)
                is not None
            ):
                # Duplicated ALLOC callback: idempotent recovery — keep the
                # live mapping, absorb the event (see class docstring).
                self._quarantine("duplicate-alloc", op)
                return
            if not unified:
                victims = self.mappings.drop_overlapping(
                    op.cv_address, op.cv_address + op.nbytes
                )
                if victims:
                    # Conflicting ALLOC: newest-wins recovery.
                    self._quarantine(
                        "conflicting-alloc",
                        op,
                        detail=f"evicted {len(victims)} stale mapping(s)",
                    )
            ov_block = self.shadows.find(op.ov_address)
            record = MappingRecord(
                name=ov_block.label if ov_block is not None else "",
                ov_base=op.ov_address,
                cv_base=op.cv_address,
                nbytes=op.nbytes,
                device_id=op.device_id,
                unified=unified,
            )
            if (
                ov_block is None
                and self.shadows.skipped_range(op.ov_address) is not None
            ):
                # The host allocation was certificate-skipped; the DataOp
                # carries no variable name, so stamp the mapping by address.
                record.certified = True
            elif ov_block is not None and not record.certified:
                section = self.shadows.section_for_base(ov_block.base)
                if (
                    section is not None
                    and section[0] <= op.ov_address
                    and op.ov_address + op.nbytes <= section[1]
                ):
                    # The whole mapped section sits inside a certified
                    # sub-variable range: the mapping rides the same skip
                    # fast path, attributed as a section grant.
                    record.certified = True
                    record.certified_section = True
            self.mappings.add(record)
            # Unified: mapping makes a host-valid value visible on the
            # device (host → consistent); separate: fresh CV, garbage.
            vsm_op = VsmOp.UPDATE_TARGET if unified else VsmOp.ALLOCATE
            self._apply_host_range(op.ov_address, op.nbytes, vsm_op, op)
        elif op.kind.value == "delete":
            if self.mappings.drop(op.cv_address) is None:
                # Double delete / unmatched CV: report instead of crashing,
                # and skip the RELEASE (there is no mapping to release).
                self._quarantine("unmatched-delete", op)
                self.report(
                    Finding(
                        tool=self.name,
                        kind=FindingKind.BAD_FREE,
                        message=(
                            "delete of a corresponding variable that is not "
                            "mapped (double delete or wrong device address)"
                        ),
                        device_id=op.device_id,
                        thread_id=op.thread_id,
                        address=op.cv_address,
                        size=op.nbytes,
                        stack=op.stack,
                    )
                )
                return
            self._apply_host_range(op.ov_address, op.nbytes, VsmOp.RELEASE, op)
        elif op.kind.value == "h2d":
            self._apply_host_range(op.ov_address, op.nbytes, VsmOp.UPDATE_TARGET, op)
        elif op.kind.value == "d2h":
            self._apply_host_range(op.ov_address, op.nbytes, VsmOp.UPDATE_HOST, op)

    def _quarantine(self, reason: str, op: "DataOp", detail: str = "") -> None:
        """Log one quarantined event (impossible per current bookkeeping)."""
        if self.telemetry is not None:
            self.telemetry.count(f"detector.quarantine.{reason}")
        self.quarantine_log.append(
            {
                "reason": reason,
                "kind": op.kind.value,
                "device": op.device_id,
                "ov": op.ov_address,
                "cv": op.cv_address,
                "nbytes": op.nbytes,
                "detail": detail,
            }
        )

    def _apply_host_range(
        self, ov_address: int, nbytes: int, vsm_op: VsmOp, op: "DataOp"
    ) -> None:
        block = self.shadows.find(ov_address)
        if block is None:
            return
        idx = block.index_range(ov_address, nbytes)
        recorder = self.recorder
        if recorder is None:
            block.apply(idx, vsm_op, op.device_id, self.telemetry)
            return
        # Flight-recorder path: sample the first granule's state around the
        # transition so the timeline shows state-before -> state-after.
        first = idx.start if idx.start < idx.stop else None
        before = block.state_label(first) if first is not None else ""
        block.apply(idx, vsm_op, op.device_id, self.telemetry)
        after = block.state_label(first) if first is not None else ""
        self._record(
            recorder, block, _DATA_OP_EVENT_KINDS[op.kind.value], op.device_id,
            op.stack, before, after, detail=f"{nbytes}B",
        )

    @staticmethod
    def _record(
        recorder,
        block,
        kind: str,
        device_id: int,
        stack: tuple,
        before: str,
        after: str,
        detail: str = "",
    ) -> None:
        """Append one VSM transition of ``block`` to the flight recorder.

        ``device_id`` and ``stack`` are those of the access or data op that
        caused it.  Access sites call this only for transitions and illegal
        accesses: steady-state accesses carry no causal information.
        """
        recorder.record(
            block.label,
            kind,
            device_id=device_id,
            location=stack[0] if stack else UNKNOWN_LOCATION,
            state_before=before,
            state_after=after,
            detail=detail,
        )

    # ------------------------------------------------------------------
    # dynamic analysis: memory accesses
    # ------------------------------------------------------------------

    def on_batch(self, batch) -> None:
        """Drive the VSM and the race engine for one ordered run of accesses.

        One vectorized pass sorts every access against the lookup snapshot
        (:class:`_Lookup`) into one of five categories:

        0. *in place* — bulk or strided, unified-device, or a device access
           that leaves its mapping part way: :meth:`_apply_in_place`;
        1. *certified skip* — a scalar access the certificate covers: its
           skip is counted, nothing else;
        2. *race check only* — a scalar access no shadow block holds;
        3. *VSM + race check* — a scalar host or device access in one
           granule of a shadow block, single- or multi-device;
        4. *overflow* — a device access whose first byte no mapping holds:
           one §IV.D overflow report, no VSM step.

        The race check runs first, as one
        :meth:`~repro.tools.archer.RaceEngine.check_batch` over every access
        the certificate does not skip: race state does not depend on VSM
        state.  Then the walk: each in-place access is applied on its own,
        and each run of accesses between two of them is one segment
        (:meth:`_batch_segment`).  There a category-3 access that repeats
        its granule's previous op and mapping device is dropped (every op
        is idempotent: it takes its leader's verdict), and the block's
        ``apply`` takes one op and mapping device per access over each pass
        of distinct granules (:func:`~repro.events.columnar.granule_passes`);
        a category-4 overflow is filed at its position among the segment's
        findings.  Each racy access's finding follows its VSM or overflow
        finding, so findings and flight-recorder events land in per-access
        order whatever the batch size.  Every report passes the site check
        (:meth:`~repro.tools.base.Tool.repeated`) first, so a repeated site
        costs one count and builds no row, message or finding.

        A batch of one (every access while an immediate-delivery tool is
        attached) skips the snapshot, which costs more than the access: the
        registries' interval trees resolve its row, their last-lookup
        caches making a run of such batches amortized O(1) (§IV.C), and it
        is applied in place.
        """
        n = len(batch)
        telemetry = self.telemetry
        if n == 1:
            access = batch.accesses[0]
            address = access.address
            if access.device_id:
                if telemetry is not None:
                    telemetry.count("detector.accesses.device")
                rec = self.mappings.find(address)
                block = None
                if rec is not None:
                    block = self.shadows.find(
                        address if rec.unified else rec.to_ov(address)
                    )
            else:
                if telemetry is not None:
                    telemetry.count("detector.accesses.host")
                block = self.shadows.find(address)
                if block is None and self.shadows.skipped_range(address):
                    # Certified allocation: no shadow block exists by design.
                    self.cert_access_skips += 1
                    if telemetry is not None:
                        telemetry.count("staticlint.access_skips")
                    return
                rec = self.mappings.find(address) if block is not None else None
            engine = self.race_engine
            racy = (
                engine is not None
                # a device access through a certified mapping skips it
                and not (access.device_id and rec is not None and rec.certified)
                and engine.check_batch([access])
            )
            self._apply_in_place(access, rec, block)
            if racy:
                self._report_race_finding(access)
            return
        cols = batch.columns
        look = _Lookup(self.mappings, self.shadows)
        addr = cols.addresses
        sizes = cols.sizes
        host = cols.device_ids == 0
        if telemetry is not None:
            # Zero counts stay out: a snapshot's keys must not depend on
            # how accesses were batched.
            n_host = int(np.count_nonzero(host))
            if n_host:
                telemetry.count("detector.accesses.host", n_host)
            if n_host < n:
                telemetry.count("detector.accesses.device", n - n_host)
        # The mapping holding each access's first byte (a host address can
        # only fall in a unified one), then the shadow block holding its OV.
        ri = look.cv_bases.searchsorted(addr, "right") - 1
        cv_ends = look.cv_ends[ri]
        ri[addr >= cv_ends] = 0
        ov = addr + look.shifts[ri]
        bi = look.b_bases.searchsorted(ov, "right") - 1
        bi[ov >= look.b_ends[bi]] = 0
        # 0 = in place, 1 = certified skip, 2 = race check only (no shadow
        # block), 3 = VSM + race check, 4 = overflow report + race check (a
        # device access no mapping holds).  Only scalar accesses reach 1-3.
        scalar = cols.counts == 1
        if np.count_nonzero(scalar):
            offset = ov - look.b_bases[bi]
            b_gran = look.b_grans[bi]
            gran = offset // b_gran
            one_granule = gran == (offset + (sizes - 1)) // b_gran
            # A device access needs one separate-memory mapping holding it
            # whole; the rest take the in-place overflow check.
            eligible = scalar & (
                host | (look.separate[ri] & (addr + sizes <= cv_ends))
            )
            cat = np.where(eligible, np.where(bi > 0, one_granule * 3, 2), 0)
            if look.certifies:
                cat[eligible & look.certified[ri]] = 1
        else:
            gran = None
            cat = np.zeros(n, dtype=np.intp)
        cat[(ri == 0) & ~host] = 4
        checked = None
        if look.certifies:
            si = look.skip_bases.searchsorted(addr, "right") - 1
            cat[host & (addr < look.skip_ends[si])] = 1
            # A device access applied in place skips the race check through
            # a certified mapping of either memory kind.
            checked = (
                (cat >= 2) | ((cat == 0) & (host | ~look.cert_mapping[ri]))
            ).nonzero()[0]
        racy: list[int] = []
        if self.race_engine is not None and (checked is None or len(checked)):
            racy = self.race_engine.check_batch(cols, checked)
        recs, blocks = look.recs, look.blocks
        accesses = batch.accesses
        start = 0
        for s in (cat == 0).nonzero()[0].tolist():
            if s > start:
                self._batch_segment(batch, cat, ri, bi, gran, look, start, s, racy)
            self._apply_in_place(accesses[s], recs[ri[s]], blocks[bi[s]])
            if s in racy:
                self._report_race_finding(accesses[s])
            start = s + 1
        if start < n:
            self._batch_segment(batch, cat, ri, bi, gran, look, start, n, racy)

    def _batch_segment(
        self, batch, cat, ri, bi, gran, look, start, stop, racy
    ) -> None:
        """Vector-process one run of classified accesses (categories 1-4).

        ``racy`` holds the batch's sorted racy positions.  Rows are built
        only for new finding sites: a recorded transition reads its device,
        write bit and stack from the columns and the batch, and each report
        passes the site check (:meth:`~repro.tools.base.Tool.repeated`) on
        the same fields before its row is decoded.  A dropped repeat is
        recorded, reported and counted as per-access delivery would.
        """
        cols = batch.columns
        c = cat[start:stop]
        cert = c == 1
        n_cert = int(np.count_nonzero(cert))
        telemetry = self.telemetry
        if n_cert:
            self.cert_access_skips += n_cert
            self.cert_section_skips += int(
                np.count_nonzero(look.section[ri[start:stop][cert]])
            )
            if telemetry is not None:
                telemetry.count("staticlint.access_skips", n_cert)
        is_write = cols.is_write
        recorder = self.recorder
        # (position, phase, arg) — phase 0 = recorded transition (arg: the
        # state labels before/after), 1 = VSM issue (arg: uninitialized) or
        # overflow (arg: None), 2 = race; sorted at the end to reproduce
        # per-access order.
        found: list[tuple[int, int, object]] = []
        over = (c == 4).nonzero()[0]
        if len(over):
            found += zip((over + start).tolist(), repeat(1), repeat(None))
        vp = (c == 3).nonzero()[0] + start
        if len(vp):
            # VsmOp codes: READ_HOST 0, READ_TARGET 1, WRITE_HOST 2, WRITE_TARGET 3.
            ops = is_write[vp] * 2 + (cols.device_ids[vp] != 0)
            devs = look.devices[ri[vp]]
            # A host write to a unified mapping is the device's value too.
            sync = (ops == VsmOp.WRITE_HOST) & look.unified[ri[vp]]
            blk, g = bi[vp], gran[vp]
            order, cuts, repeats, leaders = granule_passes(
                blk, g, ops | sync << 2 | devs << 3, with_leaders=True
            )
            illegal = np.zeros(len(vp), dtype=bool)
            uninit = np.zeros(len(vp), dtype=bool)
            # State codes around each step, for the recorder and the repeats' edges.
            tracked = recorder is not None or telemetry is not None
            before = np.zeros(len(vp), dtype=np.int64) if recorder is not None else None
            after = np.zeros(len(vp), dtype=np.int64) if tracked else None
            blocks = look.blocks
            shadow = blocks[int(blk[0])]  # every block shares its class
            for lo, hi in zip(cuts, cuts[1:]):  # one block's part of a pass
                q = order[lo:hi]
                block = blocks[int(blk[q[0]])]
                q_g, q_devs = g[q], devs[q]
                if before is not None:
                    before[q] = block.states(q_g)
                illegal[q], uninit[q] = block.apply(q_g, ops[q], q_devs, telemetry)
                synced = sync[q]
                if np.count_nonzero(synced):
                    block.apply(
                        q_g[synced], VsmOp.UPDATE_TARGET, q_devs[synced], telemetry
                    )
                if after is not None:
                    after[q] = block.states(q_g)
            late = order[cuts[-1]:]
            if len(late):  # rows replayed one at a time
                for r, b, gi, op, dev, synced in zip(
                    late.tolist(), blk[late].tolist(), g[late].tolist(),
                    ops[late].tolist(), devs[late].tolist(), sync[late].tolist(),
                ):
                    block = blocks[b]
                    one = slice(gi, gi + 1)
                    if before is not None:
                        before[r] = block.states(one)[0]
                    ill, uni = block.apply(one, op, dev, telemetry)
                    illegal[r], uninit[r] = ill[0], uni[0]
                    if synced:
                        block.apply(one, VsmOp.UPDATE_TARGET, dev, telemetry)
                    if after is not None:
                        after[r] = block.states(one)[0]
            if len(repeats):
                # A repeat steps its leader's state to itself, with its verdict.
                illegal[repeats] = illegal[leaders]
                uninit[repeats] = uninit[leaders]
                if before is not None:
                    before[repeats] = after[leaders]
                if after is not None:
                    state = after[repeats] = after[leaders]
                    if telemetry is not None:  # the repeats' edges: op, then sync
                        state = shadow.count_steps(ops[repeats], state, telemetry)
                        state = state[sync[repeats]]
                        shadow.count_steps(VsmOp.UPDATE_TARGET, state, telemetry)
            if before is not None:
                hit = ((after != before) | illegal).nonzero()[0]
                name = shadow.state_name
                found += zip(
                    vp[hit].tolist(),
                    repeat(0),
                    zip(map(name, before[hit].tolist()), map(name, after[hit].tolist())),
                )
            bad = illegal.nonzero()[0]
            found += zip(vp[bad].tolist(), repeat(1), uninit[bad].tolist())
        if racy:
            found += [
                (p, 2, None)
                for p in racy[bisect_left(racy, start) : bisect_left(racy, stop)]
            ]
        if not found:
            return
        # (position, phase) pairs are unique, so tuples sort on them alone.
        found.sort()
        at = [f[0] for f in found]
        devices = cols.device_ids[at]
        kinds = _ACCESS_KINDS[(devices != 0) * 2 + is_write[at]].tolist()
        accesses = batch.accesses
        stack_at = batch.stack_at
        repeated = self.repeated
        for (p_abs, phase, arg), device, address, kind, blk, rec in zip(
            found, devices.tolist(), cols.addresses[at].tolist(), kinds,
            bi[at].tolist(), ri[at].tolist(),
        ):
            if phase == 0:
                self._record(
                    recorder, look.blocks[blk], kind, device, stack_at(p_abs), *arg
                )
            elif phase == 2:
                if not repeated(FindingKind.RACE, stack_at(p_abs), "", device, address):
                    self._report_race_finding(accesses[p_abs])
            elif arg is None:
                if not repeated(FindingKind.BO, stack_at(p_abs), "", device, address):
                    self._report_overflow(accesses[p_abs], None)
            else:
                block, mapping = look.blocks[blk], look.recs[rec]
                if not repeated(
                    FindingKind.UUM if arg else FindingKind.USD, stack_at(p_abs),
                    _issue_variable(block, mapping), device, address,
                ):
                    self._report_issue(accesses[p_abs], block, mapping, arg)

    def _apply_in_place(
        self, access: "Access", rec: MappingRecord | None, block
    ) -> None:
        """Drive the VSM for one access the vectorized segments leave out,
        or a batch of one; :meth:`on_batch` has race-checked it already.

        ``rec`` is the mapping holding the access's first byte and
        ``block`` the shadow block of its OV, as :meth:`on_batch` resolved
        them.
        """
        span = access.span
        start = access.address
        if access.device_id:
            if rec is None:
                # No mapping contains even the first byte: the kernel touched
                # device memory outside every corresponding variable.  No OV
                # granule is involved, even where (unified memory) the
                # address is a host block's.
                self._report_overflow(access, None)
                block = None
            else:
                in_bounds = min(span, rec.cv_end - start)
                if in_bounds < span:
                    # Part of the access leaves the mapping: §IV.D overflow.
                    # The in-bounds prefix still drives the VSM below.  This
                    # check stays on even for certified mappings — the cheap
                    # safety net under static-assisted pruning.
                    self._report_overflow(access, rec)
                    span = in_bounds
                if rec.certified:
                    self.cert_access_skips += 1
                    if rec.certified_section:
                        self.cert_section_skips += 1
                    if self.telemetry is not None:
                        self.telemetry.count("staticlint.access_skips")
                    return  # statically proven safe: no VSM, no race check
                if not rec.unified:
                    start = rec.to_ov(start)
        if block is not None and span > 0:
            self._apply_range(block, access, start, span, rec)

    def _apply_range(
        self, block, access: "Access", start: int, span: int, rec: MappingRecord | None
    ) -> None:
        """Apply one access's VSM operations to the granules it covers.

        ``start`` is the OV address of the first byte and ``span`` the bytes
        that drive the VSM (the in-bounds prefix of an overflowing access).
        A unified mapping has one storage: a write there is visible on both
        sides, whichever side issued it.
        """
        if rec is not None and rec.unified:
            ops = (
                (VsmOp.WRITE_HOST, VsmOp.UPDATE_TARGET)
                if access.is_write
                else (VsmOp.READ_HOST,)
            )
        elif access.device_id:
            ops = (VsmOp.WRITE_TARGET,) if access.is_write else (VsmOp.READ_TARGET,)
        else:
            ops = (VsmOp.WRITE_HOST,) if access.is_write else (VsmOp.READ_HOST,)
        device_id = rec.device_id if rec is not None else 1
        stride = access.element_stride
        lo = (start - block.base) // block.granule
        detail = None
        if (
            access.count == 1
            and 0 <= lo < block.n_granules
            and (start + span - 1 - block.base) // block.granule == lo
        ):
            # One granule: recorded without a granule count, as the
            # vectorized segments record it.
            idx = slice(lo, lo + 1)
            detail = ""
        elif access.count == 1 or stride == access.size:
            idx = block.index_range(start, span)
        else:
            # Strided: translate per-element granule indices, keeping the
            # elements that start in the span and the granules up to its
            # last byte (an overflowing access drives only its prefix).
            delta = start - access.address
            kept = access._replace(count=min(access.count, -(-span // stride)))
            abs_granules = kept.granule_indices() + 0  # copy
            if delta % GRANULE == 0 and block.granule == GRANULE:
                local = abs_granules + delta // GRANULE - block.base // GRANULE
            else:
                starts = kept.element_addresses() + delta
                first = (starts - block.base) // block.granule
                last = (starts + access.size - 1 - block.base) // block.granule
                local = np.unique(np.concatenate([first, last]))
            hi = min(block.n_granules, (start + span - 1 - block.base) // block.granule + 1)
            idx = local[(local >= 0) & (local < hi)]
        recorder = self.recorder
        rec_first: int | None = None
        before = ""
        if recorder is not None:
            if type(idx) is slice:
                if idx.start < idx.stop:
                    rec_first = idx.start
            elif len(idx):
                rec_first = int(idx[0])
            if rec_first is not None:
                before = block.state_label(rec_first)
        illegal = uninit = None
        for op in ops:
            ill, uni = block.apply(idx, op, device_id, self.telemetry)
            if illegal is None:
                illegal, uninit = ill, uni
        assert illegal is not None and uninit is not None
        if recorder is not None and rec_first is not None:
            after = block.state_label(rec_first)
            if after != before or bool(illegal.any()):
                if detail is None:
                    n = (idx.stop - idx.start) if type(idx) is slice else len(idx)
                    detail = f"{n} granule(s)"
                self._record(
                    recorder, block, access.kind_label, access.device_id,
                    access.stack, before, after, detail=detail,
                )
        if not access.is_write and illegal.any():
            self._report_issue(access, block, rec, bool(uninit[illegal].all()))

    def _report_race_finding(self, access: "Access") -> None:
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
                    "not ordered with a previous access"
                ),
                device_id=access.device_id,
                thread_id=access.thread_id,
                address=access.address,
                size=access.size,
                stack=access.stack,
            )
        )

    # ------------------------------------------------------------------
    # bug report generation
    # ------------------------------------------------------------------

    def _report_issue(
        self,
        access: "Access",
        block,
        rec: MappingRecord | None,
        uninitialized: bool,
    ) -> None:
        kind = FindingKind.UUM if uninitialized else FindingKind.USD
        variable = _issue_variable(block, rec)
        if self.repeated(
            kind, access.stack, variable, access.device_id, access.address
        ):
            return
        side = "accelerator" if access.device_id else "host"
        other = "host" if access.device_id else "accelerator"
        if uninitialized:
            message = (
                f"read on the {side} observes memory that was never "
                "initialized on either side of the mapping"
            )
        else:
            message = (
                f"read on the {side} observes a stale value; the last write "
                f"is only visible on the {other}"
            )
        finding = Finding(
            tool=self.name,
            kind=kind,
            message=message,
            device_id=access.device_id,
            thread_id=access.thread_id,
            address=access.address,
            size=access.size,
            stack=access.stack,
            variable=variable,
        )
        if self.report(finding):
            self.bug_reports.append(
                BugReport(
                    finding=finding,
                    anomaly=Anomaly.for_kind(kind),
                    block=self._block_info(block),
                    notes=self._mapping_notes(rec),
                )
            )

    def _report_overflow(self, access: "Access", rec: MappingRecord | None) -> None:
        if self.repeated(
            FindingKind.BO, access.stack, rec.name if rec is not None else "",
            access.device_id, access.address,
        ):
            return
        if rec is not None:
            message = (
                f"access runs past the corresponding variable of '{rec.name or '?'}' "
                f"(mapped section is {rec.nbytes} bytes)"
            )
            variable = rec.name
        else:
            message = (
                "access to accelerator memory that belongs to no mapped "
                "variable (wrong or too-small array section in the map clause)"
            )
            variable = ""
        finding = Finding(
            tool=self.name,
            kind=FindingKind.BO,
            message=message,
            device_id=access.device_id,
            thread_id=access.thread_id,
            address=access.address,
            size=access.size,
            stack=access.stack,
            variable=variable,
        )
        if self.report(finding):
            block = self.shadows.find(rec.ov_base) if rec is not None else None
            self.bug_reports.append(
                BugReport(
                    finding=finding,
                    anomaly=Anomaly.OVERFLOW,
                    block=self._block_info(block) if block is not None else None,
                    notes=self._mapping_notes(rec),
                )
            )

    def _block_info(self, block) -> BlockInfo:
        event = self._alloc_info.get(block.base)
        return BlockInfo(
            base=block.base,
            nbytes=block.nbytes,
            label=block.label,
            stack=event.stack if event is not None else (),
        )

    def _mapping_notes(self, rec: MappingRecord | None) -> tuple[str, ...]:
        if rec is None:
            return ()
        memory = "unified" if rec.unified else "separate"
        return (
            f"mapped section: OV {rec.ov_base:#x}..{rec.ov_base + rec.nbytes:#x} "
            f"-> CV {rec.cv_base:#x} on device {rec.device_id} ({memory} memory)",
        )

    # ------------------------------------------------------------------
    # accounting / results
    # ------------------------------------------------------------------

    def shadow_bytes(self) -> int:
        total = self.shadows.shadow_bytes
        if self.race_engine is not None:
            total += self.race_engine.shadow_bytes
        return total

    def mapping_lookup_stats(self) -> tuple[int, int]:
        """(last-lookup cache hits, tree descents) of the mapping registry's
        interval tree."""
        return self.mappings.lookup_stats

    def cert_stats(self) -> dict:
        """Accounting of static-assisted pruning (certificate mode)."""
        return {
            "certified_variables": len(self.certified),
            "shadow_blocks_skipped": self.shadows.skipped_blocks,
            "shadow_bytes_skipped": self.shadows.skipped_bytes,
            "access_skips": self.cert_access_skips,
            "section_certified_variables": len(self.cert_sections),
            "section_shadow_blocks": self.shadows.section_blocks,
            "section_certified_bytes": self.shadows.section_bytes,
            "section_access_skips": self.cert_section_skips,
        }

    def degradation_stats(self) -> dict:
        """Accounting of graceful-degradation events (chaos campaigns)."""
        return {
            "quarantined_events": len(self.quarantine_log),
            "coarsened_blocks": self.shadows.coarsened_blocks,
            "coarsened_bytes": self.shadows.coarsened_bytes,
        }

    def check_invariants(self) -> list[str]:
        """Validate detector (and attached machine) internal consistency.

        Returns human-readable violations; empty means healthy.  Checked:
        separate-memory CV intervals are pairwise disjoint, shadow-byte
        accounting matches the live blocks, every shadow word carries a
        legal VSM state, and — when a machine is attached — every device's
        present table upholds its own invariants (refcounts ≥ 0,
        non-overlapping sorted entries).  The chaos harness runs this after
        every faulted run; graceful degradation must never leave the
        analysis in an inconsistent state.
        """
        problems: list[str] = []
        separate = sorted(
            (r.cv_base, r.cv_end, r.name)
            for r in self.mappings.records()
            if not r.unified
        )
        for (lo1, hi1, n1), (lo2, _hi2, n2) in zip(separate, separate[1:]):
            if hi1 > lo2:
                problems.append(
                    f"mapping registry: CV ranges of '{n1}' and '{n2}' overlap"
                )
        total = sum(b.shadow_nbytes for b in self.shadows.blocks())
        if total != self.shadows.shadow_bytes:
            problems.append(
                f"shadow accounting drift: blocks hold {total} bytes, "
                f"registry reports {self.shadows.shadow_bytes}"
            )
        for block in self.shadows.blocks():
            if block.n_granules and int(block.states().max()) >= block.N_STATES:
                problems.append(  # pragma: no cover - the masks hold no more
                    f"shadow block {block.label!r}: illegal VSM state code"
                )
        if self.machine is not None:
            for dev in self.machine.devices.values():
                problems.extend(dev.present.check_invariants())
        return problems

    def render_reports(self, pid: int = 0) -> str:
        return "\n\n".join(r.render(pid=pid) for r in self.bug_reports)

    def reset(self) -> None:  # keep shadow state, drop findings
        super().reset()
        self.bug_reports.clear()
        self.quarantine_log.clear()
