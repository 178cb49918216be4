"""ARBALEST: the on-the-fly data mapping issue detector.

The detector composes the pieces exactly as Figure 5 lays them out:

* **runtime data collection** — it subscribes to the full event set: OMPT
  data ops and kernel events, the instrumentation pass's memory accesses,
  allocation interceptors, and task synchronization;
* **dynamic analysis** — per 8-byte granule of every host allocation it
  drives the variable state machine (vectorized, in
  :class:`~repro.core.shadow.ShadowBlock`); device addresses are resolved
  to their mapping through the interval tree (amortized O(1)); the embedded
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

from itertools import repeat
from typing import TYPE_CHECKING

import numpy as np

from ..events.source import UNKNOWN_LOCATION
from ..memory.layout import GRANULE
from ..telemetry import registry as _telemetry
from ..events.columnar import first_occurrence_passes
from ..events.records import ACCESS_KINDS
from ..tools.archer import RaceEngine
from ..tools.base import Tool
from ..tools.findings import Finding, FindingKind
from .registry import MappingRecord, MappingRegistry, ShadowRegistry
from .reports import Anomaly, BlockInfo, BugReport
from .shadow import ShadowBlock
from .states import VsmOp, VsmState

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

#: VSM state names by state code (flight-recorder timelines).
_STATE_LABELS = np.array([VsmState(code).name for code in range(4)], dtype=object)
#: Access kinds, gathered by ``(device_id != 0) * 2 + is_write`` arrays.
_ACCESS_KINDS = np.array(ACCESS_KINDS, dtype=object)


class Arbalest(Tool):
    """The data mapping issue detector (single-accelerator VSM).

    Parameters
    ----------
    granule:
        Tracking granularity in bytes; 8 is the paper's sound choice.  The
        coarse whole-array ablation uses a huge granule via
        :class:`CoarseArbalest` instead of this knob.
    race_detection:
        Run the embedded FastTrack engine (needed for Theorem-1
        certification and responsible for most of the overhead, §VI.E).
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
        # Lookup caches holding the last two pairs per access side, most
        # recent first: ``(lo, hi, block, rec)`` means "every address in
        # [lo, hi) resolves to this (shadow block, mapping record) pair".
        # Kernels hammer one or two arrays at a time (``A[i] = A[i] + B[i]``
        # alternates), so these skip both interval-tree stabs on the hot
        # path.  Invalidated on every alloc/free/map/unmap (see
        # :meth:`_invalidate_lookup_caches`).
        self._lookup_host: tuple[int, int, object, MappingRecord | None] | None = None
        self._lookup_host_prev: tuple[int, int, object, MappingRecord | None] | None = None
        self._lookup_device: tuple[int, int, object, MappingRecord] | None = None
        self._lookup_device_prev: tuple[int, int, object, MappingRecord] | None = None
        self._lookup_cache_hits = 0

    # ------------------------------------------------------------------
    # runtime data collection
    # ------------------------------------------------------------------

    def _invalidate_lookup_caches(self) -> None:
        self._lookup_host = self._lookup_host_prev = None
        self._lookup_device = self._lookup_device_prev = None

    def on_allocation(self, event: "AllocationEvent") -> None:
        self._invalidate_lookup_caches()
        if event.device_id == 0:
            if event.is_free:
                self.shadows.drop(event.address)
                self._alloc_info.pop(event.address, None)
            else:
                self.shadows.create(event.address, event.nbytes, label=event.label)
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
        racy_r = self.race_engine.check_range(
            event.src_device, event.thread_id, event.src_address, event.nbytes, False
        )
        racy_w = self.race_engine.check_range(
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

    # -- OMPT data operations ------------------------------------------------

    def on_data_op(self, op: "DataOp") -> None:
        telemetry = _telemetry.ACTIVE
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
        self._invalidate_lookup_caches()
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
        if _telemetry.ACTIVE is not None:
            _telemetry.ACTIVE.count(f"detector.quarantine.{reason}")
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
            block.apply(idx, vsm_op, op.device_id)
            return
        # Flight-recorder path: sample the first granule's state around the
        # transition so the timeline shows state-before -> state-after.
        first = idx.start if idx.start < idx.stop else None
        before = block.state_label(first) if first is not None else ""
        block.apply(idx, vsm_op, op.device_id)
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

    def on_access(self, access: "Access") -> None:
        telemetry = _telemetry.ACTIVE
        if access.device_id == 0:
            if telemetry is not None:
                telemetry.count("detector.accesses.host")
            certified_skip = self._host_access(access)
        else:
            if telemetry is not None:
                telemetry.count("detector.accesses.device")
            certified_skip = self._device_access(access)
        if certified_skip:
            if telemetry is not None:
                telemetry.count("staticlint.access_skips")
            return  # statically proven safe: no VSM, no race check
        if self.race_engine is not None:
            self._race_check(access)

    def _race_check(self, access: "Access") -> None:
        engine = self.race_engine
        assert engine is not None
        racy = engine.check_access(access)
        if racy:
            self._report_race_finding(access)

    def _report_race_finding(self, access: "Access") -> None:
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

    # -- batch path ----------------------------------------------------------

    def on_batch(self, batch) -> None:
        """Columnar fast path: classify the batch once, vectorize the bulk.

        Device accesses that resolve to one separate-memory mapping, sit
        fully in bounds, and touch a single granule are driven through the
        table-lookup VSM (:meth:`ShadowBlock.apply_ops`) plus one batched
        FastTrack pass per segment; everything else — host events, bulk
        accesses, unified mappings, overflow suspects — replays through
        :meth:`on_access` *in place*, so findings and flight-recorder
        events land in the same order as under per-access delivery.
        """
        accesses = batch.accesses
        cols = batch.columns
        n = len(batch)
        addr = cols.addresses
        sizes = cols.sizes

        # Snapshot the mapping and shadow indexes: every registry mutation
        # is a non-access publish (which flushes), so both are frozen for
        # the whole batch.
        recs = sorted(
            (r for r in self.mappings.records() if not r.unified),
            key=lambda r: r.cv_base,
        )
        blocks = sorted(self.shadows.blocks(), key=lambda b: b.base)

        # Classify every event: 0 = replay via on_access, 1 = certified
        # skip, 2 = race-check only (no shadow block), 3 = VSM + race.
        cat = np.zeros(n, dtype=np.int8)
        ri = np.full(n, -1, dtype=np.intp)  # mapping-record index
        bi = np.full(n, -1, dtype=np.intp)  # shadow-block index
        gran = np.zeros(n, dtype=np.int64)  # local granule index (cat == 3)
        scalar_dev = (cols.device_ids != 0) & (cols.counts == 1)
        if recs and bool(scalar_dev.any()):
            nr = len(recs)
            cv_bases = np.fromiter((r.cv_base for r in recs), dtype=np.int64, count=nr)
            cv_ends = np.fromiter((r.cv_end for r in recs), dtype=np.int64, count=nr)
            cand = np.searchsorted(cv_bases, addr, side="right") - 1
            safe = np.maximum(cand, 0)
            resolved = scalar_dev & (cand >= 0) & (addr + sizes <= cv_ends[safe])
            ri = np.where(resolved, cand, -1)
            certified = np.fromiter((r.certified for r in recs), dtype=bool, count=nr)
            is_cert = resolved & certified[safe]
            cat[is_cert] = 1
            need_vsm = resolved & ~is_cert
            if bool(need_vsm.any()):
                ov_bases = np.fromiter(
                    (r.ov_base for r in recs), dtype=np.int64, count=nr
                )
                ov = addr - cv_bases[safe] + ov_bases[safe]
                if blocks:
                    nb = len(blocks)
                    b_bases = np.fromiter(
                        (b.base for b in blocks), dtype=np.int64, count=nb
                    )
                    b_ends = np.fromiter(
                        (b.base + b.nbytes for b in blocks), dtype=np.int64, count=nb
                    )
                    b_gran = np.fromiter(
                        (b.granule for b in blocks), dtype=np.int64, count=nb
                    )
                    vect = np.fromiter(
                        (type(b) is ShadowBlock for b in blocks), dtype=bool, count=nb
                    )
                    bc = np.searchsorted(b_bases, ov, side="right") - 1
                    bsafe = np.maximum(bc, 0)
                    in_block = need_vsm & (bc >= 0) & (ov < b_ends[bsafe])
                    g_first = (ov - b_bases[bsafe]) // b_gran[bsafe]
                    g_last = (ov + sizes - 1 - b_bases[bsafe]) // b_gran[bsafe]
                    vsm_ok = (
                        in_block
                        & vect[bsafe]
                        & (g_first == g_last)
                        & (ov + sizes <= b_ends[bsafe])
                    )
                    cat[vsm_ok] = 3
                    bi = np.where(vsm_ok, bc, -1)
                    gran[vsm_ok] = g_first[vsm_ok]
                    race_only = need_vsm & ~in_block
                else:
                    race_only = need_vsm
                cat[race_only] = 2
        # Replay ineligible events in place so segment findings, replayed
        # findings, and all side effects keep per-access delivery's order.
        on_access = self.on_access
        start = 0
        for s in np.flatnonzero(cat == 0).tolist():
            if s > start:
                self._batch_segment(batch, cat, ri, bi, gran, recs, blocks, start, s)
            on_access(accesses[s])
            start = s + 1
        if start < n:
            self._batch_segment(batch, cat, ri, bi, gran, recs, blocks, start, n)

    def _batch_segment(
        self, batch, cat, ri, bi, gran, recs, blocks, start, stop
    ) -> None:
        """Vector-process one run of fast-path-eligible device accesses.

        Rows are built only for findings: a recorded transition reads its
        device, write bit and stack from the columns and the batch.
        """
        cols = batch.columns
        telemetry = _telemetry.ACTIVE
        if telemetry is not None:
            telemetry.count("detector.accesses.device", stop - start)
        seg = np.arange(start, stop)
        c = cat[start:stop]
        n_cert = int((c == 1).sum())
        if n_cert:
            self.cert_access_skips += n_cert
            sec_flags = np.fromiter(
                (r.certified_section for r in recs), dtype=bool, count=len(recs)
            )
            n_sec = int(sec_flags[ri[seg[c == 1]]].sum())
            if n_sec:
                self.cert_section_skips += n_sec
            if telemetry is not None:
                telemetry.count("staticlint.access_skips", n_cert)
        is_write = cols.is_write
        recorder = self.recorder
        # (position, phase, arg) — phase 0 = recorded transition (arg: the
        # state labels before/after), 1 = VSM issue (arg: uninitialized),
        # 2 = race; sorted at the end to reproduce per-access order.
        found: list[tuple[int, int, object]] = []
        vsm_pos = seg[c == 3]
        if len(vsm_pos):
            order = np.argsort(bi[vsm_pos], kind="stable")
            vp = vsm_pos[order]
            block_ids = bi[vp]
            for blk_id in np.unique(block_ids).tolist():
                sel = vp[block_ids == blk_id]
                block = blocks[blk_id]
                passes, remainder = first_occurrence_passes(gran[sel])
                for p in passes:
                    pos = sel[p]
                    g = gran[pos]
                    ops = np.where(
                        is_write[pos],
                        np.intp(VsmOp.WRITE_TARGET),
                        np.intp(VsmOp.READ_TARGET),
                    )
                    if recorder is not None:
                        before = block.states(g)
                    illegal, uninit = block.apply_ops(g, ops)
                    if recorder is not None:
                        after = block.states(g)
                        hit = np.flatnonzero((after != before) | illegal)
                        found += zip(
                            pos[hit].tolist(),
                            repeat(0),
                            zip(
                                _STATE_LABELS[before[hit]].tolist(),
                                _STATE_LABELS[after[hit]].tolist(),
                            ),
                        )
                    for h in np.flatnonzero(illegal & ~is_write[pos]).tolist():
                        found.append((int(pos[h]), 1, bool(uninit[h])))
                for r in remainder.tolist():
                    p_abs = int(sel[r])
                    write = bool(is_write[p_abs])
                    g = int(gran[p_abs])
                    op = VsmOp.WRITE_TARGET if write else VsmOp.READ_TARGET
                    if recorder is not None:
                        before = block.state_label(g)
                    ill, uni = block.apply_scalar(g, op, recs[int(ri[p_abs])].device_id)
                    if recorder is not None:
                        after = block.state_label(g)
                        if ill or after != before:
                            found.append((p_abs, 0, (before, after)))
                    if ill and not write:
                        found.append((p_abs, 1, bool(uni)))
        if self.race_engine is not None:
            race_pos = seg[c != 1]  # cat 2 and 3: everything not cert-skipped
            if len(race_pos):
                racy = self.race_engine.check_batch(
                    cols.device_ids[race_pos],
                    cols.thread_ids[race_pos],
                    cols.addresses[race_pos],
                    cols.sizes[race_pos],
                    is_write[race_pos],
                )
                for p in racy:
                    found.append((int(race_pos[p]), 2, None))
        if not found:
            return
        # (position, phase) pairs are unique, so tuples sort on them alone.
        found.sort()
        at = [f[0] for f in found]
        devices = cols.device_ids[at]
        kinds = _ACCESS_KINDS[(devices != 0) * 2 + is_write[at]].tolist()
        accesses = batch.accesses
        stack_at = batch.stack_at
        for (p_abs, phase, arg), device, kind, blk in zip(
            found, devices.tolist(), kinds, bi[at].tolist()
        ):
            if phase == 0:
                self._record(recorder, blocks[blk], kind, device, stack_at(p_abs), *arg)
            elif phase == 1:
                self._report_issue(
                    accesses[p_abs], blocks[blk], recs[int(ri[p_abs])], arg
                )
            else:
                self._report_race_finding(accesses[p_abs])

    # -- host side ----------------------------------------------------------

    def _host_access(self, access: "Access") -> bool:
        """Drive the VSM for one host access.

        Returns True when the access hit a certified (statically proven)
        allocation and all dynamic checking was skipped.
        """
        address = access.address
        cached = self._lookup_host
        if cached is None or not cached[0] <= address < cached[1]:
            cached = self._lookup_host_prev
            if cached is not None and cached[0] <= address < cached[1]:
                # The older of the two pairs: it becomes the most recent.
                self._lookup_host_prev, self._lookup_host = self._lookup_host, cached
            else:
                cached = None
        if cached is not None:
            block, rec = cached[2], cached[3]
            self._lookup_cache_hits += 1
            if block is None:
                # Certified allocation: no shadow block exists by design.
                self.cert_access_skips += 1
                return True
        else:
            block = self.shadows.find(address)
            if block is None:
                skipped = self.shadows.skipped_range(address)
                if skipped is not None:
                    # Certified allocation (shadow creation was skipped):
                    # cache the whole range as a skip and bail out.
                    self._lookup_host_prev, self._lookup_host = (
                        self._lookup_host, (skipped[0], skipped[1], None, None)
                    )
                    self.cert_access_skips += 1
                    return True
                return False  # freed or foreign memory: not a mapping question
            # Is this host range unified-mapped?  (Unified CVs share the host
            # address, so the mapping registry is keyed by this same address.)
            rec = self.mappings.find(address)
            lo, hi = block.base, block.base + block.nbytes
            if rec is not None:
                # The pair is valid where the block and mapping intersect.
                lo = max(lo, rec.cv_base)
                hi = min(hi, rec.cv_end)
                self._lookup_host_prev, self._lookup_host = (
                    self._lookup_host, (lo, hi, block, rec)
                )
            elif not self.mappings.overlaps_cv(lo, hi):
                # No CV interval touches this block at all: the "no mapping"
                # answer holds for every address in it.
                self._lookup_host_prev, self._lookup_host = (
                    self._lookup_host, (lo, hi, block, None)
                )
        if rec is not None and rec.unified:
            ops = (
                (VsmOp.WRITE_HOST, VsmOp.UPDATE_TARGET)
                if access.is_write
                else (VsmOp.READ_HOST,)
            )
        else:
            ops = (VsmOp.WRITE_HOST,) if access.is_write else (VsmOp.READ_HOST,)
        self._apply_access(block, access, access.address, ops, side="host")
        return False

    # -- device side ------------------------------------------------------------

    def _device_access(self, access: "Access") -> bool:
        """Drive the VSM for one device access.

        Returns True when the access resolved to a certified mapping and
        VSM/race checking was skipped (the §IV.D bounds check still ran).
        """
        address = access.address
        cached = self._lookup_device
        if cached is None or not cached[0] <= address < cached[1]:
            cached = self._lookup_device_prev
            if cached is not None and cached[0] <= address < cached[1]:
                self._lookup_device_prev, self._lookup_device = self._lookup_device, cached
            else:
                cached = None
        if cached is not None:
            block, rec = cached[2], cached[3]
            self._lookup_cache_hits += 1
        else:
            rec = self.mappings.find(address)
            if rec is None:
                # No mapping contains even the first byte: the kernel touched
                # device memory outside every corresponding variable.
                self._report_overflow(access, None)
                return False
            if rec.certified:
                # Certified mapping: no shadow lookup, no VSM.  Cache the
                # CV range with a None block so repeat hits stay O(1).
                block = None
                self._lookup_device_prev, self._lookup_device = (
                    self._lookup_device, (rec.cv_base, rec.cv_end, None, rec)
                )
            else:
                block = self.shadows.find(
                    rec.ov_base if rec.unified else rec.to_ov(address)
                )
                if block is not None:
                    self._lookup_device_prev, self._lookup_device = (
                        self._lookup_device, (rec.cv_base, rec.cv_end, block, rec)
                    )
        span = access.span
        in_bounds_span = min(span, rec.cv_end - address)
        if in_bounds_span < span:
            # Part of the access leaves the mapping: §IV.D overflow.  The
            # in-bounds prefix still drives the VSM below.  This check stays
            # on even for certified mappings — the cheap safety net under
            # static-assisted pruning.
            self._report_overflow(access, rec)
        if rec.certified:
            self.cert_access_skips += 1
            if rec.certified_section:
                self.cert_section_skips += 1
            return True
        if block is None:
            return False
        if rec.unified:
            ops = (
                (VsmOp.WRITE_HOST, VsmOp.UPDATE_TARGET)
                if access.is_write
                else (VsmOp.READ_HOST,)
            )
            start = address
        else:
            ops = (VsmOp.WRITE_TARGET,) if access.is_write else (VsmOp.READ_TARGET,)
            start = rec.to_ov(address)
        self._apply_access(
            block, access, start, ops, side="device", rec=rec,
            clip_span=in_bounds_span,
        )
        return False

    # -- shared transition/report path ---------------------------------------

    def _apply_access(
        self,
        block,
        access: "Access",
        start_address: int,
        ops: tuple[VsmOp, ...],
        *,
        side: str,
        rec: MappingRecord | None = None,
        clip_span: int | None = None,
    ) -> None:
        stride = access.element_stride
        span = access.span if clip_span is None else clip_span
        if span <= 0:
            return
        device_id = rec.device_id if rec is not None else max(access.device_id, 1)
        if access.count == 1:
            lo = (start_address - block.base) // block.granule
            if (
                0 <= lo < block.n_granules
                and (start_address + span - 1 - block.base) // block.granule == lo
            ):
                # Scalar fast path: the whole access lives in one granule
                # (the overwhelmingly common case), so skip numpy entirely.
                recorder = self.recorder
                before = block.state_label(lo) if recorder is not None else ""
                illegal = uninit = False
                first = True
                for op in ops:
                    ill, uni = block.apply_scalar(lo, op, device_id)
                    if first:
                        illegal, uninit = ill, uni
                        first = False
                if recorder is not None:
                    after = block.state_label(lo)
                    if illegal or after != before:
                        self._record(
                            recorder, block, access.kind_label, access.device_id,
                            access.stack, before, after,
                        )
                if not access.is_write and illegal:
                    self._report_issue(access, block, rec, uninit)
                return
        if access.count == 1 or stride == access.size:
            idx = block.index_range(start_address, span)
        else:
            # Strided: translate per-element granule indices.
            delta = start_address - access.address
            abs_granules = access.granule_indices() + 0  # copy
            if delta % GRANULE == 0 and block.granule == GRANULE:
                local = abs_granules + delta // GRANULE - block.base // GRANULE
            else:
                starts = access.element_addresses() + delta
                first = (starts - block.base) // block.granule
                last = (starts + access.size - 1 - block.base) // block.granule
                local = np.unique(np.concatenate([first, last]))
            local = local[(local >= 0) & (local < block.n_granules)]
            idx = local
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
        illegal = None
        uninit = None
        for op in ops:
            ill, uni = block.apply(idx, op, device_id)
            if illegal is None:
                illegal, uninit = ill, uni
        assert illegal is not None and uninit is not None
        if recorder is not None and rec_first is not None:
            after = block.state_label(rec_first)
            if after != before or bool(illegal.any()):
                n = (idx.stop - idx.start) if type(idx) is slice else len(idx)
                self._record(
                    recorder, block, access.kind_label, access.device_id,
                    access.stack, before, after, detail=f"{n} granule(s)",
                )
        if not access.is_write and illegal.any():
            self._report_issue(access, block, rec, bool(uninit[illegal].all()))

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
        variable = block.label or (rec.name if rec is not None else "")
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
        """(fast-path hits, slow-path misses) over the whole lookup stack.

        Hits count both the detector's two-entry pair caches and the
        interval tree's own stab cache; misses are the tree descents.
        """
        hits, misses = self.mappings.lookup_stats
        return hits + self._lookup_cache_hits, misses

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
            if block.n_granules and int(block.states().max()) > 3:
                problems.append(  # pragma: no cover - 2-bit states can't exceed 3
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
