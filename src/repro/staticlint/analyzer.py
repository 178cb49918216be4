"""The static mapping linter: a worklist fixpoint over the directive CFG.

Where :class:`~repro.ompsan.analyzer.OmpSan` interprets the program once,
front to back, this pass lowers it to a CFG (:mod:`repro.staticlint.cfg`)
and iterates a combined transfer function to a fixpoint:

* a **serial-elision** component: may-reaching definitions per variable as
  if every mapping construct were a no-op (the ground truth def-use);
* an **OpenMP-semantics** component: one :class:`~.lattice.VarAbstract`
  per variable applying Table-I entry/exit effects, refcount intervals,
  ``target update`` motion and section coverage.

Both components use union joins, so after convergence the state at a read
site covers *every* path reaching it — which is what lets the linter see
stale/uninitialized/overflow issues carried through loops and branches
that the straight-line baseline structurally cannot.  Findings compare
the two components exactly like OMPSan does (a differing def-use relation
is a mapping issue); on straight-line programs the fixpoint degenerates
to the single pass and the two analyzers agree by construction.

Deliberately preserved imprecision: :class:`~repro.ompsan.ir.PointerSwap`
still swaps *name-keyed* records (both components, consistently), so
503.postencil stays a miss — the alias-analysis limitation is a property
of the whole static approach, not of the straight-line baseline.  Swapped
names are additionally *tainted*: they are never certified, because a
name whose storage binding moves cannot be proven safe.

Each result carries a :class:`~.certificate.SafetyCertificate` — the
declared variables with no findings, no taint, and no refcount widening —
which the dynamic detector uses to skip shadow instrumentation
(static-assisted dynamic detection).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field, replace

from ..ompsan.analyzer import StaticIssueKind
from ..ompsan.ir import (
    Branch,
    Decl,
    EnterData,
    ExitData,
    HostRead,
    HostWrite,
    Loop,
    MapItem,
    PointerSwap,
    StaticProgram,
    Stmt,
    TargetKernel,
    Update,
    extent_bounds,
    index_max,
    index_min,
    index_render,
    update_entry,
)
from ..openmp.maptypes import entry_effect, exit_effect
from .affine import (
    join_sections,
    map_section,
    render_section,
    section_hull,
    section_to_json,
)
from .certificate import SafetyCertificate, SectionCert
from .cfg import Cfg, CfgNode, lower
from .lattice import (
    REF_CAP,
    UNINIT,
    Presence,
    VarAbstract,
    join_serial,
    join_states,
)

_UNINIT_SET = frozenset({UNINIT})


@dataclass(frozen=True)
class LintFinding:
    """One statically detected mapping issue, with a repair suggestion."""

    kind: StaticIssueKind
    var: str
    line: int
    detail: str = ""
    #: True when the issue exists on *some* path only (join imprecision or
    #: a genuine path-dependent bug); straight-line findings are definite.
    may: bool = False
    suggestion: str = ""
    #: Structured section payloads (offsets + affine constraint when
    #: known): the touched range and the guaranteed-mapped section at the
    #: access site, so downstream tooling stops re-parsing ``detail``.
    sections: tuple = ()

    def render(self) -> str:
        where = f" at line {self.line}" if self.line else ""
        qualifier = " [some paths]" if self.may else ""
        detail = f" ({self.detail})" if self.detail else ""
        return f"lint: {self.kind.value} [{self.var}]{where}{qualifier}{detail}"


@dataclass
class LintStats:
    """Work accounting for one analyzed program."""

    cfg_nodes: int = 0
    statements_visited: int = 0
    fixpoint_iterations: int = 0
    certified_variables: int = 0


@dataclass
class LintResult:
    program: str
    findings: list[LintFinding] = field(default_factory=list)
    certificate: SafetyCertificate | None = None
    stats: LintStats = field(default_factory=LintStats)

    @property
    def clean(self) -> bool:
        return not self.findings

    def kinds(self) -> set[StaticIssueKind]:
        return {f.kind for f in self.findings}

    def variables(self) -> set[str]:
        return {f.var for f in self.findings}

    def render(self) -> str:
        if self.clean:
            n = len(self.certificate.variables) if self.certificate else 0
            return f"{self.program}: clean ({n} variable(s) certified)"
        lines = [f"{self.program}: {len(self.findings)} finding(s)"]
        for f in self.findings:
            lines.append("  " + f.render())
            if f.suggestion:
                lines.append(f"    fix: {f.suggestion}")
        return "\n".join(lines)


def _suggestion(kind: StaticIssueKind, var: str, device_side: bool) -> str:
    """Repair phrasing, matching the dynamic RepairEngine's suggestions."""
    if kind is StaticIssueKind.STALE:
        direction = "to" if device_side else "from"
        return (
            f"#pragma omp target update {direction}({var}) "
            "is missing before this read"
        )
    if kind is StaticIssueKind.UNINITIALIZED:
        side = "device" if device_side else "host"
        return (
            f"'{var}' is read on the {side} before any initialization "
            "reaches it; no transfer can repair this — initialize the data "
            "or fix the map-type (e.g. map(to:) instead of map(alloc:/from:))"
        )
    if kind is StaticIssueKind.NOT_MAPPED:
        return (
            f"add map(to: {var}) to the construct, or a "
            f"'#pragma omp target enter data map(to: {var})' before it"
        )
    if kind is StaticIssueKind.OVERFLOW:
        return (
            f"the map clause for '{var}' must cover every element the "
            "kernel touches — widen the section or shrink the loop bounds"
        )
    return ""


def _collect_tainted(body) -> set[str]:
    """Names whose storage binding a PointerSwap moves, anywhere."""
    tainted: set[str] = set()
    for stmt in body:
        if isinstance(stmt, PointerSwap):
            tainted.add(stmt.a)
            tainted.add(stmt.b)
        elif isinstance(stmt, Loop):
            tainted |= _collect_tainted(stmt.body)
        elif isinstance(stmt, Branch):
            tainted |= _collect_tainted(stmt.then_body)
            tainted |= _collect_tainted(stmt.else_body)
    return tainted


class StaticLinter:
    """Worklist-fixpoint static detector of data mapping issues."""

    def analyze(self, program: StaticProgram) -> LintResult:
        cfg = lower(program)
        result = LintResult(program.name)
        result.stats.cfg_nodes = len(cfg.nodes)
        tainted = _collect_tainted(program.body)

        out: dict[int, tuple[dict, dict] | None] = {n.id: None for n in cfg.nodes}
        pending = set(nid for nid in out)
        worklist = deque(sorted(pending))
        while worklist:
            nid = worklist.popleft()
            pending.discard(nid)
            result.stats.fixpoint_iterations += 1
            in_state = self._in_state(cfg, nid, out)
            if in_state is None and nid != cfg.entry:
                continue  # not yet reachable; a pred change re-queues us
            node = cfg.nodes[nid]
            if node.stmt is not None:
                result.stats.statements_visited += 1
            new_out = self._transfer(node, in_state or ({}, {}), None, None)
            if new_out != out[nid]:
                out[nid] = new_out
                for succ in cfg.succs[nid]:
                    if succ not in pending:
                        pending.add(succ)
                        worklist.append(succ)

        # Collection pass: re-run each statement transfer on the converged
        # input state, this time emitting findings.
        seen: set[tuple] = set()

        def sink(kind, var, line, detail, may, device_side=True, sections=()):
            key = (kind, var, line, detail, may)
            if key in seen:
                return
            seen.add(key)
            result.findings.append(
                LintFinding(
                    kind,
                    var,
                    line,
                    detail,
                    may,
                    _suggestion(kind, var, device_side),
                    sections,
                )
            )

        # Guaranteed-mapped section per variable, intersected over every
        # kernel access site — the raw material for section certificates.
        section_log: dict[str, tuple] = {}
        widened: set[str] = set()
        for node in cfg.nodes:
            state = out[node.id]
            if state is not None:
                for var, rec in state[1].items():
                    if rec.ref_widened:
                        widened.add(var)
            if node.stmt is None:
                continue
            in_state = self._in_state(cfg, node.id, out)
            if in_state is None and node.id != cfg.entry:
                continue  # unreachable
            self._transfer(node, in_state or ({}, {}), sink, section_log)

        flagged = {f.var for f in result.findings}
        certified = frozenset(
            var
            for var in program.declared()
            if var not in flagged and var not in tainted and var not in widened
        )
        sections = self._section_certificates(
            program, result.findings, certified, tainted, widened, section_log
        )
        result.certificate = SafetyCertificate(program.name, certified, sections)
        result.stats.certified_variables = len(certified)
        return result

    # -- dataflow machinery -------------------------------------------------

    @staticmethod
    def _in_state(cfg: Cfg, nid: int, out) -> tuple[dict, dict] | None:
        states = [out[p] for p in cfg.preds[nid] if out[p] is not None]
        if not states:
            return ({}, {}) if nid == cfg.entry else None
        serial, omp = states[0]
        for s, o in states[1:]:
            serial = join_serial(serial, s)
            omp = join_states(omp, o)
        return (serial, omp)

    def _transfer(
        self, node: CfgNode, state: tuple[dict, dict], sink, section_log=None
    ) -> tuple[dict, dict]:
        stmt = node.stmt
        if stmt is None:
            return state
        serial = dict(state[0])
        omp = dict(state[1])
        nid = node.id

        if isinstance(stmt, Decl):
            token = frozenset({("decl", stmt.var)}) if stmt.initialized else _UNINIT_SET
            serial[stmt.var] = token
            omp[stmt.var] = VarAbstract(
                host_defs=token, dev_defs=_UNINIT_SET, length=stmt.length
            )
        elif isinstance(stmt, HostWrite):
            token = frozenset({("def", nid)})
            serial[stmt.var] = token
            omp[stmt.var] = replace(omp[stmt.var], host_defs=token)
        elif isinstance(stmt, HostRead):
            if sink is not None:
                self._check_defs(
                    omp[stmt.var].host_defs,
                    serial.get(stmt.var, _UNINIT_SET),
                    stmt.var,
                    stmt.line,
                    sink,
                    device_side=False,
                )
        elif isinstance(stmt, EnterData):
            for item in stmt.maps:
                omp[item.var] = self._map_entry(omp[item.var], item)
        elif isinstance(stmt, ExitData):
            for item in stmt.maps:
                omp[item.var] = self._map_exit(omp[item.var], item)
        elif isinstance(stmt, Update):
            # Sectioned motion entries still move the *name's* definitions:
            # def tokens are whole-variable at this IR altitude, so a
            # partial update conservatively propagates the full def set
            # (exact for the synthesizer's output, whose updates always
            # cover the demanded range).
            for entry in stmt.to:
                var = update_entry(entry).var
                rec = omp[var]
                if rec.presence is Presence.YES:
                    omp[var] = replace(rec, dev_defs=rec.host_defs)
                elif rec.presence is Presence.MAYBE:
                    omp[var] = replace(rec, dev_defs=rec.dev_defs | rec.host_defs)
            for entry in stmt.from_:
                var = update_entry(entry).var
                rec = omp[var]
                if rec.presence is Presence.YES:
                    omp[var] = replace(rec, host_defs=rec.dev_defs)
                elif rec.presence is Presence.MAYBE:
                    omp[var] = replace(rec, host_defs=rec.host_defs | rec.dev_defs)
        elif isinstance(stmt, TargetKernel):
            self._kernel(stmt, nid, serial, omp, sink, section_log)
        elif isinstance(stmt, PointerSwap):
            # Modeled alias-analysis degradation, same as the baseline:
            # both components follow the *names*, so physical-buffer
            # shuffles stay invisible (503.postencil must remain a miss).
            a, b = stmt.a, stmt.b
            serial[a], serial[b] = (
                serial.get(b, _UNINIT_SET),
                serial.get(a, _UNINIT_SET),
            )
            omp[a], omp[b] = omp[b], omp[a]
        return (serial, omp)

    def _kernel(
        self, stmt: TargetKernel, nid, serial, omp, sink, section_log=None
    ) -> None:
        for item in stmt.maps:
            omp[item.var] = self._map_entry(omp[item.var], item)
        extents = dict(stmt.extents)
        for var in stmt.reads:
            rec = omp[var]
            if rec.presence is Presence.NO:
                if sink is not None:
                    sink(StaticIssueKind.NOT_MAPPED, var, stmt.line, "", False)
                continue
            if sink is not None:
                self._check_access(rec, var, extents, stmt.line, sink, section_log)
                self._check_defs(
                    rec.dev_defs,
                    serial.get(var, _UNINIT_SET),
                    var,
                    stmt.line,
                    sink,
                    device_side=True,
                )
        for var in stmt.writes:
            rec = omp[var]
            token = frozenset({("def", nid)})
            serial[var] = token  # serial elision ignores maps: always a def
            if rec.presence is Presence.NO:
                if sink is not None:
                    sink(StaticIssueKind.NOT_MAPPED, var, stmt.line, "", False)
                continue
            if sink is not None:
                self._check_access(rec, var, extents, stmt.line, sink, section_log)
            omp[var] = replace(rec, dev_defs=token)
        for item in stmt.maps:
            omp[item.var] = self._map_exit(omp[item.var], item)

    # -- Table-I entry/exit effects on the abstract record ------------------

    @staticmethod
    def _map_entry(rec: VarAbstract, item: MapItem) -> VarAbstract:
        eff = entry_effect(item.map_type)
        if eff is None:
            return rec  # release/delete have no entry effect
        fresh = replace(
            rec,
            presence=Presence.YES,
            ref_lo=1,
            ref_hi=1,
            section=map_section(item, rec.length),
            dev_defs=rec.host_defs if eff.copies_to_device else _UNINIT_SET,
        )
        if rec.presence is Presence.NO:
            return fresh
        bumped = replace(
            rec,
            presence=Presence.YES,
            ref_lo=min(rec.ref_lo + 1, REF_CAP),
            ref_hi=min(rec.ref_hi + 1, REF_CAP),
        )
        if rec.presence is Presence.YES:
            return bumped  # already present: no transfer, count bump only
        return fresh.join(bumped)  # maybe-present: both outcomes possible

    @staticmethod
    def _map_exit(rec: VarAbstract, item: MapItem) -> VarAbstract:
        if rec.presence is Presence.NO:
            return rec
        eff = exit_effect(item.map_type)
        if eff.forces_zero:
            lo, hi = 0, 0
        elif eff.decrements:
            lo, hi = max(rec.ref_lo - 1, 0), max(rec.ref_hi - 1, 0)
        else:
            lo, hi = rec.ref_lo, rec.ref_hi
        unmapped = replace(
            rec,
            presence=Presence.NO,
            ref_lo=0,
            ref_hi=0,
            section=None,
            dev_defs=_UNINIT_SET,
            host_defs=rec.dev_defs if eff.copies_to_host else rec.host_defs,
        )
        if hi == 0:
            was_present = unmapped
        elif lo > 0:
            was_present = replace(rec, ref_lo=lo, ref_hi=hi)
        else:
            was_present = unmapped.join(replace(rec, ref_lo=1, ref_hi=hi))
        if rec.presence is Presence.YES:
            return was_present
        # Maybe-present: the not-present case is the identity.
        return was_present.join(rec)

    # -- finding checks -----------------------------------------------------

    @staticmethod
    def _check_access(
        rec: VarAbstract, var, extents, line, sink, section_log=None
    ) -> None:
        if section_log is not None:
            prior = section_log.get(var)
            merged = (
                rec.section
                if prior is None
                else join_sections(prior[0], rec.section)
            )
            section_log[var] = (merged, rec.length)
        may = rec.presence is Presence.MAYBE
        if may:
            sink(
                StaticIssueKind.NOT_MAPPED,
                var,
                line,
                "no corresponding variable on some paths",
                True,
                sections=(section_to_json(rec.section, rec.length),),
            )
        t_lo, t_hi = extent_bounds(extents.get(var, rec.length))
        if not rec.covered(t_lo, t_hi):
            mapped = render_section(rec.section, rec.length)
            sink(
                StaticIssueKind.OVERFLOW,
                var,
                line,
                f"kernel touches elements "
                f"[{index_render(t_lo)}:{index_render(t_hi)}], "
                f"section maps {mapped}",
                may,
                sections=(
                    {
                        "lo": index_min(t_lo),
                        "hi": index_max(t_hi),
                        "role": "touched",
                    },
                    dict(
                        section_to_json(rec.section, rec.length), role="mapped"
                    ),
                ),
            )

    @staticmethod
    def _section_certificates(
        program, findings, certified, tainted, widened, section_log
    ) -> tuple[SectionCert, ...]:
        """Sub-variable certificates for overflow-only variables.

        A variable with findings can never be whole-certified, but when
        *every* finding on it is an OVERFLOW — accesses past the mapped
        section — the accesses *inside* the guaranteed-mapped section are
        def-use consistent: the only inconsistency the analysis saw lives
        beyond the mapping, where the dynamic detector's bounds check
        (§IV.D) fires independently of any certificate.  Lowering that
        section lets the detector skip VSM transitions at sub-variable
        granularity while preserving every finding byte-for-byte.
        """
        kinds_by_var: dict[str, set] = {}
        for f in findings:
            kinds_by_var.setdefault(f.var, set()).add(f.kind)
        certs = []
        for var in program.declared():
            if var in certified or var in tainted or var in widened:
                continue
            if kinds_by_var.get(var) != {StaticIssueKind.OVERFLOW}:
                continue
            logged = section_log.get(var)
            if logged is None:
                continue
            section, length = logged
            lo, hi = section_hull(section, length)
            if lo >= hi:
                continue
            affine = (
                index_render(section.start)
                if hasattr(section, "start")
                else ""
            )
            certs.append(SectionCert(var, lo, hi, length, affine))
        return tuple(certs)

    @staticmethod
    def _check_defs(visible, expected, var, line, sink, *, device_side) -> None:
        if visible == expected:
            return  # consistent def-use (both-⊥ reads included, like OMPSan)
        if UNINIT in visible and UNINIT not in expected:
            sink(
                StaticIssueKind.UNINITIALIZED,
                var,
                line,
                "",
                len(visible) > 1,
                device_side,
            )
        real_visible = visible - _UNINIT_SET
        real_expected = expected - _UNINIT_SET
        if real_visible and real_visible != real_expected:
            sink(
                StaticIssueKind.STALE,
                var,
                line,
                "",
                len(visible) > 1 or len(expected) > 1,
                device_side,
            )


def lint(program: StaticProgram) -> LintResult:
    """Convenience wrapper: run the fixpoint linter on one program."""
    return StaticLinter().analyze(program)
