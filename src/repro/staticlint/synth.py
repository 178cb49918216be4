"""Mapping synthesis: from dataflow facts to a *minimal* data mapping.

The linter proves properties of the mapping a program already has.  This
module goes one step further: given only the program's *computation* — its
host reads/writes, kernels with their touched extents, loops, branches and
pointer swaps — it synthesizes the data-movement directives from scratch:

* one ``target enter data map(alloc: ...)`` hull per device variable (an
  allocation moves no bytes, so it may as well cover the whole object);
* demand-driven ``target update to/from`` motions, sectioned to exactly
  the element interval a consumer is about to need — including *affine*
  per-iteration sections (``a[B*t : B]``) inside tiled loops;
* one ``target exit data map(release: ...)`` — results reach the host
  through the demand-driven updates, and data nobody reads again is dead,
  so nothing is ever blanket-``tofrom``'d back.

The per-variable synthesis state mirrors the detector's VSM at interval
granularity: ``dev_fresh`` is the element interval whose device copy
matches the newest program value, ``host_stale`` the interval where the
device copy is newer than the host's.  A kernel read demands its extent be
inside ``dev_fresh`` (emitting a sectioned ``update to`` for the missing
part); a host read demands ``host_stale`` be empty (emitting ``update
from``); writes move the intervals.

**Loops** get do-while treatment: the body's post-state is iterated to a
fixpoint (the *steady state* — every interval is drawn from the program's
finite constant set, so this converges or cycles within a few steps), and
the body is planned against the steady entry state.  A demand present on
the first iteration but absent in steady state is *hoisted* above the loop
— this is what turns swap-based double buffering (504.polbm,
503.postencil) into a single pre-loop transfer.  When no fixpoint exists,
planning falls back to a conservative entry join (pessimistic freshness,
pooled staleness).  Every planned loop is then re-verified by simulating
its concrete trip count; a failed check also falls back to the join plan.

The result is validated the honest way (:mod:`repro.harness.synth`): both
the original and the synthesized twin run on the simulated runtime with
the detector attached, and the synthesized mapping must (a) stay clean,
(b) read the same values at every host read, and (c) move no more bytes
than the hand-written mapping.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from ..openmp.maptypes import MapType
from ..ompsan.ir import (
    Affine,
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
    TargetKernel,
    Update,
    UpdateItem,
    extent_bounds,
    index_max,
    index_min,
    index_render,
    update_entry,
)

#: Bound on fixpoint probing of a loop body's post-state.
_STEADY_CAP = 8
#: Bound on concrete iterations simulated by the verification pass.
_VERIFY_CAP = 32


# ---------------------------------------------------------------------------
# interval helpers (element intervals ``(lo, hi)``; ``None`` = empty)
# ---------------------------------------------------------------------------


def _hull(a, b):
    if a is None:
        return b
    if b is None:
        return a
    return (min(a[0], b[0]), max(a[1], b[1]))


def _covers(have, need):
    return have is not None and have[0] <= need[0] and need[1] <= have[1]


def _missing(need, have):
    """Parts of ``need`` not inside ``have``: zero, one, or two intervals."""
    if have is None or have[1] <= need[0] or need[1] <= have[0]:
        return [need]
    parts = []
    if need[0] < have[0]:
        parts.append((need[0], have[0]))
    if have[1] < need[1]:
        parts.append((have[1], need[1]))
    return parts


def _isect(a, b):
    if a is None or b is None:
        return None
    lo, hi = max(a[0], b[0]), min(a[1], b[1])
    return (lo, hi) if lo < hi else None


def _join_state(a: dict, b: dict) -> dict:
    """Conservative join: freshness intersects, staleness pools."""
    out = {}
    for var in a.keys() | b.keys():
        fa, sa = a.get(var, (None, None))
        fb, sb = b.get(var, (None, None))
        out[var] = (_isect(fa, fb), _hull(sa, sb))
    return out


# ---------------------------------------------------------------------------
# results
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SynthClause:
    """One synthesized directive item, for reports and goldens."""

    kind: str  # "enter" | "update_to" | "update_from" | "exit"
    var: str
    start: str  # rendered start index (may be an affine expression)
    elements: int | None  # None = whole object
    line: int
    affine: bool = False

    def render(self) -> str:
        section = (
            f"{self.var}"
            if self.elements is None
            else f"{self.var}[{self.start}:{self.elements}]"
        )
        where = f" @ line {self.line}" if self.line else ""
        return f"{self.kind}({section}){where}"


@dataclass
class SynthResult:
    """A synthesized mapping for one static twin."""

    source: str
    program: StaticProgram
    clauses: tuple[SynthClause, ...]
    device_vars: tuple[str, ...]
    regions: int
    #: Loops whose steady-state plan failed verification and fell back to
    #: the conservative join plan (should be rare; surfaced for honesty).
    fallback_loops: int = 0

    @property
    def affine_clauses(self) -> int:
        return sum(1 for c in self.clauses if c.affine)

    def render(self) -> str:
        lines = [f"{self.source}: {len(self.clauses)} clause(s) over "
                 f"{len(self.device_vars)} device variable(s)"]
        for clause in self.clauses:
            lines.append(f"  {clause.render()}")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# emission bookkeeping
# ---------------------------------------------------------------------------


@dataclass
class _Emit:
    key: tuple
    stmt: Update
    affine: bool = False
    #: A PointerSwap touched the variable earlier in the same body walk —
    #: hoisting above the loop would target the wrong buffer.
    swapped: bool = False
    #: Emitted inside a nested loop: position is load-bearing, never hoist.
    nested: bool = False


class _Synthesizer:
    def __init__(self, program: StaticProgram):
        self.program = program
        self.lengths: dict[str, int] = {}
        self.device_vars: list[str] = []
        self._syms: dict[str, bool] = {}
        self.fallback_loops = 0
        self._collect(program.body)

    def _collect(self, body) -> None:
        for stmt in body:
            if isinstance(stmt, Decl):
                self.lengths[stmt.var] = stmt.length
            elif isinstance(stmt, TargetKernel):
                for var in (*stmt.reads, *stmt.writes):
                    if var not in self.device_vars:
                        self.device_vars.append(var)
            elif isinstance(stmt, Loop):
                self._collect(stmt.body)
            elif isinstance(stmt, Branch):
                self._collect(stmt.then_body)
                self._collect(stmt.else_body)

    # -- the main walk ------------------------------------------------------

    def run(self) -> StaticProgram:
        state = {var: (None, None) for var in self.device_vars}
        body, _state, _emits = self._transform(self.program.body, state, set())
        if self.device_vars:
            # Allocate each device variable right where it comes into
            # scope — an allocation moves no bytes, so per-variable enter
            # directives cost nothing and stay valid for programs that
            # declare variables after earlier target regions.
            pending = set(self.device_vars)
            placed: list = []
            for stmt in body:
                placed.append(stmt)
                if isinstance(stmt, Decl) and stmt.var in pending:
                    pending.discard(stmt.var)
                    placed.append(EnterData((MapItem(stmt.var, MapType.ALLOC),)))
            body = placed
            for var in self.device_vars:  # not declared at top level
                if var in pending:
                    body.insert(0, EnterData((MapItem(var, MapType.ALLOC),)))
            body.append(
                ExitData(
                    tuple(MapItem(v, MapType.RELEASE) for v in self.device_vars)
                )
            )
        out = StaticProgram(f"{self.program.name} (synth)")
        out.body = body
        return out

    def _transform(
        self, stmts, state: dict, swapped: set
    ) -> tuple[list, dict, list]:
        out: list = []
        emits: list[_Emit] = []
        for stmt in stmts:
            if isinstance(stmt, Decl):
                out.append(stmt)
            elif isinstance(stmt, HostWrite):
                state[stmt.var] = (None, None)
                out.append(stmt)
            elif isinstance(stmt, HostRead):
                self._host_read(stmt, state, swapped, out, emits)
            elif isinstance(stmt, TargetKernel):
                self._kernel(stmt, state, swapped, out, emits)
            elif isinstance(stmt, (EnterData, ExitData, Update)):
                continue  # the original mapping is what we are replacing
            elif isinstance(stmt, PointerSwap):
                sa = state.get(stmt.a, (None, None))
                sb = state.get(stmt.b, (None, None))
                state[stmt.a], state[stmt.b] = sb, sa
                swapped.add(stmt.a)
                swapped.add(stmt.b)
                out.append(stmt)
            elif isinstance(stmt, Loop):
                self._loop(stmt, state, out, emits)
            elif isinstance(stmt, Branch):
                then_body, then_state, then_emits = self._transform(
                    stmt.then_body, dict(state), set(swapped)
                )
                else_body, _e_state, _e_emits = self._transform(
                    stmt.else_body, dict(state), set(swapped)
                )
                out.append(Branch(tuple(then_body), tuple(else_body), stmt.line))
                state.clear()
                state.update(then_state)
                for e in then_emits:
                    emits.append(replace(e, nested=True))
            else:  # pragma: no cover - exhaustive over the Stmt union
                raise TypeError(f"cannot synthesize over {stmt!r}")
        return out, state, emits

    # -- consumers and producers -------------------------------------------

    def _clip(self, var: str, lo: int, hi: int) -> tuple[int, int] | None:
        length = self.lengths.get(var, 1)
        lo, hi = max(0, lo), min(hi, length)
        return (lo, hi) if lo < hi else None

    def _emit_to(self, var, start, elements, line, state, swapped, out, emits,
                 *, affine=False):
        stmt = Update(to=(UpdateItem(var, elements, start),), line=line)
        out.append(stmt)
        emits.append(
            _Emit(
                key=("to", var, index_render(start), elements),
                stmt=stmt,
                affine=affine,
                swapped=var in swapped,
            )
        )

    def _kernel(self, stmt, state, swapped, out, emits) -> None:
        extents = dict(stmt.extents)
        for var in stmt.reads:
            fresh, stale = state.get(var, (None, None))
            lo, hi = extent_bounds(extents.get(var, self.lengths.get(var, 1)))
            hull = self._clip(var, index_min(lo), index_max(hi))
            if hull is None:
                continue
            affine_ok = (
                isinstance(lo, Affine)
                and not lo.is_const
                and lo.sym in self._syms
                and isinstance(hi, Affine)
                and hi.sym == lo.sym
                and hi.c1 == lo.c1
                and hi.c0 > lo.c0
            )
            if affine_ok:
                # Per-iteration tile motion: exactly the elements this
                # iteration touches, expressed in the loop symbol.  Tile
                # freshness is iteration-local, so the motion is always
                # materialized — the interval state only tracks hulls and
                # cannot express "tile i is fresh exactly at iteration i".
                self._emit_to(
                    var, lo, hi.c0 - lo.c0, stmt.line, state, swapped,
                    out, emits, affine=True,
                )
                fresh = _hull(fresh, hull)
            elif _covers(fresh, hull):
                continue
            else:
                for piece in _missing(hull, fresh):
                    self._emit_to(
                        var, piece[0], piece[1] - piece[0], stmt.line,
                        state, swapped, out, emits,
                    )
                fresh = _hull(fresh, hull)
            state[var] = (fresh, stale)
        for var in stmt.writes:
            fresh, stale = state.get(var, (None, None))
            lo, hi = extent_bounds(extents.get(var, self.lengths.get(var, 1)))
            hull = self._clip(var, index_min(lo), index_max(hi))
            if hull is not None:
                state[var] = (_hull(fresh, hull), _hull(stale, hull))
        out.append(
            TargetKernel((), stmt.reads, stmt.writes, stmt.extents, stmt.line)
        )

    def _host_read(self, stmt, state, swapped, out, emits) -> None:
        fresh, stale = state.get(stmt.var, (None, None))
        if stale is not None:
            upd = Update(
                from_=(UpdateItem(stmt.var, stale[1] - stale[0], stale[0]),),
                line=stmt.line,
            )
            out.append(upd)
            emits.append(
                _Emit(
                    key=("from", stmt.var, str(stale[0]), stale[1] - stale[0]),
                    stmt=upd,
                    swapped=stmt.var in swapped,
                )
            )
            state[stmt.var] = (fresh, None)
        out.append(stmt)

    # -- loops: do-while steady state + hoisting + verification -------------

    def _loop(self, lp: Loop, state: dict, out, emits) -> None:
        if lp.sym is not None:
            self._syms[lp.sym] = True
        try:
            entry = dict(state)
            _b0, _s0, e0 = self._transform(lp.body, dict(entry), set())
            steady = self._steady_state(lp, entry)
            hoistable = steady is not None
            if steady is None:
                steady = self._join_fixpoint(lp, entry)
            plan_body, _plan_out, es = self._transform(
                lp.body, dict(steady), set()
            )
            hoisted: list[_Emit] = []
            if hoistable:
                keys = {e.key for e in es}
                hoisted = [
                    e
                    for e in e0
                    if e.key not in keys
                    and not e.affine
                    and not e.swapped
                    and not e.nested
                ]
            post = self._verified_post(lp, entry, hoisted, plan_body)
            if post is None:
                # Steady-state plan failed the concrete re-check: fall
                # back to the conservative join plan, no hoisting.
                self.fallback_loops += 1
                steady = self._join_fixpoint(lp, entry)
                plan_body, _plan_out, es = self._transform(
                    lp.body, dict(steady), set()
                )
                hoisted = []
                post = self._verified_post(lp, entry, hoisted, plan_body)
                if post is None:  # pragma: no cover - join covers demands
                    post = steady
            for e in hoisted:
                out.append(e.stmt)
                emits.append(e)
            out.append(
                Loop(tuple(plan_body), lp.trip_count, lp.line, lp.sym, lp.bounds)
            )
            for e in es:
                emits.append(replace(e, nested=True))
            state.clear()
            state.update(post)
        finally:
            if lp.sym is not None:
                self._syms.pop(lp.sym, None)

    def _steady_state(self, lp: Loop, entry: dict) -> dict | None:
        """Exact post-state fixpoint of the body, or None when it cycles."""
        s = dict(entry)
        for _ in range(_STEADY_CAP):
            _body, s2, _e = self._transform(lp.body, dict(s), set())
            if s2 == s:
                return s
            s = s2
        return None

    def _join_fixpoint(self, lp: Loop, entry: dict) -> dict:
        """Conservative entry state valid for every iteration (incl. the
        first): iterate-and-join until stable — monotone, so it terminates."""
        s = dict(entry)
        for _ in range(_STEADY_CAP):
            _body, s2, _e = self._transform(lp.body, dict(s), set())
            joined = _join_state(s, s2)
            if joined == s:
                return s
            s = joined
        return s  # pragma: no cover - the join lattice is tiny

    def _verified_post(self, lp, entry, hoisted, plan_body) -> dict | None:
        """Simulate the synthesized loop for its concrete trip count.

        Returns the exact post-loop state, or None when some iteration's
        kernel read (or host read) is not covered by the planned motions.
        """
        state = dict(entry)
        for e in hoisted:
            self._apply_update(e.stmt, state)
        trips = lp.trip_count if lp.trip_count is not None else 2
        for _ in range(min(trips, _VERIFY_CAP)):
            if not self._check(plan_body, state):
                return None
        return state

    def _check(self, stmts, state) -> bool:
        for stmt in stmts:
            if isinstance(stmt, HostWrite):
                state[stmt.var] = (None, None)
            elif isinstance(stmt, HostRead):
                if state.get(stmt.var, (None, None))[1] is not None:
                    return False
            elif isinstance(stmt, Update):
                self._apply_update(stmt, state)
            elif isinstance(stmt, TargetKernel):
                extents = dict(stmt.extents)
                for var in stmt.reads:
                    fresh, _stale = state.get(var, (None, None))
                    lo, hi = extent_bounds(
                        extents.get(var, self.lengths.get(var, 1))
                    )
                    hull = self._clip(var, index_min(lo), index_max(hi))
                    if hull is not None and not _covers(fresh, hull):
                        return False
                for var in stmt.writes:
                    fresh, stale = state.get(var, (None, None))
                    lo, hi = extent_bounds(
                        extents.get(var, self.lengths.get(var, 1))
                    )
                    hull = self._clip(var, index_min(lo), index_max(hi))
                    if hull is not None:
                        state[var] = (_hull(fresh, hull), _hull(stale, hull))
            elif isinstance(stmt, PointerSwap):
                sa = state.get(stmt.a, (None, None))
                sb = state.get(stmt.b, (None, None))
                state[stmt.a], state[stmt.b] = sb, sa
            elif isinstance(stmt, Loop):
                trips = stmt.trip_count if stmt.trip_count is not None else 2
                for _ in range(min(trips, _VERIFY_CAP)):
                    if not self._check(stmt.body, state):
                        return False
            elif isinstance(stmt, Branch):
                if not self._check(stmt.then_body, state):
                    return False
        return True

    def _apply_update(self, stmt: Update, state) -> None:
        for entry in stmt.to:
            item = update_entry(entry)
            fresh, stale = state.get(item.var, (None, None))
            hull = self._clip(item.var, *item.interval(self.lengths.get(item.var, 1)))
            if hull is not None:
                state[item.var] = (_hull(fresh, hull), stale)
        for entry in stmt.from_:
            item = update_entry(entry)
            fresh, stale = state.get(item.var, (None, None))
            hull = self._clip(item.var, *item.interval(self.lengths.get(item.var, 1)))
            if hull is not None and _covers(hull, stale or hull):
                stale = None
            state[item.var] = (fresh, stale)


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------


def _clause_list(program: StaticProgram) -> tuple[tuple[SynthClause, ...], int]:
    clauses: list[SynthClause] = []
    regions = 0

    def walk(body):
        nonlocal regions
        for stmt in body:
            if isinstance(stmt, EnterData):
                for item in stmt.maps:
                    clauses.append(
                        SynthClause("enter", item.var, "0", item.elements, stmt.line)
                    )
            elif isinstance(stmt, ExitData):
                for item in stmt.maps:
                    clauses.append(
                        SynthClause("exit", item.var, "0", item.elements, stmt.line)
                    )
            elif isinstance(stmt, Update):
                for kind, entries in (("update_to", stmt.to), ("update_from", stmt.from_)):
                    for entry in entries:
                        item = update_entry(entry)
                        clauses.append(
                            SynthClause(
                                kind,
                                item.var,
                                index_render(item.start),
                                item.elements,
                                stmt.line,
                                affine=isinstance(item.start, Affine)
                                and not item.start.is_const,
                            )
                        )
            elif isinstance(stmt, TargetKernel):
                regions += 1
            elif isinstance(stmt, Loop):
                walk(stmt.body)
            elif isinstance(stmt, Branch):
                walk(stmt.then_body)
                walk(stmt.else_body)

    walk(program.body)
    return tuple(clauses), regions


def synthesize(program: StaticProgram) -> SynthResult:
    """Synthesize a minimal data mapping for one static twin."""
    synth = _Synthesizer(program)
    out = synth.run()
    clauses, regions = _clause_list(out)
    return SynthResult(
        source=program.name,
        program=out,
        clauses=clauses,
        device_vars=tuple(synth.device_vars),
        regions=regions,
        fallback_loops=synth.fallback_loops,
    )


def synth_suite_programs() -> dict[str, StaticProgram]:
    """The synthesis corpus: clean DRACC twins, SPEC twins, affine demo."""
    from ..ompsan.programs import (
        CLEAN_PROGRAMS,
        SPEC_PROGRAMS,
        SYNTH_DEMO_PROGRAMS,
    )

    programs: dict[str, StaticProgram] = {}
    for factory in CLEAN_PROGRAMS.values():
        program = factory()
        programs[program.name] = program
    for factory in SPEC_PROGRAMS.values():
        program = factory()
        programs[program.name] = program
    demo = SYNTH_DEMO_PROGRAMS["affine_tiled"]()
    programs[demo.name] = demo
    return programs


def synth_suite() -> dict:
    """The ``repro synth --json`` payload (golden-gated in CI).

    For every corpus program: the synthesized clauses plus *measured*
    transfer bytes of the hand-written and synthesized mappings (an
    executor run each — deterministic, so the payload is a stable golden),
    and whether every host read observed identical values.
    """
    from ..ompsan.interp import run_twin

    programs = synth_suite_programs()
    payload_programs: dict[str, dict] = {}
    total_base = total_synth = strict = 0
    for name in sorted(programs):
        program = programs[name]
        result = synthesize(program)
        base = run_twin(program)
        synth_run = run_twin(result.program)
        equivalent = base.host_reads == synth_run.host_reads
        base_bytes = base.h2d_bytes + base.d2h_bytes
        synth_bytes = synth_run.h2d_bytes + synth_run.d2h_bytes
        total_base += base_bytes
        total_synth += synth_bytes
        if synth_bytes < base_bytes:
            strict += 1
        payload_programs[name] = {
            "device_vars": list(result.device_vars),
            "clauses": [
                {
                    "kind": c.kind,
                    "var": c.var,
                    "start": c.start,
                    "elements": c.elements,
                    "line": c.line,
                    "affine": c.affine,
                }
                for c in result.clauses
            ],
            "affine_clauses": result.affine_clauses,
            "fallback_loops": result.fallback_loops,
            "baseline_bytes": {"h2d": base.h2d_bytes, "d2h": base.d2h_bytes},
            "synth_bytes": {
                "h2d": synth_run.h2d_bytes,
                "d2h": synth_run.d2h_bytes,
            },
            "equivalent": equivalent,
        }
    return {
        "programs": payload_programs,
        "summary": {
            "programs": len(payload_programs),
            "equivalent": sum(
                1 for p in payload_programs.values() if p["equivalent"]
            ),
            "strict_savings": strict,
            "baseline_bytes": total_base,
            "synth_bytes": total_synth,
        },
    }


def render_synth_suite(payload: dict) -> str:
    """Human rendering of a :func:`synth_suite` payload."""
    lines = []
    for name, entry in payload["programs"].items():
        base = entry["baseline_bytes"]
        syn = entry["synth_bytes"]
        b, s = base["h2d"] + base["d2h"], syn["h2d"] + syn["d2h"]
        verdict = "=" if s == b else ("-" if s < b else "!REGRESSION")
        eq = "ok" if entry["equivalent"] else "DIVERGED"
        affine = (
            f", {entry['affine_clauses']} affine" if entry["affine_clauses"] else ""
        )
        lines.append(
            f"{name}: {len(entry['clauses'])} clause(s){affine}, "
            f"{b}B hand-written -> {s}B synthesized [{verdict}] values {eq}"
        )
    s = payload["summary"]
    lines.append(
        f"\n{s['programs']} program(s): {s['equivalent']} equivalent, "
        f"{s['strict_savings']} with strict byte savings, "
        f"{s['baseline_bytes']}B -> {s['synth_bytes']}B total"
    )
    return "\n".join(lines)


def render_program(program: StaticProgram, indent: str = "") -> str:
    """Pseudo-source rendering of a twin (``repro synth --apply``)."""
    lines: list[str] = []

    def item_str(item: MapItem | UpdateItem) -> str:
        if item.elements is None:
            return item.var
        return f"{item.var}[{index_render(item.start)}:{item.elements}]"

    def walk(body, pad):
        for stmt in body:
            if isinstance(stmt, Decl):
                init = " = {...}" if stmt.initialized else ""
                lines.append(f"{pad}double {stmt.var}[{stmt.length}]{init};")
            elif isinstance(stmt, HostWrite):
                lines.append(f"{pad}{stmt.var}[:] = ...;")
            elif isinstance(stmt, HostRead):
                lines.append(f"{pad}consume({stmt.var});")
            elif isinstance(stmt, EnterData):
                maps = ", ".join(
                    f"{m.map_type.value}: {item_str(m)}" for m in stmt.maps
                )
                lines.append(f"{pad}#pragma omp target enter data map({maps})")
            elif isinstance(stmt, ExitData):
                maps = ", ".join(
                    f"{m.map_type.value}: {item_str(m)}" for m in stmt.maps
                )
                lines.append(f"{pad}#pragma omp target exit data map({maps})")
            elif isinstance(stmt, Update):
                parts = []
                if stmt.to:
                    parts.append(
                        "to(" + ", ".join(item_str(update_entry(e)) for e in stmt.to) + ")"
                    )
                if stmt.from_:
                    parts.append(
                        "from(" + ", ".join(item_str(update_entry(e)) for e in stmt.from_) + ")"
                    )
                lines.append(f"{pad}#pragma omp target update {' '.join(parts)}")
            elif isinstance(stmt, TargetKernel):
                maps = ", ".join(
                    f"{m.map_type.value}: {item_str(m)}" for m in stmt.maps
                )
                clause = f" map({maps})" if stmt.maps else ""
                lines.append(f"{pad}#pragma omp target{clause}")
                body_desc = []
                if stmt.reads:
                    body_desc.append("reads " + ",".join(stmt.reads))
                if stmt.writes:
                    body_desc.append("writes " + ",".join(stmt.writes))
                lines.append(f"{pad}  {{ {'; '.join(body_desc)} }}")
            elif isinstance(stmt, PointerSwap):
                lines.append(f"{pad}swap({stmt.a}, {stmt.b});")
            elif isinstance(stmt, Loop):
                header = f"{pad}for ("
                if stmt.sym is not None and stmt.bounds is not None:
                    header += (
                        f"{stmt.sym} = {stmt.bounds[0]}; "
                        f"{stmt.sym} < {stmt.bounds[1]}; {stmt.sym}++"
                    )
                elif stmt.trip_count is not None:
                    header += f"{stmt.trip_count} iterations"
                else:
                    header += ";;"
                lines.append(header + ") {")
                walk(stmt.body, pad + "  ")
                lines.append(f"{pad}}}")
            elif isinstance(stmt, Branch):
                lines.append(f"{pad}if (...) {{")
                walk(stmt.then_body, pad + "  ")
                if stmt.else_body:
                    lines.append(f"{pad}}} else {{")
                    walk(stmt.else_body, pad + "  ")
                lines.append(f"{pad}}}")

    lines.append(f"// {program.name}")
    walk(program.body, indent)
    return "\n".join(lines)
