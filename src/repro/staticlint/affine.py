"""The affine section domain of the static mapping linter.

The lattice's ``section`` component historically held one concrete element
interval per variable — the fixed-granule assumption.  This module
replaces it with a three-valued domain:

* ``None`` — the whole declared object is guaranteed mapped (top);
* ``(lo, hi)`` — a concrete guaranteed interval, with ``BOTTOM = (0, 0)``
  the canonical empty section (degenerate inputs — zero elements,
  inverted endpoints — normalize to it instead of propagating);
* :class:`AffineSection` — ``var[c0 + c1*i : n]`` where the start is
  affine in an enclosing loop's induction symbol.  The symbol's static
  range travels inside the :class:`~repro.ompsan.ir.Affine` expression,
  so the domain can always concretize to a hull without CFG context.

Joins keep the domain finite: equal affine sections join to themselves,
anything else collapses to the intersection of concrete hulls — endpoints
drawn from the program's finite constant set — so the fixpoint worklist
still terminates with affine constraints in play (the property test in
``tests/staticlint`` exercises exactly this).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..ompsan.ir import Affine, Index, MapItem, index_max, index_min, index_render

#: Canonical empty section: nothing is guaranteed mapped.
BOTTOM = (0, 0)


@dataclass(frozen=True)
class AffineSection:
    """``[start : start + elements)`` with an affine start expression."""

    start: Affine
    elements: int

    def hull(self) -> tuple[int, int]:
        """The concrete union over the symbol range."""
        return (self.start.minimum(), self.start.maximum() + self.elements)

    def guaranteed(self) -> tuple[int, int]:
        """The concrete intersection over the symbol range (may be empty)."""
        return (self.start.maximum(), self.start.minimum() + self.elements)

    def render(self) -> str:
        r = self.start
        return (
            f"[{r.render()} : {r.render()}+{self.elements}], "
            f"{r.sym} in [{r.lo}, {r.hi})"
        )


#: A section domain value (see module docstring).
Section = "AffineSection | tuple[int, int] | None"


def normalize_section(section) -> "AffineSection | tuple[int, int] | None":
    """Collapse degenerate intervals to the canonical :data:`BOTTOM`.

    ``elements == 0`` and inverted endpoints (``start > end``) both mean
    "nothing guaranteed"; representing them canonically keeps joins from
    threading meaningless intervals through the fixpoint.
    """
    if section is None:
        return None
    if isinstance(section, AffineSection):
        if section.elements <= 0:
            return BOTTOM
        return section
    lo, hi = section
    if lo >= hi:
        return BOTTOM
    return (lo, hi)


def concretize(section, length: int) -> tuple[int, int]:
    """The *guaranteed* concrete interval of a section value.

    For an affine section this is the intersection over the symbol range:
    coverage checks against it are conservative for any iteration.
    """
    section = normalize_section(section)
    if section is None:
        return (0, length)
    if isinstance(section, AffineSection):
        return normalize_section(section.guaranteed()) or BOTTOM
    return section


def section_hull(section, length: int) -> tuple[int, int]:
    """The concrete union of a section value over all iterations."""
    section = normalize_section(section)
    if section is None:
        return (0, length)
    if isinstance(section, AffineSection):
        return normalize_section(section.hull()) or BOTTOM
    return section


def join_sections(a, b):
    """Guaranteed-covered section after a path join: the intersection.

    ``None`` is top; equal affine sections join symbolically; any other
    mix collapses to the intersection of guaranteed concrete intervals,
    which keeps the domain finite.
    """
    a, b = normalize_section(a), normalize_section(b)
    if a is None:
        return b
    if b is None:
        return a
    if isinstance(a, AffineSection) or isinstance(b, AffineSection):
        if a == b:
            return a
        # Guaranteed coverage must hold for every iteration of both
        # constraints, so intersect the guaranteed (worst-case) intervals.
        a = a.guaranteed() if isinstance(a, AffineSection) else a
        b = b.guaranteed() if isinstance(b, AffineSection) else b
        a, b = normalize_section(a), normalize_section(b)
    lo, hi = max(a[0], b[0]), min(a[1], b[1])
    return (lo, hi) if lo < hi else BOTTOM


def section_covers(section, length: int, lo: Index, hi: Index) -> bool:
    """Whether the touched range ``[lo, hi)`` is guaranteed mapped.

    The touched endpoints may themselves be affine.  When both the mapped
    section and the touched range are affine *in the same symbol*, the
    comparison stays symbolic: the inequality margins are affine in the
    symbol, so checking both endpoints of its range decides "for all
    iterations" exactly — per-tile accesses against per-tile maps pass
    even though neither concretizes to a covering interval.
    """
    section = normalize_section(section)
    if (
        isinstance(section, AffineSection)
        and (isinstance(lo, Affine) or isinstance(hi, Affine))
    ):
        sym = section.start.sym
        rng = (section.start.lo, section.start.hi)
        if _same_scope(lo, sym, rng) and _same_scope(hi, sym, rng):
            s_lo, s_hi = section.start, section.start.shift(section.elements)
            return _always_le(_affine(lo, sym, rng), s_lo.c0, s_lo.c1, invert=True) and _always_le(
                _affine(hi, sym, rng), s_hi.c0, s_hi.c1, invert=False
            )
    t_lo, t_hi = index_min(lo), index_max(hi)
    if section is None:
        return 0 <= t_lo and t_hi <= length
    m_lo, m_hi = concretize(section, length)
    return m_lo <= t_lo and t_hi <= m_hi


def _same_scope(value: Index, sym: str, rng: tuple[int, int]) -> bool:
    if isinstance(value, Affine) and value.c1:
        return value.sym == sym and (value.lo, value.hi) == rng
    return True  # constants compare against any symbol scope


def _affine(value: Index, sym: str, rng: tuple[int, int]) -> Affine:
    if isinstance(value, Affine):
        return value
    return Affine(int(value), 0, sym, rng[0], rng[1])


def _always_le(touched: Affine, sec_c0: int, sec_c1: int, *, invert: bool) -> bool:
    """``sec <= touched`` (invert) or ``touched <= sec`` for every symbol value."""
    lo, hi = touched.lo, touched.hi
    for i in (lo, hi - 1):  # affine margins attain extremes at endpoints
        t = touched.c0 + touched.c1 * i
        s = sec_c0 + sec_c1 * i
        if invert:
            if not s <= t:
                return False
        elif not t <= s:
            return False
    return True


def map_section(item: MapItem, length: int):
    """The section value a map clause guarantees for a declared length."""
    if item.elements is None:
        return None
    if isinstance(item.start, Affine) and not item.start.is_const:
        return normalize_section(AffineSection(item.start, item.elements))
    start = index_min(item.start)
    return normalize_section((start, start + item.elements))


def render_section(section, length: int) -> str:
    """Human-readable section for finding details and suggestions."""
    section = normalize_section(section)
    if section is None:
        return f"[0:{length}]"
    if isinstance(section, AffineSection):
        return section.render()
    return f"[{section[0]}:{section[1]}]"


def section_to_json(section, length: int) -> dict:
    """The ``sections`` payload entry downstream tooling consumes.

    Always carries the concrete guaranteed offsets; adds the affine
    constraint when the section is symbolic so consumers stop re-parsing
    suggestion strings.
    """
    section = normalize_section(section)
    hull = section_hull(section, length)
    lo, hi = concretize(section, length)
    payload = {"lo": lo, "hi": hi, "hull": [hull[0], hull[1]], "length": length}
    if isinstance(section, AffineSection):
        r = section.start
        payload["affine"] = {
            "start": index_render(r),
            "elements": section.elements,
            "sym": r.sym,
            "range": [r.lo, r.hi],
        }
    return payload
