"""The abstract domain of the static mapping linter.

One :class:`VarAbstract` record summarizes everything the analysis knows
about one variable at one program point, on *every* execution path reaching
it:

* **definition origin** — which definitions may be visible in the original
  variable (host copy) and in the corresponding variable (device copy).
  Represented as frozensets of definition tokens; the :data:`UNINIT` token
  means "no definition on some path".  Joins are unions, making this a
  may-reaching-definitions analysis — exact on straight-line code, an
  over-approximation through loops and branches;
* **location / presence** — whether a corresponding variable exists
  (:class:`Presence` three-point lattice NO < MAYBE > YES);
* **extent** — the element interval the mapping is *guaranteed* to cover.
  Joining two states keeps the intersection of their sections: overflow
  checks against it are conservative (they may warn, never silently pass);
* **refcount** — an interval ``[lo, hi]`` widened to :data:`REF_CAP` so
  unbounded re-mapping loops still reach a fixpoint.

Every operation is monotone over a finite lattice (definition tokens are
drawn from the program's finite statement set, intervals from its finite
constant set plus the widening cap), which is what guarantees the worklist
in :mod:`repro.staticlint.analyzer` terminates.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .affine import (
    BOTTOM,
    AffineSection,
    join_sections,
    normalize_section,
    section_covers,
)

#: Definition token meaning "no definition reaches here on some path".
UNINIT = ("uninit",)

#: Refcount widening threshold: counts at or above the cap are treated as
#: "many" (the analysis then refuses to certify the variable but still
#: reaches a fixpoint on unbounded re-mapping loops).
REF_CAP = 8


class Presence(enum.Enum):
    """Does a corresponding variable exist for this variable?"""

    NO = 0
    YES = 1
    MAYBE = 2  # present on some paths only

    def join(self, other: "Presence") -> "Presence":
        if self is other:
            return self
        return Presence.MAYBE


def _join_section(a, b):
    """Guaranteed-covered section after a path join: the intersection.

    ``None`` means "whole object" (top coverage).  Degenerate inputs
    (zero elements, inverted endpoints) normalize to the canonical
    :data:`~repro.staticlint.affine.BOTTOM` before joining, and an empty
    intersection collapses to it — nothing is guaranteed mapped.  Affine
    sections join symbolically when equal and collapse to concrete hulls
    otherwise; see :func:`repro.staticlint.affine.join_sections`.
    """
    return join_sections(a, b)


@dataclass(frozen=True)
class VarAbstract:
    """Abstract mapping state of one variable (immutable; joins build new)."""

    #: Definitions possibly visible in the original (host) variable.
    host_defs: frozenset = frozenset({UNINIT})
    #: Definitions possibly visible in the corresponding (device) variable.
    dev_defs: frozenset = frozenset({UNINIT})
    presence: Presence = Presence.NO
    ref_lo: int = 0
    ref_hi: int = 0
    #: Guaranteed-mapped section: ``None`` = the whole object, a concrete
    #: ``(lo, hi)`` interval, or an :class:`AffineSection` constraint.
    section: "AffineSection | tuple[int, int] | None" = None
    length: int = 1

    def join(self, other: "VarAbstract") -> "VarAbstract":
        if self == other:
            return self
        return VarAbstract(
            host_defs=self.host_defs | other.host_defs,
            dev_defs=self.dev_defs | other.dev_defs,
            presence=self.presence.join(other.presence),
            ref_lo=min(self.ref_lo, other.ref_lo),
            ref_hi=min(max(self.ref_hi, other.ref_hi), REF_CAP),
            section=_join_section(self.section, other.section),
            length=max(self.length, other.length),
        )

    @property
    def ref_widened(self) -> bool:
        return self.ref_hi >= REF_CAP

    def covered(self, lo, hi) -> bool:
        """Whether ``[lo, hi)`` is guaranteed inside the mapped section.

        Endpoints may be affine expressions; same-symbol comparisons stay
        symbolic (per-tile accesses pass against per-tile maps), anything
        else is checked against the guaranteed concrete interval.
        """
        return section_covers(self.section, self.length, lo, hi)


def join_states(
    a: dict[str, VarAbstract], b: dict[str, VarAbstract]
) -> dict[str, VarAbstract]:
    """Pointwise join of two variable-state maps.

    A variable missing on one side keeps the other side's record: the only
    way that happens is a path that has not yet executed the declaration,
    and declarations are restricted to the top level (see
    :func:`repro.staticlint.cfg.lower`), so both sides agree by the time
    any statement uses the variable.
    """
    if a is b:
        return a
    out = dict(a)
    for var, record in b.items():
        mine = out.get(var)
        out[var] = record if mine is None else mine.join(record)
    return out


def join_serial(a: dict[str, frozenset], b: dict[str, frozenset]) -> dict:
    """Pointwise union join of the serial-elision reaching-def maps."""
    if a is b:
        return a
    out = dict(a)
    for var, defs in b.items():
        mine = out.get(var)
        out[var] = defs if mine is None else mine | defs
    return out
