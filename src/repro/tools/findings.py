"""Findings: what analysis tools report.

A :class:`Finding` is one defect report.  ``kind`` classifies the observed
anomaly using the paper's vocabulary (Table III column 2 plus the race and
allocator classes the baseline tools can emit).  Findings deduplicate on
``dedup_key`` so a bug inside a loop produces one report, like sanitizers'
once-per-site suppression.

Two identity notions coexist:

* ``dedup_key`` is the *within-run* identity — one report per bug site per
  run, exact file path and all;
* ``fingerprint`` is the *cross-run* identity — a short stable hash of the
  kind, variable, and normalized source location that ``repro diff`` uses
  to classify findings as new/fixed/persisting between two report
  artifacts.  It deliberately excludes ordinals, addresses, thread ids and
  the directory part of the path, all of which may vary across runs and
  checkouts of the same program.
"""

from __future__ import annotations

import enum
import hashlib
import posixpath
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from ..events.source import SourceLocation, UNKNOWN_LOCATION

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..forensics.provenance import Provenance


class FindingKind(enum.Enum):
    """Observed anomaly classes (Table III column 2 + tool-specific ones)."""

    #: Use of uninitialized memory — a read observed a value nobody wrote.
    UUM = "use-of-uninitialized-memory"
    #: Use of stale data — a read observed an out-of-date copy.
    USD = "use-of-stale-data"
    #: Data-mapping-related buffer overflow (access outside the CV, §IV.D).
    BO = "buffer-overflow"
    #: Unsynchronized conflicting accesses (Archer's domain).
    RACE = "data-race"
    #: Access to freed memory (ASan's domain).
    UAF = "use-after-free"
    #: Invalid/double free.
    BAD_FREE = "invalid-free"
    #: Wild access outside any allocation (Valgrind's "invalid read/write").
    WILD = "invalid-access"
    #: A tool's own handler failed and was isolated by the bus; the run
    #: continued but that tool's analysis state may be degraded.
    TOOL_ERROR = "tool-error"


#: Kinds that count as *data mapping issues* for the Table III precision
#: comparison.  Races and allocator errors are real bugs but a tool gets
#: credit in Table III only when its report corresponds to the mapping
#: issue's manifested memory error.
MAPPING_ISSUE_KINDS = frozenset(
    {FindingKind.UUM, FindingKind.USD, FindingKind.BO, FindingKind.WILD}
)

#: Explicit "no stack captured" sentinel.  Distinct from a real one-frame
#: stack whose only frame happens to be unknown: provenance rendering must
#: not invent a frame that was never observed.
NO_STACK: tuple[SourceLocation, ...] = ()


def site_key(
    kind: FindingKind, stack: tuple[SourceLocation, ...], variable: str
) -> tuple:
    """The bug-site identity of a report: kind, innermost frame, variable.

    :meth:`Finding.dedup_key` is this function of a finding's fields;
    :meth:`Tool.repeated <repro.tools.base.Tool.repeated>` derives it from
    the same fields before any finding is built.
    """
    location = stack[0] if stack else UNKNOWN_LOCATION
    return (kind, location.file, location.line, variable)


@dataclass(frozen=True)
class Finding:
    """One defect report from one tool."""

    tool: str
    kind: FindingKind
    message: str
    device_id: int = 0
    thread_id: int = 0
    address: int = 0
    size: int = 0
    stack: tuple[SourceLocation, ...] = NO_STACK
    #: Name of the program variable involved, when the tool knows it.
    variable: str = ""
    #: Reconstructed history, attached when a flight recorder is active.
    #: Excluded from equality: the same bug with and without forensics
    #: enabled is the same finding.
    provenance: "Provenance | None" = field(default=None, compare=False)

    @property
    def has_stack(self) -> bool:
        """Whether the reporting tool captured any stack at all."""
        return bool(self.stack)

    @property
    def location(self) -> SourceLocation:
        return self.stack[0] if self.stack else UNKNOWN_LOCATION

    def dedup_key(self) -> tuple:
        """Reports with equal keys are the same bug site."""
        return site_key(self.kind, self.stack, self.variable)

    def fingerprint(self) -> str:
        """Stable cross-run identity: kind + variable + normalized location.

        Independent of event ordinals, addresses, thread ids, and the
        directory portion of the source path, so the same bug fingerprints
        identically under the ordinal clock, the wall clock, and different
        checkout roots.
        """
        basename = posixpath.basename(self.location.file.replace("\\", "/"))
        material = f"{self.kind.value}|{self.variable}|{basename}:{self.location.line}"
        return hashlib.sha1(material.encode("utf-8")).hexdigest()[:12]

    def render(self) -> str:
        """One-line human-readable form (full reports: repro.core.reports)."""
        where = f" at {self.location}" if self.location is not UNKNOWN_LOCATION else ""
        var = f" [{self.variable}]" if self.variable else ""
        return f"{self.tool}: {self.kind.value}{var}{where}: {self.message}"
