"""Synthesis validation matrix: is the synthesized mapping actually good?

:func:`repro.staticlint.synth.synthesize` claims its output is a *minimal
correct* data mapping.  This harness checks both words the honest way, per
corpus program (40 clean DRACC twins + the SPEC twins + the affine demo):

* **correct** — the synthesized twin executes on the simulated runtime
  with ARBALEST attached and must report **zero** mapping issues, and
  every instrumented host read must observe
  byte-identical values to the hand-written mapping's run;
* **minimal** — the synthesized mapping must move **no more** bytes over
  the simulated interconnect than the hand-written one (measured from the
  runtime's transfer counters, not estimated), and across the corpus at
  least one program must move strictly fewer.

The matrix lands in ``BENCH_synth.json`` (artifact ``synth-bench/1``),
which ``repro diff`` gates: synthesized bytes growing, a clean verdict
lost, or value equivalence lost on any program is a regression.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core.detector import Arbalest
from ..ompsan.interp import TwinRun, run_twin
from ..openmp.runtime import TargetRuntime
from ..staticlint import lint
from ..staticlint.synth import SynthResult, synth_suite_programs, synthesize

@dataclass
class SynthProgramRow:
    """One corpus program through the validation matrix."""

    name: str
    lint_clean: bool
    baseline: TwinRun
    synth: TwinRun
    #: Mapping-issue finding count for the synthesized twin.
    findings: int
    clauses: int
    affine_clauses: int
    fallback_loops: int

    @property
    def clean(self) -> bool:
        return self.findings == 0

    @property
    def equivalent(self) -> bool:
        return self.baseline.host_reads == self.synth.host_reads

    @property
    def bytes_ok(self) -> bool:
        return self.synth.transfer_bytes <= self.baseline.transfer_bytes

    @property
    def strict_saving(self) -> bool:
        return self.synth.transfer_bytes < self.baseline.transfer_bytes

    @property
    def ok(self) -> bool:
        return self.clean and self.equivalent and self.bytes_ok


@dataclass
class SynthMatrixResult:
    rows: list[SynthProgramRow] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return (
            all(r.ok for r in self.rows)
            and any(r.strict_saving for r in self.rows)
        )

    def failures(self) -> list[str]:
        out = []
        for r in self.rows:
            if not r.clean:
                out.append(f"{r.name}: {r.findings} mapping issue(s)")
            if not r.equivalent:
                out.append(f"{r.name}: host reads diverged")
            if not r.bytes_ok:
                out.append(
                    f"{r.name}: synthesized mapping moves more bytes "
                    f"({r.synth.transfer_bytes} > {r.baseline.transfer_bytes})"
                )
        if not any(r.strict_saving for r in self.rows):
            out.append("no program moves strictly fewer bytes than hand-written")
        return out

    def to_json(self) -> dict:
        programs = {
            r.name: {
                "lint_clean": r.lint_clean,
                "baseline_bytes": r.baseline.transfer_bytes,
                "synth_bytes": r.synth.transfer_bytes,
                "clean": r.clean,
                "equivalent": r.equivalent,
                "clauses": r.clauses,
                "affine_clauses": r.affine_clauses,
                "fallback_loops": r.fallback_loops,
            }
            for r in self.rows
        }
        return {
            "artifact": "synth-bench/1",
            "programs": programs,
            "summary": {
                "programs": len(self.rows),
                "clean": sum(r.clean for r in self.rows),
                "equivalent": sum(r.equivalent for r in self.rows),
                "strict_savings": sum(r.strict_saving for r in self.rows),
                "baseline_bytes": sum(
                    r.baseline.transfer_bytes for r in self.rows
                ),
                "synth_bytes": sum(r.synth.transfer_bytes for r in self.rows),
                "ok": self.ok,
            },
        }

    def render(self) -> str:
        lines = []
        for r in self.rows:
            verdict = "ok" if r.ok else "FAIL"
            saving = (
                f" (saves {r.baseline.transfer_bytes - r.synth.transfer_bytes}B)"
                if r.strict_saving
                else ""
            )
            lines.append(
                f"{r.name}: {r.clauses} clause(s), "
                f"{r.synth.transfer_bytes}B vs {r.baseline.transfer_bytes}B "
                f"hand-written{saving} [{verdict}]"
            )
        s = self.to_json()["summary"]
        lines.append(
            f"\n{s['programs']} program(s): {s['clean']} clean, "
            f"{s['equivalent']} value-equivalent, "
            f"{s['strict_savings']} strictly cheaper; "
            f"{s['baseline_bytes']}B -> {s['synth_bytes']}B total"
        )
        for failure in self.failures():
            lines.append(f"FAIL: {failure}")
        return "\n".join(lines)


def _detected_run(program) -> tuple[TwinRun, int]:
    """Run a twin with ARBALEST attached; (outcome, mapping issue count)."""
    rt = TargetRuntime(n_devices=2)
    tool = Arbalest().attach(rt.machine)
    run = run_twin(program, rt)
    return run, len(tool.mapping_issue_findings())


def run_synth_program(name: str, program) -> SynthProgramRow:
    """One program through synthesis + the full validation matrix."""
    result: SynthResult = synthesize(program)
    baseline = run_twin(program)
    synth_run, findings = _detected_run(result.program)
    return SynthProgramRow(
        name=name,
        lint_clean=lint(program).clean,
        baseline=baseline,
        synth=synth_run,
        findings=findings,
        clauses=len(result.clauses),
        affine_clauses=result.affine_clauses,
        fallback_loops=result.fallback_loops,
    )


def run_synth_matrix() -> SynthMatrixResult:
    """The full corpus through the validation matrix."""
    result = SynthMatrixResult()
    for name, program in sorted(synth_suite_programs().items()):
        result.rows.append(run_synth_program(name, program))
    return result
