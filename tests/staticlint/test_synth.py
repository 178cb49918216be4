"""Mapping synthesis: minimality, correctness, and the golden snapshot.

``golden_synth.json`` is the checked-in output of ``repro synth --json``;
CI regenerates and diffs it, so any change to the synthesized mappings
ships with a reviewed golden update:

    PYTHONPATH=src python -m repro synth --json > tests/staticlint/golden_synth.json

The validation matrix (``repro synth --score``) is the stronger check:
every synthesized mapping must run clean under the dynamic detector,
read identical values at every host read, and move
no more bytes than the hand-written mapping.
"""

import json
from pathlib import Path

from repro.core.detector import Arbalest
from repro.harness.synth import run_synth_matrix, run_synth_program
from repro.ompsan.interp import run_twin
from repro.ompsan.ir import EnterData, ExitData, TargetKernel, Update
from repro.openmp.maptypes import MapType
from repro.staticlint.synth import (
    render_program,
    synth_suite,
    synth_suite_programs,
    synthesize,
)
from repro.openmp.runtime import TargetRuntime
from tests.per_access import per_access

GOLDEN = Path(__file__).parent / "golden_synth.json"


class TestGolden:
    def test_payload_matches_golden(self):
        golden = json.loads(GOLDEN.read_text())
        assert synth_suite() == golden, (
            "synthesized mappings drifted from tests/staticlint/"
            "golden_synth.json — if the change is intended, regenerate the "
            "golden file (see module docstring)"
        )

    def test_payload_is_deterministic(self):
        assert synth_suite() == synth_suite()

    def test_payload_round_trips_through_json(self):
        payload = synth_suite()
        assert json.loads(json.dumps(payload, sort_keys=True)) == payload


class TestValidationMatrix:
    def test_matrix_holds(self):
        matrix = run_synth_matrix()
        assert matrix.ok, matrix.failures()

    def test_every_program_clean_on_both_engines(self):
        """Clean batched (the matrix) and under per-access delivery."""
        matrix = run_synth_matrix()
        for row in matrix.rows:
            assert row.findings == 0, row.name
        for name, program in sorted(synth_suite_programs().items()):
            rt = TargetRuntime(n_devices=2)
            tool = per_access(Arbalest)().attach(rt.machine)
            run_twin(synthesize(program).program, rt)
            assert not tool.mapping_issue_findings(), name

    def test_every_program_value_equivalent(self):
        matrix = run_synth_matrix()
        assert all(r.equivalent for r in matrix.rows)

    def test_bytes_never_exceed_hand_written(self):
        matrix = run_synth_matrix()
        for row in matrix.rows:
            assert (
                row.synth.transfer_bytes <= row.baseline.transfer_bytes
            ), row.name

    def test_at_least_one_strict_saver(self):
        matrix = run_synth_matrix()
        savers = [r.name for r in matrix.rows if r.strict_saving]
        assert savers

    def test_no_loop_needed_the_conservative_fallback(self):
        # The steady-state planner handles the whole corpus; the join
        # fallback existing is fine, it being *needed* would be news.
        matrix = run_synth_matrix()
        assert all(r.fallback_loops == 0 for r in matrix.rows)

    def test_artifact_shape(self):
        payload = run_synth_matrix().to_json()
        assert payload["artifact"] == "synth-bench/1"
        assert payload["summary"]["ok"] is True
        for entry in payload["programs"].values():
            assert entry["clean"]
            assert entry["synth_bytes"] <= entry["baseline_bytes"]


class TestSynthesizedStructure:
    def test_never_emits_tofrom_or_to_maps(self):
        # The whole point: allocation hulls + demand-driven updates, never
        # a blanket transfer map.
        for program in synth_suite_programs().values():
            result = synthesize(program)

            def walk(body):
                for stmt in body:
                    if isinstance(stmt, EnterData):
                        assert all(
                            m.map_type is MapType.ALLOC for m in stmt.maps
                        )
                    elif isinstance(stmt, ExitData):
                        assert all(
                            m.map_type is MapType.RELEASE for m in stmt.maps
                        )
                    elif isinstance(stmt, TargetKernel):
                        assert stmt.maps == ()
                    elif hasattr(stmt, "body"):
                        walk(stmt.body)
                    elif hasattr(stmt, "then_body"):
                        walk(stmt.then_body)
                        walk(stmt.else_body)

            walk(result.program.body)

    def test_clause_kinds(self):
        for program in synth_suite_programs().values():
            for clause in synthesize(program).clauses:
                assert clause.kind in {
                    "enter", "exit", "update_to", "update_from"
                }

    def test_affine_demo_gets_a_symbolic_update(self):
        program = synth_suite_programs()["AFFINE_TILED"]
        result = synthesize(program)
        affine = [c for c in result.clauses if c.affine]
        assert affine, "tiled loop should synthesize a per-tile update"
        assert all(c.kind == "update_to" for c in affine)
        # Symbolic, not a concrete hull: the start mentions the loop symbol.
        assert any(not c.start.isdigit() for c in affine)

    def test_dead_data_program_synthesizes_no_movement(self):
        # DRACC_OMP_055's hand-written mapping moves bytes nobody reads;
        # the synthesized mapping is allowed to move nothing at all.
        program = synth_suite_programs()["DRACC_OMP_055"]
        run = run_twin(synthesize(program).program)
        assert run.transfer_bytes == 0

    def test_double_buffer_hoists_out_of_the_loop(self):
        # 504.polbm's swap-based double buffering: the steady state needs
        # no per-iteration transfer, so the only update-to sits before the
        # loop (hoisted) and the synthesized run beats the hand-written.
        program = synth_suite_programs()["504.polbm"]
        result = synthesize(program)

        def updates_inside_loops(body, inside=False):
            count = 0
            for stmt in body:
                if isinstance(stmt, Update) and inside:
                    count += 1
                elif hasattr(stmt, "body"):
                    count += updates_inside_loops(stmt.body, True)
            return count

        assert updates_inside_loops(result.program.body) == 0
        base = run_twin(program)
        synth = run_twin(result.program)
        assert synth.transfer_bytes < base.transfer_bytes
        assert synth.host_reads == base.host_reads


class TestRenderings:
    def test_render_program_mentions_every_directive(self):
        program = synth_suite_programs()["DRACC_OMP_001"]
        text = render_program(synthesize(program).program)
        assert "enter data map(alloc:" in text
        assert "update to(" in text
        assert "update from(" in text
        assert "exit data map(release:" in text

    def test_result_render_lists_clauses(self):
        program = synth_suite_programs()["DRACC_OMP_001"]
        result = synthesize(program)
        text = result.render()
        assert str(len(result.clauses)) in text
        assert "update_to" in text


class TestHarnessRow:
    def test_single_program_row(self):
        program = synth_suite_programs()["DRACC_OMP_001"]
        row = run_synth_program("DRACC_OMP_001", program)
        assert row.ok
        assert row.lint_clean
        assert row.strict_saving
