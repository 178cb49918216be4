"""SPEC ACCEL workloads: numerical sanity, cleanliness under ARBALEST,
and the 503.postencil bug's observable behaviour."""

import numpy as np
import pytest

from repro.core import Arbalest
from repro.openmp import TargetRuntime
from repro.specaccel import (
    WORKLOADS,
    output_checksum,
    run_pcg,
    run_pep,
    run_polbm,
    run_pomriq,
    run_postencil,
    workload,
)
from repro.tools import FindingKind


class TestRegistry:
    def test_five_workloads(self):
        assert len(WORKLOADS) == 5
        assert {w.spec_id for w in WORKLOADS} == {"503", "504", "514", "552", "554"}

    def test_lookup_by_name_and_id(self):
        assert workload("pcg").spec_id == "554"
        assert workload("503").name == "postencil"
        with pytest.raises(KeyError):
            workload("nope")


class TestNumerics:
    def test_postencil_conserves_shape(self):
        rt = TargetRuntime(n_devices=1)
        result = run_postencil(rt, "test", buggy=False)
        rt.finalize()
        values = result.peek()
        assert np.isfinite(values).all()
        # Diffusion smooths the point source: the max must have dropped.
        assert values.max() < 100.0

    def test_polbm_conserves_density(self):
        rt = TargetRuntime(n_devices=1)
        total = run_polbm(rt, "test")
        rt.finalize()
        # D2Q9 BGK with periodic streaming conserves total mass.
        from repro.specaccel.polbm import SHAPES

        cells = SHAPES["test"].cells
        assert total == pytest.approx(cells * 1.0 + 0.01, rel=1e-9)

    def test_pomriq_matches_direct_computation(self):
        rt = TargetRuntime(n_devices=1)
        sum_r, sum_i = run_pomriq(rt, "test")
        rt.finalize()
        # Recompute directly from the same seeded inputs.
        from repro.specaccel.pomriq import SHAPES, _sample_inputs

        shape = SHAPES["test"]
        v = _sample_inputs(shape)
        phi = v["phi_r"] ** 2 + v["phi_i"] ** 2
        angles = 2 * np.pi * (
            np.outer(v["x"], v["kx"])
            + np.outer(v["y"], v["ky"])
            + np.outer(v["z"], v["kz"])
        )
        assert sum_r == pytest.approx(float((phi * np.cos(angles)).sum()), rel=1e-9)
        assert sum_i == pytest.approx(float((phi * np.sin(angles)).sum()), rel=1e-9)

    def test_pep_deterministic(self):
        results = set()
        for _ in range(2):
            rt = TargetRuntime(n_devices=1)
            results.add(run_pep(rt, "test"))
            rt.finalize()
        assert len(results) == 1

    def test_pcg_converges(self):
        rt = TargetRuntime(n_devices=1)
        residual = run_pcg(rt, "test")
        rt.finalize()
        assert residual < 1e-2  # banded SPD system: CG drops fast


class TestCleanUnderArbalest:
    @pytest.mark.parametrize("w", WORKLOADS, ids=lambda w: w.name)
    def test_no_findings(self, w):
        rt = TargetRuntime(n_devices=1)
        det = Arbalest().attach(rt.machine)
        w.run(rt, "test")
        rt.finalize()
        assert not det.findings, [f.render() for f in det.findings]


class TestPostencilBug:
    def test_buggy_odd_iterations_stale(self):
        rt = TargetRuntime(n_devices=1)
        det = Arbalest().attach(rt.machine)
        result = run_postencil(rt, "test", buggy=True)  # test preset: 3 iters
        checksum = output_checksum(rt, result)
        rt.finalize()
        kinds = {f.kind for f in det.mapping_issue_findings()}
        assert FindingKind.USD in kinds
        # And the wrong value really is observable:
        rt2 = TargetRuntime(n_devices=1)
        fixed = run_postencil(rt2, "test", buggy=False)
        good = output_checksum(rt2, fixed)
        rt2.finalize()
        assert checksum != good

    def test_report_points_at_output_line(self):
        rt = TargetRuntime(n_devices=1)
        det = Arbalest().attach(rt.machine)
        result = run_postencil(rt, "test", buggy=True)
        output_checksum(rt, result)
        rt.finalize()
        text = det.render_reports(pid=104822)
        assert "stale access" in text
        assert "main.c:145" in text  # Fig 7's SUMMARY line

    def test_fixed_version_clean(self):
        rt = TargetRuntime(n_devices=1)
        det = Arbalest().attach(rt.machine)
        result = run_postencil(rt, "test", buggy=False)
        output_checksum(rt, result)
        rt.finalize()
        assert not det.mapping_issue_findings()

    @pytest.mark.parametrize("buggy", [False, True], ids=["fixed", "v1.2-buggy"])
    def test_train_preset_flags_only_the_buggy_version(self, buggy):
        rt = TargetRuntime(n_devices=1)
        det = Arbalest().attach(rt.machine)
        result = run_postencil(rt, "train", buggy=buggy)
        output_checksum(rt, result)
        rt.finalize()
        assert bool(det.mapping_issue_findings()) == buggy

    def test_even_iterations_mask_the_bug(self):
        # The bug only manifests for odd iteration counts — the swap parity
        # lands the result in the copied-back buffer otherwise.  VSM
        # correctly reports nothing on such a run (no issue *manifests*).
        from repro.specaccel.postencil import SHAPES, StencilShape

        rt = TargetRuntime(n_devices=1)
        det = Arbalest().attach(rt.machine)
        old = SHAPES["test"]
        even = StencilShape(old.nx, old.ny, old.nz, 4)
        SHAPES["even"] = even
        try:
            result = run_postencil(rt, "even", buggy=True)
            output_checksum(rt, result)
            rt.finalize()
            assert not det.mapping_issue_findings()
        finally:
            del SHAPES["even"]
