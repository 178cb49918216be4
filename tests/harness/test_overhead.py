"""Overhead harness (Fig 8/9): measurement plumbing and expected shapes."""

import json
import pathlib

import pytest

from repro.harness import (
    CONFIGS,
    bench_payload,
    measure_one,
    render_figures,
    run_bench,
    run_overhead_comparison,
)
from repro.specaccel import WORKLOADS, workload

ROOT = pathlib.Path(__file__).resolve().parents[2]


@pytest.fixture(scope="module")
def overhead():
    # Small preset, one repetition: structural checks, not timing claims.
    return run_overhead_comparison(preset="test", repetitions=1)


@pytest.fixture(scope="module")
def overhead_train():
    # The tracked artifact's preset.  Bytes do not depend on timing, so
    # one repetition gives Fig 9 exactly.
    return run_overhead_comparison(preset="train", repetitions=1)


class TestMeasurement:
    def test_native_has_no_shadow(self, overhead):
        for w in WORKLOADS:
            m = overhead.get(w.name, "native")
            assert m.shadow_bytes == 0
            assert m.app_bytes > 0
            assert m.seconds > 0

    def test_tools_allocate_shadow(self, overhead):
        for w in WORKLOADS:
            for config in CONFIGS[1:]:
                assert overhead.get(w.name, config).shadow_bytes > 0, (w.name, config)

    def test_only_native_has_no_shadow_at_train(self, overhead_train):
        for w in WORKLOADS:
            for config in CONFIGS:
                m = overhead_train.get(w.name, config)
                if config == "native":
                    assert m.shadow_bytes == 0
                else:
                    assert m.shadow_bytes > 0, (w.name, config)

    def test_all_cells_present(self, overhead):
        for w in WORKLOADS:
            for c in CONFIGS:
                overhead.get(w.name, c)  # KeyError would fail the test

    def test_checksums_identical_across_tools(self, overhead):
        # Attaching a tool must never change program results.
        assert overhead.checksums_consistent()

    def test_get_names_missing_cell_and_lists_available(self, overhead):
        with pytest.raises(KeyError) as exc_info:
            overhead.get("nonesuch", "arbalest")
        message = str(exc_info.value)
        assert "nonesuch" in message
        assert "arbalest" in message
        assert "pcg" in message  # the available workloads are listed
        assert "native" in message  # ... and the available configs


class TestSpaceShape:
    """Fig 9's qualitative shape (robust, unlike wall-clock timing)."""

    def test_arbalest_shadow_close_to_archer(self, overhead):
        # Same 8-byte-granule engine family; ARBALEST adds its VSM words.
        for w in WORKLOADS:
            arb = overhead.get(w.name, "arbalest").shadow_bytes
            arc = overhead.get(w.name, "archer").shadow_bytes
            assert arc <= arb <= 3 * arc, (w.name, arb, arc)

    def test_asan_is_lightest_tool(self, overhead):
        # 1 shadow byte per 8 application bytes: far below the others.
        for w in WORKLOADS:
            asan = overhead.get(w.name, "asan").shadow_bytes
            for other in ("arbalest", "archer", "msan", "valgrind"):
                assert asan < overhead.get(w.name, other).shadow_bytes

    def test_fig9_shape_at_train(self, overhead_train):
        # Every tool above native; ARBALEST close to Archer (same shadow
        # family); ASan lightest.
        for w in WORKLOADS:
            native, asan, arc, arb = (
                overhead_train.get(w.name, c).total_bytes
                for c in ("native", "asan", "archer", "arbalest")
            )
            assert native < asan < arc <= arb, w.name
            assert arb <= 2.0 * arc, w.name

    def test_shadow_scales_with_app_bytes(self, overhead):
        for w in WORKLOADS:
            m = overhead.get(w.name, "msan")
            # MSan shadows every application byte at least once.
            assert m.shadow_bytes >= m.app_bytes * 0.5


class TestRendering:
    def test_time_table_renders(self, overhead):
        text = render_figures(bench_payload(overhead, repetitions=1))
        assert "Fig 8: time overhead" in text
        for w in WORKLOADS:
            assert w.name in text

    def test_space_table_renders(self, overhead):
        payload = bench_payload(overhead, repetitions=1)
        text = render_figures(payload)
        assert "Fig 9: memory usage" in text
        cell = payload["workloads"]["pcg"]["arbalest"]
        assert f"{(cell['app_bytes'] + cell['shadow_bytes']) / 1024:.0f}K" in text


class TestCommittedFig8:
    """Fig 8's shape, read from the committed ``BENCH_fig8.json`` (train,
    best of 5): one fresh millisecond-scale repetition is too noisy to
    carry it."""

    def test_valgrind_slowest_and_arbalest_not_below_native(self):
        payload = json.loads((ROOT / "BENCH_fig8.json").read_text())
        assert payload["checksums_consistent"]
        for w, row in payload["workloads"].items():
            slow = {c: cell["slowdown"] for c, cell in row.items()}
            assert slow["native"] == pytest.approx(1.0)
            assert slow["valgrind"] == max(slow.values()), (w, slow)
            assert slow["arbalest"] >= 1.0, (w, slow)


class TestMeasureOne:
    def test_repetitions_take_fastest(self):
        m1 = measure_one(workload("pomriq"), "native", "test", repetitions=1)
        m3 = measure_one(workload("pomriq"), "native", "test", repetitions=3)
        assert m3.seconds > 0
        assert m1.checksum == m3.checksum


class TestBenchPayload:
    def test_payload_structure(self, overhead):
        payload = bench_payload(overhead, repetitions=1)
        assert payload["preset"] == "test"
        assert payload["configs"] == list(CONFIGS)
        assert payload["checksums_consistent"] is True
        assert set(payload["workloads"]) == {w.name for w in WORKLOADS}
        for row in payload["workloads"].values():
            for c in CONFIGS:
                cell = row[c]
                assert cell["seconds"] > 0
                assert cell["slowdown"] > 0
                assert cell["app_bytes"] > 0
        assert payload["summary"]["arbalest_slowdown_geomean"] > 0
        assert payload["summary"]["arbalest_slowdown_max"] >= (
            payload["summary"]["arbalest_slowdown_geomean"]
        )

    def test_payload_is_json_serializable(self, overhead):
        payload = bench_payload(overhead, repetitions=1)
        round_tripped = json.loads(json.dumps(payload))
        assert round_tripped == payload

    def test_native_slowdown_is_one(self, overhead):
        payload = bench_payload(overhead, repetitions=1)
        for row in payload["workloads"].values():
            assert row["native"]["slowdown"] == 1.0


class TestRunBench:
    def test_writes_tracked_json(self, tmp_path):
        out = tmp_path / "BENCH_fig8.json"
        payload = run_bench(preset="test", repetitions=1, output=str(out))
        assert out.exists()
        on_disk = json.loads(out.read_text())
        assert on_disk == payload
        assert on_disk["preset"] == "test"
