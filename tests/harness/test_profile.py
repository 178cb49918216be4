"""Profile harness: payload structure, artifacts, inventory."""

import json

import pytest

from repro.harness import PROFILE_SUITES, inventory, run_profile


class TestRunProfile:
    def test_dracc_payload(self, tmp_path):
        out = tmp_path / "trace.json"
        payload = run_profile(suite="dracc", benchmark=22, output=str(out))
        assert payload["suite"] == "dracc"
        assert payload["target"] == "DRACC_OMP_022"
        assert payload["span_count"] > 0
        # The acceptance bar: spans from at least the three core layers.
        assert {"runtime", "bus", "detector"} <= set(payload["span_layers"])
        assert payload["findings"] >= 1  # DRACC 22 is a buggy benchmark

    def test_trace_file_round_trips_json(self, tmp_path):
        out = tmp_path / "trace.json"
        run_profile(suite="dracc", benchmark=1, output=str(out))
        trace = json.load(out.open())
        assert isinstance(trace["traceEvents"], list)
        assert trace["traceEvents"]
        cats = {e["cat"] for e in trace["traceEvents"] if e["ph"] == "X"}
        assert {"runtime", "bus", "detector"} <= cats

    def test_metrics_file_written(self, tmp_path):
        out = tmp_path / "trace.json"
        metrics = tmp_path / "metrics.json"
        payload = run_profile(
            suite="dracc", benchmark=1, output=str(out),
            metrics_output=str(metrics),
        )
        on_disk = json.load(metrics.open())
        assert on_disk == json.loads(json.dumps(payload["snapshot"]))
        assert on_disk["counters"]

    def test_specaccel_target(self, tmp_path):
        out = tmp_path / "trace.json"
        payload = run_profile(
            suite="specaccel", workload="postencil", preset="test",
            output=str(out),
        )
        assert payload["target"] == "503.postencil"

    def test_unknown_suite_raises(self, tmp_path):
        with pytest.raises(ValueError, match="unknown suite 'bogus'"):
            run_profile(suite="bogus", output=str(tmp_path / "t.json"))

    def test_suite_constants(self):
        assert PROFILE_SUITES == ("dracc", "specaccel")


class TestInventory:
    def test_structure(self):
        inv = inventory()
        assert len(inv["dracc"]) == 56
        assert len(inv["specaccel"]) == 5
        first = inv["dracc"][0]
        assert set(first) == {
            "number", "name", "buggy", "effect", "description", "tags"
        }
        for w in inv["specaccel"]:
            assert w["presets"] == ["test", "train", "ref"]

    def test_json_serializable(self):
        inv = inventory()
        assert json.loads(json.dumps(inv)) == inv
