"""The command-line interface."""

from pathlib import Path

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_known_commands(self):
        parser = build_parser()
        for cmd in (
            "table3",
            "bench",
            "casestudy",
            "ompsan",
            "lint",
            "synth",
            "hybrid",
            "list",
        ):
            args = parser.parse_args([cmd])
            assert callable(args.fn)

    def test_bench_defaults(self):
        args = build_parser().parse_args(["bench"])
        assert args.preset == "train"
        assert args.reps == 3
        assert args.output == "BENCH_fig8.json"

    def test_dracc_takes_number(self):
        args = build_parser().parse_args(["dracc", "22"])
        assert args.number == 22

    def test_preset_validation(self):
        with pytest.raises(SystemExit) as exc_info:
            build_parser().parse_args(["bench", "--preset", "huge"])
        assert exc_info.value.code == 2

    @pytest.mark.parametrize("command", ["fig8", "fig9"])
    def test_figure_commands_are_gone(self, command):
        # `repro bench` prints Fig 8 and Fig 9 from one run.
        with pytest.raises(SystemExit) as exc_info:
            build_parser().parse_args([command])
        assert exc_info.value.code == 2

    def test_chaos_defaults(self):
        args = build_parser().parse_args(["chaos"])
        assert args.seed == 0
        assert args.schedules == 3
        assert args.faults == 6
        assert args.suite == "all"
        assert args.target == "runtime"
        # Resolved per-target at run time (BENCH_chaos.json vs
        # BENCH_serve_chaos.json), so the parser default is None.
        assert args.output is None
        assert not args.strict

    def test_profile_defaults(self):
        args = build_parser().parse_args(["profile"])
        assert args.suite == "dracc"
        assert args.benchmark == 22
        assert args.workload == "postencil"
        assert args.output == "trace.json"
        assert args.metrics is None

    def test_telemetry_flags(self):
        assert build_parser().parse_args(["bench", "--telemetry"]).telemetry
        assert not build_parser().parse_args(["bench"]).telemetry
        assert build_parser().parse_args(["chaos", "--telemetry"]).telemetry

    def test_list_json_flag(self):
        assert build_parser().parse_args(["list", "--json"]).json
        assert not build_parser().parse_args(["list"]).json

    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.suite == "buggy"
        assert args.tools == "arbalest"
        assert args.shards == 4
        assert args.queue_cap == 256
        assert not args.bench
        assert not args.socket
        assert not args.stdio
        assert args.port == 0
        assert args.max_connections is None
        assert args.output is None
        assert args.report is None

    def test_serve_engine_validation(self):
        # One dispatch path: no subcommand takes an engine any more.
        for command in ("bench", "chaos", "serve", "report"):
            with pytest.raises(SystemExit) as exc_info:
                build_parser().parse_args([command, "--engine", "columnar"])
            assert exc_info.value.code == 2

    def test_chaos_target_and_engine(self):
        args = build_parser().parse_args(
            ["chaos", "--target", "serve", "--shards", "2"]
        )
        assert args.target == "serve"
        assert args.shards == 2
        with pytest.raises(SystemExit) as exc_info:
            build_parser().parse_args(["chaos", "--target", "serve", "--engine", "scalar"])
        assert exc_info.value.code == 2
        with pytest.raises(SystemExit) as exc_info:
            build_parser().parse_args(["chaos", "--target", "kernel"])
        assert exc_info.value.code == 2


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "DRACC_OMP_056" in out
        assert "postencil" in out

    def test_list_json(self, capsys):
        import json

        assert main(["list", "--json"]) == 0
        inv = json.loads(capsys.readouterr().out)
        assert len(inv["dracc"]) == 56
        assert {w["name"] for w in inv["specaccel"]} == {
            "postencil", "polbm", "pomriq", "pep", "pcg"
        }

    def test_dracc_buggy(self, capsys):
        assert main(["dracc", "22"]) == 0
        out = capsys.readouterr().out
        assert "DETECTED" in out
        assert "uninitialized" in out

    def test_dracc_reports_internals(self, capsys):
        assert main(["dracc", "22"]) == 0
        out = capsys.readouterr().out
        assert "arbalest internals: mapping lookups" in out
        assert "degradation:" in out

    def test_dracc_clean(self, capsys):
        assert main(["dracc", "1"]) == 0
        out = capsys.readouterr().out
        assert "none (clean)" in out
        assert "DETECTED" not in out

    def test_ompsan(self, capsys):
        assert main(["ompsan"]) == 0
        out = capsys.readouterr().out
        assert "16/16" in out
        assert "MISSED" in out

    def test_lint_exits_nonzero_on_findings(self, capsys):
        # The suite contains the 16 buggy twins, so findings always exist.
        assert main(["lint"]) == 1
        out = capsys.readouterr().out
        assert "DRACC_OMP_022" in out
        assert "fix:" in out
        assert "variable(s) certified" in out

    def test_lint_json_is_the_golden_format(self, capsys):
        import json

        assert main(["lint", "--json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["summary"]["findings"] > 0
        assert "503.postencil (buggy)" in payload["programs"]

    def test_hybrid(self, capsys):
        assert main(["hybrid"]) == 0
        out = capsys.readouterr().out
        assert "503.postencil" in out
        assert "matches the expected hybrid matrix: yes" in out

    def test_casestudy_small(self, capsys):
        assert main(["casestudy", "--preset", "test"]) == 0
        out = capsys.readouterr().out
        assert "stale access" in out

    def test_table3(self, capsys):
        assert main(["table3"]) == 0
        out = capsys.readouterr().out
        assert "matches the published Table III: yes" in out

    def test_dracc_unknown_number_exits_2_with_one_line(self, capsys):
        assert main(["dracc", "99"]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "unknown benchmark 99" in err
        assert "1..56" in err

    def test_chaos_unknown_suite_exits_2_with_one_line(self, capsys):
        assert main(["chaos", "--suite", "bogus"]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "unknown suite 'bogus'" in err
        assert "all, buggy, clean" in err

    def test_serve_unknown_suite_exits_2_with_one_line(self, capsys):
        assert main(["serve", "--suite", "bogus"]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "unknown suite 'bogus'" in err
        assert "buggy, clean, all" in err

    def test_serve_unknown_tool_exits_2_with_one_line(self, capsys):
        assert main(["serve", "--tools", "arbalest,ghidra"]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "unknown tool(s) ghidra" in err

    @pytest.mark.parametrize("burning", [[], ["redelivery-rate"]])
    def test_serve_bench_exits_1_while_an_slo_burns(
        self, capsys, tmp_path, monkeypatch, burning
    ):
        import json

        import repro.harness

        # The committed artifact, as if its watchdog ended the run burning.
        root = Path(__file__).resolve().parents[1]
        payload = json.loads((root / "BENCH_serve.json").read_text())
        payload["observability"]["watchdog"]["burning"] = burning
        monkeypatch.setattr(repro.harness, "run_serve_bench", lambda **kw: payload)
        output = str(tmp_path / "b.json")
        code = main(["serve", "--bench", "--no-history", "--output", output])
        out = capsys.readouterr().out
        assert payload["delivery_ok"]
        if burning:
            assert code == 1
            assert "SLOs still burning at the end: redelivery-rate" in out
        else:
            assert code == 0
            assert "still burning" not in out

    def test_chaos_campaign(self, capsys, tmp_path):
        import json

        out_file = tmp_path / "chaos.json"
        assert main(
            ["chaos", "--schedules", "1", "--suite", "buggy",
             "--output", str(out_file)]
        ) == 0
        out = capsys.readouterr().out
        assert "crashes: 0" in out
        payload = json.loads(out_file.read_text())
        assert payload["ok"]
        assert payload["crashes"] == []

    def test_chaos_strict_fails_on_warnings(self, capsys, tmp_path):
        # Seed 0 / schedule 0 on the buggy suite is known to produce
        # bounded-divergence warnings; --strict turns them into exit 1.
        out_file = tmp_path / "chaos.json"
        code = main(
            ["chaos", "--schedules", "1", "--suite", "buggy", "--strict",
             "--output", str(out_file)]
        )
        captured = capsys.readouterr()
        if "warning:" in captured.out:
            assert code == 1
            assert "--strict" in captured.err
        else:  # pragma: no cover - depends on the seeded schedule
            assert code == 0

    def test_bench(self, capsys, tmp_path):
        import json

        out_file = tmp_path / "bench.json"
        assert main(
            ["bench", "--preset", "test", "--reps", "1", "--output", str(out_file)]
        ) == 0
        out = capsys.readouterr().out
        assert "Fig 8: time overhead" in out
        assert "Fig 9: memory usage" in out
        assert "arbalest slowdown" in out
        assert "checksums consistent across configs: yes" in out
        payload = json.loads(out_file.read_text())
        assert payload["preset"] == "test"
        assert "pcg" in payload["workloads"]
        assert "telemetry" not in payload

    def test_bench_telemetry(self, capsys, tmp_path):
        import json

        out_file = tmp_path / "bench.json"
        assert main(
            ["bench", "--preset", "test", "--reps", "1", "--telemetry",
             "--output", str(out_file)]
        ) == 0
        out = capsys.readouterr().out
        assert "telemetry:" in out and "counters embedded" in out
        payload = json.loads(out_file.read_text())
        snap = payload["telemetry"]
        assert snap["clock"] == "ordinal"
        assert snap["spans"]["finished"] == 0  # metrics-only mode
        assert any(k.startswith("vsm.") for k in snap["counters"])

    def test_profile(self, capsys, tmp_path):
        import json

        out_file = tmp_path / "trace.json"
        assert main(
            ["profile", "--benchmark", "22", "--output", str(out_file)]
        ) == 0
        out = capsys.readouterr().out
        assert "profiled DRACC_OMP_022 under arbalest" in out
        assert "spans across layers: bus, detector, runtime" in out
        assert "wrote" in out
        trace = json.loads(out_file.read_text())
        cats = {e["cat"] for e in trace["traceEvents"] if e["ph"] == "X"}
        assert {"runtime", "bus", "detector"} <= cats

    def test_profile_unknown_benchmark_exits_2_with_one_line(self, capsys):
        assert main(["profile", "--benchmark", "99"]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "unknown benchmark 99" in err
        assert "1..56" in err

    def test_profile_unknown_workload_exits_2_with_one_line(self, capsys):
        assert main(
            ["profile", "--suite", "specaccel", "--workload", "nope"]
        ) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "unknown workload" in err

    def test_chaos_telemetry(self, capsys, tmp_path):
        import json

        out_file = tmp_path / "chaos.json"
        assert main(
            ["chaos", "--schedules", "1", "--suite", "buggy", "--telemetry",
             "--output", str(out_file)]
        ) == 0
        payload = json.loads(out_file.read_text())
        snap = payload["telemetry"]
        assert snap["spans"]["finished"] == 0
        assert any(k.startswith("runtime.") for k in snap["counters"])


class TestReportCommand:
    def test_report_defaults(self):
        args = build_parser().parse_args(["report"])
        assert args.suite == "buggy"
        assert args.tools == "arbalest"
        assert args.capacity == 64
        assert args.output == "report.jsonl"
        assert args.html is None

    def test_report_unknown_suite_exits_2_with_one_line(self, capsys):
        assert main(["report", "--suite", "bogus"]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "unknown suite 'bogus'" in err
        assert "buggy, clean, all" in err

    def test_report_unknown_tool_exits_2_with_one_line(self, capsys):
        assert main(["report", "--tools", "arbalest,gdb"]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "unknown tool(s) gdb" in err

    def test_report_bad_capacity_exits_2_with_one_line(self, capsys):
        assert main(["report", "--capacity", "0"]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "capacity must be positive" in err

    def test_report_writes_jsonl_and_html(self, capsys, tmp_path):
        import json

        out_file = tmp_path / "report.jsonl"
        html_file = tmp_path / "report.html"
        assert main(
            ["report", "--suite", "buggy", "--output", str(out_file),
             "--html", str(html_file)]
        ) == 0
        out = capsys.readouterr().out
        assert "why:" in out
        assert "wrote" in out
        header = json.loads(out_file.read_text().splitlines()[0])
        assert header["schema"] == "repro-report/1"
        assert html_file.read_text().startswith("<!DOCTYPE html>")

    def test_dracc_report_flag(self, capsys, tmp_path):
        import json

        out_file = tmp_path / "dracc22.jsonl"
        assert main(["dracc", "22", "--report", str(out_file)]) == 0
        records = [
            json.loads(line) for line in out_file.read_text().splitlines()
        ]
        findings = [r for r in records if r["record"] == "finding"]
        assert findings and all(f["benchmark"] == 22 for f in findings)
        # All five tools ran; arbalest and msan both see the UUM bug.
        assert {"arbalest", "msan"} <= {f["tool"] for f in findings}

    def test_chaos_report_flag(self, capsys, tmp_path):
        out_file = tmp_path / "chaos.json"
        report_file = tmp_path / "report.jsonl"
        assert main(
            ["chaos", "--schedules", "1", "--suite", "buggy",
             "--output", str(out_file), "--report", str(report_file)]
        ) == 0
        assert "repro-report/1" in report_file.read_text()


class TestSynthCommand:
    def test_synth_defaults(self):
        args = build_parser().parse_args(["synth"])
        assert not args.json
        assert not args.score
        assert args.apply is None

    def test_synth_text_exits_0_on_clean_suite(self, capsys):
        assert main(["synth"]) == 0
        out = capsys.readouterr().out
        assert "504.polbm" in out
        assert "DRACC_OMP_055" in out

    def test_synth_json_is_the_golden_format(self, capsys):
        import json

        assert main(["synth", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["summary"]["programs"] == 46
        assert "AFFINE_TILED" in payload["programs"]
        prog = payload["programs"]["504.polbm"]
        total = lambda b: b["h2d"] + b["d2h"]
        assert total(prog["synth_bytes"]) <= total(prog["baseline_bytes"])

    def test_synth_apply_renders_pseudo_source(self, capsys):
        assert main(["synth", "--apply", "504.polbm"]) == 0
        out = capsys.readouterr().out
        assert "#pragma omp target" in out
        assert "enter data" in out

    def test_synth_apply_unknown_exits_2_and_lists_choices(self, capsys):
        assert main(["synth", "--apply", "bogus"]) == 2
        err = capsys.readouterr().err
        assert "unknown program 'bogus'" in err.splitlines()[0]
        assert "504.polbm" in err  # the valid choices are listed

    def test_synth_score_runs_the_validation_matrix(self, capsys):
        import json

        assert main(["synth", "--score", "--json", "--no-history"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["artifact"] == "synth-bench/1"
        assert payload["summary"]["ok"]
        assert payload["summary"]["strict_savings"] >= 1


class TestDiffCommand:
    def _write_report(self, tmp_path, name, *, skip=()):
        from repro.dracc.registry import buggy_benchmarks
        from repro.forensics.report import write_report
        from repro.harness import run_report

        benches = tuple(
            b for b in buggy_benchmarks() if b.number not in skip
        )[:3]
        path = str(tmp_path / name)
        write_report(run_report(benchmarks=benches), path)
        return path

    def test_identical_reports_exit_0(self, capsys, tmp_path):
        old = self._write_report(tmp_path, "old.jsonl")
        new = self._write_report(tmp_path, "new.jsonl")
        assert main(["diff", old, new]) == 0
        assert "clean" in capsys.readouterr().out

    def test_seeded_regression_exits_1(self, capsys, tmp_path):
        # The "old" run predates the bug the first buggy benchmark seeds
        # (as if its map clause were still present); the "new" run has it.
        old = self._write_report(tmp_path, "old.jsonl", skip=(22,))
        new = self._write_report(tmp_path, "new.jsonl")
        assert main(["diff", old, new]) == 1
        out = capsys.readouterr().out
        assert "NEW" in out and "regression" in out

    def test_missing_artifact_exits_2_with_one_line(self, capsys, tmp_path):
        old = self._write_report(tmp_path, "old.jsonl")
        assert main(["diff", old, str(tmp_path / "missing.jsonl")]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "repro diff: error" in err

    @pytest.mark.parametrize(
        "artifact, kind",
        [("BENCH_fig8.json", "bench"), ("BENCH_serve.json", "serve-bench")],
    )
    def test_timed_artifacts_exit_2_naming_the_sentinel(
        self, capsys, artifact, kind
    ):
        path = str(Path(__file__).resolve().parents[1] / artifact)
        assert main(["diff", path, path]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert f"repro sentinel --kind {kind}" in err


class TestSentinelCommand:
    @staticmethod
    def _ledger(tmp_path, *, step_at=None, n=20):
        import random

        from repro.observe.history import append_history

        rng = random.Random(11)
        path = str(tmp_path / "ledger.jsonl")
        for i in range(n):
            bump = 1.2 if step_at is not None and i >= step_at else 1.0
            slowdown = 2.0 * rng.uniform(0.98, 1.02) * bump
            append_history(
                path,
                {
                    "preset": "test",
                    "workloads": {
                        "pcg": {"arbalest": {"slowdown": slowdown}}
                    },
                    "summary": {"arbalest_slowdown_geomean": slowdown},
                },
            )
        return path

    def test_flat_history_passes(self, capsys, tmp_path):
        ledger = self._ledger(tmp_path)
        assert main(["sentinel", "--history", ledger]) == 0
        assert "VERDICT: OK" in capsys.readouterr().out

    def test_step_regression_fails_with_a_named_verdict(self, capsys, tmp_path):
        ledger = self._ledger(tmp_path, step_at=15)
        assert main(["sentinel", "--history", ledger]) == 1
        out = capsys.readouterr().out
        assert "VERDICT: REGRESSION" in out
        assert "pcg/arbalest/slowdown" in out

    def test_json_mode_is_pure(self, capsys, tmp_path):
        import json

        ledger = self._ledger(tmp_path, step_at=15)
        assert main(["sentinel", "--history", ledger, "--json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == "sentinel/1"
        assert not payload["ok"]

    def test_unknown_kind_exits_2(self, capsys, tmp_path):
        ledger = self._ledger(tmp_path)
        assert main(["sentinel", "--history", ledger, "--kind", "nope"]) == 2
        assert "repro sentinel: error" in capsys.readouterr().err

    def test_missing_ledger_exits_2(self, capsys, tmp_path):
        missing = str(tmp_path / "missing.jsonl")
        assert main(["sentinel", "--history", missing]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1

    def test_seed_from_migrates_artifacts_first(self, capsys, tmp_path):
        import json

        artifact = tmp_path / "BENCH_fig8.json"
        artifact.write_text(
            json.dumps(
                {
                    "engine": "scalar",
                    "workloads": {"pcg": {"arbalest": {"slowdown": 2.0}}},
                    "summary": {"arbalest_slowdown_geomean": 2.0},
                }
            )
        )
        ledger = str(tmp_path / "ledger.jsonl")
        assert main(
            ["sentinel", "--history", ledger, "--seed-from", str(artifact)]
        ) == 0
        from repro.observe.history import load_history

        (entry,) = load_history(ledger)
        assert entry["meta"]["seeded"] is True
