"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import main


class TestList:
    def test_lists_workloads(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in ("jacobi", "pagerank", "hit"):
            assert name in out
        assert "gps" in out


class TestRun:
    def test_run_gps(self, capsys):
        code = main(
            ["run", "jacobi", "--paradigm", "gps", "--scale", "0.1", "--iterations", "2"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "speedup" in out
        assert "interconnect" in out

    def test_run_um_reports_faults(self, capsys):
        main(["run", "jacobi", "--paradigm", "um", "--scale", "0.1", "--iterations", "2"])
        assert "faults" in capsys.readouterr().out

    def test_unknown_workload_rejected(self):
        with pytest.raises(SystemExit):
            main(["run", "zzz"])

    def test_unknown_paradigm_rejected(self):
        with pytest.raises(SystemExit):
            main(["run", "jacobi", "--paradigm", "zzz"])


class TestCompare:
    def test_bar_chart_output(self, capsys):
        code = main(["compare", "jacobi", "--scale", "0.1", "--iterations", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "GPS" in out
        assert "#" in out


class TestFigure:
    def test_table2(self, capsys):
        assert main(["figure", "table2"]) == 0
        out = capsys.readouterr().out
        assert "jacobi" in out
        assert "All-to-all" in out

    def test_fig3(self, capsys):
        assert main(["figure", "fig3"]) == 0
        assert "DGX" in capsys.readouterr().out

    def test_fig9_with_json_export(self, capsys, tmp_path):
        path = tmp_path / "fig9.json"
        code = main(
            [
                "figure",
                "fig9",
                "--scale",
                "0.1",
                "--iterations",
                "2",
                "--json",
                str(path),
            ]
        )
        assert code == 0
        data = json.loads(path.read_text())
        assert data["figure"] == "fig9"

    def test_unknown_figure_rejected(self):
        with pytest.raises(SystemExit):
            main(["figure", "fig99"])

    def test_figure_reports_cache_stats(self, capsys):
        from repro.harness.runner import clear_run_cache

        clear_run_cache()
        assert main(["figure", "fig9", "--scale", "0.1", "--iterations", "2"]) == 0
        assert "cache:" in capsys.readouterr().out


class TestCache:
    @pytest.fixture
    def cache_dir(self, tmp_path, monkeypatch):
        from repro.harness.runner import clear_run_cache

        monkeypatch.setenv("REPRO_NO_CACHE", "")
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        clear_run_cache()
        yield tmp_path
        clear_run_cache()

    def test_show_disabled(self, capsys, monkeypatch):
        from repro.harness.runner import clear_run_cache

        monkeypatch.setenv("REPRO_NO_CACHE", "1")
        clear_run_cache()
        assert main(["cache", "show"]) == 0
        assert "disabled" in capsys.readouterr().out

    def test_show_and_clear(self, capsys, cache_dir):
        from repro.harness.runner import run_simulation

        run_simulation("jacobi", "memcpy", 2, scale=0.1, iterations=2)
        assert main(["cache", "show"]) == 0
        out = capsys.readouterr().out
        assert str(cache_dir) in out
        assert "entries" in out
        assert main(["cache", "clear"]) == 0
        assert "removed 1" in capsys.readouterr().out
        assert list(cache_dir.glob("*.json")) == []

    def test_default_action_is_show(self, capsys, cache_dir):
        assert main(["cache"]) == 0
        assert "persistent cache" in capsys.readouterr().out

    def test_show_reports_fleet_after_run_many(self, capsys):
        from repro.harness.runner import SimJob, clear_run_cache, run_many

        clear_run_cache()
        run_many([SimJob("jacobi", "memcpy", 2, scale=0.1, iterations=2)])
        assert main(["cache", "show"]) == 0
        out = capsys.readouterr().out
        assert "fleet: 1 run_many call(s)" in out
        assert "1 computed" in out
        clear_run_cache()

    def test_show_empty_cache_dir_exits_zero_with_stable_columns(
        self, capsys, cache_dir
    ):
        # Satellite pin: an empty (or never-populated) cache directory is a
        # normal state — exit 0, fixed column order, 0 entries.
        assert main(["cache", "show"]) == 0
        lines = capsys.readouterr().out.splitlines()
        labels = [line.split(":")[0].strip() for line in lines]
        assert labels == ["persistent cache", "model fingerprint", "entries"]
        assert "0 (" in lines[2]
        # Columns align: every label field is padded to the same width.
        assert len({line.index(":") for line in lines}) == 1

    def test_show_missing_cache_dir_exits_zero(self, capsys, tmp_path, monkeypatch):
        from repro.harness.runner import clear_run_cache

        monkeypatch.setenv("REPRO_NO_CACHE", "")
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "never-created"))
        clear_run_cache()
        assert main(["cache", "show"]) == 0
        out = capsys.readouterr().out
        assert "entries" in out
        clear_run_cache()

    def test_show_column_order_stable_when_populated(self, capsys, cache_dir):
        from repro.harness.runner import run_simulation

        run_simulation("jacobi", "memcpy", 2, scale=0.1, iterations=2)
        assert main(["cache", "show"]) == 0
        lines = capsys.readouterr().out.splitlines()
        labels = [line.split(":")[0].strip() for line in lines if ":" in line]
        assert labels[:4] == [
            "persistent cache",
            "model fingerprint",
            "entries",
            "this process",
        ]


class TestServiceVerbs:
    """The serve/submit/status/result verbs (transport errors only; the live
    round-trip is covered by tests/service/)."""

    UNREACHABLE = ["--url", "http://127.0.0.1:9", "--timeout", "0.5"]

    def test_submit_unreachable_exits_2(self, capsys):
        assert main(["submit", "jacobi", *self.UNREACHABLE]) == 2
        assert "error" in capsys.readouterr().err

    def test_status_unreachable_exits_2(self, capsys):
        assert main(["status", "job-0", *self.UNREACHABLE[:2]]) == 2
        assert "error" in capsys.readouterr().err

    def test_result_unreachable_exits_2(self, capsys):
        assert main(["result", "job-0", *self.UNREACHABLE[:2]]) == 2
        assert "error" in capsys.readouterr().err

    def test_submit_rejects_unknown_paradigm_locally(self):
        with pytest.raises(SystemExit):
            main(["submit", "jacobi", "--paradigm", "zzz", *self.UNREACHABLE])

    @pytest.mark.parametrize(
        "name, value",
        [("REPRO_SERVICE_PORT", "abc"), ("REPRO_SERVICE_QUEUE_DEPTH", "soon")],
    )
    def test_serve_malformed_env_number_exits_2(self, capsys, monkeypatch, name, value):
        monkeypatch.setenv(name, value)
        assert main(["serve"]) == 2
        err = capsys.readouterr().err
        assert name in err and repr(value) in err
        assert "Traceback" not in err


class TestTrace:
    def test_stencil_alias_writes_valid_trace(self, capsys, tmp_path):
        path = tmp_path / "stencil.trace.json"
        code = main(
            ["trace", "stencil", "--gpus", "2", "--scale", "0.1",
             "--iterations", "2", "--out", str(path), "--validate"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "trace validation: OK" in out
        assert "ui.perfetto.dev" in out
        payload = json.loads(path.read_text())
        assert payload["otherData"]["num_gpus"] == 2
        assert any(e["ph"] == "X" for e in payload["traceEvents"])

    def test_metrics_csv_export(self, capsys, tmp_path):
        trace_path = tmp_path / "t.trace.json"
        metrics_path = tmp_path / "m.csv"
        code = main(
            ["trace", "jacobi", "--gpus", "2", "--scale", "0.1",
             "--iterations", "2", "--out", str(trace_path),
             "--metrics", str(metrics_path), "--top", "0"]
        )
        assert code == 0
        assert metrics_path.read_text().startswith("counter,value")
        assert "counters" in capsys.readouterr().out


class TestProfile:
    def test_prints_self_time_rows(self, capsys):
        code = main(
            ["profile", "stencil", "--gpus", "2", "--scale", "0.1",
             "--iterations", "2", "--top", "3"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "self-time profile: jacobi / gps" in out
        assert "[kernel]" in out


class TestBadArguments:
    """A library error from any verb is a one-line usage error, exit 2."""

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["trace", "nosuch"], "trace: unknown workload 'nosuch'"),
            (["profile", "nosuch"], "profile: unknown workload 'nosuch'"),
            (["export-trace", "nosuch", "x.json"], "export-trace: unknown workload 'nosuch'"),
            (["run", "jacobi", "--gpus", "0"], "run: a system needs at least one GPU"),
            (["compare", "jacobi", "--scale", "-1"], "compare: scale must be positive"),
        ],
    )
    def test_library_error_exits_2(self, capsys, monkeypatch, tmp_path, argv, message):
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(message)
        assert err.count("\n") == 1
        assert not (tmp_path / "x.json").exists()

    @pytest.mark.parametrize("verb", ["trace", "profile"])
    def test_negative_top_rejected(self, capsys, verb):
        with pytest.raises(SystemExit) as excinfo:
            main([verb, "jacobi", "--top", "-1"])
        assert excinfo.value.code == 2
        assert "--top: must be >= 0, got -1" in capsys.readouterr().err


class TestExportTrace:
    def test_round_trips_through_run_trace(self, capsys, tmp_path):
        path = tmp_path / "prog.json"
        code = main(
            ["export-trace", "jacobi", str(path), "--gpus", "2",
             "--scale", "0.1", "--iterations", "2"]
        )
        assert code == 0
        assert "phases" in capsys.readouterr().out
        assert main(["run-trace", str(path)]) == 0
        assert "simulated time" in capsys.readouterr().out


class TestLint:
    @pytest.fixture
    def broken_path(self):
        from pathlib import Path

        path = Path(__file__).parent / "analysis" / "fixtures" / "broken_trace.json"
        return str(path)

    @pytest.fixture
    def warning_path(self, tmp_path):
        """A trace whose worst finding is a warning (an unused buffer)."""
        from repro.trace.io import save_program
        from repro.trace.program import BufferSpec, KernelSpec, Phase, TraceProgram
        from repro.trace.records import AccessRange, MemOp

        page = 65536
        program = TraceProgram(
            "warny",
            1,
            (BufferSpec("buf", page), BufferSpec("ghost", page)),
            (
                Phase(
                    "setup",
                    (
                        KernelSpec(
                            "init", 0, 1.0,
                            (AccessRange("buf", 0, page, MemOp.WRITE),),
                        ),
                    ),
                    iteration=-1,
                ),
            ),
        )
        path = tmp_path / "warny.json"
        save_program(program, path)
        return str(path)

    def test_broken_trace_exits_2(self, capsys, broken_path):
        assert main(["lint", broken_path]) == 2
        out = capsys.readouterr().out
        assert "[error] GPS001 weak-write-write-race" in out
        assert "error(s)" in out

    def test_broken_trace_json_format(self, capsys, broken_path):
        assert main(["lint", broken_path, "--format", "json"]) == 2
        payload = json.loads(capsys.readouterr().out)
        assert payload["program"] == "broken-fixture"
        assert payload["max_severity"] == "error"

    def test_broken_trace_sarif_format(self, capsys, broken_path):
        assert main(["lint", broken_path, "--format", "sarif", "--strict"]) == 2
        sarif = json.loads(capsys.readouterr().out)
        assert sarif["version"] == "2.1.0"
        (run,) = sarif["runs"]
        fired = {r["ruleId"] for r in run["results"]}
        declared = {r["id"] for r in run["tool"]["driver"]["rules"]}
        assert fired == declared  # the fixture trips every registered rule

    def test_warning_trace_strict_exits_1(self, capsys, warning_path):
        assert main(["lint", warning_path, "--strict"]) == 1
        assert "GPS101" in capsys.readouterr().out

    def test_warning_trace_lenient_exits_0(self, warning_path):
        assert main(["lint", warning_path]) == 0

    def test_select_limits_rules(self, capsys, broken_path):
        assert main(["lint", broken_path, "--select", "GPS102,GPS104"]) == 0
        out = capsys.readouterr().out
        assert "GPS102" in out
        assert "GPS001" not in out

    def test_ignore_drops_rules(self, capsys, warning_path):
        assert main(["lint", warning_path, "--strict", "--ignore", "GPS1"]) == 0
        assert "clean" in capsys.readouterr().out

    def test_workload_target_is_clean(self, capsys):
        code = main(
            ["lint", "jacobi", "--strict", "--gpus", "4",
             "--scale", "0.1", "--iterations", "2"]
        )
        assert code == 0
        assert "clean" in capsys.readouterr().out

    def test_all_workloads_strict_clean(self, capsys):
        code = main(
            ["lint", "all", "--strict", "--gpus", "4",
             "--scale", "0.1", "--iterations", "2"]
        )
        assert code == 0
        out = capsys.readouterr().out
        for name in ("jacobi", "pagerank", "hit"):
            assert name in out

    def test_all_workloads_json_wraps_programs(self, capsys):
        main(["lint", "all", "--format", "json", "--gpus", "2",
              "--scale", "0.1", "--iterations", "2"])
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["programs"]) == 8

    def test_unknown_target_rejected(self, capsys):
        assert main(["lint", "no-such-workload"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("lint: unknown workload 'no-such-workload'")
        assert err.count("\n") == 1

    def test_unknown_select_code_exits_2(self, capsys):
        code = main(["lint", "jacobi", "--select", "GPS999", "--strict",
                     "--gpus", "2", "--scale", "0.1", "--iterations", "2"])
        assert code == 2
        captured = capsys.readouterr()
        assert "clean" not in captured.out
        assert "'GPS999' matches no rule code" in captured.err


class TestLintDirtyTraces:
    @pytest.fixture
    def dirty_path(self):
        from pathlib import Path

        path = (Path(__file__).parent / "analysis" / "fixtures"
                / "ww-overlap-s0.before.json")
        return str(path)

    def test_portability_appendix_lists_paradigms(self, capsys, dirty_path):
        assert main(["lint", dirty_path, "--portability"]) == 2
        out = capsys.readouterr().out
        for paradigm in ("gps", "um", "memcpy", "gps_nosub"):
            assert paradigm in out
        assert "unsafe" in out

    def test_multiple_path_targets(self, capsys, dirty_path):
        from pathlib import Path

        other = (Path(__file__).parent / "analysis" / "fixtures"
                 / "uninit-read-s1.before.json")
        assert main(["lint", dirty_path, str(other)]) == 2
        out = capsys.readouterr().out
        assert "GPS001" in out
        assert "GPS003" in out


class TestRunTrace:
    def test_missing_file_exits_2(self, capsys, tmp_path):
        missing = tmp_path / "nosuch.json"
        assert main(["run-trace", str(missing)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("run-trace: ")
        assert str(missing) in err
        assert err.count("\n") == 1

    def test_refuses_broken_trace(self, capsys):
        from pathlib import Path

        path = Path(__file__).parent / "analysis" / "fixtures" / "broken_trace.json"
        assert main(["run-trace", str(path)]) == 2
        out = capsys.readouterr().out
        assert "refusing to simulate" in out
        assert "GPS001" in out

    def test_gate_is_per_paradigm(self, capsys, tmp_path):
        from repro.trace.io import save_program
        from repro.verify.fuzzer import generate_program
        from repro.verify.sanitizer import MUTATORS

        # A stale-read hazard (GPS006) blocks gps but not memcpy.
        stale_read = next(m for name, _, m in MUTATORS if name == "stale-read")
        path = tmp_path / "stale.json"
        save_program(stale_read(generate_program(0), 64 * 1024), path)
        assert main(["run-trace", str(path), "--paradigm", "memcpy"]) == 0
        out = capsys.readouterr().out
        assert "GPS006" in out and "simulated time" in out
        assert main(["run-trace", str(path), "--paradigm", "gps"]) == 2
        out = capsys.readouterr().out
        assert "GPS006" in out and "refusing to simulate" in out

    def test_no_analyze_overrides(self, capsys):
        from pathlib import Path

        path = Path(__file__).parent / "analysis" / "fixtures" / "broken_trace.json"
        assert main(["run-trace", str(path), "--no-analyze"]) == 0
        assert "simulated time" in capsys.readouterr().out
