"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import DESIGN_SUMMARIES, build_parser, main
from repro.core import DESIGNS


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_oltp_defaults(self):
        args = build_parser().parse_args(["oltp"])
        assert args.benchmark == "tpcc"
        assert args.scale == 1_000

    def test_tpch_sf_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["tpch", "--sf", "300"])


class TestCommands:
    def test_designs_lists_all(self, capsys):
        assert main(["designs"]) == 0
        out = capsys.readouterr().out
        for name in DESIGNS:
            assert name in out

    def test_summaries_cover_registry(self):
        assert set(DESIGN_SUMMARIES) == set(DESIGNS)

    def test_iometer_prints_table(self, capsys):
        assert main(["iometer", "--duration", "1.0"]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out
        assert "hdd_random_read" in out

    def test_oltp_runs_and_reports(self, capsys):
        code = main(["oltp", "--benchmark", "tpcc", "--scale", "100",
                     "--profile", "tiny", "--duration", "4",
                     "--designs", "noSSD,DW"])
        assert code == 0
        out = capsys.readouterr().out
        assert "tpmC" in out
        assert "DW" in out

    def test_oltp_rejects_unknown_design(self, capsys):
        assert main(["oltp", "--designs", "WARP"]) == 2

    @pytest.mark.parametrize("command", ["oltp", "traffic", "tpch",
                                         "sweep", "chaos"])
    def test_unknown_design_exits_2_before_any_workload(
            self, command, capsys, monkeypatch):
        def no_workload(*args, **kwargs):
            raise AssertionError("a workload was built")

        for target in ("repro.harness.run.make_workload",
                       "repro.harness.experiments.make_workload",
                       "repro.harness.crashpoints.crash_point_sweep"):
            monkeypatch.setattr(target, no_workload)
        assert main([command, "--designs", "LC,FOO"]) == 2
        assert "unknown designs: ['FOO']" in capsys.readouterr().err

    def test_tpch_runs(self, capsys):
        code = main(["tpch", "--sf", "30", "--profile", "tiny",
                     "--designs", "noSSD"])
        assert code == 0
        assert "QphH" in capsys.readouterr().out


class TestTelemetryFlags:
    def test_trace_writes_chrome_file(self, capsys, tmp_path):
        trace = tmp_path / "out.json"
        code = main(["oltp", "--benchmark", "tpcc", "--scale", "100",
                     "--profile", "tiny", "--duration", "4",
                     "--designs", "LC", "--trace", str(trace)])
        assert code == 0
        doc = json.loads(trace.read_text())
        assert doc["traceEvents"]
        cats = {event.get("cat") for event in doc["traceEvents"]}
        assert "io" in cats
        assert "wrote" in capsys.readouterr().err

    def test_trace_multiple_designs_one_file_each(self, capsys, tmp_path):
        trace = tmp_path / "out.json"
        code = main(["oltp", "--benchmark", "tpcc", "--scale", "100",
                     "--profile", "tiny", "--duration", "3",
                     "--designs", "noSSD,LC", "--trace", str(trace)])
        assert code == 0
        for design in ("noSSD", "LC"):
            per_design = tmp_path / f"out-{design}.json"
            assert json.loads(per_design.read_text())["traceEvents"]

    def test_metrics_prints_registry(self, capsys):
        code = main(["oltp", "--benchmark", "tpcc", "--scale", "100",
                     "--profile", "tiny", "--duration", "3",
                     "--designs", "LC", "--metrics"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Metrics — LC" in out
        assert "bp_requests_total" in out
        assert "txn_latency_seconds" in out

    def test_trace_bad_directory_fails_fast(self, capsys):
        code = main(["oltp", "--designs", "LC",
                     "--trace", "/no/such/dir/out.json"])
        assert code == 2
        assert "does not exist" in capsys.readouterr().err

    def test_no_flags_no_telemetry_output(self, capsys):
        code = main(["oltp", "--benchmark", "tpcc", "--scale", "100",
                     "--profile", "tiny", "--duration", "3",
                     "--designs", "LC"])
        assert code == 0
        captured = capsys.readouterr()
        assert "Metrics" not in captured.out
        assert "trace events" not in captured.err

    def test_trace_jsonl_extension_selects_jsonl(self, capsys, tmp_path):
        trace = tmp_path / "out.jsonl"
        code = main(["oltp", "--benchmark", "tpcc", "--scale", "100",
                     "--profile", "tiny", "--duration", "3",
                     "--designs", "LC", "--trace", str(trace)])
        assert code == 0
        first = trace.read_text().splitlines()[0]
        event = json.loads(first)
        assert "track" in event  # JSONL line shape, not Chrome JSON


@pytest.fixture(scope="module")
def traced_pair(tmp_path_factory):
    """Two per-design JSONL traces from one short CW-vs-LC run."""
    trace = tmp_path_factory.mktemp("traces") / "run.jsonl"
    code = main(["oltp", "--benchmark", "tpcc", "--scale", "100",
                 "--profile", "tiny", "--duration", "4", "--workers", "4",
                 "--designs", "CW,LC", "--trace", str(trace)])
    assert code == 0
    return [str(trace.parent / f"run-{d}.jsonl") for d in ("CW", "LC")]


class TestAnalyzeCommand:
    def test_prints_attribution_table(self, traced_pair, capsys):
        assert main(["analyze"] + traced_pair) == 0
        out = capsys.readouterr().out
        assert "Tail-latency attribution" in out
        for token in ("CW", "LC", "p50", "p95", "p99", "coverage"):
            assert token in out

    def test_writes_html_report(self, traced_pair, capsys, tmp_path):
        report = tmp_path / "report.html"
        assert main(["analyze", *traced_pair, "--html", str(report)]) == 0
        text = report.read_text()
        assert text.startswith("<!doctype html>")
        assert text.count("<svg") >= 3

    def test_writes_valid_bench_snapshot(self, traced_pair, capsys,
                                         tmp_path):
        from repro.telemetry.analysis import validate_bench
        bench = tmp_path / "BENCH_oltp.json"
        assert main(["analyze", *traced_pair, "--bench", str(bench),
                     "--workload", "oltp"]) == 0
        doc = json.loads(bench.read_text())
        assert validate_bench(doc) == []
        assert set(doc["designs"]) == {"CW", "LC"}

    def test_txn_type_filter(self, traced_pair, capsys):
        assert main(["analyze", traced_pair[0],
                     "--txn-type", "new_order"]) == 0
        assert "new_order" in capsys.readouterr().out

    def test_missing_trace_fails_fast(self, capsys):
        assert main(["analyze", "/no/such/trace.jsonl"]) == 2
        assert "no such trace" in capsys.readouterr().err

    def test_bad_tail_rejected(self, traced_pair, capsys):
        assert main(["analyze", traced_pair[0], "--tail", "p99"]) == 2
        assert "--tail" in capsys.readouterr().err

    def test_garbage_trace_rejected(self, capsys, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("not a trace\n")
        assert main(["analyze", str(bad)]) == 2
        assert "analyze:" in capsys.readouterr().err


class TestSweepCommand:
    def test_sweep_runs_grid_and_writes_output(self, capsys, tmp_path):
        out = tmp_path / "sweep.json"
        code = main(["sweep", "--benchmark", "tpcc", "--scales", "10,20",
                     "--designs", "noSSD,LC", "--profile", "tiny",
                     "--duration", "2", "--workers-per-run", "2",
                     "--cache-dir", str(tmp_path / "cache"),
                     "--output", str(out)])
        assert code == 0
        captured = capsys.readouterr()
        assert "4 runs" in captured.out
        assert "0 cached, 4 computed" in captured.out
        import json as _json
        doc = _json.loads(out.read_text())
        assert len(doc["runs"]) == 4
        assert all(row["value"] > 0 for row in doc["runs"])
        # Second invocation: all four cells come from the cache.
        code = main(["sweep", "--benchmark", "tpcc", "--scales", "10,20",
                     "--designs", "noSSD,LC", "--profile", "tiny",
                     "--duration", "2", "--workers-per-run", "2",
                     "--cache-dir", str(tmp_path / "cache")])
        assert code == 0
        assert "4 cached, 0 computed" in capsys.readouterr().out

    def test_sweep_rejects_unknown_design(self, capsys):
        assert main(["sweep", "--designs", "WARP"]) == 2

    def test_sweep_rejects_bad_scales(self, capsys):
        assert main(["sweep", "--scales", "ten"]) == 2

    def test_sweep_no_cache_always_computes(self, capsys, tmp_path):
        args = ["sweep", "--benchmark", "tpcc", "--scales", "10",
                "--designs", "noSSD", "--profile", "tiny",
                "--duration", "2", "--workers-per-run", "2", "--no-cache",
                "--cache-dir", str(tmp_path / "cache")]
        assert main(args) == 0
        assert main(args) == 0
        assert "0 cached, 1 computed" in capsys.readouterr().out
        assert not (tmp_path / "cache").exists()
