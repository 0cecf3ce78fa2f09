"""RunStore recording/query round-trips and the regression check."""

from dataclasses import dataclass
from typing import Optional

import pytest

from repro.harness.run import RunRecord, RunSpec
from repro.runstore.provenance import Provenance
from repro.runstore.store import RunStore
from repro.workloads.tpch import TpchResult

PROV = Provenance(git_commit="deadbeef00", git_branch="main",
                  git_dirty=False, source_hash="cafe", host="test",
                  python="3.x")


@pytest.fixture
def store(tmp_path):
    with RunStore(tmp_path / "runs.db") as s:
        yield s


def record(store, design="LC", value=100.0, p99=0.01, waf=None,
           commit="deadbeef00", status="ok", scale=100, created_at=None):
    metrics = {"value": value, "latency_p99": p99}
    if waf is not None:
        metrics["waf"] = waf
    prov = Provenance(git_commit=commit, git_branch="main",
                      git_dirty=False, source_hash="cafe")
    return store.record_run(
        {"kind": "oltp", "benchmark": "tpcc", "scale": scale,
         "design": design, "profile": "small", "seed": 7,
         "duration": 30.0},
        metrics, provenance=prov, status=status, metric_name="tpmC",
        created_at=created_at)


class TestRecordAndQuery:
    def test_round_trip(self, store):
        run_id = record(store, value=123.0, waf=1.5)
        run, metrics = store.get_run(run_id)
        assert run["design"] == "LC"
        assert run["git_commit"] == "deadbeef00"
        assert run["metric_name"] == "tpmC"
        assert run["duration"] == 30.0
        assert metrics["value"] == 123.0
        assert metrics["waf"] == 1.5

    def test_list_newest_first_with_filters(self, store):
        record(store, design="LC")
        record(store, design="DW")
        record(store, design="LC")
        runs = store.list_runs(design="LC")
        assert [run["design"] for run in runs] == ["LC", "LC"]
        assert runs[0]["id"] > runs[1]["id"]
        assert store.list_runs(design="noSSD") == []

    def test_commit_filter_accepts_abbreviations(self, store):
        record(store, commit="deadbeef00")
        record(store, commit="0123456789")
        assert len(store.list_runs(commit="dead")) == 1

    def test_none_metrics_are_skipped(self, store):
        run_id = store.record_run(
            {"benchmark": "tpcc", "scale": 1, "design": "LC"},
            {"value": 1.0, "waf": None}, provenance=PROV)
        assert store.metrics_for(run_id) == {"value": 1.0}

    def test_latest_per_design(self, store):
        record(store, design="LC", value=100.0)
        record(store, design="LS", value=150.0)
        record(store, design="LC", value=110.0)
        latest = store.latest_per_design(benchmark="tpcc")
        got = {run["design"]: metrics["value"] for run, metrics in latest}
        assert got == {"LC": 110.0, "LS": 150.0}

    def test_trajectory_is_oldest_first_per_design(self, store):
        for value in (100.0, 110.0, 120.0):
            record(store, design="LC", value=value)
        record(store, design="LS", value=150.0)
        series = store.trajectory("value", design="LC")
        assert list(series) == ["LC"]
        assert [point["value"] for point in series["LC"]] == \
            [100.0, 110.0, 120.0]

    def test_commits_in_first_seen_order(self, store):
        record(store, commit="aaaa")
        record(store, commit="bbbb")
        record(store, commit="aaaa")
        assert store.commits() == ["aaaa", "bbbb"]


@dataclass
class FakeOutcome:
    design: str
    policy: str
    crash_at: float
    ok: bool
    pages_redone: int = 0
    committed_pages: int = 0
    error: Optional[str] = None


class TestChaosAndBench:
    def test_chaos_round_trip(self, store):
        outcomes = [
            FakeOutcome("LC", "sharp", 1.0, True, 10, 50),
            FakeOutcome("LC", "sharp", 2.0, False, 0, 40, "page 3 stale"),
            FakeOutcome("DW", "fuzzy", 1.5, True, 5, 30),
        ]
        run_ids = store.record_chaos(outcomes, seed=7, provenance=PROV)
        assert len(run_ids) == 2  # one per (design, policy) group

        lc = next(run_id for run_id in run_ids
                  if store.get_run(run_id)[0]["design"] == "LC")
        run, metrics = store.get_run(lc)
        assert run["kind"] == "chaos"
        assert run["status"] == "failed"
        assert metrics["failed"] == 1.0
        points = store.chaos_for(lc)
        assert len(points) == 2
        assert points[1]["error"] == "page 3 stale"

    def test_chaos_runs_excluded_from_regress(self, store):
        store.record_chaos([FakeOutcome("LC", "sharp", 1.0, True)],
                           provenance=PROV)
        findings, groups = store.regress()
        assert groups == 0

    def test_bench_round_trip(self, store):
        assert store.latest_bench("oltp") is None
        store.record_bench({"workload": "oltp", "version": 1},
                           provenance=PROV)
        store.record_bench({"workload": "oltp", "version": 2},
                           provenance=PROV)
        assert store.latest_bench("oltp")["version"] == 2
        assert store.latest_bench("sim") is None


class TestRegress:
    def test_fresh_group_trivially_passes(self, store):
        record(store)
        findings, groups = store.regress()
        assert findings == []
        assert groups == 1

    def test_p99_regression_detected(self, store):
        for _ in range(5):
            record(store, p99=0.010)
        record(store, p99=0.050)
        findings, _ = store.regress()
        assert [f.metric for f in findings] == ["latency_p99"]
        assert findings[0].ratio == pytest.approx(5.0)
        assert findings[0].group_label == "tpcc/100/LC"

    def test_waf_regression_detected(self, store):
        for _ in range(3):
            record(store, waf=1.2)
        record(store, waf=2.0)
        findings, _ = store.regress()
        assert "waf" in {f.metric for f in findings}

    def test_throughput_drop_detected(self, store):
        for _ in range(3):
            record(store, value=100.0)
        record(store, value=60.0)
        findings, _ = store.regress()
        assert "value" in {f.metric for f in findings}

    def test_within_tolerance_passes(self, store):
        record(store, value=100.0, p99=0.010)
        record(store, value=90.0, p99=0.011)
        findings, groups = store.regress()
        assert findings == []
        assert groups == 1

    def test_failed_runs_excluded_from_baseline(self, store):
        record(store, value=100.0)
        record(store, value=1.0, status="crashed")
        record(store, value=95.0)
        findings, _ = store.regress()
        assert findings == []

    def test_groups_are_independent(self, store):
        for _ in range(3):
            record(store, design="LC", p99=0.010)
        record(store, design="LC", p99=0.050)
        for _ in range(3):
            record(store, design="LS", p99=0.010)
        record(store, design="LS", p99=0.010)
        findings, groups = store.regress()
        assert groups == 2
        assert {f.design for f in findings} == {"LC"}

    def test_groups_are_whole_specs(self, store):
        """A short faulted run is not a regression of the long clean
        runs of the same design and scale: only runs of one spec are
        compared."""
        clean = RunSpec(kind="oltp", benchmark="tpcc", scale=100,
                        design="LC", profile="small", duration=60.0)
        faulted = RunSpec(kind="oltp", benchmark="tpcc", scale=100,
                          design="LC", profile="small", duration=6.0,
                          faults="ssd_die@t=3,transient:p=0.0005")
        for _ in range(3):
            store.record_run(clean.to_dict(), {"value": 1000.0},
                             provenance=PROV)
        store.record_run(faulted.to_dict(), {"value": 500.0},
                         provenance=PROV)
        findings, groups = store.regress()
        assert findings == []
        assert groups == 2
        latest = store.record_run(clean.to_dict(), {"value": 500.0},
                                  provenance=PROV)
        findings, _ = store.regress()
        assert [(f.run_id, f.metric, f.ratio) for f in findings] == [
            (latest, "value", 0.5)]


class TestMetricsFromResult:
    def test_record_result_uses_extraction(self, store):
        spec = RunSpec(kind="tpch", benchmark="tpch", scale=30,
                       design="LC", profile="tiny")
        record = RunRecord(spec=spec, metric_name="QphH", tpch=TpchResult(
            sf=30, query_times={1: 2.0, 2: 8.0}, rf_times=[1.0],
            power_elapsed=11.0, throughput_elapsed=40.0, streams=2))
        run_id = store.record_result(record, provenance=PROV)
        run, metrics = store.get_run(run_id)
        assert run["metric_name"] == "QphH"
        assert run["kind"] == "tpch" and run["scale"] == 30
        assert metrics == {"value": record.tpch.qphh,
                           "power": record.tpch.power,
                           "throughput": record.tpch.throughput}
