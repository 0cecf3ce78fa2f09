"""The run record and the parallel sweep runner's on-disk cache: keys,
hits, corruption, and cached-vs-live / serial-vs-parallel equivalence."""

import json

import pytest

from repro.harness.run import RunRecord, RunSpec, execute
from repro.harness.sweep import (
    cache_load,
    cache_store,
    run_cached,
    run_sweep,
    spec_key,
    summarize,
)
from repro.runstore.provenance import Provenance
from repro.runstore.store import RunStore

SPEC = RunSpec(kind="oltp", benchmark="tpcc", scale=20, design="LC",
               profile="tiny", duration=4.0, nworkers=4)


@pytest.fixture(scope="module")
def live():
    """One shared live run and its record (the slow part happens once
    per module)."""
    result = execute(SPEC)
    return result, RunRecord.of(SPEC, result)


def as_json(record):
    return json.dumps(record.to_dict())


class TestSpecKeys:
    def test_key_is_stable(self):
        assert spec_key(SPEC) == spec_key(RunSpec.from_dict(SPEC.to_dict()))

    @pytest.mark.parametrize("field,value", [
        ("design", "DW"),
        ("scale", 21),
        ("duration", 4.5),
        ("nworkers", 5),
        ("seed", 1),
        ("dirty_threshold", 0.25),
        ("checkpoint_interval", 2.0),
        ("expand_reads", True),
        ("profile", "small"),
        ("bucket_seconds", 1.0),
        ("benchmark", "tpce"),
        ("partitions", 16),
        ("latch_us", 20.0),
        ("kernel", "wheel"),
        ("queue_limit", 100),
        ("faults", "transient:p=0.001"),
    ])
    def test_any_config_field_change_moves_the_key(self, field, value):
        data = SPEC.to_dict()
        data[field] = value
        assert spec_key(RunSpec.from_dict(data)) != spec_key(SPEC)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            RunSpec(kind="nope", benchmark="tpcc", scale=1, design="LC")

    def test_unknown_profile_rejected(self):
        with pytest.raises(ValueError):
            RunSpec(kind="oltp", benchmark="tpcc", scale=1, design="LC",
                    profile="gigantic")

    def test_tenants_go_with_traffic_runs_only(self):
        with pytest.raises(ValueError):
            RunSpec(kind="traffic", benchmark="tpcc", scale=1, design="LC")
        with pytest.raises(ValueError):
            RunSpec(kind="oltp", benchmark="tpcc", scale=1, design="LC",
                    tenants="a=poisson:rate=1")


class TestRoundTrip:
    def test_hit_returns_bit_identical_metrics(self, live, tmp_path):
        _, record = live
        cache_store(record, tmp_path)
        restored = cache_load(SPEC, tmp_path)
        assert as_json(restored) == as_json(record)
        assert restored.metrics() == record.metrics()
        assert restored.throughput_series() == record.throughput_series()

    def test_restored_system_counters_match(self, live, tmp_path):
        """The record keeps the live system's counters, and the cache
        gives them back."""
        result, record = live
        cache_store(record, tmp_path)
        restored = cache_load(SPEC, tmp_path)
        system = result.system
        manager = system.ssd_manager
        assert restored.bp.as_dict() == system.bp.stats.as_dict()
        assert restored.ssd_stats.as_dict() == manager.stats.as_dict()
        assert restored.ssd["dirty_frames"] == manager.dirty_frames
        assert (restored.ssd["dirty_limit_frames"]
                == manager.config.dirty_limit_frames)
        assert (restored.checkpoints["taken"]
                == system.checkpointer.checkpoints_taken)

    def test_restored_sampler_and_latencies_work(self, live, tmp_path):
        result, record = live
        cache_store(record, tmp_path)
        restored = cache_load(SPEC, tmp_path)
        assert restored.fill_time(1) == result.sampler.fill_time(1)
        assert (restored.dirty_cross_time(0)
                == result.sampler.dirty_cross_time(0))
        assert [vars(s) for s in restored.samples] \
            == [vars(s) for s in result.sampler.samples]
        assert restored.latencies.summary() == result.latencies.summary()
        assert (restored.steady_state_throughput()
                == result.steady_state_throughput())

    def test_config_change_is_a_miss(self, live, tmp_path):
        cache_store(live[1], tmp_path)
        other = RunSpec.from_dict({**SPEC.to_dict(), "seed": 999})
        assert cache_load(other, tmp_path) is None


class TestCorruption:
    def test_missing_cache_dir_is_a_miss(self, tmp_path):
        assert cache_load(SPEC, tmp_path / "nope") is None

    def test_truncated_file_recomputes_not_crashes(self, live, tmp_path):
        path = cache_store(live[1], tmp_path)
        path.write_text(path.read_text()[: len(path.read_text()) // 2])
        assert cache_load(SPEC, tmp_path) is None

    def test_garbage_file_recomputes_not_crashes(self, live, tmp_path):
        path = cache_store(live[1], tmp_path)
        path.write_text("not json at all {{{")
        assert cache_load(SPEC, tmp_path) is None

    def test_wrong_structure_recomputes_not_crashes(self, live, tmp_path):
        path = cache_store(live[1], tmp_path)
        path.write_text(json.dumps({"snapshot": {"kind": "martian"}}))
        assert cache_load(SPEC, tmp_path) is None
        path.write_text(json.dumps({"unexpected": 1}))
        assert cache_load(SPEC, tmp_path) is None

    def test_run_cached_recovers_from_corruption(self, tmp_path):
        spec = RunSpec(kind="oltp", benchmark="tpcc", scale=10,
                       design="noSSD", profile="tiny", duration=2.0,
                       nworkers=2)
        first = run_cached(spec, tmp_path)
        path = tmp_path / f"{spec_key(spec)}.json"
        path.write_text("corrupted")
        second = run_cached(spec, tmp_path)  # recomputes silently
        assert second.buckets == first.buckets
        # And the cache file was rewritten with a valid record.
        assert cache_load(spec, tmp_path) is not None


#: One spec per run shape the cache must reproduce exactly.
EQUIVALENCE_MATRIX = {
    "oltp-LC": SPEC,
    "traffic-2tenants-16parts-latched": RunSpec(
        kind="traffic", benchmark="tpcc", scale=20, design="LC",
        profile="tiny", duration=2.0, nworkers=8, queue_limit=200,
        partitions=16, latch_us=20.0,
        tenants=("gold=poisson:rate=40:theta=0.6;"
                 "noisy=bursty:rate=30:burst=10:theta=0.99")),
    "oltp-DW-ssd-death": RunSpec(
        kind="oltp", benchmark="tpcc", scale=20, design="DW",
        profile="tiny", duration=6.0, nworkers=4,
        faults="ssd_die@t=3,transient:p=0.0005"),
    "tpch-tiny": RunSpec(kind="tpch", benchmark="tpch", scale=30,
                         design="LC", profile="tiny"),
}

PROV = Provenance(git_commit="deadbeef00", source_hash="cafe")


@pytest.mark.parametrize("name", sorted(EQUIVALENCE_MATRIX))
def test_cache_hit_record_equals_live_record(name, tmp_path):
    """A cache hit gives the live run's record byte for byte, and both
    flatten to the same run-store metric rows."""
    spec = EQUIVALENCE_MATRIX[name]
    live_run = run_sweep([spec], directory=tmp_path)
    hit = run_sweep([spec], directory=tmp_path)
    assert (live_run.computed, hit.cached) == (1, 1)
    live_record, hit_record = live_run.results[spec], hit.results[spec]
    assert as_json(hit_record) == as_json(live_record)
    with RunStore(tmp_path / "runs.db") as store:
        ids = [store.record_result(record, provenance=PROV)
               for record in (live_record, hit_record)]
        rows = [store.get_run(run_id) for run_id in ids]
    assert rows[0][1] == rows[1][1]
    assert rows[0][0]["spec_json"] == rows[1][0]["spec_json"]
    assert json.loads(rows[0][0]["spec_json"]) == spec.to_dict()


def test_parallel_sweep_records_equal_serial(tmp_path):
    specs = [RunSpec(kind="oltp", benchmark="tpcc", scale=10, design=design,
                     profile="tiny", duration=2.0, nworkers=2)
             for design in ("noSSD", "LC")]
    serial = run_sweep(specs, workers=1, use_cache=False)
    parallel = run_sweep(specs, workers=2, use_cache=False)
    assert parallel.computed == 2
    for spec in specs:
        assert as_json(parallel.results[spec]) == as_json(
            serial.results[spec])


class TestSweep:
    def test_serial_sweep_caches_and_summarizes(self, tmp_path):
        specs = [
            RunSpec(kind="oltp", benchmark="tpcc", scale=10, design=design,
                    profile="tiny", duration=2.0, nworkers=2)
            for design in ("noSSD", "LC")
        ]
        lines = []
        first = run_sweep(specs, workers=1, directory=tmp_path,
                          progress=lines.append)
        assert first.computed == 2 and first.cached == 0
        assert len(lines) == 2
        second = run_sweep(specs, workers=1, directory=tmp_path)
        assert second.cached == 2 and second.computed == 0
        for spec in specs:
            assert (second.results[spec].buckets
                    == first.results[spec].buckets)
        rows = summarize(second)
        assert [row["spec"]["design"] for row in rows] == ["LC", "noSSD"]
        assert all(row["metric"] == "tpmC" for row in rows)

    def test_duplicate_specs_collapse(self, tmp_path):
        spec = RunSpec(kind="oltp", benchmark="tpcc", scale=10,
                       design="noSSD", profile="tiny", duration=2.0,
                       nworkers=2)
        report = run_sweep([spec, spec, spec], workers=1,
                           directory=tmp_path)
        assert len(report.results) == 1
        assert report.computed + report.cached == 1

    def test_rejects_bad_worker_count(self):
        with pytest.raises(ValueError):
            run_sweep([], workers=0)


class TestSnapshotFaultFields:
    def test_detached_defaults_false_and_round_trips(self, live, tmp_path):
        _, record = live
        assert record.ssd["detached"] is False
        cache_store(record, tmp_path)
        assert cache_load(SPEC, tmp_path).ssd["detached"] is False

    def test_detached_true_survives_restore(self, live):
        data = live[1].to_dict()
        data["ssd"] = {**data["ssd"], "detached": True}
        restored = RunRecord.from_dict(json.loads(json.dumps(data)))
        assert restored.ssd["detached"] is True
        assert restored.metrics()["ssd_detached"] == 1.0


class TestSweepRecording:
    def specs(self):
        return [
            RunSpec(kind="oltp", benchmark="tpcc", scale=10, design=design,
                    profile="tiny", duration=2.0, nworkers=2)
            for design in ("noSSD", "LC")
        ]

    def test_live_and_cached_runs_record_alike(self, tmp_path):
        with RunStore(tmp_path / "runs.db") as store:
            first = run_sweep(self.specs(), workers=1, directory=tmp_path,
                              store=store)
            assert first.recorded == 2 and first.computed == 2
            second = run_sweep(self.specs(), workers=1,
                               directory=tmp_path, store=store)
            assert second.recorded == 2 and second.cached == 2

            runs = store.list_runs()
            assert len(runs) == 4
            # The replayed cache hit recorded the same metrics row as
            # the live run (modulo the run id / timestamp).
            by_design = {}
            for run in runs:
                by_design.setdefault(run["design"], []).append(
                    store.metrics_for(run["id"]))
            for design, metric_rows in by_design.items():
                assert metric_rows[0] == metric_rows[1], design

    def test_recording_failure_does_not_fail_the_sweep(self, tmp_path):
        class ExplodingStore:
            path = "exploding.db"

            def record_result(self, record, provenance=None):
                from repro.runstore.store import StoreError
                raise StoreError("disk on fire")

        lines = []
        report = run_sweep(self.specs(), workers=1, directory=tmp_path,
                           store=ExplodingStore(), progress=lines.append)
        assert report.recorded == 0
        assert report.computed == 2  # every run still completed
        assert any("disk on fire" in line for line in lines)
