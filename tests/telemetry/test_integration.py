"""End-to-end telemetry over a real (tiny) LC run.

One short run is shared by the whole module; the assertions check that
the instrumented hot paths actually fire and that a telemetry-free run
stays dark.  A design matrix under injected faults checks that every
counter the registry lists equals the component state it reads.
"""

import json

import pytest

from repro.harness.experiments import SCALE_PROFILES, run_oltp_experiment
from repro.storage.device import KIND_LABELS
from repro.telemetry import Telemetry


@pytest.fixture(scope="module")
def traced_run():
    telemetry = Telemetry()
    result = run_oltp_experiment(
        "tpcc", 100, "LC", duration=5.0,
        profile=SCALE_PROFILES["tiny"], nworkers=4,
        dirty_threshold=0.01, telemetry=telemetry)
    return telemetry, result


class TestEventCoverage:
    def test_all_component_categories_present(self, traced_run):
        telemetry, _ = traced_run
        cats = {event.cat for event in telemetry.tracer.events}
        assert {"bp", "ssd", "cleaner", "io", "counter"} <= cats

    def test_tracks_cover_the_engine(self, traced_run):
        telemetry, _ = traced_run
        tracks = {event.track for event in telemetry.tracer.events}
        assert "cleaner" in tracks
        assert "ssd_manager" in tracks
        assert "sampler" in tracks
        assert any(track.startswith("device:") for track in tracks)

    def test_events_use_virtual_time(self, traced_run):
        telemetry, result = traced_run
        assert all(0.0 <= event.ts <= result.system.env.now + 1e-9
                   for event in telemetry.tracer.events)

    def test_chrome_export_is_valid_json(self, traced_run, tmp_path):
        telemetry, _ = traced_run
        path = tmp_path / "trace.json"
        telemetry.tracer.write_chrome(str(path))
        doc = json.loads(path.read_text())
        assert doc["traceEvents"]


#: Designs of the counter matrix, each with the knobs that make its
#: design-specific counters move (LC also models the partition latch).
MATRIX = {
    "LC": dict(dirty_threshold=0.01, checkpoint_interval=1.0,
               partitions=4, latch_us=20.0),
    "TAC": {},
    "LS": dict(checkpoint_interval=1.5),
}

MATRIX_FAULTS = ("transient:p=0.002,transient:p=0.03:device=ssd,"
                 "transient:p=0.03:device=disk")


def _matrix_run(design):
    telemetry = Telemetry()
    result = run_oltp_experiment(
        "tpcc", 20, design, duration=4.0, profile=SCALE_PROFILES["tiny"],
        nworkers=8, faults=MATRIX_FAULTS, telemetry=telemetry,
        **MATRIX[design])
    return telemetry, result


def _device(system, name):
    devices = (system.data_device, system.ssd_device, system.wal.device)
    return next(device for device in devices if device.name == name)


def _io_kind(label):
    return next(kind for kind, text in KIND_LABELS.items() if text == label)


def _fault_count(system, labels):
    injectors = system.faults.injectors.values()
    return sum(inj.stats.get(labels["kind"], 0) for inj in injectors
               if inj.device.name == labels["device"])


#: Counter name -> the component state it reads, as ``f(system, labels)``.
STATE_TWINS = {
    "bp_requests_total": lambda s, l: {
        "hit": s.bp.stats.hits, "ssd_hit": s.bp.stats.ssd_hits,
        "disk_read": s.bp.stats.disk_reads}[l["result"]],
    "bp_evictions_total": lambda s, l: getattr(
        s.bp.stats, "evictions_" + l["kind"]),
    "bp_latch_waits_total": lambda s, l:
        s.bp.stats.latch_waits_by_reason[l["reason"]],
    "bp_prefetched_pages_total": lambda s, l: s.bp.stats.prefetched_pages,
    "bp_partition_latch_waits_total": lambda s, l:
        s.bp.stats.latch_waits_by_partition[int(l["partition"])],
    "checkpoints_total": lambda s, l: s.checkpointer.checkpoints_taken,
    "disk_retries_total": lambda s, l: s.disk.retries,
    "faults_injected_total": _fault_count,
    "io_pages_total": lambda s, l: _device(s, l["device"]).stats
        .pages_by_kind[_io_kind(l["kind"])],
    "io_requests_total": lambda s, l: _device(s, l["device"]).stats
        .by_kind[_io_kind(l["kind"])],
    "wal_records_total": lambda s, l: s.wal.tail_lsn + 1,
    "wal_flushes_total": lambda s, l: s.wal.flushes,
    "wal_pages_flushed_total": lambda s, l: s.wal.pages_flushed,
    "wal_retries_total": lambda s, l: s.wal.flush_retries,
    "ssd_mgr_reads_total": lambda s, l: s.ssd_manager.stats.reads,
    "ssd_mgr_writes_total": lambda s, l: s.ssd_manager.stats.writes,
    "ssd_mgr_invalidations_total":
        lambda s, l: s.ssd_manager.stats.invalidations,
    "ssd_mgr_declined_throttle_total":
        lambda s, l: s.ssd_manager.stats.declined_throttle,
    "ssd_mgr_evictions_total": lambda s, l: s.ssd_manager.stats.evictions,
    "ssd_mgr_fallback_disk_writes_total":
        lambda s, l: s.ssd_manager.stats.fallback_disk_writes,
    "ssd_mgr_retries_total": lambda s, l: s.ssd_manager.stats.io_retries,
    "ssd_mgr_throttle_preserved_total":
        lambda s, l: s.ssd_manager.stats.throttle_preserved,
    "lc_cleaner_rounds_total": lambda s, l: s.ssd_manager.stats.cleaner_ios,
    "lc_cleaner_pages_total":
        lambda s, l: s.ssd_manager.stats.cleaner_pages,
    "lc_lambda_crossings_total":
        lambda s, l: s.ssd_manager.stats.lambda_crossings,
    "tac_admission_writes_total":
        lambda s, l: s.ssd_manager.stats.admission_writes,
    "tac_missed_dirty_writes_total":
        lambda s, l: s.ssd_manager.stats.missed_dirty_writes,
    "ls_batches_total": lambda s, l: s.ssd_manager.stats.batches,
    "ls_batch_pages_total": lambda s, l: s.ssd_manager.stats.batch_pages,
    "ls_reclaimed_segments_total":
        lambda s, l: s.ssd_manager.stats.cleaner_ios,
    "ls_reclaim_dirty_flushes_total":
        lambda s, l: s.ssd_manager.stats.cleaner_pages,
    "ls_relocated_entries_total":
        lambda s, l: s.ssd_manager.stats.relocations,
    "ls_replayed_entries_total":
        lambda s, l: s.ssd_manager.stats.replayed_entries,
}


class TestMetricsAgreeWithStats:
    def test_cleaner_actually_ran(self, traced_run):
        telemetry, _ = traced_run
        assert telemetry.registry.get("lc_cleaner_rounds_total").value > 0
        assert telemetry.registry.get("lc_cleaner_pages_total").value > 0

    def test_txn_latencies_match_tracker(self, traced_run):
        telemetry, result = traced_run
        family = telemetry.registry.get("txn_latency_seconds")
        total = sum(child.count for child in family.children())
        assert total == result.latencies.count()

    def test_gauges_read_live_state(self, traced_run):
        telemetry, result = traced_run
        manager = result.system.ssd_manager
        assert (telemetry.registry.get("ssd_used_frames").value
                == manager.used_frames)
        assert (telemetry.registry.get("bp_used_frames").value
                == result.system.bp.used)

    @pytest.mark.parametrize("design", sorted(MATRIX))
    def test_counters_equal_stats(self, design):
        telemetry, result = _matrix_run(design)
        system = result.system
        counters = [row for row in telemetry.registry.snapshot()
                    if row["kind"] == "counter"]
        names = {row["name"] for row in counters}
        assert names >= {"bp_requests_total", "io_requests_total",
                         "wal_records_total", "ssd_mgr_writes_total"}
        for row in counters:
            assert row["name"] in STATE_TWINS, (
                f"{row['name']} has no state twin in this test")
            twin = STATE_TWINS[row["name"]](system, row["labels"])
            assert row["value"] == twin, (row, twin)
        # The fault plan drove the retry paths the counters report on.
        by_name = {row["name"]: row["value"] for row in counters}
        assert by_name["wal_retries_total"] > 0
        assert by_name["disk_retries_total"] > 0
        assert by_name["faults_injected_total"] > 0


class TestAttributionCoverage:
    """The tentpole acceptance check: the ctx-tagged leaf spans must
    partition each transaction's latency (sum within 5% of measured)."""

    @pytest.fixture(scope="class")
    def analysis(self, traced_run, tmp_path_factory):
        from repro.telemetry.analysis import analyze_trace
        telemetry, _ = traced_run
        path = tmp_path_factory.mktemp("analysis") / "trace.jsonl"
        telemetry.tracer.write_jsonl(str(path))
        return analyze_trace(str(path))

    def test_transactions_reconstructed(self, analysis):
        assert len(analysis.txns) > 100
        assert "new_order" in analysis.txn_types()

    def test_component_sums_match_latency_at_every_tail(self, analysis):
        for q in (50, 95, 99):
            att = analysis.attribution(q)
            assert att.count > 0
            assert att.coverage == pytest.approx(1.0, abs=0.05), (
                f"p{q}: components sum to {att.coverage:.1%} of latency")

    def test_latency_agrees_with_the_runner(self, traced_run, analysis):
        _, result = traced_run
        # The trace sees every committed transaction; the runner only
        # counts bodies that finished before cutoff, so the two agree
        # within the number of in-flight clients (plus setup txns).
        assert abs(len(analysis.txns) - result.latencies.count()) <= 64
        p99_trace = analysis.latency_summary()["p99"]
        p99_runner = result.latencies.percentile(99)
        assert p99_trace == pytest.approx(p99_runner, rel=0.25)

    def test_device_time_mostly_attributed(self, analysis):
        # Nearly every data/SSD device I/O carries a txn or a background
        # origin.  The exceptions are by design: WAL flush writes belong
        # to the group-commit flusher, and read-ahead's inner parallel
        # I/Os stay ctx-less (the outer prefetch_wait span holds the ctx
        # so overlapping device time is not double-attributed).
        from repro.telemetry.analysis import load_events
        events = load_events(analysis.path)
        device = [e for e in events
                  if e.get("track", "").startswith("device:")
                  and e.get("track") != "device:log-disk"]
        attributed = [e for e in device
                      if {"txn", "origin"} & set(e.get("args") or {})]
        assert device
        assert len(attributed) >= 0.9 * len(device)

    def test_cleaner_interference_measured_for_lc(self, analysis):
        assert "cleaner" in analysis.background_io
        assert 0.0 < analysis.interference_share("cleaner") < 1.0


class TestDisabledRunStaysDark:
    def test_no_registry_rows_without_telemetry(self):
        result = run_oltp_experiment(
            "tpcc", 100, "LC", duration=2.0,
            profile=SCALE_PROFILES["tiny"], nworkers=2)
        telemetry = result.system.telemetry
        assert telemetry.enabled is False
        assert telemetry.registry.snapshot() == []
        assert telemetry.tracer.events == ()
