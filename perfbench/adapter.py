"""Every call the benchmark makes into ``src/repro``.

The rest of ``perfbench`` talks to the simulator only through this file:
the three workload definitions, building a system, driving it through
the public runners, the end-of-run correctness checks, the public stats
objects the per-layer counts are read from, and the trace analysis.
When the run API changes (a new run description, a deleted kernel),
this is the one file to follow.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from repro.engine.recovery import (RecoveryError,  # noqa: E402
                                   simulate_crash_and_recover)
from repro.harness.experiments import (SCALE_PROFILES,  # noqa: E402
                                       make_system, make_workload)
from repro.harness.runner import OpenLoopRunner, WorkloadRunner  # noqa: E402
from repro.telemetry import Telemetry, percentile_of  # noqa: E402
from repro.telemetry.analysis import analyze_trace  # noqa: E402
from repro.workloads.tpch import TpchResult  # noqa: E402
from repro.workloads.traffic import parse_tenants  # noqa: E402

#: The CI traffic-smoke tenants (1.2M logical users, rate = users /
#: think time) at half its think-time rate, 5k arrivals per virtual
#: second, with 50 ms burst cycles.  The smoke shape's 10k/s exceeds the
#: ~8.9k/s this system serves, so its latency was a random walk set by
#: the first burst (p99 from 80 to 580 ms across seeds); see README.md.
TRAFFIC_TENANTS = ("web=poisson:users=800000:think=200:theta=0.6;"
                   "batch=bursty:users=400000:think=400:burst=8:cycle=0.05:"
                   "theta=0.95")

#: Every workload runs the paper's lazy-cleaning design.
DESIGN = "LC"

#: Virtual-time latency limit for ``slo_miss_frac`` (open loop only).
SLO_SECONDS = 0.100

#: Virtual seconds the system runs with no new work before the
#: invariant check ("quiet"), as the crash-point sweep does.
QUIESCE_SECONDS = 1.0

#: Upper bound on an open-loop drain after the arrival window closes.
DRAIN_LIMIT_SECONDS = 30.0


@dataclass(frozen=True)
class WorkloadSpec:
    """One benchmark workload: the arguments of the public run API."""

    kind: str                 # "closed", "tpch" or "open"
    benchmark: str            # make_workload benchmark name
    scale: int
    profile: str
    duration: float = 0.0     # virtual seconds (closed/open loop)
    nworkers: int = 0
    dirty_threshold: Optional[float] = None
    checkpoint_interval: Optional[float] = None
    ftl: bool = False
    partitions: Optional[int] = None
    latch_us: float = 0.0
    queue_limit: int = 0
    tenants: str = ""
    crash: bool = False       # crash and recover after the run
    #: Open loop: virtual seconds of traffic (then drained) before the
    #: measured window, so the pool is warm when timing starts.
    warmup: float = 0.0
    #: Share of the run, at its end, that tpmC is measured over.
    tail_fraction: float = 0.5


WORKLOADS: Dict[str, WorkloadSpec] = {
    # The paper's TPC-C setting at its 2K-warehouse regime: database
    # (4,220 pages) > SSD (2,800 frames) > pool (400 pages), write-back
    # LC at lambda = 0.5 on an FTL-modelled SSD, no checkpoints.
    "tpcc-ssd": WorkloadSpec(
        kind="closed", benchmark="tpcc", scale=2000,
        profile="small", duration=16.0, nworkers=16, dirty_threshold=0.5,
        ftl=True, crash=True),
    # TPC-H power + throughput at SF 30: database (4,410 pages) fits the
    # SSD (14,000 frames) but not the pool (2,000 pages); checkpoints at
    # the benches' 40-minute analog (60 s / 15).
    "tpch-scan": WorkloadSpec(
        kind="tpch", benchmark="tpch", scale=30,
        profile="default", checkpoint_interval=60.0 / 15.0),
    # Open-loop, two tenants on a nearly pool-resident TPC-C (115 pages
    # vs a 100-page pool), 16 partitions with a 20 us latch.
    "traffic-hot": WorkloadSpec(
        kind="open", benchmark="tpcc", scale=100,
        profile="tiny", duration=4.0, nworkers=32, partitions=16,
        latch_us=20.0, queue_limit=5000, tenants=TRAFFIC_TENANTS,
        warmup=0.5, tail_fraction=1.0),
}


@dataclass
class Run:
    """A built system and what driving it produced."""

    spec: WorkloadSpec
    seed: int
    system: Any
    workload: Any
    runner: Any = None
    oracle: Dict[int, int] = field(default_factory=dict)
    result: Any = None
    #: Virtual response times of TPC-H queries (seconds).
    query_times: List[float] = field(default_factory=list)


def build(spec: WorkloadSpec, seed: int, trace_events: int = 0) -> Run:
    """Build the system and load the workload (the set-up phase).

    ``trace_events`` > 0 turns telemetry on with that event cap.
    """
    profile = SCALE_PROFILES[spec.profile]
    oracle: Dict[int, int] = {}
    workload = make_workload(spec.benchmark, spec.scale, profile,
                             oracle=oracle)
    telemetry = Telemetry(max_events=trace_events) if trace_events else None
    system = make_system(spec.benchmark, workload, DESIGN, profile,
                         dirty_threshold=spec.dirty_threshold,
                         checkpoint_interval=spec.checkpoint_interval,
                         ftl=spec.ftl, partitions=spec.partitions,
                         latch_us=spec.latch_us, telemetry=telemetry)
    run = Run(spec=spec, seed=seed, system=system, workload=workload,
              oracle=oracle)
    if spec.kind == "closed":
        run.runner = WorkloadRunner(system, workload, nworkers=spec.nworkers,
                                    seed=seed)
    elif spec.kind == "open":
        run.runner = OpenLoopRunner(system, workload,
                                    parse_tenants(spec.tenants),
                                    nworkers=spec.nworkers,
                                    queue_limit=spec.queue_limit, seed=seed)
    workload.setup(system)
    system.start_services()
    if spec.warmup:
        warm = run.runner.run(spec.warmup, setup=False)
        if not _drain(system.env, warm):
            raise RuntimeError("warm-up traffic did not drain")
    return run


def _completed(result) -> int:
    return sum(tenant.completed for tenant in result.tenants.values())


def _drain(env, result) -> bool:
    """Run until every admitted arrival of ``result`` has completed."""
    deadline = env.now + DRAIN_LIMIT_SECONDS
    while (_completed(result) + result.shed < result.offered
           and env.now < deadline):
        env.run(until=env.now + 0.01)
    return _completed(result) + result.shed == result.offered


def drive(run: Run) -> None:
    """The measured phase: run the workload to its end."""
    spec = run.spec
    if spec.kind == "tpch":
        run.result = run.system.env.run(
            run.system.env.process(_tpch_full_run(run)))
        return
    run.result = run.runner.run(spec.duration, setup=False)


def _tpch_full_run(run: Run):
    """Process step: power test then throughput test, seeded by the run.

    The query timer wraps the workload's ``run_query`` on this instance
    only; it adds no yields, so the event order is unchanged.
    """
    workload, system = run.workload, run.system
    env = system.env
    run_query = workload.run_query

    def timed_query(system, profile, rng):
        started = env.now
        yield from run_query(system, profile, rng)
        run.query_times.append(env.now - started)

    workload.run_query = timed_query
    result = TpchResult(sf=workload.sf)
    yield from workload.power_test(system, result, seed=run.seed)
    yield from workload.throughput_test(system, result, seed=run.seed + 1)
    return result


def _count_above(tracker, limit: float) -> int:
    """Samples above ``limit`` in a LatencyTracker.

    LatencyTracker has no public count-above query; this reads its
    per-type sample lists, as ``RunResult.queue_wait_percentile`` does.
    """
    return sum(1 for values in tracker._samples.values()
               for value in values if value > limit)


def finish(run: Run) -> Dict[str, Any]:
    """Everything after the measured phase: counts, results, checks.

    Counts and closed-loop results are taken before :func:`settle`
    lets the clients finish their last transactions; open-loop results
    after it, so every arrival of the window has its sojourn time.
    """
    out = {"counters": counters(run)}
    if run.spec.kind != "open":
        out["sim"] = end_to_end(run)
    out["checks"] = settle(run)
    if run.spec.kind == "open":
        out["sim"] = end_to_end(run)
    return out


def end_to_end(run: Run) -> Dict[str, Any]:
    """The run's virtual-time results (exact for a seed).

    Closed loop: tpmC on the steady tail and transaction response
    times.  TPC-H: QphH and query response times.  Open loop (called
    after :func:`settle`, which drains every admitted arrival): tpmC on
    the steady tail, sojourn times from arrival, and the share of
    offered arrivals shed or finished above :data:`SLO_SECONDS`.
    """
    spec, result = run.spec, run.result
    out: Dict[str, Any] = {"slo_miss_frac": None}
    if spec.kind == "tpch":
        out["throughput"] = result.qphh
        query_times = sorted(run.query_times)
        out["p50_ms"] = percentile_of(query_times, 50) * 1e3
        out["p99_ms"] = percentile_of(query_times, 99) * 1e3
        out["attempted"] = len(run.query_times) + len(result.rf_times) \
            + run.workload.streams
        out["txn_counts"] = {"queries": len(run.query_times)}
        return out
    out["throughput"] = result.steady_state_throughput(spec.tail_fraction)
    out["p50_ms"] = result.latencies.percentile(50) * 1e3
    out["p99_ms"] = result.latencies.percentile(99) * 1e3
    out["txn_counts"] = dict(sorted(result.txn_counts.items()))
    if spec.kind == "open":
        late = _count_above(result.latencies, SLO_SECONDS)
        out["attempted"] = result.offered
        out["slo_miss_frac"] = (result.shed + late) / result.offered
        out["tenant_p99_ms"] = {
            name: tenant.latencies.percentile(99) * 1e3
            for name, tenant in result.tenants.items()}
        out["queue_p99_ms"] = result.queue_wait_percentile(99) * 1e3
    else:
        out["attempted"] = sum(result.txn_counts.values())
    return out


def settle(run: Run) -> Dict[str, Any]:
    """Post-run correctness checks; returns errors and recovery figures.

    Every workload: the SSD manager's invariants once the system is
    quiet.  Open loop: every offered arrival is completed or shed once
    the queue drains.  ``crash`` workloads: a crash at the end of the
    run, recovery against the committed-version oracle (no commit may
    be lost), and the invariants again after restart.
    """
    spec, system = run.spec, run.system
    env = system.env
    errors: List[str] = []
    out: Dict[str, Any] = {"errors": errors, "pages_redone": 0,
                           "restart_s": None, "recovery_host_s": 0.0}
    if spec.kind == "closed":
        run.runner.stop()
    elif spec.kind == "open":
        result = run.result
        out["in_system_at_end"] = (result.offered - result.shed
                                   - _completed(result))
        if not _drain(env, result):
            errors.append(
                f"open loop: offered {result.offered} != completed "
                f"{_completed(result)} + shed {result.shed} after draining")
        run.runner.stop()
    env.run(until=env.now + QUIESCE_SECONDS)
    try:
        system.ssd_manager.check_invariants()
    except AssertionError as exc:
        errors.append(f"SSD invariants after the run: {exc}")
    if spec.crash:
        system.crash()
        crashed_at = env.now
        started = time.perf_counter()
        try:
            out["pages_redone"] = env.run(env.process(
                simulate_crash_and_recover(env, system,
                                           committed=run.oracle)))
        except RecoveryError as exc:
            errors.append(f"recovery: {exc}")
        out["recovery_host_s"] = time.perf_counter() - started
        out["restart_s"] = env.now - crashed_at
        if not run.oracle:
            errors.append("recovery: the oracle recorded no commits")
        try:
            system.ssd_manager.check_invariants()
        except AssertionError as exc:
            errors.append(f"SSD invariants after recovery: {exc}")
    return out


def counters(run: Run) -> Dict[str, float]:
    """Per-layer counts from the components' public stats objects."""
    system = run.system
    bp = system.bp.stats
    ssd = system.ssd_manager.stats
    wal = system.wal
    hdd = system.data_device.stats
    flash = system.ssd_device.stats
    ftl = system.ssd_device.ftl
    requests = bp.hits + bp.misses
    records = wal.tail_lsn + 1
    flushes = wal.device.stats.completed
    return {
        "engine.buffer_pool.hit_ratio": bp.hits / requests if requests else 0.0,
        "engine.buffer_pool.ssd_hit_ratio":
            bp.ssd_hits / bp.misses if bp.misses else 0.0,
        "engine.buffer_pool.evictions": bp.evictions_clean + bp.evictions_dirty,
        "engine.buffer_pool.dirty_evictions": bp.evictions_dirty,
        "engine.buffer_pool.latch_wait_s": bp.latch_wait_time,
        "engine.buffer_pool.prefetched_pages": bp.prefetched_pages,
        "engine.buffer_pool.partition_latch_waits": bp.partition_latch_waits,
        "engine.buffer_pool.partition_latch_wait_s":
            bp.partition_latch_wait_time,
        "core.ssd_reads": ssd.reads,
        "core.ssd_writes": ssd.writes,
        "core.reads_per_write": ssd.reads / ssd.writes if ssd.writes else 0.0,
        "core.invalidations": ssd.invalidations,
        "core.evictions": ssd.evictions,
        "core.cleaner_pages": ssd.cleaner_pages,
        "core.pages_per_cleaner_io":
            ssd.cleaner_pages / ssd.cleaner_ios if ssd.cleaner_ios else 0.0,
        "core.lambda_crossings": ssd.lambda_crossings,
        "core.declined_throttle": ssd.declined_throttle,
        "engine.wal.records": records,
        "engine.wal.flushes": flushes,
        "engine.wal.records_per_flush": records / flushes if flushes else 0.0,
        "storage.hdd.ios": hdd.completed,
        "storage.hdd.busy_s": hdd.busy_time,
        "storage.ssd.ios": flash.completed,
        "storage.ssd.busy_s": flash.busy_time,
        "storage.ftl.waf": ftl.waf if ftl is not None else 0.0,
        "storage.ftl.erases": ftl.stats.erases if ftl is not None else 0,
        "storage.ftl.gc_migrated_pages":
            ftl.stats.gc_migrated_pages if ftl is not None else 0,
    }


def write_trace(run: Run, path: str) -> None:
    """Export the run's telemetry trace as JSONL."""
    run.system.telemetry.tracer.write_jsonl(path)


def trace_waits(path: str, quantile: float = 99.0) -> Dict[str, Any]:
    """Split the tail transactions' virtual latency into components.

    ``repro.telemetry.analysis`` attributes leaf wait spans to their
    transaction; its component table has no entry for the partition
    latch queue (``partition_latch`` spans), so those are added to the
    latch component here from the same transactions' events.
    """
    analysis = analyze_trace(path)
    attribution = analysis.attribution(quantile)
    threshold = attribution.threshold
    tail = [txn for txn in analysis.txns if txn.latency >= threshold]
    partition_latch = sum(event.get("dur", 0.0) or 0.0
                          for txn in tail for event in txn.events
                          if event.get("name") == "partition_latch")
    components = dict(attribution.components)
    total_latency = sum(txn.latency for txn in tail)
    attributed = sum(txn.attributed for txn in tail) + partition_latch
    if tail:
        components["latch"] = (components.get("latch", 0.0)
                               + partition_latch / len(tail))
    return {
        "components_ms": {name: value * 1e3
                          for name, value in components.items()},
        "coverage": attributed / total_latency if total_latency else 0.0,
        "tail_txns": len(tail),
        "dropped": analysis.dropped,
        "txns": len(analysis.txns),
    }
