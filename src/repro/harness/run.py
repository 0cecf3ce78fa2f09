"""One run, described one way and returned one way.

``RunSpec``
    A frozen, flat, JSON-serialisable description of one run.  The CLI
    subcommands build it from their flags, sweep grids are lists of it,
    and its canonical JSON is both the run cache's key material and the
    run store's ``spec_json``.

``execute``
    Builds the system a spec describes, drives it, and returns the live
    result (a :class:`RunResult`, or a :class:`TpchResult` for TPC-H):
    ``--trace`` and tests still reach the simulator through it.

``RunRecord``
    The finished run as plain data, built once by :meth:`RunRecord.of`.
    The run cache stores it, :func:`~repro.harness.sweep.run_sweep`
    returns it, the run store flattens it (:meth:`RunRecord.metrics`)
    and the reports render it.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, fields
from typing import Any, Dict, Generator, List, Optional, Union

from repro.core.ssd_manager import SsdStats
from repro.engine.buffer_pool import BufferPoolStats
from repro.harness.experiments import (SCALE_PROFILES, make_system,
                                       make_workload)
from repro.harness.metrics import (LatencyTracker, Sample, TenantStats,
                                   dirty_cross_time, fill_time)
from repro.harness.runner import (OpenLoopRunner, ResultView, RunResult,
                                  WorkloadRunner)
from repro.harness.system import System
from repro.telemetry import Telemetry
from repro.workloads.tpch import TpchResult
from repro.workloads.traffic import parse_tenants

#: Closed-loop OLTP (Figures 5–9), open-loop multi-tenant traffic, and
#: TPC-H power + throughput (Figure 5(g–h), Table 3).
KINDS = ("oltp", "traffic", "tpch")


@dataclass(frozen=True)
class RunSpec:
    """One deterministic run, fully described by plain values.

    ``scale`` is warehouses / customer-thousands / SF depending on the
    benchmark; ``profile`` names an entry of :data:`SCALE_PROFILES`.
    ``tenants`` (traffic runs only) and ``faults`` are grammar strings
    (:func:`~repro.workloads.traffic.parse_tenants`,
    :class:`~repro.faults.FaultPlan`), parsed afresh by every run.
    TPC-H runs seed the power test with ``seed`` and the throughput
    test with ``seed + 1``; they ignore the closed-loop fields.
    """

    kind: str
    benchmark: str
    scale: int
    design: str
    profile: str = "default"
    duration: float = 60.0
    nworkers: int = 32
    bucket_seconds: float = 2.0
    seed: int = 20110612
    dirty_threshold: Optional[float] = None
    checkpoint_interval: Optional[float] = None
    expand_reads: bool = False
    ftl: bool = False
    partitions: Optional[int] = None
    latch_us: float = 0.0
    kernel: str = "heap"
    queue_limit: int = 10_000
    tenants: Optional[str] = None
    faults: Optional[str] = None

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown run kind {self.kind!r}")
        if self.profile not in SCALE_PROFILES:
            raise ValueError(f"unknown scale profile {self.profile!r}")
        if (self.kind == "traffic") != (self.tenants is not None):
            raise ValueError("tenants are set exactly for traffic runs")

    def to_dict(self) -> Dict[str, Any]:
        """Canonical plain-dict form (the hashed and recorded one)."""
        return asdict(self)

    @staticmethod
    def from_dict(data: Dict[str, Any]) -> "RunSpec":
        """Inverse of :meth:`to_dict`."""
        return RunSpec(**data)

    @property
    def label(self) -> str:
        """Short human-readable tag for progress lines."""
        return f"{self.benchmark}/{self.scale}/{self.design}"


def execute(spec: RunSpec, telemetry: Optional[Telemetry] = None
            ) -> Union[RunResult, TpchResult]:
    """Run ``spec`` live and return the live result.

    With telemetry on, the trace opens with a ``run_meta`` instant: the
    spec plus the code's provenance (git commit, source hash), so a
    trace file answers "which run, which code?" as a run-store row does.
    """
    profile = SCALE_PROFILES[spec.profile]
    workload = make_workload(spec.benchmark, spec.scale, profile)
    # The system parses the fault plan: injectors bind to one system.
    system = make_system(
        spec.benchmark, workload, spec.design, profile,
        dirty_threshold=spec.dirty_threshold,
        checkpoint_interval=spec.checkpoint_interval,
        expand_reads=spec.expand_reads, ftl=spec.ftl,
        partitions=spec.partitions, latch_us=spec.latch_us,
        kernel=spec.kernel, telemetry=telemetry, faults=spec.faults)
    tracer = system.telemetry.tracer
    if tracer.enabled:
        from repro.runstore.provenance import provenance_args

        meta = spec.to_dict()
        if spec.kind == "tpch":
            meta["duration"] = None  # as long as the queries take
        meta.update(provenance_args())
        tracer.instant("run_meta", "meta", "meta", meta)
    if spec.kind == "tpch":
        return _tpch_tests(system, workload, spec.seed)
    runner: Union[WorkloadRunner, OpenLoopRunner]
    if spec.kind == "traffic":
        runner = OpenLoopRunner(
            system, workload, parse_tenants(spec.tenants or ""),
            nworkers=spec.nworkers, queue_limit=spec.queue_limit,
            bucket_seconds=spec.bucket_seconds, seed=spec.seed)
    else:
        runner = WorkloadRunner(system, workload, nworkers=spec.nworkers,
                                bucket_seconds=spec.bucket_seconds,
                                seed=spec.seed)
    return runner.run(spec.duration)


def _tpch_tests(system: System, workload: Any, seed: int) -> TpchResult:
    """The power test then the throughput test, as the TPC-H spec (and
    the paper) order them."""
    result = TpchResult(sf=workload.sf)

    def tests() -> Generator[Any, Any, None]:
        yield from workload.power_test(system, result, seed=seed)
        yield from workload.throughput_test(system, result, seed=seed + 1)

    workload.setup(system)
    system.start_services()
    system.env.run(system.env.process(tests()))
    return result


@dataclass
class RunRecord(ResultView):
    """A finished run as plain data (see :class:`ResultView` for the
    bucket-series and tenant-total queries).

    Closed-loop and traffic runs fill the series, latency samples,
    tenants, sampler rows and the counters of the pool (``bp``), the
    SSD manager (``ssd``: occupancy and outcome; ``ssd_stats``), the
    FTL (``ftl``, None without one), the checkpointer and the fault
    injectors.  TPC-H runs fill ``tpch`` alone.
    """

    spec: RunSpec
    metric_name: str
    duration: float = 0.0
    bucket_seconds: float = 0.0
    metric_window: float = 0.0
    start_time: float = 0.0
    buckets: List[int] = field(default_factory=list)
    txn_counts: Dict[str, int] = field(default_factory=dict)
    latencies: LatencyTracker = field(default_factory=LatencyTracker)
    tenants: Dict[str, TenantStats] = field(default_factory=dict)
    logical_users: float = 0.0
    samples: List[Sample] = field(default_factory=list)
    bp: BufferPoolStats = field(default_factory=BufferPoolStats)
    ssd: Dict[str, Any] = field(default_factory=dict)
    ssd_stats: SsdStats = field(default_factory=SsdStats)
    ftl: Optional[Dict[str, float]] = None
    checkpoints: Dict[str, Any] = field(default_factory=dict)
    #: Injected faults by device role, then by kind.
    faults: Dict[str, Dict[str, int]] = field(default_factory=dict)
    tpch: Optional[TpchResult] = None

    @classmethod
    def of(cls, spec: RunSpec,
           result: Union[RunResult, TpchResult]) -> "RunRecord":
        """The record of a finished live run.

        It is built through its JSON form, so a live run's record and a
        cache hit's hold the same values (JSON turns integer keys into
        strings, for one).
        """
        if isinstance(result, TpchResult):
            live = cls(spec=spec, metric_name="QphH", tpch=result)
        else:
            assert result.system is not None
            assert result.sampler is not None
            assert result.latencies is not None
            live = cls(
                spec=spec, metric_name=result.metric_name,
                duration=result.duration,
                bucket_seconds=result.bucket_seconds,
                metric_window=result.metric_window,
                start_time=result.start_time, buckets=result.buckets,
                txn_counts=result.txn_counts, latencies=result.latencies,
                tenants=result.tenants,
                logical_users=result.logical_users,
                samples=result.sampler.samples,
                **_counters(result.system))
        return cls.from_dict(json.loads(json.dumps(live.to_dict())))

    def to_dict(self) -> Dict[str, Any]:
        """The record as JSON-ready plain data."""
        data = {f.name: getattr(self, f.name) for f in fields(self)}
        data.update(
            spec=self.spec.to_dict(),
            latencies=self.latencies.as_dict(),
            tenants={name: stats.as_dict()
                     for name, stats in self.tenants.items()},
            samples=[asdict(sample) for sample in self.samples],
            bp=self.bp.as_dict(),
            ssd_stats=self.ssd_stats.as_dict(),
            tpch=None if self.tpch is None else asdict(self.tpch))
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "RunRecord":
        """Inverse of :meth:`to_dict`."""
        tpch = data["tpch"]
        if tpch is not None:
            tpch = TpchResult(**{**tpch, "query_times": {
                int(number): seconds
                for number, seconds in tpch["query_times"].items()}})
        return cls(**{
            **data,
            "spec": RunSpec.from_dict(data["spec"]),
            "latencies": LatencyTracker.from_dict(data["latencies"]),
            "tenants": {name: TenantStats.from_dict(name, stats)
                        for name, stats in data["tenants"].items()},
            "samples": [Sample(**row) for row in data["samples"]],
            "bp": BufferPoolStats.from_dict(data["bp"]),
            "ssd_stats": SsdStats.from_dict(data["ssd_stats"]),
            "tpch": tpch,
        })

    def fill_time(self, threshold_frames: int) -> float:
        """See :func:`repro.harness.metrics.fill_time`."""
        return fill_time(self.samples, threshold_frames)

    def dirty_cross_time(self, threshold_frames: int) -> float:
        """See :func:`repro.harness.metrics.dirty_cross_time`."""
        return dirty_cross_time(self.samples, threshold_frames)

    def metrics(self) -> Dict[str, float]:
        """The run's scalar metrics, as the run store records them.

        Per-tenant values follow the ``tenant_<name>_<stat>`` naming
        convention, so traffic runs need no schema of their own.
        """
        if self.tpch is not None:
            return {"value": self.tpch.qphh, "power": self.tpch.power,
                    "throughput": self.tpch.throughput}
        metrics: Dict[str, float] = {
            "value": self.steady_state_throughput(),
            "total_txns": float(self.total_metric_txns),
        }
        if self.latencies.count():
            for stat, value in self.latencies.summary().items():
                metrics[f"latency_{stat}"] = value
        if self.tenants:
            metrics.update(
                offered=float(self.offered), shed=float(self.shed),
                shed_fraction=self.shed_fraction,
                queue_wait_p99=self.queue_wait_percentile(99),
                logical_users=self.logical_users)
        for name, stats in sorted(self.tenants.items()):
            prefix = f"tenant_{name}_"
            metrics[prefix + "offered"] = float(stats.offered)
            metrics[prefix + "shed"] = float(stats.shed)
            metrics[prefix + "completed"] = float(stats.completed)
            metrics[prefix + "throughput"] = stats.throughput(self.duration)
            if stats.latencies.count():
                metrics[prefix + "p50"] = stats.latencies.percentile(50)
                metrics[prefix + "p99"] = stats.latencies.percentile(99)
                metrics[prefix + "queue_wait_p99"] = (
                    stats.queue_waits.percentile(99))
        metrics.update(
            bp_hit_rate=self.bp.hit_rate,
            ssd_hit_rate=self.bp.ssd_hit_rate,
            ssd_used_frames=float(self.ssd["used_frames"]),
            ssd_dirty_frames=float(self.ssd["dirty_frames"]),
            ssd_detached=float(self.ssd["detached"]),
            io_retries=float(self.ssd_stats.io_retries),
            detach_redo_pages=float(self.ssd_stats.detach_redo_pages),
            checkpoints_taken=float(self.checkpoints["taken"]))
        if self.ftl is not None:
            for name in ("waf", "wear_spread", "host_writes", "nand_writes",
                         "erases"):
                metrics[name] = float(self.ftl[name])
        return metrics


def _counters(system: System) -> Dict[str, Any]:
    """The counters a record keeps of a live system."""
    manager = system.ssd_manager
    ftl = system.ssd_device.ftl
    checkpointer = system.checkpointer
    plan = system.faults
    return {
        "bp": system.bp.stats,
        "ssd": {"used_frames": manager.used_frames,
                "dirty_frames": manager.dirty_frames,
                "dirty_fraction": manager.dirty_fraction,
                "detached": manager.detached,
                "invalid_count": manager.table.invalid_count,
                "dirty_limit_frames": manager.config.dirty_limit_frames},
        "ssd_stats": manager.stats,
        "ftl": None if ftl is None else {
            **asdict(ftl.stats), "waf": ftl.waf,
            "wear_spread": ftl.wear_spread,
            "free_blocks": ftl.free_block_count},
        "checkpoints": {"started": checkpointer.checkpoints_started,
                        "taken": checkpointer.checkpoints_taken,
                        "durations": list(checkpointer.durations)},
        "faults": {} if plan is None else {
            role: dict(injector.stats)
            for role, injector in sorted(plan.injectors.items())
            if injector.stats},
    }
