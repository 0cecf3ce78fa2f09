"""Closed-loop workload driver and run results.

Mirrors the paper's methodology: N concurrent clients issue transactions
back-to-back for a fixed (virtual) duration; throughput is reported in
time buckets (the paper uses six-minute buckets over ten hours — scaled
runs use proportionally smaller buckets), and the headline number is the
average over the final window, "similar to the method specified by the
TPC-C benchmark".
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from math import ceil
from typing import Dict, List, Optional, Sequence, Tuple

from repro.harness.metrics import LatencyTracker, Sampler, TenantStats
from repro.harness.system import System
from repro.sim import Store
from repro.telemetry import NULL_TELEMETRY, percentile_of


class ResultView:
    """The read API a live :class:`RunResult` and its plain-data
    :class:`~repro.harness.run.RunRecord` share: the bucketed metric
    series and the open-loop totals across tenants."""

    duration: float
    bucket_seconds: float
    metric_window: float
    buckets: List[int]
    tenants: Dict[str, TenantStats]

    @property
    def offered(self) -> int:
        """Open-loop arrivals generated across all tenants."""
        return sum(t.offered for t in self.tenants.values())

    @property
    def shed(self) -> int:
        """Open-loop arrivals dropped at admission across all tenants."""
        return sum(t.shed for t in self.tenants.values())

    @property
    def shed_fraction(self) -> float:
        """Fraction of offered arrivals shed (0 when nothing offered)."""
        offered = self.offered
        return self.shed / offered if offered else 0.0

    def queue_wait_percentile(self, q: float) -> float:
        """q-th percentile admission-queue wait across all tenants."""
        merged: List[float] = []
        for tenant in self.tenants.values():
            for values in tenant.queue_waits.as_dict().values():
                merged.extend(values)
        merged.sort()
        return percentile_of(merged, q)

    @property
    def total_metric_txns(self) -> int:
        """Metric-transaction completions across all buckets."""
        return sum(self.buckets)

    def bucket_widths(self) -> List[float]:
        """True width of each bucket in seconds.

        All buckets are ``bucket_seconds`` wide except possibly the last:
        when ``duration`` is not a bucket multiple, the final bucket only
        covers the tail window, and rates must be normalized by that true
        width rather than the nominal one.
        """
        if not self.buckets:
            return []
        widths = [self.bucket_seconds] * len(self.buckets)
        tail = self.duration - (len(self.buckets) - 1) * self.bucket_seconds
        if 0.0 < tail < self.bucket_seconds:
            widths[-1] = tail
        return widths

    def throughput_series(self, smooth: int = 1) -> List[Tuple[float, float]]:
        """(bucket start time, metric rate) pairs.

        ``smooth`` applies the paper's Figure 6 moving average over that
        many adjacent buckets.
        """
        rates = [count / width * self.metric_window
                 for count, width in zip(self.buckets, self.bucket_widths())]
        if smooth > 1:
            half = smooth // 2
            rates = [
                sum(rates[max(0, i - half):i + half + 1])
                / len(rates[max(0, i - half):i + half + 1])
                for i in range(len(rates))
            ]
        return [(i * self.bucket_seconds, rate)
                for i, rate in enumerate(rates)]

    def steady_state_throughput(self, window_fraction: float = 0.2) -> float:
        """Average metric rate over the last ``window_fraction`` of the
        run (the paper averages the last hour of ten)."""
        if not self.buckets:
            return 0.0
        take = max(1, int(len(self.buckets) * window_fraction))
        tail = self.buckets[-take:]
        widths = self.bucket_widths()[-take:]
        return sum(tail) / sum(widths) * self.metric_window


@dataclass
class RunResult(ResultView):
    """Everything measured during one workload run, with the live
    simulator it ran on (see :class:`ResultView` for the read API)."""

    design: str
    metric_name: str
    duration: float
    bucket_seconds: float
    metric_window: float
    start_time: float = 0.0
    #: Metric-transaction completions per bucket.
    buckets: List[int] = field(default_factory=list)
    #: All transaction completions by type.
    txn_counts: Dict[str, int] = field(default_factory=dict)
    sampler: Optional[Sampler] = None
    latencies: Optional[LatencyTracker] = None
    system: Optional[System] = None
    #: Per-tenant accounting, filled by :class:`OpenLoopRunner` (empty
    #: for closed-loop runs).
    tenants: Dict[str, TenantStats] = field(default_factory=dict)
    #: Logical users the run's arrival rates represent (0 = closed-loop).
    logical_users: float = 0.0


def _latency_family(system):
    """The per-type latency histogram family, or None when telemetry is
    off (a client then makes no registry call per transaction)."""
    telemetry = getattr(system, "telemetry", NULL_TELEMETRY)
    if not telemetry.enabled:
        return None
    return telemetry.registry.histogram(
        "txn_latency_seconds", "Transaction latency by type",
        labelnames=("type",))


class WorkloadRunner:
    """Runs an OLTP workload against a system with N closed-loop clients."""

    def __init__(self, system: System, workload, nworkers: int = 32,
                 bucket_seconds: float = 2.0, seed: int = 20110612,
                 sample_interval: float = 1.0):
        if nworkers < 1:
            raise ValueError(f"nworkers must be >= 1, got {nworkers}")
        self.system = system
        self.workload = workload
        self.nworkers = nworkers
        self.bucket_seconds = bucket_seconds
        self.seed = seed
        self.sample_interval = sample_interval
        self._stopped = False

    def stop(self) -> None:
        """Ask the clients to finish their current transaction and exit.

        Needed before crash simulation or post-run phases that advance
        virtual time: otherwise the closed-loop clients keep running.
        """
        self._stopped = True

    def run(self, duration: float, setup: bool = True) -> RunResult:
        """Drive the workload for ``duration`` virtual seconds."""
        system, workload = self.system, self.workload
        # A stop() from a previous run must not leak into this one, or the
        # fresh clients would exit on their first loop check and the run
        # silently report ~zero throughput.
        self._stopped = False
        if setup:
            workload.setup(system)
            system.start_services()
        result = RunResult(
            design=system.design,
            metric_name=workload.metric_name,
            duration=duration,
            bucket_seconds=self.bucket_seconds,
            metric_window=workload.metric_window,
            start_time=system.env.now,
            # ceil, not round: a partial tail window still gets a bucket
            # (normalized by its true width in bucket_widths()).
            buckets=[0] * max(1, ceil(duration / self.bucket_seconds - 1e-9)),
            sampler=Sampler(system, self.sample_interval),
            latencies=LatencyTracker(),
            system=system,
        )
        result.sampler.start()
        for worker in range(self.nworkers):
            rng = random.Random(self.seed + worker * 1009)
            system.env.process(self._client(rng, result))
        system.run(until=system.env.now + duration)
        # The run's measurement window is over: stop the sampler so later
        # phases (crash simulation, restarts) don't grow it unboundedly.
        result.sampler.stop()
        return result

    def _client(self, rng: random.Random, result: RunResult):
        system, workload = self.system, self.workload
        metric_txn = workload.metric_transaction
        nbuckets = len(result.buckets)
        latency_family = _latency_family(system)
        env = system.env
        transaction = workload.transaction
        txn_counts = result.txn_counts
        record_latency = result.latencies.record
        buckets = result.buckets
        bucket_seconds = self.bucket_seconds
        start_time = result.start_time
        while not self._stopped:
            name, body = transaction(rng, system)
            started = env._now
            yield from body
            now = env._now
            txn_counts[name] = txn_counts.get(name, 0) + 1
            latency = now - started
            record_latency(name, latency)
            if latency_family is not None:
                latency_family.labels(type=name).observe(latency)
            if name == metric_txn:
                bucket = int((now - start_time) / bucket_seconds)
                if 0 <= bucket < nbuckets:
                    buckets[bucket] += 1


class OpenLoopRunner:
    """Drives open-loop, multi-tenant traffic against one system.

    Per-tenant arrival processes (:mod:`repro.workloads.traffic`) drop
    work into a bounded admission queue; ``nworkers`` simulated workers
    drain it.  The logical-user count is carried by the arrival *rates*
    — a million users at 100 s think time is 10k arrivals/sec through a
    few dozen workers — so memory stays bounded by ``queue_limit`` and
    ``nworkers``, never by the user count.

    Overload is measurable instead of silent: arrivals finding the queue
    at ``queue_limit`` are *shed* (counted per tenant), and every
    admitted transaction records its queue wait separately from its
    sojourn time.
    """

    def __init__(self, system: System, workload, tenants: Sequence,
                 nworkers: int = 64, queue_limit: int = 10_000,
                 bucket_seconds: float = 2.0, seed: int = 20110612,
                 sample_interval: float = 1.0):
        if nworkers < 1:
            raise ValueError(f"nworkers must be >= 1, got {nworkers}")
        if queue_limit < 1:
            raise ValueError(f"queue_limit must be >= 1, got {queue_limit}")
        if not tenants:
            raise ValueError("need at least one tenant")
        self.system = system
        self.workload = workload
        self.tenants = list(tenants)
        self.nworkers = nworkers
        self.queue_limit = queue_limit
        self.bucket_seconds = bucket_seconds
        self.seed = seed
        self.sample_interval = sample_interval
        self._stopped = False

    def stop(self) -> None:
        """Ask the workers to finish their current transaction and exit."""
        self._stopped = True

    def run(self, duration: float, setup: bool = True) -> RunResult:
        """Offer traffic for ``duration`` virtual seconds."""
        system, workload = self.system, self.workload
        self._stopped = False
        if setup:
            workload.setup(system)
            system.start_services()
        views = []
        stats: List[TenantStats] = []
        for spec in self.tenants:
            if hasattr(workload, "tenant_view"):
                views.append(workload.tenant_view(spec.name, spec.theta))
            else:
                views.append(workload)
            stats.append(TenantStats(name=spec.name))
        result = RunResult(
            design=system.design,
            metric_name=workload.metric_name,
            duration=duration,
            bucket_seconds=self.bucket_seconds,
            metric_window=workload.metric_window,
            start_time=system.env.now,
            buckets=[0] * max(1, ceil(duration / self.bucket_seconds - 1e-9)),
            sampler=Sampler(system, self.sample_interval),
            latencies=LatencyTracker(),
            system=system,
            tenants={spec.name: st for spec, st in zip(self.tenants, stats)},
            logical_users=sum(spec.logical_users for spec in self.tenants),
        )
        result.sampler.start()
        queue: Store = Store(system.env)
        end = system.env.now + duration
        for index, spec in enumerate(self.tenants):
            # A distinct prime stride per tenant keeps arrival streams
            # independent of the worker rngs (seed + 1009*worker).
            rng = random.Random(self.seed + 7919 * (index + 1))
            system.env.process(
                self._arrivals(spec, stats[index], index, rng, queue, end))
        for worker in range(self.nworkers):
            rng = random.Random(self.seed + worker * 1009)
            system.env.process(self._worker(rng, views, stats, queue, result))
        system.run(until=end)
        result.sampler.stop()
        return result

    def _arrivals(self, spec, stats: TenantStats, index: int,
                  rng: random.Random, queue: Store, end: float):
        env = self.system.env
        limit = self.queue_limit
        for when in spec.arrivals.times(rng, start=env.now):
            if when >= end:
                break
            yield env.timeout(when - env.now)
            if self._stopped:
                break
            stats.offered += 1
            if len(queue) >= limit:
                stats.shed += 1
            else:
                queue.put((index, env.now))

    def _worker(self, rng: random.Random, views, stats, queue: Store,
                result: RunResult):
        system = self.system
        metric_txn = self.workload.metric_transaction
        nbuckets = len(result.buckets)
        latency_family = _latency_family(system)
        while not self._stopped:
            index, enqueued = yield queue.get()
            tenant = stats[index]
            wait = system.env.now - enqueued
            name, body = views[index].transaction(rng, system)
            yield from body
            sojourn = system.env.now - enqueued
            tenant.completed += 1
            tenant.queue_waits.record(name, wait)
            tenant.latencies.record(name, sojourn)
            result.txn_counts[name] = result.txn_counts.get(name, 0) + 1
            result.latencies.record(name, sojourn)
            if latency_family is not None:
                latency_family.labels(type=name).observe(sojourn)
            if name == metric_txn:
                bucket = int((system.env.now - result.start_time)
                             / self.bucket_seconds)
                if 0 <= bucket < nbuckets:
                    result.buckets[bucket] += 1
