"""Partitioned buffer pool: equivalence, determinism, and the latch knob.

The partition refactor must be *invisible* when the latch is free: the
pinned digests below were computed on the pre-refactor single-heap pool,
so any drift in victim selection, stamp ordering, or I/O interleaving
fails these tests byte-for-byte.  ``run_meta`` events are excluded from
the digest because they embed the source hash, which changes with any
edit by design.

With a nonzero latch service time the partition count becomes a real
performance knob: fetches queue through their partition's latch in
virtual time, so per-tenant tail latency must fall monotonically as
``--partitions`` grows.
"""

import hashlib
import json

import pytest

from repro.harness.run import RunSpec, execute
from repro.telemetry import Telemetry


#: Meta-free trace digests of the pre-refactor (single-heap, unlatched)
#: buffer pool, profile=tiny scale=20 duration=4 nworkers=4 seed=20110612.
PINNED_TRACES = {
    ("tpcc", "LC", None): "6f916a0023a162055775779854cc0689",
    ("tpcc", "LC", 1.0): "b79c35551dfb4b0217ba02b67ebcd9e9",
    ("tpcc", "TAC", None): "7c1691bbb0694821ee4bf0c280950482",
    ("tpce", "DW", None): "d13c3276d3fe1e2de60cc960a168330f",
}


def _oltp_trace_md5(benchmark, design, checkpoint_interval=None, **kwargs):
    telemetry = Telemetry()
    execute(RunSpec(kind="oltp", benchmark=benchmark, scale=20, design=design,
                    profile="tiny", duration=4.0, nworkers=4,
                    checkpoint_interval=checkpoint_interval, **kwargs),
            telemetry=telemetry)
    payload = "\n".join(
        json.dumps(event.to_dict(), sort_keys=True)
        for event in telemetry.tracer.events
        if event.to_dict().get("cat") != "meta")
    return hashlib.md5(payload.encode()).hexdigest()


@pytest.mark.parametrize("bench,design,ckpt", sorted(
    PINNED_TRACES, key=str))
def test_single_partition_trace_matches_pre_refactor(bench, design, ckpt):
    """Acceptance: partitions=1 traces are md5-identical to the seed."""
    digest = _oltp_trace_md5(bench, design, checkpoint_interval=ckpt)
    assert digest == PINNED_TRACES[(bench, design, ckpt)]


def test_partition_count_does_not_change_unlatched_traces():
    """With a free latch the global stamp makes victim order a global
    min across partition heaps — so N is trace-invisible."""
    digests = {n: _oltp_trace_md5("tpcc", "LC", partitions=n)
               for n in (1, 4, 16)}
    assert digests[4] == digests[1]
    assert digests[16] == digests[1]
    assert digests[1] == PINNED_TRACES[("tpcc", "LC", None)]


def test_partitioned_run_is_deterministic_under_fixed_seed():
    first = _oltp_trace_md5("tpcc", "LC", partitions=8)
    second = _oltp_trace_md5("tpcc", "LC", partitions=8)
    assert first == second


def test_latched_run_records_partition_latch_waits():
    result = execute(RunSpec(kind="oltp", benchmark="tpcc", scale=20,
                             design="LC", profile="tiny", duration=4.0,
                             nworkers=4, partitions=4, latch_us=200.0))
    stats = result.system.bp.stats
    assert stats.partition_latch_waits > 0
    assert stats.partition_latch_wait_time > 0.0
    bp = result.system.bp
    assert bp.partitions == 4
    assert len(bp.partition_occupancy()) == 4
    # Every resident frame is accounted to exactly one partition shard.
    assert sum(bp.partition_occupancy()) == len(bp.frames)


def test_latched_throughput_unchanged_by_free_latch():
    """latch_us=0 (the default) must leave results identical to a run
    that never heard of partitioning."""
    base = execute(RunSpec(kind="oltp", benchmark="tpcc", scale=20,
                           design="LC", profile="tiny", duration=4.0,
                           nworkers=4))
    sharded = execute(RunSpec(kind="oltp", benchmark="tpcc", scale=20,
                              design="LC", profile="tiny", duration=4.0,
                              nworkers=4, partitions=16))
    assert sharded.total_metric_txns == base.total_metric_txns
    assert sharded.system.bp.stats.partition_latch_waits == 0


TWO_TENANTS_HOT = ("gold=poisson:rate=400:theta=0.6;"
                   "noisy=bursty:rate=300:burst=10:theta=0.99")


def test_traffic_per_tenant_p99_strictly_decreases_with_partitions():
    """Acceptance: two-tenant open-loop run, per-tenant p99 strictly
    decreasing across --partitions 1/4/16 when latch time is modeled."""
    p99 = {}
    for nparts in (1, 4, 16):
        result = execute(RunSpec(kind="traffic", benchmark="tpcc", scale=20,
                                 design="LC", tenants=TWO_TENANTS_HOT,
                                 profile="tiny", duration=8.0, nworkers=8,
                                 queue_limit=200, partitions=nparts,
                                 latch_us=200.0))
        p99[nparts] = {name: stats.latencies.percentile(99)
                       for name, stats in result.tenants.items()}
    for tenant in ("gold", "noisy"):
        assert p99[4][tenant] < p99[1][tenant]
        assert p99[16][tenant] < p99[4][tenant]
