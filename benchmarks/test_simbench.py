"""Simulator microbenchmark: kernel events/sec and Figure 5 wall-clock.

Unlike the figure benches, this file measures the *reproduction itself*:
how many kernel events per wall-clock second the discrete-event core
sustains, and how long one Figure 5 grid cell takes end-to-end.  The
committed ``BENCH_sim.json`` records the numbers on the reference
machine; CI's perf-smoke job re-measures and asserts the kernel has not
regressed past a generous guard band (CI machines are slower and noisy,
so the band is a floor against order-of-magnitude regressions, not a
tight tolerance).

Regenerate the committed snapshot with::

    REPRO_BENCH_REGEN=1 python -m pytest benchmarks/test_simbench.py -q

This file needs only stock pytest (no pytest-benchmark fixture), so the
CI job can run it in isolation.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

from repro.sim import Environment, WheelEnvironment

from benchmarks.common import FAST, OLTP_DURATION, PROFILE_NAME
from repro.harness.run import RunSpec, execute

BENCH_PATH = Path(__file__).resolve().parent.parent / "BENCH_sim.json"
MEASURED_PATH = BENCH_PATH.with_name("BENCH_sim.measured.json")
REGEN = bool(os.environ.get("REPRO_BENCH_REGEN"))

#: CI floor: measured rate must stay above this fraction of the
#: committed reference rate.
GUARD_BAND = 0.20

#: Pre-optimization kernel rates (same machine, same workloads), kept
#: for the record: the slots + inlined-scheduling rewrite is measured
#: against these.
BASELINE_EVENTS_PER_SEC = {
    "timeout_chain": 297_421,
    "procs50": 245_927,
}


def _timeout_chain(n: int, envcls=Environment) -> float:
    """One process yielding ``n`` back-to-back timeouts; returns ev/s."""
    env = envcls()

    def proc():
        t = env.timeout
        for _ in range(n):
            yield t(0.001)

    env.process(proc())
    start = time.perf_counter()
    env.run()
    return n / (time.perf_counter() - start)


def _procs50(per_proc: int, envcls=Environment) -> float:
    """50 interleaved processes, ``per_proc`` timeouts each; ev/s."""
    env = envcls()

    def proc():
        t = env.timeout
        for _ in range(per_proc):
            yield t(0.001)

    for _ in range(50):
        env.process(proc())
    start = time.perf_counter()
    env.run()
    return 50 * per_proc / (time.perf_counter() - start)


def _fig5_cell() -> dict:
    """Wall-clock for one Figure 5 cell at the bench-wide profile."""
    spec = RunSpec(kind="oltp", benchmark="tpcc", scale=1_000, design="LC",
                   profile=PROFILE_NAME, duration=OLTP_DURATION,
                   nworkers=16)
    start = time.perf_counter()
    result = execute(spec)
    elapsed = time.perf_counter() - start
    return {
        "spec": spec.to_dict(),
        "wall_seconds": elapsed,
        "metric_txns": result.total_metric_txns,
    }


def measure(fast: bool = FAST) -> dict:
    """Run the full microbench suite; smaller sizes under FAST."""
    chain_n = 50_000 if fast else 200_000
    per_proc = 2_000 if fast else 10_000
    return {
        "schema": "repro-sim-bench/1",
        "fast": fast,
        "kernel": {
            "timeout_chain_events_per_sec": round(_timeout_chain(chain_n)),
            "procs50_events_per_sec": round(_procs50(per_proc)),
            "wheel_timeout_chain_events_per_sec": round(
                _timeout_chain(chain_n, WheelEnvironment)),
            "wheel_procs50_events_per_sec": round(
                _procs50(per_proc, WheelEnvironment)),
        },
        "baseline_events_per_sec": BASELINE_EVENTS_PER_SEC,
        "fig5_cell": _fig5_cell(),
    }


def test_simbench_guard_band():
    """Kernel throughput stays within the guard band of the snapshot."""
    measured = measure()
    # Always drop the measurement next to the committed snapshot so the
    # run store can ingest it (repro runs record-bench + regress).
    with open(MEASURED_PATH, "w") as fh:
        json.dump(measured, fh, indent=2, sort_keys=True)
        fh.write("\n")
    if REGEN or not BENCH_PATH.exists():
        with open(BENCH_PATH, "w") as fh:
            json.dump(measured, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"\nwrote {BENCH_PATH}")
    with open(BENCH_PATH) as fh:
        committed = json.load(fh)
    print("\nkernel events/sec (measured vs committed):")
    for name, rate in measured["kernel"].items():
        reference = committed["kernel"][name]
        print(f"  {name}: {rate:,} vs {reference:,} "
              f"({rate / reference:.2f}x)")
        assert rate >= GUARD_BAND * reference, (
            f"{name}: {rate:,} ev/s is below {GUARD_BAND:.0%} of the "
            f"committed {reference:,} ev/s — kernel hot path regressed")
    cell = measured["fig5_cell"]
    print(f"fig5 cell ({cell['spec']['benchmark']} "
          f"scale={cell['spec']['scale']} {cell['spec']['design']}): "
          f"{cell['wall_seconds']:.1f}s wall, "
          f"{cell['metric_txns']:,} metric txns")
    assert cell["metric_txns"] > 0


def test_simbench_beats_recorded_baseline():
    """The optimized kernel clears the pre-rewrite rates (the PR's
    >=2x acceptance bar), with slack for slower CI machines."""
    measured = measure()
    for name, baseline in BASELINE_EVENTS_PER_SEC.items():
        rate = measured["kernel"][f"{name}_events_per_sec"]
        assert rate >= 0.8 * baseline, (
            f"{name}: {rate:,} ev/s does not clear the recorded "
            f"pre-optimization baseline {baseline:,} ev/s")
