"""End-to-end engine benchmark: the partitioned-pool throughput guard.

Where ``test_simbench.py`` measures the *kernel* (events/sec on synthetic
timer loads), this file measures the *engine*: one small but complete
OLTP cell — B-tree descent, buffer pool, SSD manager, WAL, checkpointer —
timed end to end.  The committed ``BENCH_engine.json`` records the
reference machine's numbers after the partitioned-pool rewrite; CI's
perf-smoke job re-measures and asserts two things:

* ``metric_txns`` matches **exactly** — the simulation is deterministic,
  so any drift means behavior changed, not the machine;
* ``txns_per_wall_sec`` stays above a generous guard band — CI machines
  are slower and noisy, so the floor catches order-of-magnitude
  regressions (a reverted ``__slots__``, a re-enabled per-event GC run),
  not percent-level jitter.

Regenerate the committed snapshot with::

    REPRO_BENCH_REGEN=1 python -m pytest benchmarks/test_enginebench.py -q

Every run also writes ``BENCH_engine.measured.json`` (uncommitted) so
the measurement can be ingested into the run store afterwards::

    python -m repro runs record-bench BENCH_engine.measured.json
    python -m repro runs regress
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

from repro.harness.run import RunSpec, execute

BENCH_PATH = Path(__file__).resolve().parent.parent / "BENCH_engine.json"
MEASURED_PATH = BENCH_PATH.with_name("BENCH_engine.measured.json")
REGEN = bool(os.environ.get("REPRO_BENCH_REGEN"))

#: CI floor: measured throughput must stay above this fraction of the
#: committed reference rate.
GUARD_BAND = 0.20

#: The cell is deliberately small (seconds, not minutes): CI runs it on
#: every push.  It is the same workload shape as the fig5 cell, scaled
#: down; the full-size guard lives in ``BENCH_sim.json``'s fig5_cell.
SPEC = RunSpec(kind="oltp", benchmark="tpcc", scale=100, design="LC",
               profile="tiny", duration=8.0, nworkers=8)


def measure() -> dict:
    """Time one engine cell end to end (no cache — we are the timer)."""
    start = time.perf_counter()
    result = execute(SPEC)
    elapsed = time.perf_counter() - start
    txns = result.total_metric_txns
    return {
        "schema": "repro-engine-bench/1",
        "spec": SPEC.to_dict(),
        "wall_seconds": elapsed,
        "metric_txns": txns,
        "txns_per_wall_sec": round(txns / elapsed, 1),
    }


def test_enginebench_guard_band():
    measured = measure()
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
    print(f"\nengine cell: {measured['wall_seconds']:.2f}s wall, "
          f"{measured['metric_txns']:,} txns "
          f"({measured['txns_per_wall_sec']:,.0f}/s vs committed "
          f"{committed['txns_per_wall_sec']:,.0f}/s)")
    assert measured["metric_txns"] == committed["metric_txns"], (
        "metric_txns drifted — the engine's virtual-time behavior "
        "changed; regenerate BENCH_engine.json only if that is intended")
    floor = GUARD_BAND * committed["txns_per_wall_sec"]
    assert measured["txns_per_wall_sec"] >= floor, (
        f"engine throughput {measured['txns_per_wall_sec']:,.0f} txns/s "
        f"fell below {GUARD_BAND:.0%} of the committed "
        f"{committed['txns_per_wall_sec']:,.0f} txns/s — the hot-path "
        f"rewrite regressed")
