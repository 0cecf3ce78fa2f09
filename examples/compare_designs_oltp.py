#!/usr/bin/env python
"""Compare all five configurations on an update-intensive OLTP workload.

Reproduces the core of the paper's Figure 5 story at example scale: on a
TPC-C-like workload the write-back LC design wins by a wide margin, the
write-through designs (DW, TAC) give a modest gain, CW trails them, and
everything beats the plain-disk configuration.

Run:  python examples/compare_designs_oltp.py  [--benchmark tpce]
"""

import argparse

from repro.harness.experiments import speedup_over_nossd
from repro.harness.report import format_table
from repro.harness.run import RunRecord, RunSpec, execute

DESIGNS = ("noSSD", "CW", "DW", "LC", "TAC")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--benchmark", choices=("tpcc", "tpce"),
                        default="tpcc")
    parser.add_argument("--scale", type=int, default=None,
                        help="warehouses (tpcc) or customers/1000 (tpce)")
    parser.add_argument("--duration", type=float, default=20.0,
                        help="virtual seconds per run")
    args = parser.parse_args()
    scale = args.scale or (400 if args.benchmark == "tpcc" else 8)

    results = {}
    for design in DESIGNS:
        spec = RunSpec(
            kind="oltp", benchmark=args.benchmark, scale=scale,
            design=design, profile="small", duration=args.duration,
            nworkers=16,
            checkpoint_interval=(args.duration / 3
                                 if args.benchmark == "tpce" else None))
        result = RunRecord.of(spec, execute(spec))
        results[design] = result
        print(f"ran {design:6s} -> {result.metric_name} "
              f"{result.steady_state_throughput():,.1f}")

    throughputs = {d: r.steady_state_throughput() for d, r in results.items()}
    speedups = speedup_over_nossd(throughputs)
    rows = []
    for design in DESIGNS:
        result = results[design]
        rows.append([
            design,
            f"{throughputs[design]:,.1f}",
            f"{speedups[design]:.2f}x",
            f"{result.bp.ssd_hit_rate:.1%}",
            f"{result.ssd['used_frames']:,}",
            f"{result.ssd['invalid_count']:,}",
        ])
    print()
    print(format_table(
        f"{args.benchmark.upper()} — design comparison "
        f"(steady state over the last 20% of the run)",
        ["design", results["noSSD"].metric_name, "speedup",
         "SSD hit rate", "SSD frames", "invalid (waste)"],
        rows))


if __name__ == "__main__":
    main()
