"""The repo benchmark: three workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py [--workload NAME|all] [--seed N]
                             [--seconds S] [--trace 0|1]

Each pass runs one workload in a fresh single-threaded process
(``one_pass.py``), one pass at a time.  ``--trace 0`` repeats untraced
passes until ``--seconds`` have gone by and reports the median host
times, at the reference host speed of ``speed.py``.  ``--trace 1``
adds a cProfile pass and a telemetry pass and reports the per-layer
metrics.  Every pass of a seed must reproduce the
same virtual-time results; any failed check marks the run incorrect and
the command exits 1.  The last line of standard output is one JSON
object.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
ONE_PASS = HERE / "one_pass.py"
DEFAULT_SEED = 20110612
#: Workload -> cells: the seeds one run measures, each in its own pass.
#: Cell 0 runs ``--seed`` itself; the virtual-time metrics are medians
#: over the cells.  TPC-H gets more because one seed's query latencies
#: spread widely (its four streams' query orders are random).
CELLS = {"tpcc-ssd": 3, "tpch-scan": 8, "traffic-hot": 3}
WORKLOADS = tuple(CELLS)
#: Distance between cell seeds, so the cells of nearby seeds never
#: share a seed.
CELL_STRIDE = 1_000_003
PASS_TIMEOUT_S = 150

#: The end-to-end metrics: name -> unit (sim_throughput's unit is the
#: workload's own, tpmC or QphH).  wall_s and setup_s are host seconds
#: at the reference host speed of speed.py; the table also shows the
#: raw host seconds they were normalized from.
END_TO_END = {
    "wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
    "sim_throughput": "tpmC/QphH", "sim_p50_ms": "ms", "sim_p99_ms": "ms",
    "slo_miss_frac": "ratio", "failed_frac": "ratio", "sim_restart_s": "s",
    "raw_wall_s": "s", "raw_setup_s": "s",
}
#: The subset printed in the JSON result: defined and non-zero on every
#: workload (slo_miss_frac and sim_restart_s belong to one workload
#: each, failed_frac is zero on a correct run; the trace run reports
#: them).
JSON_END_TO_END = ("wall_s", "setup_s", "peak_rss_mb", "sim_throughput",
                   "sim_p50_ms", "sim_p99_ms")
THROUGHPUT_UNIT = {"tpcc-ssd": "tpmC", "tpch-scan": "QphH",
                   "traffic-hot": "tpmC"}

#: Layers whose profiled self time is reported, in BENCHMARK.json order.
LAYERS = ("sim", "workloads", "engine.btree", "engine.buffer_pool",
          "engine.wal", "engine.recovery", "core", "storage",
          "storage.ftl", "telemetry", "harness")
#: Latency components of the p99 transactions reported by name; the
#: rest (device writes, log reads) are summed into wait.other_ms.
WAIT_COMPONENTS = ("disk_read", "ssd_read", "latch", "wal_flush",
                   "free_frame", "inflight", "prefetch")


class PassFailed(Exception):
    """A pass process crashed or printed no report."""


def run_pass(workload: str, seed: int, mode: str,
             trace_dir: Optional[Path] = None) -> dict:
    """Run one pass in a child process and return its report."""
    command = [sys.executable, str(ONE_PASS), "--workload", workload,
               "--seed", str(seed), "--mode", mode]
    if trace_dir is not None:
        command += ["--trace-dir", str(trace_dir)]
    try:
        proc = subprocess.run(command, cwd=ROOT, capture_output=True,
                              text=True, timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise PassFailed(f"{workload} {mode} pass timed out after "
                         f"{PASS_TIMEOUT_S} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise PassFailed(f"{workload} {mode} pass exited "
                         f"{proc.returncode}:\n{proc.stderr.strip()}")
    return json.loads(lines[-1])


def _outcome(report: dict) -> dict:
    """The parts of a pass report that must repeat exactly for a seed."""
    return {"sim": report["sim"], "counters": report["counters"],
            "pages_redone": report["checks"]["pages_redone"],
            "restart_s": report["checks"]["restart_s"]}


def _median(values):
    values = [value for value in values if value is not None]
    return statistics.median(values) if values else None


def measure(workload: str, seed: int, seconds: float) -> dict:
    """Untraced passes over every cell, then repeats until ``seconds``.

    A repeated cell must reproduce its virtual-time results exactly.
    """
    seeds = [seed + cell * CELL_STRIDE for cell in range(CELLS[workload])]
    by_cell: List[List[dict]] = [[] for _ in seeds]
    errors: List[str] = []
    started = time.perf_counter()
    done = 0
    while done < len(seeds) or time.perf_counter() - started < seconds:
        cell = done % len(seeds)
        report = run_pass(workload, seeds[cell], "plain")
        errors += [e for e in report["checks"]["errors"] if e not in errors]
        if by_cell[cell] and _outcome(report) != _outcome(by_cell[cell][0]):
            errors.append(f"seed {seeds[cell]} did not reproduce its "
                          "virtual-time results on a second pass")
        by_cell[cell].append(report)
        done += 1
    reports = [report for cell in by_cell for report in cell]
    firsts = [cell[0] for cell in by_cell]
    def cell_median(key: str) -> float:
        return statistics.median(
            statistics.median(r[key] for r in cell) for cell in by_cell)

    metrics = {
        "wall_s": cell_median("wall_s"),
        "setup_s": statistics.median(r["setup_s"] for r in reports),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reports),
        "sim_throughput": _median(r["sim"]["throughput"] for r in firsts),
        "sim_p50_ms": _median(r["sim"]["p50_ms"] for r in firsts),
        "sim_p99_ms": _median(r["sim"]["p99_ms"] for r in firsts),
        "slo_miss_frac": _median(r["sim"]["slo_miss_frac"] for r in firsts),
        "failed_frac": 1.0 if errors else 0.0,
        "sim_restart_s": _median(r["checks"]["restart_s"] for r in firsts),
        "raw_wall_s": cell_median("raw_wall_s"),
        "raw_setup_s": statistics.median(r["raw_setup_s"] for r in reports),
    }
    return {"metrics": metrics, "errors": errors,
            "attempted": sum(r["sim"]["attempted"] for r in reports),
            "cell0": by_cell[0]}


def trace(workload: str, seed: int, base: dict) -> dict:
    """The two traced passes of cell 0, checked against its plain pass."""
    first = base["cell0"][0]
    errors: List[str] = []
    scratch = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        profiled = run_pass(workload, seed, "profile")
        traced = run_pass(workload, seed, "telemetry", trace_dir=scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    for name, report in (("profile", profiled), ("telemetry", traced)):
        errors += [e for e in report["checks"]["errors"]
                   if e not in base["errors"]]
        if _outcome(report) != _outcome(first):
            errors.append(f"the {name} pass did not reproduce the untraced "
                          "virtual-time results")
    profile = profiled["profile"]
    errors += profile["map_errors"]
    waits = traced["waits"]
    if waits["dropped"]:
        errors.append(f"telemetry trace truncated: {waits['dropped']} "
                      "events dropped")
    base_wall = statistics.median(r["raw_wall_s"] for r in base["cell0"])
    sim, checks = first["sim"], first["checks"]
    metrics: Dict[str, float] = {}
    self_s = profile["self_s"]
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = self_s[layer]
    events = profile["events"]
    metrics["sim.events"] = events
    metrics["sim.ns_per_event"] = (self_s["sim"] / events * 1e9
                                   if events else 0.0)
    metrics["workloads.txns"] = sum(sim["txn_counts"].values())
    metrics["engine.btree.ops"] = profile["calls"]["engine.btree"]
    metrics["telemetry.calls"] = profile["calls"]["telemetry"]
    metrics.update(first["counters"])
    metrics["engine.recovery.pages_redone"] = checks["pages_redone"]
    metrics["engine.recovery.host_s"] = checks["recovery_host_s"]
    metrics["profile.repro_self_s"] = profile["repro_s"]
    metrics["profile.unmapped_share"] = profile["unmapped_share"]
    tenants = sim.get("tenant_p99_ms", {})
    metrics["tenant.web.p99_ms"] = tenants.get("web", 0.0)
    metrics["tenant.batch.p99_ms"] = tenants.get("batch", 0.0)
    components = waits["components_ms"]
    for component in WAIT_COMPONENTS:
        metrics[f"wait.{component}_ms"] = components.get(component, 0.0)
    metrics["wait.other_ms"] = sum(value for name, value in components.items()
                                   if name not in WAIT_COMPONENTS)
    metrics["wait.queue_ms"] = sim.get("queue_p99_ms", 0.0)
    metrics["wait.coverage"] = waits["coverage"]
    metrics["trace.profile_overhead"] = profiled["raw_wall_s"] / base_wall
    metrics["trace.telemetry_overhead"] = traced["raw_wall_s"] / base_wall
    metrics["slo_miss_frac"] = sim["slo_miss_frac"] or 0.0
    metrics["failed_frac"] = 1.0 if errors or base["errors"] else 0.0
    metrics["sim_restart_s"] = checks["restart_s"] or 0.0
    return {"metrics": metrics, "errors": errors, "base_wall_s": base_wall}


def _fmt(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:.4g}" if abs(value) < 1e5 else f"{value:.0f}"
    return str(value)


def print_table(rows: Dict[str, dict]) -> None:
    """One row per workload, one column per end-to-end metric."""
    header = ["workload"] + [
        f"{name} [{unit}]" for name, unit in END_TO_END.items()]
    body = []
    for workload, metrics in rows.items():
        cells = [workload]
        for name in END_TO_END:
            cell = _fmt(metrics[name])
            if name == "sim_throughput":
                cell += f" {THROUGHPUT_UNIT[workload]}"
            cells.append(cell)
        body.append(cells)
    widths = [max(len(row[i]) for row in [header] + body)
              for i in range(len(header))]
    for row in [header] + body:
        print("  ".join(cell.rjust(width) for cell, width in zip(row, widths)))


def print_layers(workload: str, metrics: Dict[str, float],
                 base_wall: float) -> None:
    """Per-layer metrics of one workload, with shares of profiled time."""
    total = metrics["profile.repro_self_s"]
    print(f"\nper-layer metrics, {workload} (self times under cProfile; "
          f"shares of {total:.3f} s profiled repro self time; "
          f"overheads against the untraced raw_wall_s {base_wall:.3f} s)")
    for name, value in metrics.items():
        note = ""
        if name.endswith(".self_s") and total:
            note = f"  ({value / total:.1%})"
        print(f"  {name:<44} {_fmt(value)}{note}")


def predictions(workload: str, metrics: Dict[str, float]) -> List[str]:
    """The bypass predictions of README.md, checked on one workload.

    They describe where host time goes today; a change may move them,
    so they are reported, not enforced.
    """
    total = metrics["profile.repro_self_s"] or 1.0

    def share(*layers: str) -> float:
        return sum(metrics[f"{layer}.self_s"] for layer in layers) / total

    ftl = metrics["storage.ftl.self_s"]
    rules = [(f"storage.ftl.self_s {'> 0' if workload == 'tpcc-ssd' else '= 0'}",
              ftl > 0 if workload == "tpcc-ssd" else ftl == 0, f"{ftl:.3f} s")]
    tree = share("engine.btree", "workloads")
    if workload == "traffic-hot":
        rules.append(("engine.btree + workloads >= 15%", tree >= 0.15,
                      f"{tree:.1%}"))
    if workload == "tpch-scan":
        wal = share("engine.wal")
        rules.append(("engine.btree + workloads <= 3%", tree <= 0.03,
                      f"{tree:.1%}"))
        rules.append(("engine.wal < 1%", wal < 0.01, f"{wal:.2%}"))
    return [f"  prediction {rule}: {'holds' if ok else 'DOES NOT HOLD'} "
            f"({value})" for rule, ok, value in rules]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        help="tpcc-ssd, tpch-scan, traffic-hot or all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    unknown = [name for name in names if name not in WORKLOADS]
    if unknown:
        parser.error(f"unknown workload {unknown[0]!r}")
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no src/repro under {ROOT}", file=sys.stderr)
        return 2

    results: Dict[str, dict] = {}
    try:
        for name in names:
            result = measure(name, args.seed, args.seconds)
            if args.trace:
                result["trace"] = trace(name, args.seed, result)
            results[name] = result
    except PassFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    print_table({name: r["metrics"] for name, r in results.items()})
    correct = True
    attempted = failed = 0
    output: Dict[str, dict] = {}
    for name, result in results.items():
        errors = result["errors"] + result.get("trace", {}).get("errors", [])
        for error in errors:
            print(f"CHECK FAILED [{name}]: {error}")
        attempted += result["attempted"]
        failed += result["attempted"] if errors else 0
        correct = correct and not errors
        if args.trace:
            metrics = result["trace"]["metrics"]
            print_layers(name, metrics, result["trace"]["base_wall_s"])
            print("\n".join(predictions(name, metrics)))
            units = {}
        else:
            metrics = {key: result["metrics"][key] for key in JSON_END_TO_END}
            units = END_TO_END
        prefix = f"{name}." if len(results) > 1 else ""
        for key, value in metrics.items():
            output[prefix + key] = {"value": value,
                                    "unit": units.get(key, _unit(key))}
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": output}))
    return 0 if correct else 1


def _unit(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if name.endswith(("_ms",)):
        return "ms"
    if name.endswith(("_s", "self_s")):
        return "s"
    if name.endswith(("ratio", "share", "coverage", "overhead", "waf",
                      "_frac", "per_write", "per_flush", "per_cleaner_io")):
        return "ratio"
    if name.endswith("ns_per_event"):
        return "ns"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
