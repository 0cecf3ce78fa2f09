"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``iometer`` — regenerate the paper's Table 1 device measurements.
* ``oltp``    — run a TPC-C/E-like experiment for one or more designs
  and print throughputs, speedups, and SSD statistics.
* ``tpch``    — run the TPC-H power + throughput tests.
* ``designs`` — list the available SSD designs with one-line summaries.
* ``sweep``   — fan a grid of runs (designs x scales) across worker
  processes through the on-disk run cache.
* ``analyze`` — reconstruct per-transaction latency attribution from
  ``--trace`` output and emit terminal/HTML/JSON reports.
* ``runs``    — query the run database every experiment records into
  (list/show/compare/regress/bench; see ``repro.runstore``).
* ``serve``   — HTML dashboard + JSON API over the run database.
* ``lint``    — run the repo-specific AST invariant checker
  (``repro.statics``) over the sources.

Each experiment subcommand turns its flags into run specs, runs them
through :func:`repro.harness.run.execute`, and renders their run
records (:mod:`repro.harness.run`).
``oltp``/``traffic``/``tpch``/``sweep``/``chaos``/``analyze --bench``
record into the run store by default (``--db`` to point elsewhere,
``--no-db`` to skip); recording is best-effort and never fails the run.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from repro.core import DESIGNS
from repro.faults import FaultPlan
from repro.harness.experiments import SCALE_PROFILES, speedup_over_nossd
from repro.harness.report import format_metrics, format_table
from repro.harness.run import RunRecord, RunSpec, execute
from repro.harness.sweep import Recorder
from repro.sim import KERNELS
from repro.telemetry import Telemetry

DESIGN_SUMMARIES = {
    "noSSD": "unmodified engine (baseline)",
    "CW": "clean-write: dirty evictions never cached (§2.3.1)",
    "DW": "dual-write: write-through dirty evictions (§2.3.2)",
    "LC": "lazy-cleaning: write-back with a cleaner thread (§2.3.3)",
    "LS": "log-structured: append-only SSD log, group-commit admission, "
          "GC-aware reclaim (DESIGN.md §10)",
    "TAC": "temperature-aware caching (Canim et al., the paper's baseline)",
    "ROT": "rotating circular SSD queue (Holloway, related work §5)",
    "EXCL": "exclusive two-level cache (Koltsidas & Viglas, related work §5)",
}


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--profile", choices=sorted(SCALE_PROFILES),
                        default="small",
                        help="scale profile (default: small)")
    parser.add_argument("--designs", default="noSSD,DW,LC,TAC",
                        help="comma-separated designs (see `designs`)")
    parser.add_argument("--trace", metavar="FILE", default=None,
                        help="write a trace file (Chrome trace_event JSON, "
                             "or JSONL when FILE ends in .jsonl); with "
                             "several designs, one file per design; feed "
                             "the files to `repro analyze`")
    parser.add_argument("--metrics", action="store_true",
                        help="print the full metrics registry after each run")


def _make_telemetry(args) -> Optional[Telemetry]:
    """A fresh telemetry sink when --trace/--metrics asked for one."""
    return Telemetry() if (args.trace or args.metrics) else None


def _add_db_flags(parser: argparse.ArgumentParser) -> None:
    """Recording flags shared by every experiment-running command."""
    from repro.runstore.cli import add_db_argument
    add_db_argument(parser)
    parser.add_argument("--no-db", action="store_true",
                        help="do not record runs into the run database")


def _open_recording_store(args):
    """The run store for a recording command, or None (``--no-db``, or
    the database is unusable — recording is best-effort)."""
    if getattr(args, "no_db", False):
        return None
    from repro.runstore.store import open_store
    return open_store(getattr(args, "db", None))


def _validate_trace(args) -> Optional[str]:
    """An error message when the --trace target can't be written —
    checked before the run so a typo fails in milliseconds, not after
    the whole simulation."""
    if args.trace:
        directory = os.path.dirname(args.trace) or "."
        if not os.path.isdir(directory):
            return f"--trace: directory does not exist: {directory}"
    return None


def _trace_path(template: str, design: str, multiple: bool) -> str:
    """The per-design trace path (suffix the design when several run)."""
    if not multiple:
        return template
    stem, ext = os.path.splitext(template)
    return f"{stem}-{design}{ext or '.json'}"


def _emit_telemetry(args, design: str, telemetry: Optional[Telemetry],
                    multiple: bool) -> None:
    """Write the trace file and/or print the metrics table for one run."""
    if telemetry is None:
        return
    if args.trace:
        path = _trace_path(args.trace, design, multiple)
        if path.endswith(".jsonl"):
            telemetry.tracer.write_jsonl(path)
        else:
            telemetry.tracer.write_chrome(path)
        dropped = telemetry.tracer.dropped
        note = f" ({dropped} events dropped past cap)" if dropped else ""
        print(f"wrote {len(telemetry.tracer.events)} trace events "
              f"to {path}{note}", file=sys.stderr)
    if args.metrics:
        print(format_metrics(telemetry.registry, title=f"Metrics — {design}"))


def _parse_designs(text: str) -> Optional[List[str]]:
    """The ``--designs`` list, or None (reason on stderr) when it names
    an unknown design or none at all."""
    designs = [d.strip() for d in text.split(",") if d.strip()]
    unknown = [d for d in designs if d not in DESIGNS]
    if unknown:
        print(f"unknown designs: {unknown}; try `python -m repro designs`",
              file=sys.stderr)
        return None
    if not designs:
        print("need at least one design", file=sys.stderr)
        return None
    return designs


#: RunSpec fields set by the same-named flag, where a subcommand has it.
_SPEC_FLAGS = ("profile", "duration", "seed", "dirty_threshold",
               "checkpoint_interval", "ftl", "partitions", "latch_us",
               "kernel", "queue_limit", "tenants", "faults")


def _specs(args, kind: str, benchmark: str, scales: List[int],
           designs: List[str], **fields) -> List[RunSpec]:
    """The scale x design grid of specs the subcommand's flags (and
    ``fields``) describe; the rest keep RunSpec's defaults."""
    settings = {name: getattr(args, name)
                for name in _SPEC_FLAGS if hasattr(args, name)}
    settings.update(fields)
    return [RunSpec(kind=kind, benchmark=benchmark, scale=scale,
                    design=design, **settings)
            for scale in scales for design in designs]


def _execute_all(args, specs: List[RunSpec]) -> List[RunRecord]:
    """Run every spec live, in order: record it into the run store,
    report its device outcomes on stderr, and write its telemetry."""
    store = _open_recording_store(args)
    recorder = Recorder(store, lambda message: print(message,
                                                     file=sys.stderr))
    records = []
    for spec in specs:
        telemetry = _make_telemetry(args)
        record = RunRecord.of(spec, execute(spec, telemetry=telemetry))
        recorder.record(record)
        records.append(record)
        design = spec.design
        print(f"ran {design}", file=sys.stderr)
        ftl = record.ftl
        if ftl is not None:
            print(f"ftl[{design}]: host_writes={ftl['host_writes']} "
                  f"nand_writes={ftl['nand_writes']} erases={ftl['erases']} "
                  f"waf={ftl['waf']:.3f} wear_spread={ftl['wear_spread']}",
                  file=sys.stderr)
        if spec.faults:
            print(f"faults[{design}]: injected={record.faults} "
                  f"ssd_detached={record.ssd['detached']} "
                  f"retries={record.ssd_stats.io_retries} "
                  f"degrade_redo={record.ssd_stats.detach_redo_pages}",
                  file=sys.stderr)
        _emit_telemetry(args, design, telemetry, len(specs) > 1)
    if store is not None:
        store.close()
    return records


def cmd_iometer(args) -> int:
    """Regenerate the paper's Table 1 with the device models."""
    from repro.storage.iometer import run_table1
    table = run_table1(duration=args.duration)
    rows = [[name, f"{measured:,.0f}", f"{paper:,}",
             f"{measured / paper:.3f}"]
            for name, measured, paper in table.rows()]
    print(format_table("Table 1 — sustained IOPS (8 KB I/Os)",
                       ["device/pattern", "measured", "paper", "ratio"],
                       rows))
    return 0


def cmd_designs(args) -> int:
    """List the available SSD designs."""
    rows = [[name, DESIGN_SUMMARIES.get(name, "")] for name in DESIGNS]
    print(format_table("SSD buffer-pool extension designs",
                       ["name", "summary"], rows))
    return 0


def cmd_oltp(args) -> int:
    """Run an OLTP experiment across designs and print the table."""
    designs = _parse_designs(args.designs)
    if designs is None:
        return 2
    error = _validate_trace(args)
    if error:
        print(error, file=sys.stderr)
        return 2
    if args.faults:
        # Validate the plan grammar before burning a whole run on a typo.
        try:
            FaultPlan.parse(args.faults)
        except ValueError as exc:
            print(f"--faults: {exc}", file=sys.stderr)
            return 2
    records = _execute_all(args, _specs(args, "oltp", args.benchmark,
                                        [args.scale], designs,
                                        nworkers=args.workers))
    throughputs = {r.spec.design: r.steady_state_throughput()
                   for r in records}
    speedups = speedup_over_nossd(throughputs)
    rows = []
    for record in records:
        design = record.spec.design
        rows.append([
            design,
            f"{throughputs[design]:,.1f}",
            (f"{speedups[design]:.2f}x" if "noSSD" in throughputs else "-"),
            f"{record.bp.ssd_hit_rate:.1%}",
            f"{record.ssd['used_frames']:,}",
            f"{record.ssd['dirty_frames']:,}",
        ])
    print(format_table(
        f"{args.benchmark.upper()} scale={args.scale} "
        f"({args.duration:.0f} virtual s, profile={args.profile})",
        ["design", records[0].metric_name, "speedup", "SSD hit",
         "SSD used", "SSD dirty"],
        rows))
    return 0


def cmd_traffic(args) -> int:
    """Run an open-loop multi-tenant experiment across designs."""
    from repro.workloads.traffic import parse_tenants

    designs = _parse_designs(args.designs)
    if designs is None:
        return 2
    error = _validate_trace(args)
    if error:
        print(error, file=sys.stderr)
        return 2
    try:
        parse_tenants(args.tenants)
    except ValueError as exc:
        print(f"--tenants: {exc}", file=sys.stderr)
        return 2
    records = _execute_all(args, _specs(args, "traffic", args.benchmark,
                                        [args.scale], designs,
                                        nworkers=args.workers))
    first = records[0]
    rows = []
    for record in records:
        rows.append([
            record.spec.design,
            f"{record.steady_state_throughput():,.1f}",
            f"{record.offered:,}",
            f"{record.shed_fraction:.1%}",
            f"{record.queue_wait_percentile(99) * 1e3:,.2f}",
            f"{record.latencies.percentile(99) * 1e3:,.2f}",
        ])
    print(format_table(
        f"open-loop {args.benchmark.upper()} scale={args.scale} "
        f"({first.logical_users:,.0f} logical users, "
        f"{args.duration:.0f} virtual s, "
        f"workers={args.workers}, kernel={args.kernel})",
        ["design", first.metric_name, "offered", "shed",
         "qwait p99 (ms)", "p99 (ms)"], rows))
    tenant_rows = []
    for record in records:
        for name, stats in record.tenants.items():
            tenant_rows.append([
                record.spec.design, name,
                f"{stats.offered:,}",
                f"{stats.shed_fraction:.1%}",
                f"{stats.throughput(record.duration):,.1f}",
                f"{stats.queue_waits.percentile(99) * 1e3:,.2f}",
                f"{stats.latencies.percentile(99) * 1e3:,.2f}",
            ])
    print()
    print(format_table(
        "per-tenant isolation",
        ["design", "tenant", "offered", "shed", "txn/s",
         "qwait p99 (ms)", "p99 (ms)"], tenant_rows))
    return 0


def cmd_chaos(args) -> int:
    """Run the crash-point sweep and report per-design/policy outcomes."""
    from repro.harness.crashpoints import (
        CrashSweepConfig,
        crash_point_sweep,
        format_sweep_table,
    )

    designs = _parse_designs(args.designs)
    if designs is None:
        return 2
    policies = [p.strip() for p in args.policies.split(",") if p.strip()]
    bad = [p for p in policies if p not in ("sharp", "fuzzy")]
    if bad:
        print(f"unknown checkpoint policies: {bad} (sharp|fuzzy)",
              file=sys.stderr)
        return 2
    cfg = CrashSweepConfig(
        designs=designs, policies=policies, points=args.points,
        seed=args.seed, duration=args.duration,
        checkpoint_interval=args.checkpoint_interval)
    result = crash_point_sweep(cfg)
    print(format_sweep_table(result))
    total = len(result.outcomes)
    failed = len(result.failures)
    print(f"{total} crash points, {failed} failed", file=sys.stderr)
    store = _open_recording_store(args)
    if store is not None:
        from repro.runstore.store import StoreError
        try:
            run_ids = store.record_chaos(result.outcomes, seed=args.seed)
            print(f"recorded {len(run_ids)} chaos run(s) into {store.path}",
                  file=sys.stderr)
        except StoreError as exc:
            print(f"runstore: {exc}; chaos sweep not recorded",
                  file=sys.stderr)
        finally:
            store.close()
    return 1 if failed else 0


def cmd_sweep(args) -> int:
    """Run a design x scale grid in parallel through the run cache."""
    import json
    from pathlib import Path

    from repro.harness.sweep import progress_printer, run_sweep, summarize

    designs = _parse_designs(args.designs)
    if designs is None:
        return 2
    try:
        scales = [int(s) for s in args.scales.split(",") if s.strip()]
    except ValueError:
        print(f"--scales must be comma-separated integers, "
              f"got {args.scales!r}", file=sys.stderr)
        return 2
    if not scales:
        print("sweep: need at least one scale", file=sys.stderr)
        return 2

    kind = "tpch" if args.benchmark == "tpch" else "oltp"
    specs = _specs(args, kind, args.benchmark, scales, designs,
                   nworkers=args.workers_per_run)
    directory = Path(args.cache_dir) if args.cache_dir else None
    store = _open_recording_store(args)
    report = run_sweep(specs, workers=args.workers, directory=directory,
                       use_cache=not args.no_cache,
                       progress=progress_printer(), store=store)
    if store is not None:
        print(f"recorded {report.recorded}/{len(specs)} runs "
              f"into {store.path}", file=sys.stderr)
        store.close()
    rows = summarize(report)
    has_waf = any("waf" in row for row in rows)
    table = [[row["spec"]["benchmark"], str(row["spec"]["scale"]),
              row["spec"]["design"], row["metric"], f"{row['value']:,.1f}"]
             + ([f"{row['waf']:.3f}" if "waf" in row else "-"]
                if has_waf else [])
             for row in rows]
    print(format_table(
        f"sweep — {len(rows)} runs, {report.cached} cached, "
        f"{report.computed} computed in {report.elapsed:.1f}s "
        f"(workers={args.workers})",
        ["benchmark", "scale", "design", "metric", "value"]
        + (["waf"] if has_waf else []), table))
    if args.output:
        with open(args.output, "w") as fh:
            json.dump({"runs": rows}, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote sweep summary to {args.output}", file=sys.stderr)
    return 0


def cmd_tpch(args) -> int:
    """Run the TPC-H power + throughput tests across designs."""
    designs = _parse_designs(args.designs)
    if designs is None:
        return 2
    error = _validate_trace(args)
    if error:
        print(error, file=sys.stderr)
        return 2
    records = _execute_all(args, _specs(args, "tpch", "tpch", [args.sf],
                                        designs))
    rows = []
    for record in records:
        tpch = record.tpch
        assert tpch is not None
        rows.append([record.spec.design, f"{tpch.power:,.0f}",
                     f"{tpch.throughput:,.0f}", f"{tpch.qphh:,.0f}"])
    print(format_table(f"TPC-H @{args.sf} SF (profile={args.profile})",
                       ["design", "QppH", "QthH", "QphH"], rows))
    return 0


def cmd_analyze(args) -> int:
    """Attribute tail latency from one or more trace files."""
    import json

    from repro.telemetry.analysis import (
        analyze_traces,
        bench_snapshot,
        format_attribution_table,
        format_faults_table,
        format_ftl_table,
        format_interference_table,
        format_tenant_table,
        validate_bench,
    )

    missing = [path for path in args.traces if not os.path.exists(path)]
    if missing:
        print(f"analyze: no such trace file: {', '.join(missing)}",
              file=sys.stderr)
        return 2
    try:
        quantiles = [float(q) for q in args.tail.split(",") if q.strip()]
    except ValueError:
        print(f"analyze: --tail must be comma-separated percentiles, "
              f"got {args.tail!r}", file=sys.stderr)
        return 2
    try:
        analyses = analyze_traces(args.traces)
    except ValueError as exc:
        print(f"analyze: {exc}", file=sys.stderr)
        return 2
    for analysis in analyses:
        if not analysis.txns:
            print(f"analyze: {analysis.path}: no transaction spans — was "
                  f"the run traced with this version?", file=sys.stderr)
            return 2
        if analysis.truncated:
            print(f"warning: {analysis.path}: trace truncated, "
                  f"{analysis.dropped} events dropped past the cap — "
                  f"attribution undercounts late waits", file=sys.stderr)
        if analysis.orphan_events:
            print(f"note: {analysis.path}: {analysis.orphan_events} waits "
                  f"belong to transactions cut off before commit",
                  file=sys.stderr)

    print(format_attribution_table(analyses, quantiles=quantiles,
                                   txn_type=args.txn_type))
    if any(a.tenants() for a in analyses):
        print()
        print(format_tenant_table(analyses))
    if any(a.background_io for a in analyses):
        print()
        print(format_interference_table(analyses))
    if any(a.faults for a in analyses):
        print()
        print(format_faults_table(analyses))
    if any(a.ftl for a in analyses):
        print()
        print(format_ftl_table(analyses))

    if args.html:
        from repro.telemetry.htmlreport import write_report
        write_report(args.html, analyses, args.workload,
                     quantiles=quantiles)
        print(f"wrote HTML report to {args.html}", file=sys.stderr)
    if args.bench:
        snapshot = bench_snapshot(analyses, args.workload,
                                  quantiles=quantiles)
        errors = validate_bench(snapshot)
        if errors:
            print("analyze: generated BENCH document failed validation:",
                  file=sys.stderr)
            for error in errors:
                print(f"  {error}", file=sys.stderr)
            return 1
        with open(args.bench, "w") as fh:
            json.dump(snapshot, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote benchmark snapshot to {args.bench}", file=sys.stderr)
        store = _open_recording_store(args)
        if store is not None:
            from repro.runstore.store import StoreError
            try:
                store.record_bench(snapshot)
                print(f"recorded benchmark snapshot into {store.path}",
                      file=sys.stderr)
            except StoreError as exc:
                print(f"runstore: {exc}; snapshot not recorded",
                      file=sys.stderr)
            finally:
                store.close()
    return 0


def cmd_lint(args) -> int:
    """Run the static invariant checker (see repro.statics)."""
    from repro.statics.cli import run_lint
    return run_lint(args)


def build_parser() -> argparse.ArgumentParser:
    """Build the ``repro`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="SSD buffer-pool extension reproduction (SIGMOD 2011)")
    sub = parser.add_subparsers(dest="command", required=True)

    p_iometer = sub.add_parser("iometer", help="regenerate Table 1")
    p_iometer.add_argument("--duration", type=float, default=5.0)
    p_iometer.set_defaults(func=cmd_iometer)

    p_designs = sub.add_parser("designs", help="list available designs")
    p_designs.set_defaults(func=cmd_designs)

    p_oltp = sub.add_parser("oltp", help="run a TPC-C/E-like experiment")
    p_oltp.add_argument("--benchmark", choices=("tpcc", "tpce"),
                        default="tpcc")
    p_oltp.add_argument("--scale", type=int, default=1_000,
                        help="warehouses (tpcc) or customers/1000 (tpce)")
    p_oltp.add_argument("--duration", type=float, default=30.0,
                        help="virtual seconds")
    p_oltp.add_argument("--workers", type=int, default=16)
    p_oltp.add_argument("--dirty-threshold", type=float, default=None,
                        help="LC lambda (default: the paper's per-benchmark value)")
    p_oltp.add_argument("--checkpoint-interval", type=float, default=None,
                        help="virtual seconds between checkpoints")
    p_oltp.add_argument("--faults", default=None, metavar="PLAN",
                        help="fault plan, e.g. "
                             "'ssd_die@t=30,transient:p=0.001' "
                             "(see repro.faults.plan for the grammar)")
    p_oltp.add_argument("--ftl", action="store_true",
                        help="model the SSD's internals (erase blocks, GC, "
                             "write amplification; DESIGN.md §10)")
    p_oltp.add_argument("--kernel", choices=KERNELS, default="heap",
                        help="event-queue implementation (default: heap)")
    p_oltp.add_argument("--partitions", type=int, default=None,
                        help="partition count N for the SSD buffer table "
                             "and the main-memory buffer pool (§3.3.4)")
    p_oltp.add_argument("--latch-us", type=float, default=0.0,
                        help="modeled buffer-pool partition-latch service "
                             "time in microseconds (default 0: free "
                             "latches, partition-count-independent runs)")
    _add_common(p_oltp)
    _add_db_flags(p_oltp)
    p_oltp.set_defaults(func=cmd_oltp)

    p_traffic = sub.add_parser(
        "traffic", help="open-loop multi-tenant run (arrival-rate driven)")
    p_traffic.add_argument("--benchmark", choices=("tpcc", "tpce"),
                           default="tpcc")
    p_traffic.add_argument("--scale", type=int, default=1_000,
                           help="warehouses (tpcc) or customers/1000 (tpce)")
    p_traffic.add_argument("--duration", type=float, default=30.0,
                           help="virtual seconds")
    p_traffic.add_argument(
        "--tenants",
        default="all=poisson:users=1000000:think=100",
        help="';'-separated tenant specs: name=kind:rate=R|users=U:think=T"
             "[:theta=Z] with kind in poisson|bursty|diurnal "
             "(default: one tenant of 1M logical users)")
    p_traffic.add_argument("--workers", type=int, default=64,
                           help="simulated worker pool draining the queue")
    p_traffic.add_argument("--queue-limit", type=int, default=10_000,
                           help="admission queue bound; arrivals beyond it "
                                "are shed (default 10000)")
    p_traffic.add_argument("--partitions", type=int, default=None,
                           help="partition count N (§3.3.4) for the SSD "
                                "buffer table and the main-memory buffer "
                                "pool — the tenant-isolation knob")
    p_traffic.add_argument("--latch-us", type=float, default=20.0,
                           help="modeled buffer-pool partition-latch "
                                "service time in microseconds (default "
                                "20: contention visible, so --partitions "
                                "moves per-tenant p99; 0 disables)")
    p_traffic.add_argument("--dirty-threshold", type=float, default=None,
                           help="LC lambda (default: per-benchmark value)")
    p_traffic.add_argument("--checkpoint-interval", type=float, default=None,
                           help="virtual seconds between checkpoints")
    p_traffic.add_argument("--ftl", action="store_true",
                           help="model the SSD's internals")
    p_traffic.add_argument("--kernel", choices=KERNELS, default="heap",
                           help="event-queue implementation (default: heap)")
    p_traffic.add_argument("--seed", type=int, default=20110612)
    _add_common(p_traffic)
    _add_db_flags(p_traffic)
    p_traffic.set_defaults(func=cmd_traffic)

    p_chaos = sub.add_parser(
        "chaos", help="crash-point sweep: crash, recover, verify")
    p_chaos.add_argument("--points", type=int, default=5,
                         help="crash points per design x policy (default 5)")
    p_chaos.add_argument("--designs", default="CW,DW,LC,TAC,LS")
    p_chaos.add_argument("--policies", default="sharp,fuzzy",
                         help="comma-separated checkpoint policies")
    p_chaos.add_argument("--seed", type=int, default=20110612)
    p_chaos.add_argument("--duration", type=float, default=8.0,
                         help="crash-window length in virtual seconds")
    p_chaos.add_argument("--checkpoint-interval", type=float, default=1.0)
    _add_db_flags(p_chaos)
    p_chaos.set_defaults(func=cmd_chaos)

    p_sweep = sub.add_parser(
        "sweep", help="run a design x scale grid in parallel, cached")
    p_sweep.add_argument("--benchmark", choices=("tpcc", "tpce", "tpch"),
                         default="tpcc")
    p_sweep.add_argument("--scales", default="1000",
                         help="comma-separated scales (warehouses, "
                              "customers/1000, or SF)")
    p_sweep.add_argument("--designs", default="noSSD,DW,LC,TAC",
                         help="comma-separated designs (see `designs`)")
    p_sweep.add_argument("--profile", choices=sorted(SCALE_PROFILES),
                         default="small")
    p_sweep.add_argument("--duration", type=float, default=30.0,
                         help="virtual seconds per OLTP run")
    p_sweep.add_argument("--workers", type=int, default=1,
                         help="worker processes (runs in-process when 1)")
    p_sweep.add_argument("--workers-per-run", type=int, default=16,
                         help="closed-loop clients inside each run")
    p_sweep.add_argument("--dirty-threshold", type=float, default=None)
    p_sweep.add_argument("--checkpoint-interval", type=float, default=None)
    p_sweep.add_argument("--ftl", action="store_true",
                         help="model the SSD's internals in every run "
                              "(erase blocks, GC, write amplification)")
    p_sweep.add_argument("--seed", type=int, default=20110612)
    p_sweep.add_argument("--cache-dir", default=None,
                         help="run-cache directory (default .repro-cache, "
                              "or $REPRO_CACHE_DIR)")
    p_sweep.add_argument("--no-cache", action="store_true",
                         help="always recompute; do not read or write the "
                              "cache")
    p_sweep.add_argument("--output", metavar="FILE", default=None,
                         help="write the merged metric table as JSON")
    _add_db_flags(p_sweep)
    p_sweep.set_defaults(func=cmd_sweep)

    p_tpch = sub.add_parser("tpch", help="run TPC-H power+throughput tests")
    p_tpch.add_argument("--sf", type=int, choices=(30, 100), default=30)
    _add_common(p_tpch)
    _add_db_flags(p_tpch)
    p_tpch.set_defaults(func=cmd_tpch)

    p_analyze = sub.add_parser(
        "analyze", help="attribute tail latency from --trace output")
    p_analyze.add_argument("traces", nargs="+", metavar="TRACE",
                           help="trace files from --trace (JSONL or Chrome "
                                "JSON; one per design)")
    p_analyze.add_argument("--tail", default="50,95,99",
                           help="comma-separated percentiles to decompose "
                                "(default: 50,95,99)")
    p_analyze.add_argument("--txn-type", default=None,
                           help="restrict attribution to one transaction "
                                "type (e.g. new_order)")
    p_analyze.add_argument("--html", metavar="FILE", default=None,
                           help="write a self-contained HTML report")
    p_analyze.add_argument("--bench", metavar="FILE", default=None,
                           help="write a machine-readable BENCH_*.json "
                                "snapshot")
    p_analyze.add_argument("--workload", default="oltp",
                           help="workload label for the reports "
                                "(default: oltp)")
    _add_db_flags(p_analyze)
    p_analyze.set_defaults(func=cmd_analyze)

    from repro.runstore.cli import (add_runs_arguments, add_serve_arguments,
                                    cmd_runs, cmd_serve)
    p_runs = sub.add_parser(
        "runs", help="query the run database (list/show/compare/regress)")
    add_runs_arguments(p_runs)
    p_runs.set_defaults(func=cmd_runs)

    p_serve = sub.add_parser(
        "serve", help="HTML dashboard + JSON API over the run database")
    add_serve_arguments(p_serve)
    p_serve.set_defaults(func=cmd_serve)

    p_lint = sub.add_parser(
        "lint", help="run the repo-specific AST invariant checker")
    from repro.statics.cli import add_lint_arguments
    add_lint_arguments(p_lint)
    p_lint.set_defaults(func=cmd_lint)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
