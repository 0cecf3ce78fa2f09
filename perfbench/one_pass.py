"""One pass of one workload, in its own process; prints one JSON line.

    python3 perfbench/one_pass.py --workload tpcc-ssd --seed 20110612 \
        --mode plain|profile|telemetry [--trace-dir DIR]

``plain`` is the untraced pass the end-to-end metrics come from; its
``setup_s`` and ``wall_s`` are host seconds at a reference host speed,
measured by ``speed.SpeedClock`` alongside the pass (``raw_setup_s``
and ``raw_wall_s`` are the clock readings).
``profile`` wraps the measured phase in cProfile and reports per-layer
self time.  ``telemetry`` turns the simulator's tracer on, writes the
trace to ``--trace-dir`` and splits the p99 latency into components.
All three report the same virtual-time results, so the caller can check
that tracing changed nothing.  ``run.py`` is the entry point; this file
is its worker.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import speed  # noqa: E402

#: Runs from here to the end of set-up in every mode, and on through
#: the measured phase of a plain pass.
CLOCK = speed.SpeedClock()
CLOCK.start()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import time  # noqa: E402

import adapter  # noqa: E402

#: Tracer event cap for the telemetry pass; a run that reaches it is
#: reported as truncated (a failed check), never silently cut.
TRACE_EVENT_CAP = 3_000_000


def _profile(run, report: dict) -> None:
    """Drive ``run`` under cProfile; per-layer attribution into ``report``."""
    import cProfile
    import pstats

    import layers

    profiler = cProfile.Profile()
    started = time.perf_counter()
    profiler.enable()
    adapter.drive(run)
    profiler.disable()
    report["raw_wall_s"] = time.perf_counter() - started
    attribution = layers.Attribution(pstats.Stats(profiler))
    report["profile"] = {
        "self_s": attribution.self_s,
        "calls": attribution.calls,
        "events": attribution.kernel_events(),
        "repro_s": attribution.repro_s,
        "unmapped_share": attribution.unmapped_share,
        "map_errors": layers.map_errors(attribution),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(adapter.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", default="plain",
                        choices=("plain", "profile", "telemetry"))
    parser.add_argument("--trace-dir", default=None)
    args = parser.parse_args(argv)

    spec = adapter.WORKLOADS[args.workload]
    trace_events = TRACE_EVENT_CAP if args.mode == "telemetry" else 0
    run = adapter.build(spec, args.seed, trace_events=trace_events)
    report = dict(zip(("raw_setup_s", "setup_s"), CLOCK.lap()))
    if args.mode == "plain":
        adapter.drive(run)
        report.update(zip(("raw_wall_s", "wall_s"), CLOCK.lap()))
        CLOCK.stop()
    else:
        CLOCK.stop()
        if args.mode == "profile":
            _profile(run, report)
        else:
            started = time.perf_counter()
            adapter.drive(run)
            report["raw_wall_s"] = time.perf_counter() - started
    report.update(adapter.finish(run))
    if args.mode == "telemetry":
        trace = Path(args.trace_dir) / f"{args.workload}-{os.getpid()}.jsonl"
        adapter.write_trace(run, str(trace))
        del run  # free the simulation before loading the trace back
        gc.collect()
        try:
            report["waits"] = adapter.trace_waits(str(trace))
        finally:
            trace.unlink()
    report["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    print(json.dumps(report, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
