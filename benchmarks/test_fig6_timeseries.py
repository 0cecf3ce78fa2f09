"""Figure 6: throughput over the whole (scaled) run.

Paper phenomena to reproduce:

* (a–b) TPC-C: once the SSD's dirty fraction crosses λ the lazy cleaner
  activates and starts consuming disk and SSD bandwidth that forward
  processing loses (the paper's throughput drop at 1:50 h / 2:30 h); the
  2K (smaller) database crosses no later than the 4K one.
* (c–d) TPC-E: the ramp-up (SSD filling at the disks' random-read rate)
  consumes a much larger fraction of the run than on TPC-C, and the
  40K-customer ramp-up is shorter than the 20K one (§4.3.1).
"""

from benchmarks.common import (
    BUCKET,
    CHECKPOINT_40MIN,
    OLTP_DURATION,
    oltp_run,
    once,
    ramp_fraction,
)
from repro.harness.report import format_series


def test_fig6_tpcc_cleaner_activates_at_lambda_crossing(benchmark):
    result = once(benchmark, lambda: oltp_run("tpcc", 2_000, "LC"))
    series = result.throughput_series(smooth=3)
    print()
    print(format_series("Figure 6(a) analog — TPC-C 2K, LC tpmC over time",
                        series[:30], "t(s)", "tpmC"))
    limit = result.ssd["dirty_limit_frames"]
    cross = result.dirty_cross_time(limit)
    assert cross < float("inf"), "dirty fraction never crossed lambda"
    # The cleaner is the mechanism behind the paper's drop: it must be
    # inactive before the crossing and busy after it.
    assert result.ssd_stats.cleaner_pages > 0
    # After the crossing the system pays the cleaner tax: throughput
    # plateaus — the tail must not exceed the peak.
    rates = [rate for _, rate in series]
    peak = max(rates)
    tail = sum(rates[-5:]) / 5
    print(f"\nlambda crossed at t={cross - result.start_time:.0f}s, "
          f"peak {peak:,.0f}, tail {tail:,.0f}, "
          f"cleaner wrote {result.ssd_stats.cleaner_pages:,} pages")
    assert tail <= peak * 1.02


def test_fig6_tpcc_larger_db_crosses_no_earlier(benchmark):
    def run():
        out = {}
        for scale in (2_000, 4_000):
            result = oltp_run("tpcc", scale, "LC")
            limit = result.ssd["dirty_limit_frames"]
            out[scale] = (result.dirty_cross_time(limit)
                          - result.start_time)
        return out

    crossings = once(benchmark, run)
    print("\nlambda crossing times:", crossings)
    # Paper: 1:50 h at 2K vs 2:30 h at 4K.  At compressed scale the gap
    # can shrink to sampler resolution, but must not invert.
    assert crossings[2_000] <= crossings[4_000]


def test_fig6_tpce_ramp_up_dominates_run(benchmark):
    """§4.3.1: DW reached steady state only after 8.5–10 h of the
    10-hour TPC-E runs, while TPC-C ramps early in the run."""
    def run():
        fractions = {}
        for benchmark_name, scale in (("tpcc", 2_000), ("tpce", 20)):
            kwargs = ({"checkpoint_interval": CHECKPOINT_40MIN}
                      if benchmark_name == "tpce" else {})
            result = oltp_run(benchmark_name, scale, "DW", **kwargs)
            fractions[benchmark_name] = ramp_fraction(result)
        return fractions

    fractions = once(benchmark, run)
    print("\nramp fraction of run (throughput reaching 80% of steady):",
          {k: round(v, 2) for k, v in fractions.items()})
    assert fractions["tpce"] > fractions["tpcc"]


def test_fig6_tpce_40k_fills_ssd_faster_than_20k(benchmark):
    """§4.3.1: at 20K the working set nearly fits the SSD, so repeated
    re-dirtying invalidates SSD pages and slows the fill; the 40K
    database fills the SSD faster."""
    def run():
        fills = {}
        for scale in (20, 40):
            result = oltp_run("tpce", scale, "DW",
                              checkpoint_interval=CHECKPOINT_40MIN)
            used = result.samples[-1].ssd_used
            threshold = int(used * 0.8)
            fills[scale] = (result.fill_time(threshold)
                            - result.start_time) / max(used, 1)
        return fills

    fills = once(benchmark, run)
    print("\nnormalized fill rates (s per frame, lower = faster):",
          {k: round(v * 1000, 3) for k, v in fills.items()})
    assert fills[40] <= fills[20] * 1.5


def test_fig6_all_designs_produce_full_series(benchmark):
    def run():
        return {design: oltp_run("tpcc", 2_000, design)
                for design in ("noSSD", "DW", "LC", "TAC")}

    results = once(benchmark, run)
    nbuckets = int(OLTP_DURATION / BUCKET)
    print()
    for design, result in results.items():
        series = result.throughput_series(smooth=3)
        assert len(series) == nbuckets
        tail = [rate for _, rate in series[-5:]]
        print(f"{design:6s} final tpmC ~ {sum(tail) / len(tail):,.0f}")
