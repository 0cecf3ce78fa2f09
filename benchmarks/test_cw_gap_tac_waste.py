"""Two quantitative claims from the paper's text.

* §4.1.1: CW is consistently the worst SSD design — "for the 20K
  customer TPC-E database, CW was 21.6% and 23.3% slower than DW and
  LC" — because the updated part of the working set never benefits.
* §2.5/§4.2: TAC's logical invalidation wastes SSD space on invalid
  pages (7.4/10.4/8.9 GB of 140 GB at 1K/2K/4K TPC-C warehouses), while
  CW/DW/LC reclaim invalidated frames physically.
"""

from benchmarks.common import CHECKPOINT_40MIN, PROFILE, oltp_run, once
from repro.harness.report import format_table


def test_cw_slower_than_dw_and_lc_on_tpce(benchmark):
    def run():
        return {
            design: oltp_run("tpce", 20, design,
                             checkpoint_interval=CHECKPOINT_40MIN,
                             ).steady_state_throughput()
            for design in ("CW", "DW", "LC")
        }

    throughputs = once(benchmark, run)
    gap_dw = 1 - throughputs["CW"] / throughputs["DW"]
    gap_lc = 1 - throughputs["CW"] / throughputs["LC"]
    print(f"\nCW vs DW: {gap_dw:+.1%} (paper -21.6%), "
          f"CW vs LC: {gap_lc:+.1%} (paper -23.3%)")
    assert throughputs["CW"] < throughputs["DW"]
    assert throughputs["CW"] < throughputs["LC"]
    assert 0.03 < gap_dw < 0.6


def test_tac_wastes_ssd_space_on_invalid_pages(benchmark):
    def run():
        out = {}
        for scale in (1_000, 2_000):
            tac = oltp_run("tpcc", scale, "TAC")
            dw = oltp_run("tpcc", scale, "DW")
            out[scale] = (tac.ssd["invalid_count"],
                          dw.ssd["invalid_count"])
        return out

    waste = once(benchmark, run)
    ssd_frames = PROFILE.ssd_frames
    rows = []
    for scale, (tac_invalid, dw_invalid) in waste.items():
        rows.append([f"{scale // 1000}K wh",
                     f"{tac_invalid:,} ({tac_invalid / ssd_frames:.1%})",
                     f"{dw_invalid:,}"])
    print()
    print(format_table(
        "TAC SSD waste — invalid frames (paper: 7.4–10.4 GB of 140 GB)",
        ["config", "TAC invalid", "DW invalid"], rows))
    for scale, (tac_invalid, dw_invalid) in waste.items():
        assert tac_invalid > 0, scale
        assert dw_invalid == 0, scale
        # In the paper's band: a few percent of the SSD.
        assert tac_invalid / ssd_frames > 0.01, scale


def test_tac_latch_contention_exceeds_ours(benchmark):
    """§2.5: TAC's write-after-read holds page latches while forward
    processing wants the page; the paper saw ~25% longer latch waits on
    TPC-E.  The comparison is against DW — the write-through design that
    shares every latching path with TAC *except* the post-read write."""
    def run():
        return {
            design: oltp_run("tpce", 20, design,
                             checkpoint_interval=CHECKPOINT_40MIN)
            for design in ("TAC", "DW")
        }

    results = once(benchmark, run)
    admission_wait = {}
    for design, result in results.items():
        stats = result.bp
        txns = max(1, sum(result.txn_counts.values()))
        admission_wait[design] = (
            stats.latch_wait_by_reason.get("admission-write", 0.0)
            / txns * 1e6)
        print(f"{design:4s} latch wait by cause (us/txn): " + ", ".join(
            f"{reason}={wait / txns * 1e6:.1f}"
            for reason, wait in stats.latch_wait_by_reason.items()))
    # TAC's write-after-read is a latch source no other design has;
    # eviction-write latching is common to all designs and excluded.
    assert admission_wait["TAC"] > 0
    assert admission_wait["DW"] == 0
