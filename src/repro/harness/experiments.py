"""Experiment sizing and assembly: scale profiles, workload and
system builders (:func:`repro.harness.run.execute` drives them).

The scaled sizing preserves the paper's ratios:

=====================  ===============  ====================
Paper                  Scaled (default)  Ratio preserved
=====================  ===============  ====================
20 GB buffer pool      2,000 pages       BP : SSD = 1 : 7
140 GB SSD             14,000 frames     SSD : DB per config
100–415 GB databases   10k–41.5k pages
10-hour runs           60 virtual s      ramp-up visible
6-minute buckets       2-s buckets       ~30 points/series
=====================  ===============  ====================
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional

from repro.core import SsdDesignConfig
from repro.harness.system import System, SystemConfig
from repro.workloads.tpcc import TpccWorkload
from repro.workloads.tpce import TpceWorkload
from repro.workloads.tpch import TpchWorkload


@dataclass(frozen=True)
class ScaleProfile:
    """Maps the paper's gigabytes to simulated page counts."""

    pages_per_gb: int = 100
    bp_gb: float = 20.0
    ssd_gb: float = 140.0

    @property
    def bp_pages(self) -> int:
        """Main-memory buffer pool size in pages."""
        return int(self.bp_gb * self.pages_per_gb)

    @property
    def ssd_frames(self) -> int:
        """SSD buffer pool size in frames."""
        return int(self.ssd_gb * self.pages_per_gb)

    def pages(self, gb: float) -> int:
        """Convert paper gigabytes to simulated pages."""
        return int(gb * self.pages_per_gb)


#: "default" is used by the benchmark harness; "small" keeps unit and
#: integration tests fast while preserving every ratio.
SCALE_PROFILES: Dict[str, ScaleProfile] = {
    "default": ScaleProfile(pages_per_gb=100),
    "small": ScaleProfile(pages_per_gb=20),
    "tiny": ScaleProfile(pages_per_gb=5),
}

#: The paper's per-benchmark λ settings (Table 2).
PAPER_LAMBDA = {"tpcc": 0.50, "tpce": 0.01, "tpch": 0.01}


def make_workload(benchmark: str, scale: int, profile: ScaleProfile,
                  oracle: Optional[Dict[int, int]] = None):
    """Build a workload: ``scale`` is warehouses (TPC-C, e.g. 1000),
    thousands of customers (TPC-E, e.g. 20), or SF (TPC-H, 30/100)."""
    if benchmark == "tpcc":
        # One warehouse is 0.1 GB in the paper's sizing.
        return TpccWorkload(
            scale, pages_per_warehouse=max(1, profile.pages_per_gb // 10),
            item_pages=max(4, profile.pages(1.0)), oracle=oracle)
    if benchmark == "tpce":
        # 10K customers = 115 GB  =>  11.5 GB per 1K customers.
        return TpceWorkload(
            scale, pages_per_customer_k=11.5 * profile.pages_per_gb,
            oracle=oracle)
    if benchmark == "tpch":
        gb = {30: 45.0, 100: 160.0}.get(scale, 1.5 * scale)
        return TpchWorkload(scale, db_gb=gb,
                            pages_per_gb=profile.pages_per_gb, oracle=oracle)
    raise ValueError(f"unknown benchmark {benchmark!r}")


def make_system(benchmark: str, workload, design: str,
                profile: ScaleProfile,
                dirty_threshold: Optional[float] = None,
                checkpoint_interval: Optional[float] = None,
                warm_restart: bool = False,
                expand_reads: bool = False,
                ftl: bool = False,
                partitions: Optional[int] = None,
                latch_us: float = 0.0,
                kernel: str = "heap",
                telemetry=None, faults=None) -> System:
    """Assemble a system sized for ``workload`` running ``design``.

    ``ftl=True`` models the SSD's internals (erase blocks, GC, WAF
    accounting; DESIGN.md §10) instead of the flat Table 1 timing.
    ``partitions`` overrides the partition count N (§3.3.4) shared by
    the SSD buffer table and the main-memory buffer pool — the
    isolation knob the multi-tenant experiments sweep.  ``latch_us``
    models the buffer-pool partition-latch service time (0 keeps the
    latch free and traces partition-count-independent).
    ``kernel`` picks the event-queue implementation ("heap"/"wheel").
    """
    ssd_frames = 0 if design == "noSSD" else profile.ssd_frames
    ssd_kwargs: Dict[str, Any] = {}
    if partitions is not None:
        ssd_kwargs["partitions"] = partitions
    ssd = SsdDesignConfig(
        ssd_frames=ssd_frames,
        dirty_threshold=(dirty_threshold if dirty_threshold is not None
                         else PAPER_LAMBDA.get(benchmark, 0.5)),
        warm_restart=warm_restart,
        ftl_enabled=ftl,
        **ssd_kwargs,
    )
    config = SystemConfig(
        design=design,
        db_pages=workload.db_pages(),
        bp_pages=profile.bp_pages,
        ssd=ssd,
        checkpoint_interval=checkpoint_interval,
        expand_reads=expand_reads,
        slack_pages=max(256, workload.db_pages() // 20),
        kernel=kernel,
        bp_latch_us=latch_us,
    )
    return System(config, telemetry=telemetry, faults=faults)


def speedup_over_nossd(results: Dict[str, float]) -> Dict[str, float]:
    """Normalize a {design: metric} map to the noSSD baseline."""
    baseline = results.get("noSSD")
    if not baseline:
        return {design: 0.0 for design in results}
    return {design: value / baseline for design, value in results.items()}
