"""Experiment harness: system assembly, workload driving, and the one
run path (:class:`RunSpec` -> :func:`execute` -> :class:`RunRecord`)
that regenerates the paper's evaluation section."""

from repro.harness.system import System, SystemConfig
from repro.harness.runner import (OpenLoopRunner, RunResult,
                                 WorkloadRunner)
from repro.harness.metrics import Sampler, TenantStats
from repro.harness.crashpoints import (
    CrashPointOutcome,
    CrashSweepConfig,
    CrashSweepResult,
    crash_point_sweep,
    format_sweep_table,
)
from repro.harness.experiments import SCALE_PROFILES, ScaleProfile
from repro.harness.run import RunRecord, RunSpec, execute
from repro.harness.report import format_series, format_table

__all__ = [
    "CrashPointOutcome",
    "CrashSweepConfig",
    "CrashSweepResult",
    "OpenLoopRunner",
    "RunRecord",
    "RunResult",
    "RunSpec",
    "crash_point_sweep",
    "format_sweep_table",
    "SCALE_PROFILES",
    "Sampler",
    "ScaleProfile",
    "System",
    "TenantStats",
    "SystemConfig",
    "WorkloadRunner",
    "execute",
    "format_series",
    "format_table",
]
