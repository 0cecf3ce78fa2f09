"""Parallel sweep runner with an on-disk run cache.

The paper's figures are grids of independent deterministic runs (design ×
scale × λ × checkpoint interval).  Each run is CPU-bound single-threaded
simulation, so a sweep parallelises perfectly across worker processes —
and because every run is a pure function of its configuration and the
code, its results can be cached on disk and reused across bench sessions.

Three layers:

``RunSpec``
    A frozen, JSON-serialisable description of one run.  Its canonical
    JSON form, salted with a hash of the simulator sources, is the cache
    key: change any config field *or any source file* and the key moves.

``snapshot`` / ``restore``
    A ``RunResult`` holds live simulator objects (the ``System``, the
    ``Sampler``); a snapshot extracts exactly the measurements consumers
    read (bucket series, transaction counts, buffer-pool/SSD/checkpoint
    counters, sampler time series, latency samples) into plain JSON.
    ``restore`` rebuilds a ``RunResult`` whose ``system`` is a lightweight
    stand-in exposing those same attributes.

``run_sweep``
    Fans specs across a ``multiprocessing`` pool (spawn context — workers
    re-import the package, so specs travel as plain dicts), consults the
    cache first, and reports progress/ETA as runs complete.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import (TYPE_CHECKING, Any, Callable, Dict, List, Optional,
                    Set, TextIO, Tuple)

if TYPE_CHECKING:  # recording is optional; avoid a module-load cycle
    from repro.runstore.provenance import Provenance
    from repro.runstore.store import RunStore

from repro.core.ssd_manager import SsdStats
from repro.storage.ftl import FtlStats
from repro.engine.buffer_pool import BufferPoolStats
from repro.harness.experiments import (
    SCALE_PROFILES,
    run_oltp_experiment,
    run_tpch_experiment,
)
from repro.harness.metrics import LatencyTracker, Sample, Sampler
from repro.harness.runner import RunResult
from repro.workloads.tpch import TpchResult

#: Default cache directory, overridable with ``REPRO_CACHE_DIR``.
DEFAULT_CACHE_DIR = ".repro-cache"

#: Bump to invalidate every cached run without touching the sources.
#: v2: snapshots carry fault/chaos outcome fields (``ssd.detached``) so
#: replayed cache hits record complete run-store rows.
SNAPSHOT_VERSION = 2


# ----------------------------------------------------------------------
# Run specification and cache keys
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class RunSpec:
    """One deterministic run, fully described by plain values.

    ``kind`` is ``"oltp"`` (Figures 5–9 building block) or ``"tpch"``
    (power + throughput).  ``scale`` is warehouses / customer-thousands /
    SF depending on the benchmark.  ``profile`` is a named entry of
    :data:`SCALE_PROFILES`.
    """

    kind: str
    benchmark: str
    scale: int
    design: str
    profile: str = "default"
    duration: float = 60.0
    nworkers: int = 32
    bucket_seconds: float = 2.0
    seed: int = 20110612
    dirty_threshold: Optional[float] = None
    checkpoint_interval: Optional[float] = None
    expand_reads: bool = False
    ftl: bool = False

    def __post_init__(self) -> None:
        if self.kind not in ("oltp", "tpch"):
            raise ValueError(f"unknown run kind {self.kind!r}")
        if self.profile not in SCALE_PROFILES:
            raise ValueError(f"unknown scale profile {self.profile!r}")

    def to_dict(self) -> Dict[str, Any]:
        """Canonical plain-dict form (the hashed representation)."""
        return {
            "kind": self.kind,
            "benchmark": self.benchmark,
            "scale": self.scale,
            "design": self.design,
            "profile": self.profile,
            "duration": self.duration,
            "nworkers": self.nworkers,
            "bucket_seconds": self.bucket_seconds,
            "seed": self.seed,
            "dirty_threshold": self.dirty_threshold,
            "checkpoint_interval": self.checkpoint_interval,
            "expand_reads": self.expand_reads,
            "ftl": self.ftl,
        }

    @staticmethod
    def from_dict(data: Dict[str, Any]) -> "RunSpec":
        """Inverse of :meth:`to_dict` (used to ship specs to workers)."""
        return RunSpec(**data)

    @property
    def label(self) -> str:
        """Short human-readable tag for progress lines."""
        return f"{self.benchmark}/{self.scale}/{self.design}"


_code_version_cache: Optional[str] = None


def code_version(root: Optional[Path] = None) -> str:
    """Hash of every simulator source file, for cache invalidation.

    A cached run is only valid for the code that produced it; salting
    the cache key with the source tree means a checkout change silently
    becomes a cache miss instead of a stale result.
    """
    global _code_version_cache
    if root is None:
        if _code_version_cache is not None:
            return _code_version_cache
        root = Path(__file__).resolve().parent.parent  # src/repro
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    version = digest.hexdigest()[:16]
    if root == Path(__file__).resolve().parent.parent:
        _code_version_cache = version
    return version


def spec_key(spec: RunSpec) -> str:
    """The cache key: hash of (canonical spec JSON, code version)."""
    payload = json.dumps(
        {"spec": spec.to_dict(), "code": code_version(),
         "snapshot_version": SNAPSHOT_VERSION},
        sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()


def cache_dir() -> Path:
    """Resolve the cache directory (``REPRO_CACHE_DIR`` or CWD-relative)."""
    return Path(os.environ.get("REPRO_CACHE_DIR", DEFAULT_CACHE_DIR))


# ----------------------------------------------------------------------
# Snapshots: RunResult / TpchResult -> JSON and back
# ----------------------------------------------------------------------

def snapshot(result: Any) -> Dict[str, Any]:
    """Extract a run's measurements into a JSON-serialisable dict."""
    if isinstance(result, TpchResult):
        return {
            "kind": "tpch",
            "sf": result.sf,
            "query_times": {str(k): v for k, v in result.query_times.items()},
            "rf_times": list(result.rf_times),
            "power_elapsed": result.power_elapsed,
            "throughput_elapsed": result.throughput_elapsed,
            "streams": result.streams,
        }
    return _snapshot_oltp(result)


def _snapshot_oltp(result: RunResult) -> Dict[str, Any]:
    system = result.system
    bp_stats = system.bp.stats.as_dict()
    manager = system.ssd_manager
    checkpointer = system.checkpointer
    ftl = getattr(system.ssd_device, "ftl", None)
    ftl_snap: Optional[Dict[str, Any]] = None
    if ftl is not None:
        ftl_snap = {"stats": vars(ftl.stats).copy(),
                    "waf": ftl.waf,
                    "wear_spread": ftl.wear_spread,
                    "free_blocks": ftl.free_block_count}
    data: Dict[str, Any] = {
        "kind": "oltp",
        "design": result.design,
        "metric_name": result.metric_name,
        "duration": result.duration,
        "bucket_seconds": result.bucket_seconds,
        "metric_window": result.metric_window,
        "start_time": result.start_time,
        "buckets": list(result.buckets),
        "txn_counts": dict(result.txn_counts),
        "samples": [vars(sample).copy()
                    for sample in result.sampler.samples],
        "latency_samples": {txn: list(values) for txn, values
                            in result.latencies._samples.items()},
        "bp_stats": bp_stats,
        "ssd": {
            "dirty_frames": manager.dirty_frames,
            "used_frames": manager.used_frames,
            "dirty_fraction": manager.dirty_fraction,
            # Fault outcomes must survive restore too: a replayed cache
            # hit records the same run-store row as the live run did.
            "detached": manager.detached,
            "stats": manager.stats.as_dict(),
            "invalid_count": manager.table.invalid_count,
            "config": {
                "ssd_frames": manager.config.ssd_frames,
                "dirty_threshold": manager.config.dirty_threshold,
                "dirty_limit_frames": manager.config.dirty_limit_frames,
                "fill_threshold": manager.config.fill_threshold,
                "fill_target_frames": manager.config.fill_target_frames,
            },
            "ftl": ftl_snap,
        },
        "checkpointer": {
            "checkpoints_started": checkpointer.checkpoints_started,
            "checkpoints_taken": checkpointer.checkpoints_taken,
            "durations": list(checkpointer.durations),
        },
    }
    return data


class _Attrs:
    """A dot-access bag of plain values (restored stand-in objects)."""

    def __init__(self, **values: Any) -> None:
        self.__dict__.update(values)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"_Attrs({self.__dict__!r})"


def restore(data: Dict[str, Any]) -> Any:
    """Rebuild a result object from :func:`snapshot` output.

    TPC-H snapshots restore to a real :class:`TpchResult`.  OLTP
    snapshots restore to a real :class:`RunResult` whose ``sampler`` and
    ``latencies`` are fully functional and whose ``system`` is a
    lightweight stand-in exposing the counters consumers read
    (``bp.stats``, ``ssd_manager``, ``checkpointer``).
    """
    if data["kind"] == "tpch":
        return TpchResult(
            sf=data["sf"],
            query_times={int(k): v for k, v in data["query_times"].items()},
            rf_times=list(data["rf_times"]),
            power_elapsed=data["power_elapsed"],
            throughput_elapsed=data["throughput_elapsed"],
            streams=data["streams"],
        )

    sampler = Sampler.__new__(Sampler)
    sampler.system = None
    sampler.interval = 0.0
    sampler.max_samples = None
    sampler.samples = [Sample(**row) for row in data["samples"]]
    sampler._started = True
    sampler._stopped = True

    latencies = LatencyTracker()
    for txn, values in data["latency_samples"].items():
        latencies._samples[txn] = list(values)

    bp_stats = BufferPoolStats.from_dict(data["bp_stats"])

    ssd = data["ssd"]
    manager = _Attrs(
        dirty_frames=ssd["dirty_frames"],
        used_frames=ssd["used_frames"],
        dirty_fraction=ssd["dirty_fraction"],
        detached=ssd.get("detached", False),
        stats=SsdStats.from_dict(ssd["stats"]),
        table=_Attrs(invalid_count=ssd["invalid_count"]),
        config=_Attrs(**ssd["config"]),
    )
    ftl_snap = ssd.get("ftl")
    ftl_attrs = None
    if ftl_snap is not None:
        ftl_attrs = _Attrs(
            stats=FtlStats(**ftl_snap["stats"]),
            waf=ftl_snap["waf"],
            wear_spread=ftl_snap["wear_spread"],
            free_block_count=ftl_snap["free_blocks"],
        )
    system = _Attrs(
        design=data["design"],
        bp=_Attrs(stats=bp_stats),
        ssd_manager=manager,
        ssd_device=_Attrs(ftl=ftl_attrs),
        checkpointer=_Attrs(**data["checkpointer"]),
    )
    return RunResult(
        design=data["design"],
        metric_name=data["metric_name"],
        duration=data["duration"],
        bucket_seconds=data["bucket_seconds"],
        metric_window=data["metric_window"],
        start_time=data["start_time"],
        buckets=list(data["buckets"]),
        txn_counts=dict(data["txn_counts"]),
        sampler=sampler,
        latencies=latencies,
        system=system,
    )


# ----------------------------------------------------------------------
# On-disk cache
# ----------------------------------------------------------------------

def cache_load(spec: RunSpec,
               directory: Optional[Path] = None) -> Optional[Dict[str, Any]]:
    """Load a cached snapshot for ``spec``, or None.

    Any unreadable, truncated, or structurally wrong cache file is
    treated as a miss (the run is recomputed), never as an error.
    """
    directory = directory or cache_dir()
    path = directory / f"{spec_key(spec)}.json"
    try:
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
        snap = payload["snapshot"]
        if snap["kind"] not in ("oltp", "tpch"):
            raise ValueError(f"bad snapshot kind {snap['kind']!r}")
        return snap
    except (OSError, ValueError, KeyError, TypeError):
        return None


def cache_store(spec: RunSpec, snap: Dict[str, Any],
                directory: Optional[Path] = None) -> Path:
    """Atomically write a snapshot for ``spec``; returns the file path.

    Write-to-temp + rename means a concurrent reader (or a killed
    writer) can never observe a half-written file.
    """
    directory = directory or cache_dir()
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"{spec_key(spec)}.json"
    payload = {"spec": spec.to_dict(), "snapshot": snap}
    tmp = path.with_suffix(f".tmp.{os.getpid()}")
    with open(tmp, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, separators=(",", ":"))
    os.replace(tmp, path)
    return path


# ----------------------------------------------------------------------
# Executing specs
# ----------------------------------------------------------------------

def execute(spec: RunSpec) -> Any:
    """Run one spec live (no cache) and return the live result object."""
    profile = SCALE_PROFILES[spec.profile]
    if spec.kind == "tpch":
        return run_tpch_experiment(
            spec.scale, spec.design, profile=profile,
            checkpoint_interval=spec.checkpoint_interval)
    return run_oltp_experiment(
        spec.benchmark, spec.scale, spec.design,
        duration=spec.duration, profile=profile,
        dirty_threshold=spec.dirty_threshold,
        checkpoint_interval=spec.checkpoint_interval,
        nworkers=spec.nworkers, bucket_seconds=spec.bucket_seconds,
        expand_reads=spec.expand_reads, ftl=spec.ftl, seed=spec.seed)


def run_cached(spec: RunSpec, directory: Optional[Path] = None,
               use_cache: bool = True) -> Any:
    """Cache-aware single run.

    On a hit, returns the restored snapshot; on a miss, runs live,
    stores the snapshot, and returns the *live* result (callers keep
    access to the full simulator state on first computation).
    """
    if use_cache:
        snap = cache_load(spec, directory)
        if snap is not None:
            return restore(snap)
    result = execute(spec)
    if use_cache:
        cache_store(spec, snapshot(result), directory)
    return result


def _worker(payload: Tuple[Dict[str, Any], Optional[str]]) -> Tuple[
        Dict[str, Any], Dict[str, Any], bool]:
    """Pool worker: run one spec (cache-aware) in a child process.

    Module-level by necessity — the spawn context pickles the function
    by reference.  Returns (spec dict, snapshot dict, was_cached).
    """
    spec_dict, directory = payload
    spec = RunSpec.from_dict(spec_dict)
    path = Path(directory) if directory else None
    snap = cache_load(spec, path) if directory is not None else None
    if snap is not None:
        return spec_dict, snap, True
    result = execute(spec)
    snap = snapshot(result)
    if directory is not None:
        cache_store(spec, snap, path)
    return spec_dict, snap, False


@dataclass
class SweepReport:
    """Outcome of one :func:`run_sweep` call."""

    results: Dict[RunSpec, Any] = field(default_factory=dict)
    cached: int = 0
    computed: int = 0
    recorded: int = 0
    elapsed: float = 0.0


class _Recorder:
    """Best-effort run-store recording for a sweep.

    All recording happens in the parent process (workers ship plain
    snapshots back), so one sweep is one writer; the store's own
    ``BEGIN IMMEDIATE`` guard covers *concurrent sweeps* sharing a
    database.  The first failed write disables recording for the rest
    of the sweep — a broken database never costs completed runs.
    """

    def __init__(self, store: Optional["RunStore"],
                 say: Callable[[str], None]) -> None:
        self.store = store
        self.recorded = 0
        self._say = say
        self._provenance: Optional["Provenance"] = None

    def record(self, spec: RunSpec, result: Any) -> None:
        if self.store is None:
            return
        if self._provenance is None:
            from repro.runstore.provenance import capture
            self._provenance = capture()
        from repro.runstore.store import StoreError
        try:
            self.store.record_result(spec.to_dict(), result,
                                     provenance=self._provenance)
            self.recorded += 1
        except StoreError as exc:
            self._say(f"runstore: {exc}; remaining runs will not be "
                      f"recorded (JSON output is unaffected)")
            self.store = None


def run_sweep(specs: List[RunSpec], workers: int = 1,
              directory: Optional[Path] = None, use_cache: bool = True,
              progress: Optional[Callable[[str], None]] = None,
              store: Optional["RunStore"] = None,
              ) -> SweepReport:
    """Run a grid of independent specs, in parallel, through the cache.

    ``workers=1`` runs in-process (no pool overhead, easiest to debug);
    ``workers>1`` fans out over a spawn-context pool.  Each run is
    deterministic in isolation, so the schedule does not affect results.
    Duplicate specs are collapsed before dispatch.

    ``store`` (a :class:`repro.runstore.RunStore`) records every run —
    cache hits included, so replayed sweeps still build history — with
    provenance captured once per sweep.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    say = progress if progress is not None else (lambda message: None)
    directory = (directory or cache_dir()) if use_cache else None
    recorder = _Recorder(store, say)

    unique: List[RunSpec] = []
    seen: Set[RunSpec] = set()
    for spec in specs:
        if spec not in seen:
            seen.add(spec)
            unique.append(spec)

    report = SweepReport()
    started = time.monotonic()
    total = len(unique)
    done = 0

    def note(spec: RunSpec, was_cached: bool) -> None:
        nonlocal done
        done += 1
        if was_cached:
            report.cached += 1
        else:
            report.computed += 1
        elapsed = time.monotonic() - started
        eta = elapsed / done * (total - done) if done else 0.0
        say(f"[{done}/{total}] {spec.label} "
            f"{'cached' if was_cached else f'{elapsed:6.1f}s'} "
            f"(eta {eta:5.1f}s)")

    if workers == 1 or total <= 1:
        for spec in unique:
            if directory is not None:
                snap = cache_load(spec, directory)
                if snap is not None:
                    report.results[spec] = restore(snap)
                    recorder.record(spec, report.results[spec])
                    note(spec, True)
                    continue
            result = execute(spec)
            if directory is not None:
                cache_store(spec, snapshot(result), directory)
            report.results[spec] = result
            recorder.record(spec, result)
            note(spec, False)
    else:
        import multiprocessing

        context = multiprocessing.get_context("spawn")
        payloads = [(spec.to_dict(), str(directory) if directory else None)
                    for spec in unique]
        with context.Pool(min(workers, total)) as pool:
            for spec_dict, snap, was_cached in pool.imap_unordered(
                    _worker, payloads):
                spec = RunSpec.from_dict(spec_dict)
                report.results[spec] = restore(snap)
                recorder.record(spec, report.results[spec])
                note(spec, was_cached)

    report.recorded = recorder.recorded
    report.elapsed = time.monotonic() - started
    return report


def summarize(report: SweepReport) -> List[Dict[str, Any]]:
    """One plain-dict row per run: the sweep's merged metric table."""
    rows: List[Dict[str, Any]] = []
    for spec, result in sorted(report.results.items(),
                               key=lambda item: (item[0].benchmark,
                                                 item[0].scale,
                                                 item[0].design)):
        row: Dict[str, Any] = {"spec": spec.to_dict()}
        if isinstance(result, TpchResult):
            row.update(metric="QphH", value=result.qphh,
                       power=result.power, throughput=result.throughput)
        else:
            row.update(metric=result.metric_name,
                       value=result.steady_state_throughput(),
                       total_txns=result.total_metric_txns)
            ftl = getattr(getattr(result.system, "ssd_device", None),
                          "ftl", None)
            if ftl is not None:
                row["waf"] = ftl.waf
        rows.append(row)
    return rows


def progress_printer(stream: Optional[TextIO] = None
                     ) -> Callable[[str], None]:
    """A progress callback that writes one line per completed run."""
    stream = stream or sys.stderr

    def say(message: str) -> None:
        print(message, file=stream, flush=True)

    return say
