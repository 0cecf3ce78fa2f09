"""Parallel sweep runner with an on-disk run cache.

The paper's figures are grids of independent deterministic runs (design ×
scale × λ × checkpoint interval).  Each run is CPU-bound single-threaded
simulation, so a sweep parallelises perfectly across worker processes —
and because every run is a pure function of its configuration and the
code, its results can be cached on disk and reused across bench sessions.

Two layers over :mod:`repro.harness.run`:

The cache
    A :class:`RunSpec`'s canonical JSON, salted with a hash of the
    simulator sources, is the cache key: change any spec field *or any
    source file* and the key moves.  The cached value is the run's
    :class:`RunRecord` as JSON, so a hit returns the very record the
    live run produced.

``run_sweep``
    Fans specs across a ``multiprocessing`` pool (spawn context — workers
    re-import the package, so specs and records travel as plain dicts),
    consults the cache first, and reports progress/ETA as runs complete.
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

from repro.harness.run import RunRecord, RunSpec, execute

#: Default cache directory, overridable with ``REPRO_CACHE_DIR``.
DEFAULT_CACHE_DIR = ".repro-cache"

#: Bump to invalidate every cached record without touching the sources.
RECORD_VERSION = 3


# ----------------------------------------------------------------------
# Cache keys
# ----------------------------------------------------------------------

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
         "record_version": RECORD_VERSION},
        sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()


def cache_dir() -> Path:
    """Resolve the cache directory (``REPRO_CACHE_DIR`` or CWD-relative)."""
    return Path(os.environ.get("REPRO_CACHE_DIR", DEFAULT_CACHE_DIR))


# ----------------------------------------------------------------------
# On-disk cache
# ----------------------------------------------------------------------

def cache_load(spec: RunSpec,
               directory: Optional[Path] = None) -> Optional[RunRecord]:
    """Load the cached record of ``spec``, or None.

    Any unreadable, truncated, or structurally wrong cache file is
    treated as a miss (the run is recomputed), never as an error.
    """
    directory = directory or cache_dir()
    path = directory / f"{spec_key(spec)}.json"
    try:
        with open(path, "r", encoding="utf-8") as handle:
            record = RunRecord.from_dict(json.load(handle))
    except (OSError, ValueError, KeyError, TypeError, AttributeError):
        return None
    return record if record.spec == spec else None


def cache_store(record: RunRecord, directory: Optional[Path] = None) -> Path:
    """Atomically write ``record`` under its spec's key; returns the path.

    Write-to-temp + rename means a concurrent reader (or a killed
    writer) can never observe a half-written file.
    """
    directory = directory or cache_dir()
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"{spec_key(record.spec)}.json"
    tmp = path.with_suffix(f".tmp.{os.getpid()}")
    with open(tmp, "w", encoding="utf-8") as handle:
        json.dump(record.to_dict(), handle, separators=(",", ":"))
    os.replace(tmp, path)
    return path


# ----------------------------------------------------------------------
# Running specs through the cache
# ----------------------------------------------------------------------

def run_cached(spec: RunSpec, directory: Optional[Path] = None,
               use_cache: bool = True) -> RunRecord:
    """Cache-aware single run: the cached record on a hit; on a miss,
    the live run's record (stored for next time)."""
    return _run_one(spec, (directory or cache_dir()) if use_cache else None)[0]


def _run_one(spec: RunSpec,
             directory: Optional[Path]) -> Tuple[RunRecord, bool]:
    """(record, was_cached) for one spec; no cache when ``directory``
    is None."""
    if directory is not None:
        record = cache_load(spec, directory)
        if record is not None:
            return record, True
    record = RunRecord.of(spec, execute(spec))
    if directory is not None:
        cache_store(record, directory)
    return record, False


def _worker(payload: Tuple[Dict[str, Any], Optional[str]]
            ) -> Tuple[Dict[str, Any], bool]:
    """Pool worker: run one spec (cache-aware) in a child process.

    Module-level by necessity — the spawn context pickles the function
    by reference.  Returns (record dict, was_cached).
    """
    spec_dict, directory = payload
    record, was_cached = _run_one(RunSpec.from_dict(spec_dict),
                                  Path(directory) if directory else None)
    return record.to_dict(), was_cached


@dataclass
class SweepReport:
    """Outcome of one :func:`run_sweep` call."""

    results: Dict[RunSpec, RunRecord] = field(default_factory=dict)
    cached: int = 0
    computed: int = 0
    recorded: int = 0
    elapsed: float = 0.0


class Recorder:
    """Best-effort run-store recording for a series of runs.

    All recording happens in one process (sweep workers ship plain
    records back), so one sweep is one writer; the store's own
    ``BEGIN IMMEDIATE`` guard covers *concurrent sweeps* sharing a
    database.  The first failed write disables recording for the rest
    of the series — a broken database never costs completed runs.
    """

    def __init__(self, store: Optional["RunStore"],
                 say: Callable[[str], None]) -> None:
        self.store = store
        self.recorded = 0
        self._say = say
        self._provenance: Optional["Provenance"] = None

    def record(self, record: RunRecord) -> None:
        if self.store is None:
            return
        if self._provenance is None:
            from repro.runstore.provenance import capture
            self._provenance = capture()
        from repro.runstore.store import StoreError
        try:
            self.store.record_result(record, provenance=self._provenance)
            self.recorded += 1
        except StoreError as exc:
            self._say(f"runstore: {exc}; remaining runs will not be "
                      f"recorded (results are unaffected)")
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
    recorder = Recorder(store, say)

    unique: List[RunSpec] = []
    seen: Set[RunSpec] = set()
    for spec in specs:
        if spec not in seen:
            seen.add(spec)
            unique.append(spec)

    report = SweepReport()
    started = time.monotonic()
    total = len(unique)

    def note(record: RunRecord, was_cached: bool) -> None:
        report.results[record.spec] = record
        recorder.record(record)
        if was_cached:
            report.cached += 1
        else:
            report.computed += 1
        done = len(report.results)
        elapsed = time.monotonic() - started
        eta = elapsed / done * (total - done)
        say(f"[{done}/{total}] {record.spec.label} "
            f"{'cached' if was_cached else f'{elapsed:6.1f}s'} "
            f"(eta {eta:5.1f}s)")

    if workers == 1 or total <= 1:
        for spec in unique:
            note(*_run_one(spec, directory))
    else:
        import multiprocessing

        context = multiprocessing.get_context("spawn")
        payloads = [(spec.to_dict(), str(directory) if directory else None)
                    for spec in unique]
        with context.Pool(min(workers, total)) as pool:
            for data, was_cached in pool.imap_unordered(_worker, payloads):
                note(RunRecord.from_dict(data), was_cached)

    report.recorded = recorder.recorded
    report.elapsed = time.monotonic() - started
    return report


def summarize(report: SweepReport) -> List[Dict[str, Any]]:
    """One plain-dict row per run: the sweep's merged metric table."""
    rows: List[Dict[str, Any]] = []
    for spec, record in sorted(report.results.items(),
                               key=lambda item: (item[0].benchmark,
                                                 item[0].scale,
                                                 item[0].design)):
        metrics = record.metrics()
        row: Dict[str, Any] = {"spec": spec.to_dict(),
                               "metric": record.metric_name,
                               "value": metrics["value"]}
        if record.tpch is not None:
            row.update(power=metrics["power"],
                       throughput=metrics["throughput"])
        else:
            row["total_txns"] = record.total_metric_txns
        if record.ftl is not None:
            row["waf"] = record.ftl["waf"]
        rows.append(row)
    return rows


def progress_printer(stream: Optional[TextIO] = None
                     ) -> Callable[[str], None]:
    """A progress callback that writes one line per completed run."""
    stream = stream or sys.stderr

    def say(message: str) -> None:
        print(message, file=stream, flush=True)

    return say
