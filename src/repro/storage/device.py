"""Base class for simulated storage devices.

A device is a set of independent *channels* (servers) fed from a FIFO
queue.  Submitting an :class:`~repro.storage.request.IORequest` returns an
event that triggers when the transfer finishes; the elapsed virtual time is
``queueing + service``, with the service time given by each device's
:meth:`Device.service_time` model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.sim import Environment, Event, Resource
from repro.storage.request import IoKind, IORequest, PAGE_SIZE_BYTES
from repro.telemetry import NULL_TELEMETRY

#: Label values used for ``io_*_total{kind=...}`` metrics and trace names.
KIND_LABELS = {kind: kind.name.lower() for kind in IoKind}


@dataclass
class DeviceStats:
    """Cumulative per-device counters.

    An :class:`~repro.storage.hdd.HddArray` records each per-disk
    fragment of a striped request, so its counts are per-disk I/Os.
    """

    completed: int = 0
    busy_time: float = 0.0
    #: Completed I/Os and the pages they moved, by I/O kind.
    by_kind: Dict[IoKind, int] = field(
        default_factory=lambda: {kind: 0 for kind in IoKind})
    pages_by_kind: Dict[IoKind, int] = field(
        default_factory=lambda: {kind: 0 for kind in IoKind})

    def record(self, request: IORequest, service: float) -> None:
        """Account one completed request."""
        self.completed += 1
        self.by_kind[request.kind] += 1
        self.pages_by_kind[request.kind] += request.npages
        self.busy_time += service

    @property
    def pages_read(self) -> int:
        """Total pages read from the device."""
        return sum(n for kind, n in self.pages_by_kind.items() if kind.is_read)

    @property
    def pages_written(self) -> int:
        """Total pages written to the device."""
        return sum(n for kind, n in self.pages_by_kind.items()
                   if not kind.is_read)


class TrafficRecorder:
    """Time-bucketed read/write traffic, for the paper's Figure 8.

    Buckets are ``bucket_seconds`` wide; each completed request adds its
    page count to the read or write series of the bucket it completed in.
    """

    def __init__(self, bucket_seconds: float):
        if bucket_seconds <= 0:
            raise ValueError("bucket_seconds must be positive")
        self.bucket_seconds = bucket_seconds
        self._reads: Dict[int, int] = {}
        self._writes: Dict[int, int] = {}

    def record(self, when: float, request: IORequest) -> None:
        """Add a completed request to its time bucket."""
        bucket = int(when / self.bucket_seconds)
        series = self._reads if request.kind.is_read else self._writes
        series[bucket] = series.get(bucket, 0) + request.npages

    def series(self, until: Optional[float] = None) -> List[Tuple[float, float, float]]:
        """Return ``(bucket_start_time, read_MBps, write_MBps)`` triples."""
        if not self._reads and not self._writes:
            return []
        last = max(list(self._reads) + list(self._writes))
        if until is not None:
            # ceil, not floor: a run ending mid-bucket still owns that
            # (partial) bucket — flooring dropped the final one and
            # truncated the Figure 8 series.
            last = max(last, math.ceil(until / self.bucket_seconds) - 1)
        scale = PAGE_SIZE_BYTES / (1 << 20) / self.bucket_seconds
        return [
            (
                bucket * self.bucket_seconds,
                self._reads.get(bucket, 0) * scale,
                self._writes.get(bucket, 0) * scale,
            )
            for bucket in range(last + 1)
        ]


class Device:
    """A queueing-server model of a storage device.

    Subclasses define the channel count and override
    :meth:`service_time`.  The in-flight I/O count (queued + in service)
    is exposed because the SSD throttle-control optimization (paper §3.3.2)
    monitors the SSD queue length.
    """

    def __init__(self, env: Environment, name: str, channels: int):
        self.env = env
        self.name = name
        self.channels = Resource(env, capacity=channels)
        self.stats = DeviceStats()
        self.traffic: Optional[TrafficRecorder] = None
        self._outstanding = 0
        #: Optional :class:`~repro.faults.injector.FaultInjector`.
        self.faults = None
        self.attach_telemetry(NULL_TELEMETRY)

    def attach_faults(self, injector) -> None:
        """Bind a fault injector; subsequent I/Os may fail or straggle."""
        self.faults = injector

    def reset(self) -> None:
        """Forget in-flight work (simulated power failure).

        The event queue holding the serving processes is wiped separately
        by :meth:`~repro.sim.environment.Environment.wipe`; this clears
        the device-side bookkeeping those processes would have unwound.
        """
        self.channels = Resource(self.env, capacity=self.channels.capacity)
        self._outstanding = 0

    def attach_telemetry(self, telemetry) -> None:
        """Bind a telemetry sink and resolve this device's instruments."""
        self.telemetry = telemetry
        self._tracer = telemetry.tracer
        self._trace_track = f"device:{self.name}"
        registry = telemetry.registry
        pages = registry.counter(
            "io_pages_total", "Pages transferred per device and I/O kind",
            labelnames=("device", "kind"))
        requests = registry.counter(
            "io_requests_total",
            "Completed I/Os per device and I/O kind (per-disk I/Os for "
            "a striped HDD array)",
            labelnames=("device", "kind"))
        stats = self.stats
        for kind, label in KIND_LABELS.items():
            pages.labels(device=self.name, kind=label).set_function(
                lambda kind=kind: stats.pages_by_kind[kind])
            requests.labels(device=self.name, kind=label).set_function(
                lambda kind=kind: stats.by_kind[kind])
        registry.gauge(
            "device_pending_ios", "I/Os submitted but not yet completed",
            labelnames=("device",)).labels(device=self.name).set_function(
                lambda: self._outstanding)

    @property
    def pending(self) -> int:
        """I/Os submitted but not yet completed (the queue length the
        SSD throttle-control optimization monitors, §3.3.2)."""
        return self._outstanding

    def attach_traffic_recorder(self, bucket_seconds: float) -> TrafficRecorder:
        """Start recording time-bucketed traffic; returns the recorder."""
        self.traffic = TrafficRecorder(bucket_seconds)
        return self.traffic

    def service_time(self, request: IORequest) -> float:
        """Virtual seconds one channel needs to serve ``request``."""
        raise NotImplementedError

    def submit(self, request: IORequest) -> Event:
        """Submit a request; the returned event triggers on completion
        (or *fails* with an :class:`~repro.faults.errors.IoFault` when a
        fault injector rejects or aborts the I/O)."""
        request.submitted_at = self.env.now
        done = self.env.event()
        if self.faults is not None:
            error = self.faults.on_submit(request)
            if error is not None:
                done.fail(error)
                return done
        self._outstanding += 1
        self.env.process(self._serve(request, done))
        return done

    def _serve(self, request: IORequest, done: Event):
        failure = None
        env = self.env
        channels = self.channels
        slot = channels.request()
        try:
            yield slot
            service = self.service_time(request)
            faults = self.faults
            if faults is not None:
                extra = faults.pre_service_delay(request, service)
                if extra > 0:
                    yield env.timeout(extra)
            yield env.timeout(service)
            if faults is not None:
                failure = faults.on_complete(request)
            if failure is None:
                request.completed_at = env._now
                self.stats.record(request, service)
                if self._tracer.enabled:
                    self._tracer.complete(KIND_LABELS[request.kind],
                                          request.submitted_at,
                                          env._now, "io",
                                          self._trace_track,
                                          ctx=request.ctx)
                if self.traffic is not None:
                    self.traffic.record(env._now, request)
        finally:
            # Release + decrement must survive any exit path: a leaked
            # channel would starve the queue, and a leaked outstanding
            # count would permanently inflate ``pending`` and wedge the
            # §3.3.2 throttle shut.
            channels.release(slot)
            self._outstanding -= 1
        if failure is not None:
            done.fail(failure)
        else:
            done.succeed(request)

    def read(self, address: int, npages: int = 1, random: bool = True,
             tag=None, ctx=None) -> Event:
        """Convenience wrapper building and submitting a read request."""
        kind = IoKind.of("read", random)
        return self.submit(IORequest(kind, address, npages, tag=tag, ctx=ctx))

    def write(self, address: int, npages: int = 1, random: bool = True,
              tag=None, ctx=None) -> Event:
        """Convenience wrapper building and submitting a write request."""
        kind = IoKind.of("write", random)
        return self.submit(IORequest(kind, address, npages, tag=tag, ctx=ctx))
