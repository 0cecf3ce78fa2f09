"""Host seconds at a reference host speed, for a host whose speed drifts.

The benchmark runs on a few cores of a shared host.  There, the same
pass of pure-Python work takes anywhere from 1x to 2x as long, and the
speed wanders over seconds to minutes with the neighbours' load; CPU
time drifts with it.  So a raw host time says as much about the host as
about the program.

:class:`SpeedClock` measures the host's speed while the program runs: a
``SIGALRM`` interval timer interrupts the pass every ``INTERVAL_S`` of
wall time, and the handler times a fixed, allocation-free piece of
interpreter work (:func:`_kernel`, about 0.1 ms).  A lap of the clock
reports the raw host seconds and the host seconds the program's work
would have taken at the reference speed, the speed at which the kernel
takes ``REFERENCE_KERNEL_S``:

    normalized = (raw - time spent in the kernel) * mean(REFERENCE / k_i)

where ``k_i`` is the kernel's time at sample ``i``.  The samples are
evenly spaced in wall time, so the mean of the speeds weights each
stretch of the lap by its length.  The handler only reads the clock and
touches the kernel's own objects, so the program's results (all in
virtual time) are unchanged.
"""

from __future__ import annotations

import signal
import time
from typing import List, Tuple

#: Wall seconds between speed samples (one kernel run each, ~1%).
INTERVAL_S = 0.010
#: Kernel time, in seconds, that defines the reference host speed.
REFERENCE_KERNEL_S = 1.0e-4
#: Loop trips of one kernel run.
KERNEL_TRIPS = 600


class _Cell:
    __slots__ = ("value", "step")

    def __init__(self) -> None:
        self.value = 0
        self.step = 1


def _bump(cell: _Cell, i: int) -> int:
    cell.value = (cell.value + i) & 1023
    return cell.value


_CELL = _Cell()
_SLOTS = dict.fromkeys(range(64), 0)


def _kernel() -> None:
    """Fixed interpreter work: calls, attribute and dict traffic.

    It reuses module-level objects and small ints, so it allocates no
    tracked objects and never triggers the program's garbage collector.
    """
    cell, slots = _CELL, _SLOTS
    for i in range(KERNEL_TRIPS):
        slots[i & 63] = _bump(cell, i) + cell.step


class SpeedClock:
    """Laps of raw and reference-speed host seconds (see module doc)."""

    def __init__(self) -> None:
        self._samples: List[float] = []
        self._lap_started = 0.0

    def _sample(self, signum, frame) -> None:
        started = time.perf_counter()
        _kernel()
        self._samples.append(time.perf_counter() - started)

    def start(self) -> None:
        _kernel()  # warm the kernel before the first sample
        self._samples = []
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        self._lap_started = time.perf_counter()

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def lap(self) -> Tuple[float, float]:
        """(raw, normalized) host seconds since ``start`` or the last lap.

        The lap ends with one more sample, so even a lap shorter than
        the interval has one.
        """
        self._sample(None, None)
        now = time.perf_counter()
        samples, self._samples = self._samples, []
        raw = now - self._lap_started
        self._lap_started = now
        speed = sum(REFERENCE_KERNEL_S / sample
                    for sample in samples) / len(samples)
        return raw, (raw - sum(samples)) * speed
