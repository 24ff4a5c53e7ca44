"""Host-speed calibration: a fixed loop that runs no program code.

On the shared 2-core x86_64 VM the benchmark was tuned on, the host
switches within seconds between states in which the same code runs up
to 1.5x apart, and drifts by as much over tens of minutes.  Process CPU
time grows with wall time through them, so the process is not kept
waiting: the cores are slower.  A timing taken once reads whichever
state it met.

:class:`HostClock` therefore times a fixed loop right before and right
after each timed operation, and scales the operation's wall time by
``REFERENCE_MS`` over the loop's time: the time the operation would
have taken on a host on which the loop takes ``REFERENCE_MS``.  The loop
runs no program code, so a program that gets faster reads faster by the
same share.  Every loop time is kept, with the load average, as the
run's host-noise record.
"""

from __future__ import annotations

import contextlib
import gc
import heapq
import statistics
import time
from dataclasses import dataclass

import numpy as np

# Readings on the 2-core x86_64 VM the benchmark was tuned on ranged
# 13-28 ms; 16 ms is a typical one in its faster state, so scaled timings
# read close to that host's wall times then.
REFERENCE_MS = 16.0

_clock = time.perf_counter
_TIERS = ("gold", "silver", "bronze")


class _Session:
    __slots__ = ("sid", "start", "tier", "watts")

    def __init__(self, sid: int, start: float, tier: str):
        self.sid, self.start, self.tier, self.watts = sid, start, tier, 0.0


def _event_loop(count: int = 2000) -> float:
    """Heap-ordered arrivals and departures over small objects in a dict."""
    heap = [(float(i % 97) * 0.37, i, "arrive") for i in range(count)]
    heapq.heapify(heap)
    live: dict[int, _Session] = {}
    total = 0.0
    while heap:
        t, sid, kind = heapq.heappop(heap)
        if kind == "arrive":
            session = live[sid] = _Session(sid, t, _TIERS[sid % 3])
            session.watts = sum(0.5 * s.start
                                for s in list(live.values())[-4:])
            if sid % 2:
                heapq.heappush(heap, (t + 1.5, sid, "depart"))
        else:
            total += live.pop(sid).watts
    return total


def calibrate() -> float:
    """Milliseconds for a fixed loop shaped like the program (no program).

    An object-and-dict event loop, small-array numpy calls and small
    matmuls.  The same plan or fleet pass repeated for 80 s spread
    0.22-0.29 per operation unscaled (quartile distance over median);
    medians over 12 consecutive operations, scaled by this mix, spread
    0.05-0.07, against 0.09 with a tight arithmetic loop in place of the
    event loop.  Its arrays stay far below the allocator's mmap
    threshold, so it takes no page faults, whose cost on a VM varies on
    its own.
    """
    start = _clock()
    _event_loop()
    x = np.linspace(0.1, 1.0, 32)
    for _ in range(750):
        x = np.sqrt(x * 0.5 + 0.5)
    a = np.linspace(-1.0, 1.0, 64 * 64).reshape(64, 64)
    for _ in range(40):
        a = np.tanh(a @ a.T / 32.0 + 0.5)
    return (_clock() - start) * 1e3


@dataclass
class Timing:
    """One timed operation: host wall seconds and the same scaled."""

    raw_s: float = 0.0
    scaled_s: float = 0.0


class HostClock:
    """Times operations and scales them to the reference host speed.

    ``calibrated=False`` is a plain wall clock: no loop, no collection,
    timings unscaled (the traced run, whose layer times are read against
    each other).
    """

    def __init__(self, calibrated: bool = True):
        self.calibrated = calibrated
        self.readings: list[float] = []     # every reading, ms
        # Per open measure: seconds of loop readings and collections made
        # inside it, and raw and scaled seconds of the measures nested in it.
        self._open: list[list[float]] = []

    def reading(self) -> None:
        """Keep the faster of two loop times: the first loop after an
        operation can meet cold caches that the operation did not."""
        if self.calibrated:
            start = _clock()
            self.readings.append(min(calibrate(), calibrate()))
            self._charge(_clock() - start)

    def _charge(self, seconds: float) -> None:
        if self._open:
            self._open[-1][0] += seconds

    def scale(self, raw_s: float, since: int) -> float:
        """``raw_s`` scaled by the median reading from index ``since`` on."""
        if not self.calibrated:
            return raw_s
        return raw_s * REFERENCE_MS / statistics.median(self.readings[since:])

    @contextlib.contextmanager
    def measure(self):
        """Time the block between two loop readings, after a collection.

        The yielded :class:`Timing` is filled in on exit.  The host speed
        moves within seconds, so the block is scaled by the readings just
        before and after it; a block that encloses other measured blocks
        adds their scaled times to the rest of its own, scaled by the
        median of every reading made from its start to its end.  Loop
        readings and collections inside the block are not timed.
        """
        timing = Timing()
        since = len(self.readings)
        self.reading()
        if self.calibrated:
            start = _clock()
            gc.collect()
            self._charge(_clock() - start)
        inner = [0.0, 0.0, 0.0]
        self._open.append(inner)
        start = _clock()
        try:
            yield timing
        finally:
            elapsed = _clock() - start
            self._open.pop()
        self.reading()
        overhead, inner_raw, inner_scaled = inner
        timing.raw_s = elapsed - overhead
        timing.scaled_s = inner_scaled + self.scale(
            timing.raw_s - inner_raw, since)
        if self._open:
            parent = self._open[-1]
            parent[0] += overhead
            parent[1] += timing.raw_s
            parent[2] += timing.scaled_s
