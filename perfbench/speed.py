"""The host's speed, sampled while a child runs, and the times it corrects.

The benchmark's host is a few cores of a shared machine.  Other tenants
slow it down by up to 3x, in phases that last from a tenth of a second to
several seconds, and no counter the guest can read (steal time, clock
rate) shows it.  Plain wall times of the same work then spread by 25-30 %
between runs.

So the child times a fixed piece of the benchmark's own code, the probe,
every ``INTERVAL_S`` of wall time, from a ``SIGALRM`` handler.  The probe
does what polyeff spends its time on (tuple hashing, dict lookups,
frozensets) in a working set small enough to stay in cache.  A change to
``src/`` cannot make it faster or slower.  Each sample gives the host's
speed during its slice of time.  A segment of a child's time (set-up, one
suite) is converted to the speed at which the probe takes ``REFERENCE_S``:

    (raw seconds - probe seconds) * mean(REFERENCE_S / probe)

over the samples taken in the segment.  A segment too short to hold a
sample uses the last sample before its end.  ``REFERENCE_S`` is a fixed
unit, about the fastest the probe ran on a 2-core x86-64 host; taking the
fastest probe of each run instead moved the result with that one sample,
by up to 8 % between runs.
"""

from __future__ import annotations

import signal
import statistics
import time

INTERVAL_S = 0.05
REFERENCE_S = 0.35e-3

_TABLE = {(i, i % 7): frozenset((i % 13, i % 5)) for i in range(100)}
_KEYS = list(_TABLE) * 50


def probe() -> int:
    n = 0
    for k in _KEYS:
        n += len(_TABLE[k])
    return n


class Sampler:
    """Times ``probe`` every ``INTERVAL_S`` while started."""

    def __init__(self, clock=time.monotonic):
        self.clock = clock
        self.samples: list[tuple[float, float]] = []  # (start, duration)
        self._previous = signal.SIG_DFL

    def _tick(self, signum, frame) -> None:
        t0 = self.clock()
        probe()
        self.samples.append((t0, self.clock() - t0))

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def segment(self, start: float, end: float) -> dict:
        """The raw time of [start, end), the probe time inside it, and the
        probe durations that stand for the host's speed during it."""
        inside = [d for t, d in self.samples if start <= t < end]
        speed = inside or [d for t, d in self.samples if t < end][-1:]
        return {"raw": end - start, "probe": sum(inside), "speed": speed}


def corrected(seg: dict) -> float:
    """A segment's time at the reference speed; its raw time if it holds no sample."""
    work = seg["raw"] - seg["probe"]
    if not seg["speed"]:
        return work
    return work * statistics.fmean(REFERENCE_S / d for d in seg["speed"])
