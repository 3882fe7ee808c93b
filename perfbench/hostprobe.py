"""A fixed piece of work, timed between the units of a run, that tells how
fast the host is running the benchmark at the time.

On a virtual machine shared with other tenants the same work alternates
between a fast speed and one about 1.5 times slower, in stretches from a few
milliseconds to about a second, and the share of slow stretches changes from
minute to minute; the median of a run's unit times follows that share.  The
probe runs between the units of the run, never inside one, and each unit
time is divided by the mean of the two probe times around it: both felt the
host in the same stretch, so the ratio changes with the program, not with
the host.  The probe is not code of the program: nothing a change to the
program does can make it faster or slower.

A scaled unit time is that ratio times the probe's ``nominal_ms``, about
the probe's time in the fast stretches of the reference machine (its 10th
percentile over a benchmark run): the time the unit would take on a host
that runs the probe in ``nominal_ms``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

_now = time.process_time


@dataclass(frozen=True)
class ProbeShape:
    """What one probe does: ``reps`` times a ``rows`` x 64 by 64 x 64 matmul
    with tanh, add and sum over the result, then ``loops`` Python additions;
    it runs once ``every_s`` CPU seconds have passed since the last probe."""

    rows: int
    reps: int
    loops: int
    every_s: float
    nominal_ms: float


# Each workload is paired with the probe whose work slows like its own when
# the host is busy: small arrays and interpreter overhead for the gradient
# suite's tiny float64 forwards, arrays of half a megabyte or more for the
# fine-tunes' batches.  (A unit/probe ratio is steadier across runs the
# closer the two mixes are.)
SMALL = ProbeShape(rows=64, reps=30, loops=2000, every_s=0.025, nominal_ms=0.9)
LARGE = ProbeShape(rows=2048, reps=1, loops=1000, every_s=0.05, nominal_ms=1.2)


class HostProbe:
    def __init__(self, shape: ProbeShape, active: bool = True):
        self.shape, self.active = shape, active
        rng = np.random.default_rng(0)
        self._x = rng.standard_normal((shape.rows, 64))
        self._w = rng.standard_normal((64, 64))
        self._last = float("-inf")
        self.ends: list[float] = []
        self.times: list[float] = []

    def _work(self) -> float:
        x, w, s = self._x, self._w, 0.0
        for _ in range(self.shape.reps):
            c = x @ w
            s += float((np.tanh(c) * 0.5 + x).sum())
        for i in range(self.shape.loops):
            s += i * 0.5
        return s

    def tick(self, force: bool = False) -> None:
        """Time the probe once, if ``every_s`` of CPU time has passed since
        the last probe or ``force`` is set."""
        start = _now()
        if not self.active or (not force and start - self._last < self.shape.every_s):
            return
        self._work()
        self._last = _now()
        self.ends.append(self._last)
        self.times.append(self._last - start)

    def median_ms(self) -> float:
        return float(np.median(self.times)) * 1000.0

    def scaled(self, units) -> np.ndarray:
        """``units``: (end, CPU seconds) of each unit, in any order.  Returns
        each unit's seconds over the mean of the probes just before and just
        after it, times ``nominal_ms``."""
        ends, secs = np.asarray(units, dtype=np.float64).reshape(-1, 2).T
        probe_ends, probe_s = np.asarray(self.ends), np.asarray(self.times)
        after = np.searchsorted(probe_ends, ends)
        around = (probe_s[np.minimum(after, probe_s.size - 1)] + probe_s[np.maximum(after - 1, 0)]) / 2.0
        return secs / around * (self.shape.nominal_ms / 1000.0)
