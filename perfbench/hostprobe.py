"""Host-speed probe interleaved with the work being timed.

The host this benchmark was written on changes speed on its own: over 60
runs of 30 s the mean probe unit ranged from 0.72 to 1.25 times
REF_UNIT_S, and process CPU time moves with wall time. A fixed probe unit
that calls no cqcap code runs from a wall-clock timer signal every
INTERVAL_S, in the main thread, between the bytecodes of whatever is
running, so probe and program alternate every few tens of milliseconds
and see the same host. The benchmark then

- subtracts the probe time inside each timed interval (`time_in`), and
- scales each timed interval to the reference speed,
  raw * REF_UNIT_S / mean(unit time), from the units run in and around it
  (`local_scale`).

The unit mixes the four kinds of work cqcap does: interpreted float and
complex arithmetic, element access on small NumPy arrays (the pure-Python
eigensolver), small NumPy expressions, and 8x8 LAPACK eigendecompositions,
each about a quarter of the unit.
"""

from __future__ import annotations

import bisect
import math
import signal
import time

import numpy as np

INTERVAL_S = 0.02
LOCAL_UNITS = 8
# Scaled times are what a host whose mean unit takes REF_UNIT_S would
# show; 2.0 ms is about this host's unit when it runs fast.
REF_UNIT_S = 2.0e-3


class HostProbe:
    def __init__(self):
        rng = np.random.default_rng(12345)
        g = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        self._herm = g @ g.conj().T
        self._small = np.arange(16.0).reshape(4, 4) + 0.5j
        self.starts: list[float] = []
        self.ends: list[float] = []
        self._cum = [0.0]
        self._busy = False

    def _work(self) -> complex:
        s = 0.0
        for i in range(1300):
            s += math.sqrt(i) * 1.0001 + abs(complex(i, 1.0) * (0.5 + 0.1j))
        a = self._herm.copy()
        z = 0j
        for _ in range(3):
            for i in range(8):
                for j in range(8):
                    x = a[i, j]
                    a[i, j] = x * 0.5 + z * 1e-9
                    z += x.conjugate()
        b = self._small
        for _ in range(80):
            b = b * 0.999 + 0.001
            z += np.einsum("ij,ji->", b, b)
        for _ in range(20):
            z += np.linalg.eigh(self._herm)[0][0]
        return z + s

    def unit(self) -> None:
        t0 = time.perf_counter()
        self._work()
        t1 = time.perf_counter()
        self.starts.append(t0)
        self.ends.append(t1)
        self._cum.append(self._cum[-1] + (t1 - t0))

    def _on_timer(self, signum, frame):
        if self._busy:   # a signal that lands inside a unit is dropped
            return
        self._busy = True
        try:
            self.unit()
        finally:
            self._busy = False

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._on_timer)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def mark(self) -> int:
        return len(self.starts)

    def time_in(self, t0: float, t1: float) -> float:
        """Probe seconds spent inside [t0, t1]. A unit runs between two
        bytecodes of the interrupted code, so it lies wholly inside or
        wholly outside any interval that code timed."""
        lo = bisect.bisect_left(self.starts, t0)
        hi = bisect.bisect_right(self.ends, t1)
        return self._cum[hi] - self._cum[lo] if hi > lo else 0.0

    def local_scale(self, t0: float, t1: float) -> float:
        """Factor from raw seconds to seconds at the reference speed for
        work done in [t0, t1], from the units run in and around it (at
        least LOCAL_UNITS of them)."""
        pad = INTERVAL_S
        while True:
            lo = bisect.bisect_left(self.starts, t0 - pad)
            hi = bisect.bisect_right(self.starts, t1 + pad)
            if hi - lo >= LOCAL_UNITS or hi - lo == len(self.starts):
                return self.scale(lo, hi)
            pad *= 2.0

    def scale(self, since: int, until: int) -> float:
        """Factor from raw seconds to seconds at the reference speed, from
        the units run between two marks."""
        if until <= since:
            raise ValueError("no probe units in the interval")
        mean = (self._cum[until] - self._cum[since]) / (until - since)
        return REF_UNIT_S / mean
