"""Timings put on the scale of a host running at a steady speed.

The vCPUs of a shared host do not run at one speed.  On the machine
this benchmark was written on, a vCPU switched from one fraction of a
second to the next between full speed and 1.3 to 1.7 times slower
(another tenant on the same physical core), and the share of slow time
drifted over minutes.  The same operation took 4.6 s or 8.2 s, so raw
wall times of runs made at different moments spread by 20 to 50%.

``HostClock.time`` runs a call while a wall-clock interval timer
interrupts it every ``INTERVAL_S`` and times a fixed probe:
``PROBE_CALLS`` calls of a small NumPy function from a Python loop, the
mix of interpreter work and short native calls that dominates the
package's per-patch code.  The probe's CPU time (``thread_time``, so
time the thread waits for a vCPU does not count) averaged over the call
says how slow the host ran while the call ran.  The call's normalised
time is its wall time, less the time spent in probes, times
``REFERENCE_S`` over the mean probe time: the seconds it would take on a
host where one probe takes ``REFERENCE_S``.

The probe is fixed code outside the package, so a change to the package
moves the wall time and not the probe.  Signal handlers run between
bytecodes, so a call that stays in native code is probed when it comes
back; ``EDGE_PROBES`` probes just before and after each call make sure
that every call has samples.
"""

from __future__ import annotations

import signal
import time
from dataclasses import dataclass
from statistics import mean

import numpy as np

INTERVAL_S = 0.01
PROBE_CALLS = 40
EDGE_PROBES = 5
# one probe takes about this long on a vCPU at full speed
REFERENCE_S = 1e-4

_X = np.linspace(0.0, 1.0, 32)


@dataclass
class Timing:
    wall_s: float       # wall time less the probes
    norm_s: float       # wall_s on the reference host's scale
    probes: int


class HostClock:
    """Times calls and the host's speed while they run."""

    def __init__(self):
        self._samples: list[float] = []
        self._spent = 0.0

    def _probe(self, *_signal) -> None:
        start, cpu = time.perf_counter(), time.thread_time()
        for _ in range(PROBE_CALLS):
            np.interp(0.3, _X, _X)
        self._samples.append(time.thread_time() - cpu)
        self._spent += time.perf_counter() - start

    def time(self, fn):
        """Run ``fn()``; return its result and its ``Timing``."""
        self._samples = []
        for _ in range(EDGE_PROBES):
            self._probe()
        self._spent = 0.0
        previous = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        start = time.perf_counter()
        try:
            result = fn()
        finally:
            wall = time.perf_counter() - start
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        wall -= self._spent
        for _ in range(EDGE_PROBES):
            self._probe()
        return result, Timing(wall, wall * REFERENCE_S / mean(self._samples),
                              len(self._samples))
