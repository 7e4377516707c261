"""Machine-speed probe: job times rescaled to a reference speed.

On a shared host the same lieforge call can take twice as long from one
second to the next (a dense ``h5`` derivation solve measured 51-111 ms within
a minute on a 2-vCPU Xeon guest, with CPU time tracking wall time, so the
slowdown is in the core, not in scheduling). A fixed pure-Python kernel,
exact Gauss-Jordan elimination on one constant rational matrix, is timed
around the jobs; each job's latency is divided by the kernel's time at that
moment and multiplied by ``REFERENCE_NS``, the kernel's time on an unloaded
core of that host. The kernel uses no lieforge code, so no change to lieforge
moves it.
"""

from __future__ import annotations

import time
from fractions import Fraction

REFERENCE_NS = 2_000_000
PROBE_EVERY_NS = 50_000_000  # probe again once this much job time has passed
_MATRIX = tuple(
    tuple(Fraction((7 * i * i + 3 * j * j + i * j + 1) % 13 - 6, 1 + (i + 2 * j) % 5) for j in range(8))
    for i in range(8)
)


def _kernel() -> None:
    work = [list(row) for row in _MATRIX]
    n = len(work)
    for c in range(n):
        p = next((i for i in range(c, n) if work[i][c] != 0), None)
        if p is None:
            continue
        work[c], work[p] = work[p], work[c]
        inv = 1 / work[c][c]
        work[c] = [x * inv for x in work[c]]
        for i in range(n):
            if i != c and work[i][c] != 0:
                f = work[i][c]
                work[i] = [x - f * y for x, y in zip(work[i], work[c])]


def probe_ns() -> int:
    """Best of three kernel runs, so one interruption does not count."""
    best = None
    for _ in range(3):
        start = time.perf_counter_ns()
        _kernel()
        ns = time.perf_counter_ns() - start
        best = ns if best is None else min(best, ns)
    return best


class Meter:
    """Latencies of consecutive jobs, each rescaled by the probes around it."""

    def __init__(self) -> None:
        self.raw: list[int] = []
        self._before: list[int] = []  # index of the probe taken before each job
        self._probes = [probe_ns()]
        self._since = 0

    def add(self, ns: int) -> None:
        self.raw.append(ns)
        self._before.append(len(self._probes) - 1)
        self._since += ns
        if self._since >= PROBE_EVERY_NS:
            self._probes.append(probe_ns())
            self._since = 0

    def scaled(self) -> list[float]:
        """Latencies in ns at the reference speed; takes a closing probe if needed."""
        if self._before and self._before[-1] == len(self._probes) - 1:
            self._probes.append(probe_ns())
            self._since = 0
        p = self._probes
        return [ns * 2 * REFERENCE_NS / (p[k] + p[k + 1]) for ns, k in zip(self.raw, self._before)]

    def factor(self) -> float:
        """Mean rescaling factor over the jobs so far."""
        scaled = self.scaled()
        return sum(scaled) / sum(self.raw) if self.raw else 1.0
