"""The benchmark's speedometer: how fast the machine runs around a pass.

On a shared VM the machine's speed drifts by a third within minutes, so a
raw pass time says as much about the neighbours as about lgh.  Between two
passes the benchmark runs ``REFERENCE_REPEATS`` *reference bursts*, a fixed
computation owned by the benchmark.  The pass time divided by the median of
the bursts just before and just after it, ``wall_ref``, cancels most of the
drift.  Nothing interrupts a pass.
"""

from __future__ import annotations

import time
from statistics import median

import numpy as np
from scipy.linalg import expm

# The reference burst must never change: wall_ref is measured against it.
REFERENCE_MATRIX = 0.3 * (
    (np.arange(36).reshape(6, 6) % 7 - 3) / 7.0 + 1j * ((np.arange(36).reshape(6, 6) % 5 - 2) / 5.0)
)
REFERENCE_EXPM = 40  # about 2 ms of expm on the 2-vCPU VM the README quotes
REFERENCE_LOOP = 20_000  # about 2 ms of Python integer arithmetic there
REFERENCE_REPEATS = 25  # bursts between two passes, about 0.1 s there


def reference_burst() -> float:
    """Wall seconds of a fixed computation that belongs to the benchmark, not
    to lgh: ``expm`` of a small complex matrix, then a Python integer loop.
    The two halves follow the machine's speed as lgh's sampling and its
    jet walk feel it."""
    start = time.perf_counter()
    coeffs = np.arange(6.0)
    for _ in range(REFERENCE_EXPM):
        np.tensordot(coeffs, expm(REFERENCE_MATRIX), axes=1)
    acc = 0
    for k in range(REFERENCE_LOOP):
        acc += k * k % 7
    return time.perf_counter() - start


class Speedometer:
    """Times passes with reference bursts before and after each one."""

    def __init__(self):
        for _ in range(3):  # the first expm calls load scipy.sparse.linalg
            reference_burst()
        self.before: list[float] | None = None  # bursts since the last pass

    def _bursts(self) -> list[float]:
        return [reference_burst() for _ in range(REFERENCE_REPEATS)]

    def timed(self, run_pass):
        """``(result, pass seconds, median burst around the pass)``."""
        before = self.before or self._bursts()
        start = time.perf_counter()
        result = run_pass()
        wall = time.perf_counter() - start
        after = self._bursts()
        self.before = after
        burst = median(before + after)
        return result, wall, burst
