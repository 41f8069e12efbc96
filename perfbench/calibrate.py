"""A fixed calibration load that tracks how fast the machine runs right now.

On a shared host the speed of this process drifts by tens of percent over
a minute, as other tenants come and go. The benchmark times this load,
which it owns and which no change to taurmt touches, beside the program's
own work, and reports times scaled to REFERENCE_S: seconds on a machine
where the load takes exactly that long. A change to the program moves the
scaled times; a change in machine speed mostly cancels.

The mix follows the program's: interpreted complex arithmetic (the ODE
stepper, argument parsing), elementwise numpy on a few thousand points
(the quadrature rules) and small dense complex LAPACK (Toeplitz and
Fredholm determinants).
"""

from __future__ import annotations

import bisect
import statistics
import time

import numpy as np

REFERENCE_S = 0.02

_rng = np.random.default_rng(20070601)
_MATRIX = _rng.standard_normal((96, 96)) + 1j * _rng.standard_normal((96, 96))
_POINTS = np.linspace(0.01, 3.0, 4000)


def _load() -> None:
    z, acc = 0.3 + 0.1j, 0j
    for i in range(1, 60001):
        acc += z * (acc * 1e-9 + 1) / i
    for _ in range(60):
        (np.exp(-0.5j * _POINTS) * np.log(_POINTS)).sum()
    for _ in range(20):
        np.linalg.slogdet(_MATRIX)


def sample() -> float:
    """Seconds for one run of the calibration load."""
    start = time.perf_counter()
    _load()
    return time.perf_counter() - start


def scale(samples) -> float:
    """Factor that turns seconds measured beside `samples` into seconds at
    the reference speed."""
    return REFERENCE_S / statistics.median(samples)


class Scaler:
    """Calibration samples taken between pieces of the program's work.

    A piece of work that ended at time `end` is scaled by the median of the
    (up to) four samples nearest to it, two before and two after, which
    follows the machine's drift within a run.
    """

    def __init__(self, every_s: float):
        self.every_s = every_s
        self.at: list = []
        self.samples: list = []

    def sample(self) -> None:
        self.at.append(time.perf_counter())
        self.samples.append(sample())

    def sample_if_due(self) -> None:
        if not self.at or time.perf_counter() - self.at[-1] >= self.every_s:
            self.sample()

    def scaled(self, end: float, seconds: float) -> float:
        i = bisect.bisect(self.at, end)
        return seconds * scale(self.samples[max(i - 2, 0):i + 2])
