"""Machine-speed reference for timing on a shared machine.

On a small shared host the speed of the same code drifts by a quarter or
more over tens of seconds, because other tenants load the shared cores and
caches.  The benchmark therefore runs a fixed reference kernel between
calls and divides every measured time by the machine's speed at that
moment: the median reference time of the nearest samples over
``NOMINAL_S``.  Reported times are then seconds at the nominal speed.

The kernel is frozen here and shares no code with the package: a fixed
number of complex Jacobi rotations on a 6 x 6 Hermitian matrix (Python
loops over small numpy calls, like the package's eigensolvers) and
contractions of a 48**3 tensor (like its structure-tensor products).
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

# Median kernel time on the machine the baseline was recorded on
# (2-CPU Intel Xeon, Python 3.11, numpy 2.4); only the scale of reported
# times depends on it.
NOMINAL_S = 2.0e-3
# Reference samples a measured time is normalized by (its nearest ones).
WINDOW = 7
# Least time between two samples taken by ``tick``; the kernel then costs
# the timed work at most about 4 % of its wall time.
INTERVAL = 0.05

_rng = np.random.default_rng(0)
_H = _rng.standard_normal((6, 6)) + 1j * _rng.standard_normal((6, 6))
_H = _H + _H.conj().T
_T = _rng.standard_normal((48, 48, 48))
_V = _rng.standard_normal(48) + 1j * _rng.standard_normal(48)


def kernel() -> float:
    """The reference work; returns a value so nothing is optimized away."""
    a = _H.copy()
    n = a.shape[0]
    for _ in range(3):
        for p in range(n - 1):
            for q in range(p + 1, n):
                g = a[p, q]
                absg = abs(g) or 1.0
                zeta = (a[q, q].real - a[p, p].real) / (2.0 * absg)
                t = (1.0 if zeta >= 0.0 else -1.0) / (abs(zeta) + np.hypot(1.0, zeta))
                c = 1.0 / np.sqrt(1.0 + t * t)
                rot = np.array([[c * g / absg, t * c * g / absg], [-t * c, c]])
                a[:, [p, q]] = a[:, [p, q]] @ rot
                a[[p, q], :] = rot.conj().T @ a[[p, q], :]
    outer = np.outer(_V, _V)
    total = np.einsum("jkl,kl->j", _T, outer - outer.T)
    total += np.einsum("jkl,kl->j", _T, outer + outer.T)
    return float(np.abs(a).sum() + np.abs(total).sum())


def time_kernel() -> float:
    start = perf_counter()
    kernel()
    return perf_counter() - start


class Calibration:
    """Reference samples taken between timed calls, at most one per ``INTERVAL``."""

    def __init__(self):
        self.stamps: list[float] = []
        self.seconds: list[float] = []
        self._next = -np.inf

    def sample(self) -> float:
        """Run the kernel now; returns the time it took."""
        start = perf_counter()
        kernel()
        end = perf_counter()
        self.stamps.append((start + end) / 2.0)
        self.seconds.append(end - start)
        self._next = end + INTERVAL
        return end - start

    def tick(self) -> float:
        """Sample if ``INTERVAL`` has passed since the last one; returns time spent."""
        return self.sample() if perf_counter() >= self._next else 0.0

    def work_time(self, start: float, end: float) -> tuple[float, float]:
        """Time in [start, end] outside reference samples: (raw, at nominal speed).

        Each stretch between samples is divided by the speed around it.
        """
        stamps = np.asarray(self.stamps)
        half = np.asarray(self.seconds) / 2.0
        inside = (stamps > start) & (stamps < end)
        lo = np.concatenate(([start], stamps[inside] + half[inside]))
        hi = np.concatenate((stamps[inside] - half[inside], [end]))
        stretch = hi - lo
        return float(stretch.sum()), float(np.sum(stretch / self.speed((lo + hi) / 2.0)))

    def speed(self, when) -> np.ndarray:
        """Machine speed factor (measured over nominal time, > 1 is slower) at times ``when``."""
        stamps = np.asarray(self.stamps)
        seconds = np.asarray(self.seconds)
        width = min(WINDOW, seconds.size)
        medians = np.median(np.lib.stride_tricks.sliding_window_view(seconds, width), axis=1)
        nearest = np.searchsorted(stamps, np.asarray(when, dtype=float))
        start = np.clip(nearest - width // 2, 0, medians.size - 1)
        return medians[start] / NOMINAL_S
