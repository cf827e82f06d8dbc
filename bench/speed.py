"""Machine-speed probe for the benchmark.

On a shared 2-core machine the speed drifts by tens of percent within
seconds, and CPU time drifts with wall time.  A fixed piece of
work drifts in step with the package's own calls when it does the same kind
of work, so each workload has a kernel in its own style: solver-like
interpreter and small linear-algebra work for ``sweep``, scalar evaluation and
formatting for ``curve``, sampler-sized array work for ``mc``.  No kernel
touches fgmruin, so no change to the package moves it.

The kernel runs PROBE_RUNS times at most every PROBE_EVERY_S, between ops.
Every time the benchmark reports is multiplied by the kernel's reference time
over its running median within PROBE_WINDOW_S of the timed interval: times
read as they would at the speed where the kernel takes its reference time.
"""

from __future__ import annotations

import json
import math
import time

import numpy as np

PROBE_RUNS = 3
PROBE_EVERY_S = 0.25
# A single Monte Carlo op lasts up to 3 s, so the window spans a few ops.
PROBE_WINDOW_S = 3.0

_POLY = (0.5, 1.0, 2.25, -4.5, 2.0)
_TERMS = ((-0.63 + 0j, -0.38 + 0j), (-0.014 + 0j, -1.87 + 0j), (0.02 + 0.01j, -2.2 + 0.4j),
          (0.02 - 0.01j, -2.2 - 0.4j))


def solver_kernel() -> float:
    """Horner loops over complex scalars, eigenvalue roots, tiny solves."""
    acc = 0j
    for k in range(80):
        z = complex(-0.5 + 0.01 * k, 0.3)
        v = 0j
        for c in _POLY:
            v = v * z + c
        acc += v / (1.0 + abs(z))
    for _ in range(8):
        roots = np.roots(_POLY)
        acc += complex(np.linalg.solve(np.vander(roots, 4), np.ones(4, dtype=complex))[0])
        acc += complex(np.polyval(np.convolve(_POLY, _POLY[:3]), roots[0]))
    return abs(acc)


def curve_kernel() -> float:
    """Exponential sums evaluated one point at a time, then formatted."""
    rows = []
    for i in range(60):
        u = np.asarray(0.01 * i, dtype=float)
        total = np.full(u.shape, complex(1.0), dtype=complex)
        for coef, rate in _TERMS:
            total = total + coef * np.exp(rate * u)
        lost = np.any(np.abs(total.imag) > 1e-10 * np.maximum(1.0, np.abs(total.real)))
        rows.append((0.01 * i, float(total.real) + float(lost)))
    text = "\n".join(f"{u:.6g},{v:.6g}" for u, v in rows)
    text += json.dumps([{"u": u, "value": v} for u, v in rows], sort_keys=True, indent=2)
    return float(len(text))


def sampler_kernel() -> float:
    """Claim rounds of a vectorized path simulation on 32768 paths."""
    rng = np.random.default_rng(1)
    surplus = np.full(32768, 5.0)
    active = np.arange(32768)
    for _ in range(3):
        v = rng.random(active.size)
        p = rng.random(active.size)
        a = 0.5 * (1.0 - 2.0 * v)
        grade = 2.0 * p / (1.0 + a + np.sqrt(np.maximum((1.0 + a) ** 2 - 4.0 * a * p, 0.0)))
        pre = surplus[active] - 1.5 * np.log1p(-v)
        post = pre + np.log1p(-grade)
        surplus[active] = post
        active = active[(pre < 20.0) & (post >= 0.0)]
    return float(math.fsum(surplus[:8]))


# workload -> (kernel, reference seconds per kernel run)
KERNELS = {
    "sweep": (solver_kernel, 1.0e-3),
    "curve": (curve_kernel, 2.0e-3),
    "mc": (sampler_kernel, 5.0e-3),
}


class Speed:
    """Kernel timings taken between ops, and the scale they imply."""

    def __init__(self, workload: str):
        self.kernel, self.ref_s = KERNELS[workload]
        self.mid: list[float] = []
        self.dur: list[float] = []
        self._last = -math.inf

    def sample(self) -> None:
        for _ in range(PROBE_RUNS):
            t0 = time.perf_counter()
            self.kernel()
            t1 = time.perf_counter()
            self.mid.append(0.5 * (t0 + t1))
            self.dur.append(t1 - t0)
        self._last = t1

    def maybe_sample(self) -> None:
        if time.perf_counter() - self._last >= PROBE_EVERY_S:
            self.sample()

    def scale(self, start, end) -> np.ndarray:
        """Reference time over the kernel time at the middle of each [start, end]."""
        mid, dur = np.asarray(self.mid), np.asarray(self.dur)
        lo = np.searchsorted(mid, mid - PROBE_WINDOW_S)
        hi = np.searchsorted(mid, mid + PROBE_WINDOW_S, side="right")
        smooth = np.array([np.median(dur[a:b]) for a, b in zip(lo, hi)])
        at = 0.5 * (np.asarray(start) + np.asarray(end))
        return self.ref_s / np.interp(at, mid, smooth)
