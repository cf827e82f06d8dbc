"""Post-stratification on the first claim, measured on the benchmark's Monte Carlo requests.

For each request the script walks the paths once, split on the first
claim, and prints the first claim's known stopping mass (h(u) for
survival, e^{R u} M(u) for reach), the share of paths that stopped there,
the plain variance of the same paths over the post-stratified one, and
how far, in ulps, the post-stratified value with the mass replaced by that
share lies from the plain estimate (the same request with the split off).

Run it from the repository root with the package importable:

    python tests/strata_ratios.py [n] [seed]

n defaults to 200 000 and the seed to 1; each request's seed is drawn
from the seed and its index, as ``bench/workloads.py`` draws the ``mc``
workload's.
"""

from __future__ import annotations

import math
import sys

import numpy as np

from fgmruin import (Erlang2, ExpClaim, ExpPoisson, FgmParam, ModelSpec, estimate_reach_prob,
                     estimate_survival, simulate)


def requests(seed: int) -> list[tuple]:
    """(model, u, b or None, seed) of the ten ``mc`` requests, in their order."""
    out = []
    for theta in (-1.0, 0.5):
        for arrival in (ExpPoisson(1.0), Erlang2(2.0)):
            model = ModelSpec(1.5, ExpClaim(1.0), arrival, FgmParam(theta))
            erlang = isinstance(arrival, Erlang2)
            cells = [(0.0, None), (5.0, None)] + ([] if erlang else [(0.0, 20.0)])
            for u, b in cells:
                index = len(out)
                out.append((model, u, b, int(np.random.SeedSequence([seed, index])
                                             .generate_state(1)[0])))
    return out


def measure(model, u: float, b, n: int, seed: int) -> tuple[float, float, float, float]:
    """(mass, share of first-claim stops, plain over stratified variance, ulps) of one request."""
    if b is None:
        tilt = simulate._tilt(model, u)
        v = np.array([tilt.alpha * u])
        mass = float(tilt.ruin.mass(v)[0])
        total, sq, m = simulate._run_survival(tilt, v, n, seed, np.ones(1, dtype=bool))[:, 0]
        atom = float(tilt.ruin.weights(v.copy())[0])
        sq -= total * total / (n - m)  # centred, as reach's

        def value(q, mean):
            scale = math.exp(-tilt.R * v[0])
            return 1.0 - scale * (tilt.ruin.center + q * atom + (1.0 - q) * mean)
    else:
        walk = simulate._Martingale.of(model)
        start, stop = walk.alpha * u, walk.stopping(walk.alpha * b)
        mass = walk.first_mass(start, stop)
        total, sq, m = simulate._run_reach(walk, start, stop, n, seed, split=True)
        atom = float(walk.corrections(np.array([start]), stop, np.empty((5, 1)))[0])

        def value(q, mean):
            return walk.chi(start, stop, q * atom + (1.0 - q) * mean)
    rest = n - m
    rest_mean, mean = total / rest, (total + m * atom) / n
    plain = (sq + rest * (rest_mean - mean) ** 2 + m * (atom - mean) ** 2) / (n - 1)
    stratified = n * (1.0 - mass) ** 2 * sq / (rest - 1) / rest
    unsplit, simulate._MIN_REST = simulate._MIN_REST, math.inf
    try:
        est = (estimate_survival(model, u, n=n, seed=seed) if b is None
               else estimate_reach_prob(model, u, b, n=n, seed=seed))
    finally:
        simulate._MIN_REST = unsplit
    ulps = abs(value(m / n, rest_mean) - est.value) / np.spacing(est.value)
    return mass, m / n, plain / stratified, float(ulps)


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    n = int(args[0]) if args else 200_000
    seed = int(args[1]) if len(args) > 1 else 1
    print("%-11s %-7s %5s %4s %8s %8s %8s %5s" % (
        "arrival", "theta", "u", "b", "mass", "share", "ratio", "ulps"))
    for model, u, b, s in requests(seed):
        mass, share, ratio, ulps = measure(model, u, b, n, s)
        print("%-11s %-7g %5g %4s %8.5f %8.5f %8.3f %5g" % (
            type(model.arrival).__name__, model.theta, u, "-" if b is None else f"{b:g}",
            mass, share, ratio, ulps))
    return 0


if __name__ == "__main__":
    sys.exit(main())
