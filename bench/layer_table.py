#!/usr/bin/env python3
"""One-off layer timings beside the figures ROADMAP item 1 recorded.

    python3 bench/layer_table.py

Times each call the ROADMAP baseline names, directly and untraced, as the
median of repeated runs, and prints a Markdown table with the ROADMAP figure
in the next column, so a reader can check that the harness measures what the
ROADMAP measured.
"""

from __future__ import annotations

import statistics
import sys
import time

import numpy as np

import run


def median_s(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    F, _ = run.import_fresh()
    poisson = F.ModelSpec(1.5, F.ExpClaim(1.0), F.ExpPoisson(1.0), F.FgmParam(0.5))
    erlang = F.ModelSpec(1.5, F.ExpClaim(1.0), F.Erlang2(2.0), F.FgmParam(0.5))
    den = F.classical_lt(poisson).den
    phi = F.survival_classical(poisson).phi
    grid = np.linspace(0.0, 50.0, 10_000)
    rng = np.random.default_rng(0)
    rows = [
        ("survival_classical", "0.50 ms", 1e3, "ms", 200,
         lambda: F.survival_classical(poisson)),
        ("poly_roots (classical quartic)", "0.37 ms", 1e3, "ms", 200,
         lambda: F.polyexp.poly_roots(den)),
        ("survival_erlang2", "1.4 ms", 1e3, "ms", 200, lambda: F.survival_erlang2(erlang)),
        ("solve_chi(b=20)", "0.85 ms", 1e3, "ms", 200, lambda: F.solve_chi(poisson, 20.0)),
        ("ExpSum evaluation, 1e4 points", "0.41 ms", 1e3, "ms", 200, lambda: phi(grid)),
        ("sample_pairs, 32768 pairs, Poisson", "1.3 ms", 1e3, "ms", 200,
         lambda: F.model.sample_pairs(poisson, rng, 32768)),
        ("sample_pairs, 32768 pairs, Erlang", "4.5 ms", 1e3, "ms", 200,
         lambda: F.model.sample_pairs(erlang, rng, 32768)),
    ]
    for label, model, w1, w2 in (("Poisson", poisson, "0.35 s", "0.24 s"),
                                 ("Erlang", erlang, "0.68 s", "0.71 s")):
        for workers, figure in ((1, w1), (2, w2)):
            rows.append((f"estimate_survival, 2e5 paths, u=0, {label}, workers={workers}",
                         figure, 1.0, "s", 3,
                         lambda m=model, k=workers: F.estimate_survival(m, 0.0, 200_000,
                                                                         seed=1, workers=k)))
    env = run.environment(0)
    print(f"nproc={env['nproc']} python={env['python']} numpy={env['numpy']} "
          f"git_sha={env['git_sha']} (theta = 0.5, c = 1.5, alpha = 1)\n")
    print("| Call | ROADMAP item 1 | This harness |")
    print("|---|---|---|")
    for label, figure, scale, unit, repeats, fn in rows:
        fn()
        value = scale * median_s(fn, repeats)
        print(f"| {label} | {figure} | {value:.3g} {unit} (median of {repeats}) |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
