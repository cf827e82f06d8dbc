"""In-process A/B timing of the closed-form solvers of two source trees.

Loads the ``fgmruin`` package of each tree side by side under its own
name, builds the ``sweep`` workload's 800 models for each from
``bench/workloads.py`` (read, not changed), and times each call with
``time.perf_counter_ns``: ``survival_classical``, ``survival_erlang2``
under INDIVIDUAL and POOLED elimination and ``solve_chi`` at b = 10 / alpha,
as the sweep calls them, then the layers they share: both
``_cleared_parts``, and ``poly_roots`` and ``eliminate_growing`` on the
Erlang INDIVIDUAL inputs.  Each round runs every model once per tree, the
trees in alternating order, and a call's time is its best over the rounds.
The script prints, for each solver and tree, the median call time in
microseconds with its quartiles over the models, and the ratio of B's
median to A's.

The first pass of each tree also records what every call returns, bit for
bit: each solution's values on the sweep's grid, its roots, candidates,
boundary constants, chi condition and defects, each layer's outputs, and
the type and message of each refusal.  The script exits 1 if any output
differs between the trees, naming the solver and the first model.

Run it from the repository root:

    python tests/solver_ab.py SRC_A SRC_B [--rounds 9] [--seed 1]

where SRC_A and SRC_B are ``src`` directories, such as those of a
checkout of the parent commit and of this tree.
"""

from __future__ import annotations

import argparse
import functools
import importlib.util
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent


def load(path: Path, name: str):
    """Import the package directory or module file at path under ``name``."""
    package = path.is_dir()
    spec = importlib.util.spec_from_file_location(
        name, path / "__init__.py" if package else path,
        submodule_search_locations=[str(path)] if package else None)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def bits(x):
    """A value's exact bits, for arrays, floats, complex numbers and their tuples."""
    if isinstance(x, np.ndarray):
        return (x.dtype.str, x.shape, x.tobytes())
    if isinstance(x, (tuple, list)):
        return tuple(bits(v) for v in x)
    if isinstance(x, (float, complex)):
        return np.array(x).tobytes()
    return x


def sweep_models(F, seed: int) -> list[tuple]:
    """(Poisson model, Erlang model) of each sweep model at ``seed``, in op order."""
    workloads = load(ROOT / "bench" / "workloads.py", "_solver_ab_workloads")
    with tempfile.TemporaryDirectory() as out:
        ops = workloads.sweep(F, None, seed, Path(out)).ops
    return [(ops[i].call.args[1], ops[i + 1].call.args[1]) for i in range(0, len(ops), 3)]


def cases(F, models) -> dict:
    """name -> (function, argument tuples, digest of a result) of package F."""
    mod = {name: sys.modules[f"{F.__name__}.{name}"]
           for name in ("classical", "erlang", "model", "polyexp")}
    E, plus, unit_rates = F.GrowthElimination, F.SignVariant.PLUS, mod["model"].unit_rates
    poisson = [p for p, _ in models]
    erlang = [e for _, e in models]

    def grid(sol):
        return sol(np.linspace(0.0, 20.0 / sol.model.claim.alpha, 21))

    def roots(r):
        return (r.poles, r.zero, r.growing)

    def survival(sol):
        e = sol.phi if hasattr(sol, "phi") else sol.delta
        return (e.constant, e.terms, roots(sol.roots), grid(sol))

    parts = [mod["erlang"]._cleared_parts(unit_rates(e, F.Erlang2)[0], e.theta, plus)
             for e in erlang]
    solvable = []
    for den, basis in parts:
        try:
            solvable.append((den, mod["polyexp"].poly_roots(den), basis, (None,) * len(basis)))
        except F.RuinModelError:
            pass
    return {
        "classical": (F.survival_classical, [(p,) for p in poisson],
                      lambda s: (s.phi0, s.phi0_candidates, survival(s))),
        "erlang individual": (
            functools.partial(F.survival_erlang2, elimination=E.INDIVIDUAL),
            [(e,) for e in erlang],
            lambda s: (s.delta0, s.delta0_candidates, s.boundary_constants,
                       s.consistency_residual, survival(s))),
        "erlang pooled": (
            functools.partial(F.survival_erlang2, elimination=E.POOLED),
            [(e,) for e in erlang],
            lambda s: (s.delta0, s.delta0_candidates, s.consistency_residual, survival(s))),
        "chi": (F.solve_chi, [(p, 10.0 / p.claim.alpha) for p in poisson],
                lambda s: (s.chi.constant, s.chi.terms, s.growing.terms, roots(s.roots),
                           s.condition, s.boundary_residual, s.assembly_defect,
                           s(np.linspace(0.0, s.b, 21)))),
        "classical _cleared_parts": (
            mod["classical"]._cleared_parts,
            [(unit_rates(p, F.ExpPoisson)[0], p.theta) for p in poisson],
            lambda s: s),
        "erlang _cleared_parts": (
            mod["erlang"]._cleared_parts,
            [(unit_rates(e, F.Erlang2)[0], e.theta, plus) for e in erlang],
            lambda s: s),
        "poly_roots": (mod["polyexp"].poly_roots, [(den,) for den, _ in parts], roots),
        "eliminate_growing": (
            mod["polyexp"].eliminate_growing, solvable,
            lambda s: (s.weights, s.growing_values, s.constant, s.terms,
                       s.growing_defect, s.scale)),
    }


def run(F, case, keep: bool):
    """Nanoseconds of each call of one pass, and each result's bits if ``keep``."""
    call, args, digest = case
    times, out = [], []
    for a in args:
        start = time.perf_counter_ns()
        try:
            result = call(*a)
        except F.RuinModelError as exc:
            result = exc
        times.append(time.perf_counter_ns() - start)
        if keep:
            out.append(bits((type(result).__name__, str(result))
                            if isinstance(result, F.RuinModelError) else digest(result)))
    return np.array(times), out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("src_a", type=Path)
    parser.add_argument("src_b", type=Path)
    parser.add_argument("--rounds", type=int, default=9)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    trees = [load(src / "fgmruin", f"fgmruin_ab_{tag}")
             for src, tag in ((args.src_a, "a"), (args.src_b, "b"))]
    tables = [cases(F, sweep_models(F, args.seed)) for F in trees]
    differ = False
    print(f"{'us per call':26s} {'A median [q1, q3]':>26s} {'B median [q1, q3]':>26s}"
          f" {'B/A':>6s}")
    for name in tables[0]:
        best, out = [None, None], [None, None]
        for r in range(args.rounds):
            for t in (0, 1) if r % 2 == 0 else (1, 0):
                ns, got = run(trees[t], tables[t][name], out[t] is None)
                best[t] = ns if best[t] is None else np.minimum(best[t], ns)
                out[t] = got if out[t] is None else out[t]
        if out[0] != out[1]:
            differ = True
            first = next((i for i, (a, b) in enumerate(zip(*out)) if a != b),
                         min(map(len, out)))
            print(f"DIFFER {name}: first at model {first}")
        (a1, a, a3), (b1, b, b3) = (np.percentile(x / 1e3, [25, 50, 75]) for x in best)
        print(f"{name:26s} {a:9.1f} [{a1:6.1f}, {a3:6.1f}] {b:9.1f} [{b1:6.1f}, {b3:6.1f}] "
              f"{b / a:6.3f}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
