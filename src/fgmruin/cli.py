"""Command-line front end for the dependent risk-model solvers.

Subcommands compute survival probability curves (classical Poisson and
Erlang(2) inter-claim times), maximum-surplus-before-ruin curves, and
Monte Carlo estimates, and reproduce the bundled worked examples against
their reference values.  Tables are emitted as CSV (header ``u,value``
or ``u,value,stderr``, numbers as C ``%.6g``, LF line endings) or as
canonical JSON (sorted keys, full float precision) that re-serializes to
identical bytes after parsing.  Either writer prints a table's body with
one ``%`` over a flat tuple of all its cells.  A ``start:stop:step``
surplus grid holds at most ``_MAX_GRID_POINTS`` (one million) points.

Exit codes: 0 success, 2 usage or domain errors, 3 violation of the
positive loading condition, 4 solver structural or conditioning
failures.  The environment variable RUIN_SEED, when set, overrides any
``--seed`` flag.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import operator
import os
import sys

import numpy as np

from .classical import survival_classical
from .erlang import (
    GrowthElimination,
    SignVariant,
    sign_variant_report,
    survival_erlang2,
)
from .errors import ConditioningError, InputError, LoadingError, StructuralError
from .max_surplus import solve_chi
from .model import Erlang2, ExpClaim, ExpPoisson, FgmParam, ModelSpec
from .simulate import estimate_reach_prob, estimate_survival

__all__ = ["main", "entry"]

# Reference values of the bundled worked examples: the classical survival
# table (example1), the Erlang(2) survival table under POOLED elimination
# (example2), and the classical maximum-surplus table at b = 20
# (example3).  Coefficient pairs are (coefficient, rate) of the decaying
# exponential terms, quoted to the 4 decimals the tables carry.
_EXAMPLE1 = {
    -0.5: (0.3147, ((-0.6958, -0.2976), (0.0105, -2.1148))),
    0.0: (0.3333, ((-0.6667, -0.3333),)),
    0.5: (0.3548, ((-0.6311, -0.3788), (-0.0140, -1.8736))),
}
_EXAMPLE2 = {
    -1.0: (0.3713, ((-0.6458, -0.3488), (0.0171, -2.1517))),
    -0.5: (0.3963, ((-0.6134, -0.3833), (0.0098, -2.0792))),
    0.5: (0.4579, ((-0.5289, -0.4762), (-0.0132, -1.9119))),
    1.0: (0.4957, ((-0.4723, -0.5410), (-0.0320, -1.8116))),
}
_EXAMPLE3 = {
    -1.0: ((0.0186, -2.2207), (-0.7223, -0.2687)),
    -0.5: ((0.0105, -2.1148), (-0.6970, -0.2976)),
    0.5: ((-0.0140, -1.8736), (-0.6314, -0.3788)),
    1.0: ((-0.0335, -1.7305), (-0.5866, -0.4392)),
}

_PRESET_B = 20.0

# Largest start:stop:step grid, checked before anything is allocated.
_MAX_GRID_POINTS = 1_000_000


def _check_surplus(u: float) -> float:
    if not (math.isfinite(u) and u >= 0.0):
        raise InputError(f"surplus u must be finite and nonnegative, got {u!r}")
    return u


def _parse_grid(text: str) -> np.ndarray:
    """Surplus grid from 'start:stop:step', a comma list, or one number."""
    # InputError subclasses ValueError, so the fallback wrap must not
    # shadow the specific messages raised here.
    if ":" in text:
        fields = text.split(":")
        if len(fields) != 3:
            raise InputError(f"grid {text!r} is not start:stop:step")
        try:
            start, stop, step = (float(f) for f in fields)
        except ValueError as exc:
            raise InputError(f"could not parse u grid {text!r}") from exc
        _check_surplus(start)
        _check_surplus(stop)
        if not (0.0 < step < math.inf):
            raise InputError("grid step must be positive and finite")
        if stop < start:
            raise InputError("grid stop must not precede start")
        # The quotient overflows to inf for a step far below the span.
        span = (stop - start) / step + 1e-9
        if not span < _MAX_GRID_POINTS:
            raise InputError(f"grid {text!r} has more than {_MAX_GRID_POINTS} "
                             "points")
        # The same floats as start + i * step.
        return start + step * np.arange(int(span) + 1)
    try:
        if "," in text:
            values = [float(f) for f in text.split(",") if f.strip()]
        else:
            values = [float(text)]
    except ValueError as exc:
        raise InputError(f"could not parse u grid {text!r}") from exc
    if not values:
        raise InputError("empty u grid")
    return np.array([_check_surplus(u) for u in values])


def _resolve_seed(args: argparse.Namespace) -> int:
    env = os.environ.get("RUIN_SEED")
    if env is None:
        return args.seed
    try:
        return int(env)
    except ValueError as exc:
        raise InputError(f"RUIN_SEED must be an integer, got {env!r}") from exc


def _classical_model(args: argparse.Namespace) -> ModelSpec:
    return ModelSpec(args.c, ExpClaim(args.alpha), ExpPoisson(args.lam),
                     FgmParam(args.theta))


def _erlang_model(args: argparse.Namespace) -> ModelSpec:
    return ModelSpec(args.c, ExpClaim(args.alpha), Erlang2(args.beta),
                     FgmParam(args.theta))


def _model_payload(model: ModelSpec) -> dict:
    if isinstance(model.arrival, ExpPoisson):
        arrival = {"kind": "poisson", "lambda": model.arrival.lam}
    else:
        arrival = {"kind": "erlang2", "beta": model.arrival.beta}
    return {
        "c": model.c,
        "alpha": model.claim.alpha,
        "arrival": arrival,
        "theta": model.theta,
    }


def _csv_table(header: tuple[str, ...], rows) -> str:
    """CSV text: string cells as they are, numbers as C ``%.6g``.

    ``rows`` is a 2-D float array or a sequence of equal-length tuples.  The
    first row picks the row format, and one ``%`` over every cell prints
    the body; ``'%.6g' % x`` is ``'{:.6g}'.format(x)``.
    """
    fmt = ",".join("%s" if isinstance(v, str) else "%.6g" for v in rows[0])
    if isinstance(rows, np.ndarray):
        cells = tuple(rows.ravel().tolist())
    else:
        cells = tuple(itertools.chain.from_iterable(rows))
    return ",".join(header) + "\n" + ((fmt + "\n") * len(rows)) % cells


# float.__repr__ of the values allow_nan=False refuses.
_NON_FINITE = frozenset(("nan", "inf", "-inf"))


def _json_cells(column: list) -> list[str]:
    """JSON text of one rows column, all strings or all floats."""
    if isinstance(column[0], str):
        return list(map(json.dumps, column))
    # float.__repr__ is what json prints a float with; it raises TypeError
    # on anything else, where repr() would print np.float64(...).
    cells = list(map(float.__repr__, column))
    if not _NON_FINITE.isdisjoint(cells):
        raise ValueError("Out of range float values are not JSON compliant")
    return cells


def _json_rows(rows: list[dict]) -> str:
    """The rows list as json.dumps prints it one level deep in indent=2.

    The cells, flat in sorted-key order, are encoded a column slice at a
    time, and one ``%`` fills the row template repeated once per row.
    """
    keys = sorted(rows[0])
    if set(map(len, rows)) != {len(keys)}:
        raise ValueError("JSON rows do not share one key set")
    width = len(keys)
    pick = operator.itemgetter(*keys)
    if width == 1:
        # A one-key itemgetter returns the bare value, not a tuple.
        cells = list(map(pick, rows))
    else:
        cells = list(itertools.chain.from_iterable(map(pick, rows)))
    for j in range(width):
        cells[j::width] = _json_cells(cells[j::width])
    fields = ",\n".join(
        "      %s: %%s" % json.dumps(k).replace("%", "%%") for k in keys
    )
    template = "    {\n" + fields + "\n    }"
    return "[\n" + ",\n".join([template] * len(rows)) % tuple(cells) + "\n  ]"


def _json_text(payload: dict) -> str:
    """``json.dumps(payload, sort_keys=True, indent=2, allow_nan=False)``
    plus a newline, byte for byte.

    ``payload["rows"]`` is a non-empty list of flat dicts that share one
    key set and hold, per key, only strings or only floats.  The rows are
    printed by ``_json_rows`` with one ``%`` over all their cells, because
    the pure-Python encoder that ``indent`` selects would take most of a
    dense curve's time.
    """
    # sort_keys plus a trailing newline makes the bytes canonical, so a
    # parse-and-redump round trip is the identity; NaN is refused rather
    # than emitted as nonstandard JSON.
    marker = "\x00rows\x00"
    text = json.dumps({**payload, "rows": marker}, sort_keys=True, indent=2,
                      allow_nan=False)
    rows = _json_rows(payload["rows"])
    return text.replace(json.dumps(marker), rows, 1) + "\n"


def _emit(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _curve_output(args, command: str, model: ModelSpec, grid, sol,
                  extra: dict) -> str:
    # One vectorized evaluation over the whole grid; the values are the
    # same floats the per-point calls give.
    values = sol(grid)
    if args.format == "json":
        payload = {
            "command": command,
            "model": _model_payload(model),
            "rows": [{"u": u, "value": v}
                     for u, v in zip(grid.tolist(), values.tolist())],
        }
        payload.update(extra)
        return _json_text(payload)
    return _csv_table(("u", "value"), np.column_stack((grid, values)))


def _cmd_survival_classical(args: argparse.Namespace) -> str:
    model = _classical_model(args)
    grid = _parse_grid(args.u)
    sol = survival_classical(model)
    return _curve_output(args, "survival-classical", model, grid, sol,
                         {"phi0": sol.phi0})


def _cmd_survival_erlang2(args: argparse.Namespace) -> str:
    model = _erlang_model(args)
    grid = _parse_grid(args.u)
    variant = SignVariant(args.variant)
    elimination = GrowthElimination(args.elimination)
    sol = survival_erlang2(model, variant, elimination)
    return _curve_output(
        args,
        "survival-erlang2",
        model,
        grid,
        sol,
        {
            "delta0": sol.delta0,
            "variant": variant.value,
            "elimination": elimination.value,
        },
    )


def _cmd_max_surplus(args: argparse.Namespace) -> str:
    model = _classical_model(args)
    grid = _parse_grid(args.u)
    sol = solve_chi(model, args.b)
    return _curve_output(args, "max-surplus", model, grid, sol, {"b": args.b})


def _cmd_simulate(args: argparse.Namespace) -> str:
    if args.beta is not None and args.lam is not None:
        raise InputError("give either --lambda or --beta, not both")
    if args.beta is not None:
        arrival = Erlang2(args.beta)
    else:
        arrival = ExpPoisson(1.0 if args.lam is None else args.lam)
    model = ModelSpec(args.c, ExpClaim(args.alpha), arrival,
                      FgmParam(args.theta))
    grid = _parse_grid(args.u)
    seed = _resolve_seed(args)
    us = grid.tolist()
    if args.b is None:
        # One set of tilted paths serves the whole grid.
        estimates = estimate_survival(model, grid, n=args.n, seed=seed,
                                      workers=args.workers)
    else:
        estimates = [estimate_reach_prob(model, u, args.b, n=args.n, seed=seed,
                                         workers=args.workers)
                     for u in us]
    if args.format == "json":
        payload = {
            "command": "simulate",
            "model": _model_payload(model),
            "b": args.b,
            "n": args.n,
            "seed": seed,
            "rows": [
                {"u": u, "value": est.value, "stderr": est.stderr}
                for u, est in zip(us, estimates)
            ],
        }
        return _json_text(payload)
    table = np.column_stack((grid, [est.value for est in estimates],
                             [est.stderr for est in estimates]))
    return _csv_table(("u", "value", "stderr"), table)


def _compare_row(name: str, computed: float, reference: float) -> dict:
    return {
        "name": name,
        "computed": computed,
        "reference": reference,
        "deviation": abs(computed - reference),
    }


def _term_rows(th: float, terms, pairs) -> list[dict]:
    """Coefficient and rate rows of the terms nearest each reference rate."""
    rows = []
    for i, (coef_ref, rate_ref) in enumerate(pairs, 1):
        coef, rate = min(terms, key=lambda t: abs(t[1].real - rate_ref))
        rows.append(_compare_row(f"theta={th:+.1f} term{i} coef",
                                 coef.real, coef_ref))
        rows.append(_compare_row(f"theta={th:+.1f} term{i} rate",
                                 rate.real, rate_ref))
    return rows


def _reproduce_example1(args: argparse.Namespace) -> tuple[list[dict], dict]:
    rows = []
    for th in sorted(_EXAMPLE1):
        phi0_ref, pairs = _EXAMPLE1[th]
        model = ModelSpec(1.5, ExpClaim(1.0), ExpPoisson(1.0), FgmParam(th))
        sol = survival_classical(model)
        rows.append(_compare_row(f"theta={th:+.1f} phi0", sol.phi0, phi0_ref))
        rows.extend(_term_rows(th, sol.phi.terms, pairs))
    extra = {"parameters": {"c": 1.5, "alpha": 1.0, "lambda": 1.0}}
    return rows, extra


def _reproduce_example2(args: argparse.Namespace) -> tuple[list[dict], dict]:
    # The reference table follows the POOLED convention, so the
    # side-by-side comparison is computed under it; the exact INDIVIDUAL
    # boundary values are reported alongside.
    rows = []
    exact = []
    variant_blocks = []
    seed = _resolve_seed(args)
    for th in sorted(_EXAMPLE2):
        delta0_ref, pairs = _EXAMPLE2[th]
        model = ModelSpec(1.5, ExpClaim(1.0), Erlang2(2.0), FgmParam(th))
        sol = survival_erlang2(model, elimination=GrowthElimination.POOLED)
        rows.append(_compare_row(f"theta={th:+.1f} delta0", sol.delta0,
                                 delta0_ref))
        rows.extend(_term_rows(th, sol.delta.terms, pairs))
        exact_sol = survival_erlang2(model)
        exact.append({"theta": th, "delta0": exact_sol.delta0})
        if args.variant_report:
            report = sign_variant_report(model, n=args.n, seed=seed,
                                         workers=args.workers)
            variant_blocks.append({
                "theta": th,
                "mc_value": report.mc_value,
                "mc_stderr": report.mc_stderr,
                "mc_ci95": [report.mc_value - 1.96 * report.mc_stderr,
                            report.mc_value + 1.96 * report.mc_stderr],
                "n": report.n,
                "seed": report.seed,
                "selected": report.selected.value if report.selected else None,
                "rows": [
                    {
                        "variant": r.variant.value,
                        "delta0": r.delta0,
                        "z_score": r.z_score,
                        "consistent": r.consistent,
                        "elimination": r.elimination.value,
                    }
                    for r in report.rows
                ],
            })
    extra = {
        "parameters": {"c": 1.5, "alpha": 1.0, "beta": 2.0},
        "elimination": "pooled",
        "exact_delta0": exact,
    }
    if args.variant_report:
        extra["sign_variant"] = variant_blocks
    return rows, extra


def _reproduce_example3(args: argparse.Namespace) -> tuple[list[dict], dict]:
    rows = []
    for th in sorted(_EXAMPLE3):
        model = ModelSpec(1.5, ExpClaim(1.0), ExpPoisson(1.0), FgmParam(th))
        sol = solve_chi(model, _PRESET_B)
        rows.extend(_term_rows(th, sol.chi.terms, _EXAMPLE3[th]))
    extra = {"parameters": {"c": 1.5, "alpha": 1.0, "lambda": 1.0},
             "b": _PRESET_B}
    return rows, extra


_PRESETS = {
    "example1": _reproduce_example1,
    "example2": _reproduce_example2,
    "example3": _reproduce_example3,
}


def _cmd_reproduce(args: argparse.Namespace) -> str:
    if args.variant_report and (args.format != "json" or args.preset != "example2"):
        raise InputError("--variant-report needs --format json and example2")
    rows, extra = _PRESETS[args.preset](args)
    if args.format == "json":
        payload = {"command": "reproduce", "preset": args.preset,
                   "rows": rows}
        payload.update(extra)
        return _json_text(payload)
    table = [(r["name"], r["computed"], r["reference"], r["deviation"])
             for r in rows]
    return _csv_table(("name", "computed", "reference", "deviation"), table)


def _add_output_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=("csv", "json"), default="csv",
                   help="output format (default csv)")
    p.add_argument("--output", default=None, metavar="PATH",
                   help="write to this file instead of stdout")


def _add_model_args(p: argparse.ArgumentParser, arrival: str) -> None:
    p.add_argument("--c", type=float, default=1.5, help="premium rate")
    p.add_argument("--alpha", type=float, default=1.0,
                   help="exponential claim rate")
    if arrival == "poisson":
        p.add_argument("--lambda", dest="lam", type=float, default=1.0,
                       help="Poisson arrival rate")
    elif arrival == "erlang":
        p.add_argument("--beta", type=float, default=2.0,
                       help="Erlang(2) stage rate")
    else:
        p.add_argument("--lambda", dest="lam", type=float, default=None,
                       help="Poisson arrival rate (default 1 when --beta "
                            "is absent)")
        p.add_argument("--beta", type=float, default=None,
                       help="Erlang(2) stage rate (selects Erlang arrivals)")
    p.add_argument("--theta", type=float, default=0.0,
                   help="FGM dependence parameter in [-1, 1]")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fgmruin",
        description="Survival and maximum-surplus probabilities for risk "
                    "models with FGM-dependent claim sizes and inter-claim "
                    "times.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("survival-classical",
                       help="closed-form survival curve, Poisson arrivals")
    _add_model_args(p, "poisson")
    p.add_argument("--u", default="0:10:0.5",
                   help="surplus grid: start:stop:step, comma list, or one "
                        "value")
    _add_output_args(p)
    p.set_defaults(handler=_cmd_survival_classical)

    p = sub.add_parser("survival-erlang2",
                       help="closed-form survival curve, Erlang(2) arrivals")
    _add_model_args(p, "erlang")
    p.add_argument("--u", default="0:10:0.5", help="surplus grid")
    p.add_argument("--variant", choices=tuple(v.value for v in SignVariant),
                   default=SignVariant.PLUS.value,
                   help="transform sign variant (default plus)")
    p.add_argument("--elimination",
                   choices=tuple(e.value for e in GrowthElimination),
                   default=GrowthElimination.INDIVIDUAL.value,
                   help="growing-term elimination: individual (exact, "
                        "default) or pooled (reference-table convention)")
    _add_output_args(p)
    p.set_defaults(handler=_cmd_survival_erlang2)

    p = sub.add_parser("max-surplus",
                       help="probability of lifting the surplus to b before "
                            "ruin, Poisson arrivals")
    _add_model_args(p, "poisson")
    p.add_argument("--u", default="0:20:1", help="surplus grid")
    p.add_argument("--b", type=float, default=_PRESET_B,
                   help="target surplus level (default 20)")
    _add_output_args(p)
    p.set_defaults(handler=_cmd_max_surplus)

    p = sub.add_parser("simulate",
                       help="Monte Carlo estimate of survival (or, with "
                            "--b, of reaching b before ruin)")
    _add_model_args(p, "either")
    p.add_argument("--u", default="0", help="surplus grid")
    p.add_argument("--b", type=float, default=None,
                   help="estimate reaching this level before ruin instead "
                        "of survival")
    p.add_argument("--n", type=int, default=100_000,
                   help="number of simulated paths (per grid point with "
                        "--b; one set serves the whole survival grid)")
    p.add_argument("--seed", type=int, default=0, help="simulation seed")
    p.add_argument("--workers", type=int, default=1,
                   help="kept for compatibility: must be positive, and blocks "
                        "run one after another whatever its value")
    _add_output_args(p)
    p.set_defaults(handler=_cmd_simulate)

    p = sub.add_parser("reproduce",
                       help="recompute a bundled worked example against its "
                            "reference values")
    p.add_argument("preset", choices=tuple(sorted(_PRESETS)))
    p.add_argument("--variant-report", action="store_true",
                   help="example2 only: include the simulated sign-variant "
                        "adjudication (needs --format json)")
    p.add_argument("--n", type=int, default=200_000,
                   help="paths for the variant report simulation")
    p.add_argument("--seed", type=int, default=0,
                   help="seed for the variant report simulation")
    p.add_argument("--workers", type=int, default=1,
                   help="kept for compatibility: must be positive, and the "
                        "variant report's blocks run one after another")
    _add_output_args(p)
    p.set_defaults(handler=_cmd_reproduce)

    return parser


def main(argv=None) -> int:
    """Run the CLI; returns the process exit code."""
    args = _build_parser().parse_args(argv)
    try:
        text = args.handler(args)
    except LoadingError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (StructuralError, ConditioningError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        _emit(text, args.output)
    except OSError as exc:
        print(f"error: cannot write {args.output!r}: {exc.strerror}",
              file=sys.stderr)
        return 2
    return 0


def entry() -> None:
    """Console-script entry point."""
    sys.exit(main())
