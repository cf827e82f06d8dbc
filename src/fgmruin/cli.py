"""Command-line front end for the dependent risk-model solvers.

Subcommands compute survival probability curves (classical Poisson and
Erlang(2) inter-claim times), maximum-surplus-before-ruin curves, and
Monte Carlo estimates, and reproduce the bundled worked examples against
their reference values.  Tables are emitted as CSV (header ``u,value``
or ``u,value,stderr``, numbers as C ``%.6g``, LF line endings) or as
canonical JSON (sorted keys, full float precision) that re-serializes to
identical bytes after parsing.  Every command hands its writer the table
as columns, a mapping from column name to a float or string column.  The
JSON writer prints the body with one ``%`` over a flat tuple of the
columns' cells interleaved row by row.  The CSV writer formats each float
column, a block of rows at a time, as one numpy array: a cell that prints in
``%g``'s fixed notation, well clear of a rounding tie, gets its digits
from its rounded six-digit mantissa, and every other cell (zero, -0, nan,
inf, subnormals, exponent notation, near-ties) prints through
``'%.6g' % x``, so every byte is C's.  A ``start:stop:step``
surplus grid holds at most ``_MAX_GRID_POINTS`` (one million) points.

Exit codes: 0 success, 2 usage or domain errors, 3 violation of the
positive loading condition, 4 solver structural or conditioning
failures.  The environment variable RUIN_SEED, when set, overrides any
``--seed`` flag.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
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
from .errors import InputError, LoadingError, RuinModelError
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


def _model(args: argparse.Namespace) -> ModelSpec:
    """The model, its arrivals from whichever of --lambda and --beta the
    subcommand defines (Poisson at rate 1 when neither is given)."""
    lam, beta = getattr(args, "lam", None), getattr(args, "beta", None)
    if lam is not None and beta is not None:
        raise InputError("give either --lambda or --beta, not both")
    claim = ExpClaim(args.alpha)
    arrival = ExpPoisson(1.0 if lam is None else lam) if beta is None else Erlang2(beta)
    return ModelSpec(args.c, claim, arrival, FgmParam(args.theta))


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


def _columns(table: dict, keys: list) -> list:
    """The table's columns in ``keys`` order.

    ``table`` maps each key to a column: a non-empty sequence of floats
    (np.float64 included) or of strings, all of one length.
    """
    columns = [table[k] for k in keys]
    if any(len(col) != len(columns[0]) for col in columns):
        raise ValueError("table columns differ in length")
    return columns


def _fill_rows(table: dict, keys: list, row, sep: str) -> str:
    """The table's JSON rows, ``sep`` between them, filled by one ``%``.

    ``row(specs)`` is the row template for the columns' ``%`` specs in
    ``keys`` order.  Float cells print as ``%r`` (float.__repr__, what json
    prints) and string cells as ``json.dumps`` gives them.
    """
    columns = _columns(table, keys)
    specs = []
    cells = [None] * (len(columns[0]) * len(columns))
    for j, col in enumerate(columns):
        if isinstance(col[0], str):
            specs.append("%s")
            col = list(map(json.dumps, col))
        else:
            col = np.asarray(col, dtype=float)
            if not np.isfinite(col).all():
                raise ValueError("Out of range float values are not JSON compliant")
            specs.append("%r")
            # Python floats, so that %r prints 0.5 and not np.float64(0.5).
            col = col.tolist()
        cells[j::len(columns)] = col
    return sep.join([row(specs)] * len(columns[0])) % tuple(cells)


# The CSV writer lays each cell out as a 16-byte record (two uint64 words)
# and then deletes the filler byte 0xFF, which UTF-8 text never holds.  A
# record starts with the separator before its cell, ',' or the '\n' that
# ends the row above.  The record of a number in %g's fixed notation,
# decimal exponent X in [-4, 5] and six-digit mantissa d0..d5, holds by
# byte: 0 the separator, 1 the sign, 2-6 the "0.000" that leads X < 0,
# 7 filler, 8-11 d0 d1 d2 and 12-15 d3 d4 d5, each three with the point
# if X puts it among them, else with a filler.  It is the OR of a frame,
# which fills bytes 0-7 and masks bytes 8-15, and of two digit words.
_FILLER = b"\xff"
_POW10 = np.array([float(10 ** k) for k in range(11)])
# Rows of a table formatted at once: 2 MB of records at two float columns.
_CSV_BLOCK = 1 << 16


def _csv_tables() -> tuple:
    """Frame words 0 and 1, high and low digit words, trailing-zero counts.

    Frame ((newline·10 + X + 4)·6 + last)·2 + negative, ``last`` the
    index of the mantissa's last nonzero digit, masks bytes 8-15 with 0
    to keep a digit or the point and with the filler to drop a trailing
    zero after the integer part, or a point that nothing follows.  Digit
    word 1000·(X + 4) + g holds the three digits of g, and the point, at
    bytes 8-11 (high) or 12-15 (low).  ``zeros[g]`` counts g's trailing
    zeros, 3 for 000.
    """
    filler = ord(_FILLER)
    # What X puts in bytes 8-15: digit k, the point (-1) or nothing (-2).
    layouts = []
    for x in range(-4, 6):
        chunks = [[0, 1, 2], [3, 4, 5]]
        if 0 <= x < 5:
            chunks[x // 3].insert(x % 3 + 1, -1)
        layouts.append([slot for chunk in chunks for slot in chunk + [-2] * (4 - len(chunk))])
    layouts = np.array(layouts)
    code = np.arange(240)[:, None]
    negative, last, x, newline = code % 2, code // 2 % 6, code // 12 % 10 - 4, code // 120
    slot = layouts[x[:, 0] + 4]
    keep = ((slot >= 0) & (slot <= np.maximum(x, last))) | ((slot == -1) & (last > x))
    k = np.arange(5)
    frames = np.full((240, 16), filler, np.uint8)
    frames[:, 0:1] = np.where(newline, ord("\n"), ord(","))
    frames[:, 1:2] = np.where(negative, ord("-"), filler)
    frames[:, 2:7] = np.where((x < 0) & (k <= -x), np.where(k == 1, ord("."), ord("0")), filler)
    frames[:, 8:16] = np.where(keep, 0, filler)
    frames = frames.view(np.uint64)
    group = np.arange(1000)
    digits = (group[:, None] // [100, 10, 1] % 10 + ord("0")).astype(np.uint8)
    words = np.zeros((2, 10, 1000, 8), np.uint8)
    for half in (0, 1):
        slot = layouts[:, None, 4 * half:4 * half + 4]
        chars = digits[:, np.clip(slot[:, 0] - 3 * half, 0, 2)].transpose(1, 0, 2)
        words[half, ..., 4 * half:4 * half + 4] = np.where(
            slot >= 0, chars, np.where(slot == -1, np.uint8(ord(".")), np.uint8(filler)))
    zeros = (group % 10 == 0).astype(np.intp) + (group % 100 == 0) + (group == 0)
    return (frames[:, 0].copy(), frames[:, 1].copy(), words[0].view(np.uint64).ravel(),
            words[1].view(np.uint64).ravel(), zeros)


_FRAME0, _FRAME1, _HIGH, _LOW, _ZEROS = _csv_tables()


def _float_records(values: np.ndarray, newline: bool) -> np.ndarray:
    """(rows, 2) uint64 records of a float column.

    A cell takes the vectorized path only if it prints in fixed notation
    and is well clear of a rounding tie; every other cell (0, -0, nan,
    inf, subnormals, exponent notation, near-ties) prints through
    ``'%.6g' % x``.
    """
    size = np.abs(values)
    fixed = (size >= 1e-5) & (size < 1e6)
    size = np.where(fixed, size, 1.0)
    e = np.clip(np.floor(np.log10(size)).astype(np.intp), -5, 5)
    # s = |x|·10^(5 - e) in [1e5, 1e6) takes one rounding, at most 6e-11.
    # An e one off next to a power of ten leaves s a hair below 1e5 or at
    # 1e6, which rint and the carry below put right.
    s = size * _POW10.take(5 - e)
    m = np.rint(s)
    fast = fixed & (np.abs(s - m) < 0.499999)
    carry = m == 1e6
    m[carry] = 1e5
    e += carry
    fast &= (e >= -4) & (e <= 5)
    m = m.astype(np.intp)
    high = m // 1000
    low = m - 1000 * high
    zeros = _ZEROS.take(low)
    zeros += (low == 0) * _ZEROS.take(high)
    frame = ((10 * newline + e + 4) * 6 + 5 - zeros) * 2 + (values < 0)
    shift = 1000 * (e + 4)
    # Indices out of range belong to slow cells, which are overwritten.
    word = _FRAME1.take(frame, mode="clip")
    word |= _HIGH.take(high + shift, mode="clip")
    word |= _LOW.take(low + shift, mode="clip")
    records = np.column_stack([_FRAME0.take(frame, mode="clip"), word])
    slow = np.flatnonzero(~fast)
    if slow.size:
        end = "\n" if newline else ","
        text = b"".join([(end + "%.6g" % cell).encode().ljust(16, _FILLER)
                         for cell in values[slow].tolist()])
        records[slow] = np.frombuffer(text, np.uint64).reshape(-1, 2)
    return records


def _string_records(cells, end: str) -> np.ndarray:
    """(rows, words) uint64 records of string cells, each after ``end``."""
    cells = [(end + cell).encode() for cell in cells]
    width = -(-max(map(len, cells)) // 8) * 8
    text = b"".join([cell.ljust(width, _FILLER) for cell in cells])
    return np.frombuffer(text, np.uint64).reshape(len(cells), -1)


def _csv_table(table: dict) -> str:
    """CSV text of a column table, the header in the table's key order.

    String cells print as they are and numbers as C ``%.6g``, which is
    ``'{:.6g}'.format(x)``.  Each float column is formatted in blocks of
    at most ``_CSV_BLOCK`` rows as one numpy array: the cells that print
    in fixed notation clear of a rounding tie by arithmetic on the
    six-digit mantissa and digit tables, the rest by ``'%.6g' % x``.
    """
    keys = list(table)
    columns = _columns(table, keys)
    strings = [isinstance(col[0], str) for col in columns]
    columns = [col if text else np.asarray(col, dtype=float)
               for col, text in zip(columns, strings)]
    parts = [",".join(keys)]
    for start in range(0, len(columns[0]), _CSV_BLOCK):
        rows = slice(start, start + _CSV_BLOCK)
        block = [_string_records(col[rows], "," if j else "\n") if text
                 else _float_records(col[rows], j == 0)
                 for j, (col, text) in enumerate(zip(columns, strings))]
        parts.append(np.hstack(block).tobytes().translate(None, _FILLER).decode())
    parts.append("\n")
    return "".join(parts)


def _json_text(payload: dict) -> str:
    """``json.dumps(payload, sort_keys=True, indent=2, allow_nan=False)``
    plus a newline, byte for byte, where ``payload["rows"]`` is a column
    table (see ``_fill_rows``) printed as its list of row dicts.

    The rows are filled with one ``%`` over all their cells, because the
    pure-Python encoder that ``indent`` selects would take most of a dense
    curve's time.
    """
    # sort_keys plus a trailing newline makes the bytes canonical, so a
    # parse-and-redump round trip is the identity; NaN is refused rather
    # than emitted as nonstandard JSON.
    table = payload["rows"]
    keys = sorted(table)

    def row(specs):
        fields = ",\n".join("      %s: %s" % (json.dumps(k).replace("%", "%%"), spec)
                            for k, spec in zip(keys, specs))
        return "    {\n" + fields + "\n    }"

    rows = "[\n" + _fill_rows(table, keys, row, ",\n") + "\n  ]"
    marker = "\x00rows\x00"
    text = json.dumps({**payload, "rows": marker}, sort_keys=True, indent=2,
                      allow_nan=False)
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
    table = {"u": grid, "value": sol(grid)}
    if args.format == "json":
        payload = {"command": command, "model": _model_payload(model),
                   "rows": table}
        payload.update(extra)
        return _json_text(payload)
    return _csv_table(table)


def _cmd_survival_classical(args: argparse.Namespace) -> str:
    model = _model(args)
    grid = _parse_grid(args.u)
    sol = survival_classical(model)
    return _curve_output(args, "survival-classical", model, grid, sol,
                         {"phi0": sol.phi0})


def _cmd_survival_erlang2(args: argparse.Namespace) -> str:
    model = _model(args)
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
    model = _model(args)
    grid = _parse_grid(args.u)
    sol = solve_chi(model, args.b)
    return _curve_output(args, "max-surplus", model, grid, sol, {"b": args.b})


def _cmd_simulate(args: argparse.Namespace) -> str:
    model = _model(args)
    grid = _parse_grid(args.u)
    seed = _resolve_seed(args)
    if args.b is None:
        # One set of tilted paths serves the whole grid.
        estimates = estimate_survival(model, grid, n=args.n, seed=seed,
                                      workers=args.workers)
    else:
        estimates = [estimate_reach_prob(model, u, args.b, n=args.n, seed=seed,
                                         workers=args.workers)
                     for u in grid.tolist()]
    table = {"u": grid, "value": [est.value for est in estimates],
             "stderr": [est.stderr for est in estimates]}
    if args.format == "json":
        payload = {"command": "simulate", "model": _model_payload(model),
                   "b": args.b, "n": args.n, "seed": seed, "rows": table}
        return _json_text(payload)
    return _csv_table(table)


# The columns of a reproduce table, one _compare_row tuple per row.
_COMPARE_COLUMNS = ("name", "computed", "reference", "deviation")


def _compare_row(name: str, computed: float, reference: float) -> tuple:
    return name, computed, reference, abs(computed - reference)


def _term_rows(th: float, terms, pairs) -> list[tuple]:
    """Coefficient and rate rows of the terms nearest each reference rate."""
    rows = []
    for i, (coef_ref, rate_ref) in enumerate(pairs, 1):
        coef, rate = min(terms, key=lambda t: abs(t[1].real - rate_ref))
        rows.append(_compare_row(f"theta={th:+.1f} term{i} coef",
                                 coef.real, coef_ref))
        rows.append(_compare_row(f"theta={th:+.1f} term{i} rate",
                                 rate.real, rate_ref))
    return rows


def _reproduce_example1(args: argparse.Namespace) -> tuple[list[tuple], dict]:
    rows = []
    for th in sorted(_EXAMPLE1):
        phi0_ref, pairs = _EXAMPLE1[th]
        model = ModelSpec(1.5, ExpClaim(1.0), ExpPoisson(1.0), FgmParam(th))
        sol = survival_classical(model)
        rows.append(_compare_row(f"theta={th:+.1f} phi0", sol.phi0, phi0_ref))
        rows.extend(_term_rows(th, sol.phi.terms, pairs))
    extra = {"parameters": {"c": 1.5, "alpha": 1.0, "lambda": 1.0}}
    return rows, extra


def _reproduce_example2(args: argparse.Namespace) -> tuple[list[tuple], dict]:
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


def _reproduce_example3(args: argparse.Namespace) -> tuple[list[tuple], dict]:
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
    table = dict(zip(_COMPARE_COLUMNS, zip(*rows)))
    if args.format == "json":
        payload = {"command": "reproduce", "preset": args.preset,
                   "rows": table}
        payload.update(extra)
        return _json_text(payload)
    return _csv_table(table)


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
                   help="kept for compatibility: must be positive, and "
                        "changes nothing")
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
                   help="kept for compatibility: must be positive, and "
                        "changes nothing")
    _add_output_args(p)
    p.set_defaults(handler=_cmd_reproduce)

    return parser


def main(argv=None) -> int:
    """Run the CLI; returns the process exit code."""
    args = _build_parser().parse_args(argv)
    try:
        text = args.handler(args)
    except RuinModelError as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, InputError):
            return 3 if isinstance(exc, LoadingError) else 2
        return 4
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
