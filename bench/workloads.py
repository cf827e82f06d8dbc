"""Workloads of the fgmruin benchmark.

A workload is a fixed list of ops built from the seed.  An op is one call
into the package's public API (or one in-process ``cli.main`` call) plus the
check of its output.  A pass runs the list once, in order; every pass
repeats the same work, so counts per pass are exact and repeatable.

* ``sweep``: random valid models through the three closed-form solvers.
  Assembly, root finding, elimination and partial fractions do almost all
  the work; the sampler and the engine do none.  Relative loading reaches
  down to 1e-6 on purpose: the repeated-pole defect below about 1e-4 stays
  visible as failed ops.  Loading, alpha and theta decide which ops fail,
  so they come from one fixed design; the seed draws lambda, which does
  not, and the order of the models.  Every seed thus fails the same ops.
* ``curve``: dense curves requested through the CLI and written to files.
  The same solvers, but per-point ExpSum evaluation and CSV/JSON
  formatting dominate.
* ``mc``: ten Monte Carlo requests at 200 000 paths, one worker.  The
  sampler and the block engine do all the work; Poisson requests use a
  closed-form quantile, Erlang requests invert their CDF numerically.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

# Roundoff slack for probability bounds, monotonicity on a grid and
# chi(b, b) = 1.
TOL = 1e-9
# |phi(0+) - phi(0)| allowed for a returned solution, absolute; the
# classical solver's own constant gate is 1e-8.
ORIGIN_TOL = 1e-8
# Monte Carlo estimates must sit within this many standard errors of the
# closed form.
Z_MAX = 4.0
# reproduce presets must match their reference tables to this deviation.
PRESET_DEV = 2e-3

SWEEP_MODELS = 800
# Seed of the sweep's fixed (loading, alpha, theta) design.
SWEEP_DESIGN_SEED = 20011266
MC_PATHS = 200_000
CURVE_THETAS = (-1.0, -0.5, 0.0, 0.5, 1.0)
MC_THETAS = (-1.0, 0.5)


class CheckFailed(Exception):
    """An op returned output that fails its correctness check."""

    kind = "check"


class StatisticalCheckFailed(CheckFailed):
    """A Monte Carlo estimate strays more than Z_MAX errors from its closed form."""

    kind = "check.z"


class CliExit(Exception):
    """cli.main returned a nonzero exit code (its typed-error path)."""

    def __init__(self, code: int):
        super().__init__(f"cli.main exited with {code}")
        self.kind = f"cli.exit{code}"


@dataclass
class Op:
    layer: str
    call: Callable[[], object]
    check: Callable[[object, object], None]
    reference: Callable[[], object] | None = None
    props: frozenset = frozenset()
    # Number of runs of this op needed to reach a 1 % relative standard
    # error; None means one run (an exact closed form).
    runs_to_1pct: Callable[[object], float] | None = None
    # The same request at workers=2 (the u = 0 mc requests), for the scaling record.
    rerun_w2: Callable[[], object] | None = None
    ref: object = None


@dataclass
class Workload:
    ops: list[Op]
    warmup: Op
    # share name -> (property, property of the base set or None for all ops)
    shares: dict[str, tuple[str, str | None]] = field(default_factory=dict)

    def prepare(self) -> None:
        """Compute the references the checks compare against."""
        for op in self.ops:
            if op.reference is not None:
                op.ref = op.reference()

    def share_values(self) -> dict[str, float]:
        out = {}
        for key, (prop, base) in self.shares.items():
            pool = [op for op in self.ops if base is None or base in op.props]
            out[key] = sum(prop in op.props for op in pool) / len(pool)
        return out


# -- checks ----------------------------------------------------------------


def _check_probabilities(values) -> None:
    values = np.asarray(values, dtype=float)
    if not np.all(np.isfinite(values)):
        raise CheckFailed("non-finite probability")
    if values.min() < -TOL or values.max() > 1.0 + TOL:
        raise CheckFailed(f"probability outside [0, 1]: [{values.min()!r}, {values.max()!r}]")
    if values.size > 1 and np.diff(values).min() < -TOL:
        raise CheckFailed("probability decreases along the grid")


def _check_survival(out, _ref) -> None:
    origin, values = out
    _check_probabilities(values)
    if abs(values[0] - origin) > ORIGIN_TOL:
        raise CheckFailed(f"curve at u=0 is {values[0]!r}, solution says {origin!r}")


def _check_chi(values, _ref) -> None:
    _check_probabilities(values)
    if abs(values[-1] - 1.0) > TOL:
        raise CheckFailed(f"chi(b, b) = {values[-1]!r}")


def _match_6g(got, want) -> bool:
    """True where got is want printed to 6 significant digits."""
    got, want = np.asarray(got), np.asarray(want)
    with np.errstate(divide="ignore"):
        unit = 10.0 ** (np.floor(np.log10(np.abs(want))) - 5.0)
    return bool(np.all(np.abs(got - want) <= 0.5 * unit * (1.0 + 1e-9)))


def _csv_rows(data: bytes, header: str) -> list[list[str]]:
    lines = data.decode("utf-8").split("\n")
    if lines[0] != header or lines[-1] != "" or len(lines) < 3:
        raise CheckFailed(f"CSV output does not parse as {header!r} rows")
    return [line.split(",") for line in lines[1:-1]]


def _check_csv_curve(out, ref) -> np.ndarray:
    grid, values = ref
    try:
        table = np.array(_csv_rows(out, "u,value"), dtype=float)
    except ValueError as exc:
        raise CheckFailed(f"CSV cell is not a number: {exc}") from exc
    if table.shape != (grid.size, 2):
        raise CheckFailed(f"CSV has shape {table.shape}, expected {(grid.size, 2)}")
    if not (_match_6g(table[:, 0], grid) and _match_6g(table[:, 1], values)):
        raise CheckFailed("CSV values differ from the library curve at 6 digits")
    _check_probabilities(table[:, 1])
    return table


def _check_csv_chi(out, ref) -> None:
    table = _check_csv_curve(out, ref)
    if table[-1, 1] != 1.0:
        raise CheckFailed(f"chi(b, b) prints as {table[-1, 1]!r}")


def _check_json_curve(out, ref) -> None:
    grid, values, delta0 = ref
    try:
        payload = json.loads(out)
        us = [row["u"] for row in payload["rows"]]
        vs = [row["value"] for row in payload["rows"]]
        origin = payload["delta0"]
    except (ValueError, KeyError, TypeError) as exc:
        raise CheckFailed(f"JSON output does not parse: {exc!r}") from exc
    if us != grid.tolist() or vs != values.tolist() or origin != delta0:
        raise CheckFailed("JSON values differ from the library curve")
    _check_probabilities(vs)


def _check_preset(out, _ref) -> None:
    rows = _csv_rows(out, "name,computed,reference,deviation")
    try:
        worst = max(max(float(r[3]), abs(float(r[1]) - float(r[2]))) for r in rows)
    except (ValueError, IndexError) as exc:
        raise CheckFailed(f"reproduce row does not parse: {exc!r}") from exc
    if worst > PRESET_DEV + 1e-6:
        raise CheckFailed(f"reproduce deviation {worst:.3g} > {PRESET_DEV}")


def _check_estimate(est, ruin) -> None:
    if est.n != MC_PATHS or not (0.0 <= est.value <= 1.0) or not est.stderr > 0.0:
        raise CheckFailed(f"malformed estimate {est!r}")
    z = ((1.0 - est.value) - ruin) / est.stderr
    if abs(z) > Z_MAX:
        raise StatisticalCheckFailed(f"|z| = {abs(z):.2f} against ruin probability {ruin!r}")


def _runs_to_1pct(est) -> float:
    """(se / (0.01 p)) ** 2 for the failure probability p = 1 - value."""
    return (est.stderr / (0.01 * (1.0 - est.value))) ** 2


# -- op bodies (functions are looked up on the module at call time, so the
# traced run's wrappers see every call) -------------------------------------


def _classical(F, model, grid):
    sol = F.survival_classical(model)
    return sol.phi0, sol(grid)


def _erlang(F, model, elimination, grid):
    sol = F.survival_erlang2(model, elimination=elimination)
    return sol.delta0, sol(grid)


def _chi(F, model, b, grid):
    return F.solve_chi(model, b)(grid)


def _cli(cli, argv, path: Path) -> bytes:
    code = cli.main(argv)
    if code != 0:
        raise CliExit(code)
    return path.read_bytes()


def _survival_estimate(F, model, u, seed, workers=1):
    return F.estimate_survival(model, u, n=MC_PATHS, seed=seed, workers=workers)


def _reach_estimate(F, model, u, b, seed, workers=1):
    return F.estimate_reach_prob(model, u, b, n=MC_PATHS, seed=seed, workers=workers)


def _ruin_closed_form(F, model, u) -> float:
    if isinstance(model.arrival, F.Erlang2):
        return 1.0 - float(F.survival_erlang2(model)(u))
    return 1.0 - float(F.survival_classical(model)(u))


def _xi_closed_form(F, model, u, b) -> float:
    return 1.0 - float(F.solve_chi(model, b)(u))


def _cli_grid(start: float, stop: float, step: float) -> np.ndarray:
    """The u values the CLI prints for start:stop:step."""
    count = int(math.floor((stop - start) / step + 1e-9)) + 1
    return np.array([start + i * step for i in range(count)])


# -- workloads -------------------------------------------------------------


def _latin_hypercube(rng, dims: int, n: int) -> np.ndarray:
    """Each of the dims coordinates of the n points takes one of n strata of [0, 1)."""
    return (np.argsort(rng.random((dims, n)), axis=1) + rng.random((dims, n))) / n


def sweep(F, cli, seed: int, out_dir: Path) -> Workload:
    n = SWEEP_MODELS
    # Latin hypercube: each parameter's range is cut into n strata and every
    # stratum gets one model, so the cost mix does not wander with the seed.
    # Whether an op fails depends on loading, alpha and theta but not on
    # lambda (the time scale), so those three come from a fixed design and
    # every seed fails exactly the same ops.
    design = _latin_hypercube(np.random.default_rng(SWEEP_DESIGN_SEED), 3, n)
    loading = 10.0 ** (-6.0 + 7.0 * design[0])
    theta = -1.0 + 2.0 * design[1]
    alpha = np.exp(math.log(0.2) + math.log(25.0) * design[2])
    rng = np.random.default_rng(seed)
    lam = np.exp(math.log(0.2) + math.log(25.0) * _latin_hypercube(rng, 1, n)[0])
    ops = []
    order = rng.permutation(n)
    for k in order:
        a, la, th = float(alpha[k]), float(lam[k]), float(theta[k])
        c = (1.0 + float(loading[k])) * la / a
        claim, copula = F.ExpClaim(a), F.FgmParam(th)
        poisson = F.ModelSpec(c, claim, F.ExpPoisson(la), copula)
        erlang = F.ModelSpec(c, claim, F.Erlang2(2.0 * la), copula)
        grid = np.linspace(0.0, 20.0 / a, 21)
        b = 10.0 / a
        low = {"loading<1e-4"} if loading[k] < 1e-4 else set()
        pooled = k % 4 == 0
        elim = F.GrowthElimination.POOLED if pooled else F.GrowthElimination.INDIVIDUAL
        ops += [
            Op("classical", functools.partial(_classical, F, poisson, grid),
               _check_survival, props=frozenset(low)),
            Op("erlang", functools.partial(_erlang, F, erlang, elim, grid),
               _check_survival,
               props=frozenset(low | {"erlang"} | ({"pooled"} if pooled else set()))),
            Op("max_surplus", functools.partial(_chi, F, poisson, b, np.linspace(0.0, b, 21)),
               _check_chi, props=frozenset(low)),
        ]
    # Warm up on the best-loaded model, which every solver handles.
    warmup = ops[3 * int(np.argmax(loading[order]))]
    return Workload(ops, warmup, {
        "loading<1e-4": ("loading<1e-4", None),
        "pooled_of_erlang": ("pooled", "erlang"),
    })


def curve(F, cli, seed: int, out_dir: Path) -> Workload:
    survival_grid = _cli_grid(0.0, 50.0, 0.01)
    chi_grid = _cli_grid(0.0, 20.0, 0.004)
    ops = []

    def add(argv, path, check, reference, props=frozenset()):
        argv = argv + ["--output", str(path)]
        ops.append(Op("cli", functools.partial(_cli, cli, argv, path), check,
                      reference, props))

    for th in CURVE_THETAS:
        tag = {"theta=0"} if th == 0.0 else set()
        poisson = F.ModelSpec(1.5, F.ExpClaim(1.0), F.ExpPoisson(1.0), F.FgmParam(th))
        erlang = F.ModelSpec(1.5, F.ExpClaim(1.0), F.Erlang2(2.0), F.FgmParam(th))
        model_args = ["--c", "1.5", "--alpha", "1", "--theta", repr(th)]
        add(["survival-classical", *model_args, "--lambda", "1", "--u", "0:50:0.01"],
            out_dir / f"curve-classical-{th:+.1f}.csv", _check_csv_curve,
            lambda m=poisson: (survival_grid, F.survival_classical(m)(survival_grid)),
            frozenset(tag))
        add(["survival-erlang2", *model_args, "--beta", "2", "--u", "0:50:0.01",
             "--format", "json"],
            out_dir / f"curve-erlang2-{th:+.1f}.json", _check_json_curve,
            lambda m=erlang: _erlang_reference(F, m, survival_grid),
            frozenset(tag | {"erlang"}))
        add(["max-surplus", *model_args, "--lambda", "1", "--b", "20", "--u", "0:20:0.004"],
            out_dir / f"curve-chi-{th:+.1f}.csv", _check_csv_chi,
            lambda m=poisson: (chi_grid, F.solve_chi(m, 20.0)(chi_grid)),
            frozenset(tag))
    for preset in ("example1", "example3"):
        add(["reproduce", preset], out_dir / f"curve-{preset}.csv", _check_preset, None)
    warmup = ops[0]
    order = np.random.default_rng(seed).permutation(len(ops))
    return Workload([ops[i] for i in order], warmup,
                    {"theta=0": ("theta=0", None)})


def _erlang_reference(F, model, grid):
    sol = F.survival_erlang2(model)
    return grid, sol(grid), sol.delta0


def mc(F, cli, seed: int, out_dir: Path) -> Workload:
    ops = []
    for th in MC_THETAS:
        copula = F.FgmParam(th)
        models = (F.ModelSpec(1.5, F.ExpClaim(1.0), F.ExpPoisson(1.0), copula),
                  F.ModelSpec(1.5, F.ExpClaim(1.0), F.Erlang2(2.0), copula))
        for model in models:
            props = {"erlang"} if isinstance(model.arrival, F.Erlang2) else set()
            for u in (0.0, 5.0):
                s = _request_seed(seed, len(ops))
                at_zero = u == 0.0
                ops.append(Op(
                    "simulate", functools.partial(_survival_estimate, F, model, u, s),
                    _check_estimate, functools.partial(_ruin_closed_form, F, model, u),
                    frozenset(props | ({"u=0"} if at_zero else set())), _runs_to_1pct,
                    functools.partial(_survival_estimate, F, model, u, s, workers=2)
                    if at_zero else None))
            if not props:
                s = _request_seed(seed, len(ops))
                ops.append(Op(
                    "simulate", functools.partial(_reach_estimate, F, model, 0.0, 20.0, s),
                    _check_estimate, functools.partial(_xi_closed_form, F, model, 0.0, 20.0),
                    frozenset({"reach"}), _runs_to_1pct))
    # The cheapest request warms up, whatever the seed.
    warmup = next(op for op in ops if "reach" in op.props)
    order = np.random.default_rng(seed).permutation(len(ops))
    return Workload([ops[i] for i in order], warmup, {"erlang": ("erlang", None)})


def _request_seed(seed: int, index: int) -> int:
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


BUILDERS = {"sweep": sweep, "curve": curve, "mc": mc}
