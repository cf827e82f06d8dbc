"""Survival probabilities for the dependent Erlang(2) renewal risk model.

With Erlang(2, beta) inter-claim times the survival probability delta(u)
satisfies a second-order equation whose Laplace transform involves the
claim transforms f~ and h~ together with kernel corrections carrying
powers of 1/(2 beta - c s).  The solver works at unit rates,
alpha = beta = 1, where the premium is c' = c alpha / beta
(``model.unit_rates``).  Clearing all denominators yields a degree-7
identity with denominator

    D(s) = (c'^2 s^2 - 2 c' s + 1)(2 - c' s)^3 (1+s)(2+s)
           - (2+s)(2 - c' s)^3
           - theta s [(2 - c' s)^3 + 4 - sigma 6 (2 - c' s)]

and numerator

    N(s) = delta(0) c'^2 s (2 - c' s)^3 (1+s)(2+s)
           + w (2 - c' s)^3 (1+s)(2+s)
           + theta (1+s)(2+s) [k0 + k1 (2 - c' s) + k2 (2 - c' s)^2]

where w collects first-derivative boundary data of delta at zero and the
quadratic bracket collects the constants introduced by the operator
responsible for the 1/(2 - c' s) kernels.  D is the model's Lundberg
function cleared: with M(r) = E[e^{r(X - c'W)}] at unit rates,
D = (1 - M(-s)) (1 + s)(2 + s)(1 - c' s)^2 (2 - c' s)^3 exactly when
sigma = +1, since the bracket (2 + y)^3 + 4 - 6 sigma (2 + y) at y = c'r
is then y (y^2 + 6y + 6), the numerator of the arrival's rho(y).  So
``SignVariant.PLUS`` (sigma = +1) is the generalized Lundberg equation of
the renewal model and the default; ``SignVariant.MINUS`` (sigma = -1)
differs from it by -12 theta s (2 - c' s), solves no model, and is kept
with ``sign_variant_report``'s simulation for comparison
(tests/test_erlang.py builds D from the transforms alone).

The model's delta(u) is the unit-rate one at alpha u: on the way out the
roots and rates are multiplied by alpha.  ``erlang_lt`` gives the model's
beta^5 alpha N(s / alpha) over beta^5 alpha^2 D(s / alpha), and (w, k0,
k1, k2) in model units are the unit values times (beta^2, beta^5, beta^4,
beta^3) / alpha.

D has a zero root, two roots with negative real part, and four with
positive real part.  Boundedness of delta forces a vanishing coefficient
at every growing root and delta(inf) = 1 pins the zero-pole residue:
five linear conditions in the five unknowns delta(0), w, k0, k1, k2.
``GrowthElimination`` selects how they are imposed:

  * INDIVIDUAL (default): solve the five-by-five system exactly so each
    growing coefficient vanishes separately; the result agrees with
    simulation to Monte Carlo precision.
  * POOLED: freeze w at its unit-rate independence value 1 - 2 c',
    drop the quadratic bracket, and require only that the growing
    residues sum to zero, which is the same as asking the truncated
    inversion to reproduce its own initial value.  The neglected
    boundary terms bias delta by a few parts in a thousand near
    |theta| = 1.  This mode is the convention behind the bundled
    worked-example reference values and is kept for reproducing them
    and for diagnostics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import StructuralError
from .model import Erlang2, ModelSpec, _surplus_levels, unit_rates
from .polyexp import (
    ExpSum,
    ParametricRational,
    RootSet,
    coeff_rows,
    eliminate_growing,
    partial_fractions,  # noqa: F401  (bench/tracer.py wraps this module's binding)
    poly_roots,
    rescaled,
    times_linear,
)

__all__ = [
    "SignVariant",
    "DEFAULT_SIGN_VARIANT",
    "GrowthElimination",
    "DEFAULT_ELIMINATION",
    "ErlangSolution",
    "VariantRow",
    "VariantReport",
    "erlang_lt",
    "solve_delta0",
    "survival_erlang2",
    "sign_variant_report",
    "select_sign_variant",
]

# Below this |theta| the dependence corrections sit under double-precision
# noise and the independent-claims clearing (which avoids a triple kernel
# root) is exact for practical purposes.
_SMALL_THETA = 1e-9

# Surviving growing-term coefficients (the pooled aggregate, or every
# individual residue) must vanish up to roundoff after elimination.
_AGGREGATE_TOL = 1e-7

# The inverted solution must reproduce delta(0) at u = 0.
_CONSISTENCY_TOL = 1e-5

# The zero-pole residue equals 1 analytically for a consistent inversion.
_CONSTANT_TOL = 1e-6


class SignVariant(Enum):
    """Sign of the 6 (2 - c' s) kernel correction in the transform denominator."""

    PLUS = "plus"
    MINUS = "minus"

    @property
    def sigma(self) -> float:
        return 1.0 if self is SignVariant.PLUS else -1.0


DEFAULT_SIGN_VARIANT = SignVariant.PLUS


class GrowthElimination(Enum):
    """How the growing exponentials of the inversion are eliminated.

    INDIVIDUAL recovers the boundary constants w, k0, k1, k2 together
    with delta(0) so that every growing coefficient vanishes on its own.
    POOLED freezes the boundary constants at their independence values
    and zeroes only the sum of the growing residues, reproducing the
    bundled worked-example reference values at the cost of a small bias.
    """

    INDIVIDUAL = "individual"
    POOLED = "pooled"


DEFAULT_ELIMINATION = GrowthElimination.INDIVIDUAL


def _cleared_parts(c: float, th: float, variant: SignVariant):
    """D at unit rates and premium c, and the numerator basis, as arrays.

    D's constant is exactly 0, formed from integers (16 - 16, or 1 - 1).
    The basis has one zero-padded row of ascending coefficients for each of
    delta(0), w, k0, k1, k2.  For |theta| below 1e-9 the theta corrections
    are dropped and the transform is cleared by (1 + s) alone, which
    keeps the kernel root at 2/c out of the denominator entirely; only the
    delta(0) and w rows remain in that branch.  c and th are taken as
    Python floats, numpy scalars included, and every sum and product but
    ``np.convolve``'s runs on Python floats, which give numpy's bits and
    overflow to inf or nan without a warning; poly_roots refuses the
    non-finite coefficients an overflowing premium leaves.
    """
    c, th = float(c), float(th)
    # Multiplying by s shifts the coefficients one place up.
    c2 = c * c
    base2 = [1.0, -2.0 * c, c2]

    if abs(th) < _SMALL_THETA:
        d0, *rest = times_linear(base2, 1.0, 1.0)
        basis = coeff_rows([x * c2 for x in (0.0, 1.0, 1.0)], [1.0, 1.0])
        return np.array([d0 - 1.0, *rest]), basis

    ker = [2.0, -c]  # the kernel factor 2 - c s
    ker3 = times_linear(times_linear(ker, *ker), *ker)
    q = [2.0, 3.0, 1.0]  # (1 + s)(2 + s)
    cof = times_linear(times_linear(ker3, 1.0, 1.0), 2.0, 1.0)
    qk = times_linear(q, *ker)
    six = variant.sigma * 6.0
    bracket = [(ker3[0] + 4.0) - ker[0] * six, ker3[1] - ker[1] * six, *ker3[2:]]
    den = np.convolve(base2, cof).tolist()
    for i, x in enumerate(times_linear(ker3, 2.0, 1.0)):
        den[i] -= x
    for i, x in enumerate(bracket, 1):
        den[i] -= x * th
    den = np.array(den)
    qkk = times_linear(qk, *ker)
    basis = coeff_rows([x * c2 for x in (0.0, *cof)], cof,
                       [x * th for x in q], [x * th for x in qk], [x * th for x in qkk])
    return den, basis


def _independence_w(c: float) -> float:
    # Value w takes at unit rates when claims and inter-claim times are independent.
    return 1.0 - 2.0 * c


def erlang_lt(
    model: ModelSpec, variant: SignVariant = DEFAULT_SIGN_VARIANT
) -> ParametricRational:
    """Cleared Laplace transform of delta in model units, affine in delta(0).

    The numerator follows the POOLED convention: w is frozen at its
    independence value and the quadratic boundary bracket is dropped,
    leaving delta(0) as the single free parameter.
    """
    c, alpha = unit_rates(model, Erlang2)
    den, basis = _cleared_parts(c, model.theta, variant)
    # The numerator is k N(s / alpha): k = beta^2, times beta^3 alpha where
    # (2 - c' s)^3 (2 + s) clears the kernels too (degree 7).
    beta = model.arrival.beta
    k = beta * beta * (1.0 if len(den) == 4 else beta * beta * beta * alpha)
    # The basis rows are zero-padded; trim() keeps degree() the true degree.
    num_const = rescaled(basis[1], k * _independence_w(c), alpha).trim()
    return ParametricRational(num_const, rescaled(basis[0], k, alpha),
                              rescaled(den, k * alpha, alpha))


def _build(
    model: ModelSpec, variant: SignVariant, elimination: GrowthElimination
):
    """c', alpha, the unit-rate roots and growing-root elimination."""
    c, alpha = unit_rates(model, Erlang2)
    den, basis = _cleared_parts(c, model.theta, variant)
    roots = poly_roots(den)
    if elimination is GrowthElimination.POOLED:
        w0 = _independence_w(c)
        elim = eliminate_growing(den, roots, basis[:2], (None, w0), pooled=True)
    else:
        elim = eliminate_growing(den, roots, basis, (None,) * len(basis))
    return c, alpha, roots, elim


def solve_delta0(
    model: ModelSpec,
    variant: SignVariant = DEFAULT_SIGN_VARIANT,
    elimination: GrowthElimination = DEFAULT_ELIMINATION,
) -> tuple[float, float]:
    """Survival probability at zero surplus and its initial-value residual.

    The residual is |delta(0+) - delta(0)| of the inversion with growing
    terms removed.  The solution-shape gates of survival_erlang2 are not
    applied here, so under POOLED elimination even the inconsistent sign
    variant yields a candidate value for comparison reports.  INDIVIDUAL
    elimination can still raise StructuralError when its linear system
    is unsolvable, as for the inconsistent variant at some theta < 0: six
    equations for five unknowns, refused by name before any solve.
    """
    elim = _build(model, variant, elimination)[3]
    delta0 = float(elim.weights[0])
    return delta0, abs(ExpSum(elim.constant, elim.terms)(0.0) - delta0)


@dataclass(frozen=True)
class ErlangSolution:
    """Closed-form survival probability for the Erlang(2) renewal model.

    Calling it evaluates delta(u) at a number or array u >= 0.  A level below
    0, NaN, a bool or bool array, and what does not convert to floats
    (None, "x") raise InputError, whose message names the input.

    Attributes:
        model: Input model.
        variant: Sign variant the transform was built with.
        elimination: How the growing exponentials were removed.
        delta0: Survival probability at zero initial surplus.
        delta: Exponential-sum form of delta(u) for u >= 0.
        roots: Roots of the cleared transform denominator.
        delta0_candidates: Values demanded by each growing root alone
            with the boundary terms frozen at their independence values;
            their spread is the bias the POOLED mode accepts.
        boundary_constants: (w, k0, k1, k2) in model units from INDIVIDUAL
            elimination (just (w,) in the small-theta branch); None under POOLED.
        consistency_residual: |delta(0+) - delta0| of the assembled
            form, the initial-value defect left by elimination.
    """

    model: ModelSpec
    variant: SignVariant
    elimination: GrowthElimination
    delta0: float
    delta: ExpSum
    roots: RootSet
    delta0_candidates: tuple[complex, ...]
    boundary_constants: tuple[float, ...] | None
    consistency_residual: float

    def __call__(self, u):
        return self.delta(_surplus_levels(u, "delta(u) needs numbers u >= 0"))


def survival_erlang2(
    model: ModelSpec,
    variant: SignVariant = DEFAULT_SIGN_VARIANT,
    elimination: GrowthElimination = DEFAULT_ELIMINATION,
) -> ErlangSolution:
    """Closed-form delta(u) for the dependent Erlang(2) renewal model.

    Raises:
        InputError: If the arrival law is not Erlang(2).
        ConditioningError: If the loading rounds to zero at unit rates, or
            a coefficient, root or residue leaves the float range.
        StructuralError: If the inversion violates an internal check.
            Under POOLED elimination the inconsistent sign variant fails
            the tends-to-1 gate by design; under INDIVIDUAL elimination
            both variants assemble cleanly and sign_variant_report is
            the arbiter between them.
    """
    c, alpha, roots, elim = _build(model, variant, elimination)
    roots = roots.scaled(alpha)
    delta = elim.survival(_AGGREGATE_TOL, _CONSTANT_TOL, alpha, 2.0 * c - 1.0)
    delta0 = float(elim.weights[0])
    residual = abs(delta(0.0) - delta0)
    if not residual <= _CONSISTENCY_TOL:
        raise StructuralError(
            f"initial-value defect {residual:.3e} exceeds {_CONSISTENCY_TOL:.0e}"
        )
    boundary = None
    if elimination is GrowthElimination.INDIVIDUAL:
        # From the numerator beta^5 alpha N(s / alpha), in which the kernel
        # factor 2 beta - c s is beta (2 - c' s / alpha).
        b, f = model.arrival.beta, model.arrival.beta / alpha
        units = (f * b, f * b * b * b * b, f * b * b * b, f * b * b)
        boundary = tuple(v * u for v, u in zip(elim.weights[1:].tolist(), units))
    # Each growing root's demand with w frozen at its independence value and
    # no quadratic bracket; their spread measures the pooled-mode bias.
    cands = elim.candidates(_independence_w(c))
    return ErlangSolution(
        model, variant, elimination, delta0, delta, roots, cands, boundary, residual
    )


@dataclass(frozen=True)
class VariantRow:
    """One sign variant's boundary value against the simulated benchmark.

    Attributes:
        variant: Sign variant the candidate was computed under.
        delta0: Candidate survival probability at zero surplus.
        z_score: (delta0 - simulated) / simulated stderr.
        consistent: Whether |z_score| stayed within the acceptance band.
        elimination: Elimination that produced the candidate.  The exact
            INDIVIDUAL system can be unsolvable for an inconsistent
            variant (at some theta it has more growing roots than
            boundary unknowns); the row then falls back to the POOLED
            candidate so the comparison still shows a number.
    """

    variant: SignVariant
    delta0: float
    z_score: float
    consistent: bool
    elimination: GrowthElimination


@dataclass(frozen=True)
class VariantReport:
    """Simulation adjudication between the two sign variants.

    Attributes:
        model: Input model.
        n: Paths simulated.
        seed: Simulation seed.
        mc_value: Simulated survival probability at zero surplus.
        mc_stderr: Its standard error.
        rows: Per-variant boundary values, z-scores, and verdicts.
        selected: The single consistent variant, or None if the comparison
            was ambiguous (both or neither within the acceptance band).
    """

    model: ModelSpec
    n: int
    seed: int
    mc_value: float
    mc_stderr: float
    rows: tuple[VariantRow, ...]
    selected: SignVariant | None


def sign_variant_report(
    model: ModelSpec,
    n: int = 500_000,
    seed: int = 0,
    z_crit: float = 4.0,
    workers: int = 1,
) -> VariantReport:
    """Compare both sign variants against one simulation of delta(0).

    Each variant's delta(0) comes from INDIVIDUAL elimination, or from
    POOLED where the INDIVIDUAL system is unsolvable.  n, seed and workers
    pass ``estimate_survival``'s checks first (workers is otherwise ignored);
    below |theta| = 1e-9 the variants coincide: PLUS, without simulating.
    """
    from .simulate import _check_inputs, estimate_survival

    _check_inputs(0.0, n, seed, workers)
    if abs(model.theta) < _SMALL_THETA:
        value, _ = solve_delta0(model, DEFAULT_SIGN_VARIANT)
        rows = tuple(
            VariantRow(v, value, 0.0, True, DEFAULT_ELIMINATION) for v in SignVariant
        )
        return VariantReport(model, 0, seed, math.nan, math.nan, rows,
                             DEFAULT_SIGN_VARIANT)

    est = estimate_survival(model, 0.0, n=n, seed=seed, workers=workers)
    rows = []
    for v in SignVariant:
        used = GrowthElimination.INDIVIDUAL
        try:
            d0, _ = solve_delta0(model, v, used)
        except StructuralError:
            used = GrowthElimination.POOLED
            d0, _ = solve_delta0(model, v, used)
        z = (d0 - est.value) / est.stderr
        rows.append(VariantRow(v, d0, z, bool(abs(z) <= z_crit), used))
    consistent = [r.variant for r in rows if r.consistent]
    selected = consistent[0] if len(consistent) == 1 else None
    return VariantReport(model, n, seed, est.value, est.stderr, tuple(rows),
                         selected)


def select_sign_variant(
    model: ModelSpec,
    n: int = 500_000,
    seed: int = 0,
    workers: int = 1,
) -> SignVariant:
    """The single sign variant consistent with simulation.

    ``workers`` is passed through to ``sign_variant_report``.

    Raises:
        StructuralError: If both or neither variant matches the simulated
            boundary value, leaving no unambiguous choice.
    """
    report = sign_variant_report(model, n=n, seed=seed, workers=workers)
    if report.selected is None:
        raise StructuralError(
            "sign variant comparison was ambiguous: "
            + ", ".join(
                f"{r.variant.value} z={r.z_score:+.2f}" for r in report.rows
            )
        )
    return report.selected
