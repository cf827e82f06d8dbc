"""Survival probabilities for the dependent Erlang(2) renewal risk model.

With Erlang(2, beta) inter-claim times the survival probability delta(u)
satisfies a second-order equation whose Laplace transform involves the
claim transforms f~ and h~ together with kernel corrections carrying
powers of 1/(2 beta - c s).  Clearing all denominators yields a degree-7
identity with denominator

    D(s) = (c^2 s^2 - 2 beta c s + beta^2)(2 beta - c s)^3 (alpha+s)(2 alpha+s)
           - beta^2 alpha (2 alpha+s)(2 beta - c s)^3
           - theta alpha s [beta^2 (2 beta - c s)^3 + 4 beta^5
                            - sigma 6 beta^4 (2 beta - c s)]

and numerator

    N(s) = delta(0) c^2 s (2 beta - c s)^3 (alpha+s)(2 alpha+s)
           + w (2 beta - c s)^3 (alpha+s)(2 alpha+s)
           + theta (alpha+s)(2 alpha+s)
             [k0 + k1 (2 beta - c s) + k2 (2 beta - c s)^2]

where w collects first-derivative boundary data of delta at zero and the
quadratic bracket collects the constants introduced by the operator
responsible for the 1/(2 beta - c s) kernels.  The sign sigma of the
last kernel correction in D is ambiguous between two candidate
conventions, kept as ``SignVariant.PLUS`` (sigma = +1) and
``SignVariant.MINUS`` (sigma = -1); simulation singles out PLUS (see
``sign_variant_report``), so it is the default.

D has a zero root, two roots with negative real part, and four with
positive real part.  Boundedness of delta forces a vanishing coefficient
at every growing root and delta(inf) = 1 pins the zero-pole residue:
five linear conditions in the five unknowns delta(0), w, k0, k1, k2.
``GrowthElimination`` selects how they are imposed:

  * INDIVIDUAL (default): solve the five-by-five system exactly so each
    growing coefficient vanishes separately; the result agrees with
    simulation to Monte Carlo precision.
  * POOLED: freeze w at its independence value -2 beta c + beta^2 m1,
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
from numpy.polynomial import Polynomial

from .errors import InputError, StructuralError
from .model import Erlang2, ModelSpec
from .polyexp import (
    ExpSum,
    ParametricRational,
    RootSet,
    coeff_rows,
    eliminate_growing,
    partial_fractions,  # noqa: F401  (bench/tracer.py wraps this module's binding)
    poly_roots,
    shifted_zero_constant,
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
    """Sign of the 6 beta^4 kernel correction in the transform denominator."""

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


# Rates that overflow the assembly leave non-finite coefficients, which
# poly_roots refuses with ConditioningError; the numpy warnings on the way
# would say nothing more.
@np.errstate(over="ignore", invalid="ignore")
def _cleared_parts(model: ModelSpec, variant: SignVariant):
    """D, its constant snapped to zero, and the numerator basis, as arrays.

    The basis has one zero-padded row of ascending coefficients for each of
    delta(0), w, k0, k1, k2.  For |theta| below 1e-9 the theta corrections
    are dropped and the transform is cleared by (alpha + s) alone, which
    keeps the kernel root at 2 beta / c out of the denominator entirely;
    only the delta(0) and w rows remain in that branch.
    """
    if not isinstance(model.arrival, Erlang2):
        raise InputError("Erlang solver needs Erlang(2) inter-claim times")
    a = model.claim.alpha
    beta = model.arrival.beta
    c = model.c
    th = model.theta
    # Multiplying by s shifts the coefficients one place up.
    beta2, c2 = beta * beta, c * c
    base2 = [beta2, -2.0 * beta * c, c2]

    if abs(th) < _SMALL_THETA:
        den = np.array(times_linear(base2, a, 1.0))
        den[0] -= beta2 * a
        basis = coeff_rows([x * c2 for x in (0.0, a, 1.0)], [a, 1.0])
        return shifted_zero_constant(den), basis

    k0, k1 = 2.0 * beta, -c  # the kernel factor 2 beta - c s
    ker3 = times_linear(times_linear([k0, k1], k0, k1), k0, k1)
    cof = times_linear(times_linear(ker3, a, 1.0), 2.0 * a, 1.0)
    q = times_linear([a, 1.0], 2.0 * a, 1.0)
    qk = times_linear(q, k0, k1)
    # A numpy power overflows to inf where a float's raises; squares multiply.
    beta4, beta5 = np.float64(beta) ** 4, np.float64(beta) ** 5
    bracket = np.multiply(ker3, beta2)
    bracket[0] += 4.0 * beta5
    bracket[:2] -= np.multiply([k0, k1], variant.sigma * 6.0 * beta4)
    den = np.convolve(base2, cof)
    den[:5] -= np.multiply(times_linear(ker3, 2.0 * a, 1.0), beta2 * a)
    den[1:5] -= bracket * (th * a)
    qkk = times_linear(qk, k0, k1)
    basis = coeff_rows([x * c2 for x in (0.0, *cof)], cof,
                       [x * th for x in q], [x * th for x in qk], [x * th for x in qkk])
    return shifted_zero_constant(den), basis


def _independence_w(model: ModelSpec) -> float:
    # Value w takes when claim sizes and inter-claim times are independent.
    beta = model.arrival.beta
    return -2.0 * beta * model.c + beta * beta * model.m1


def erlang_lt(
    model: ModelSpec, variant: SignVariant = DEFAULT_SIGN_VARIANT
) -> ParametricRational:
    """Cleared Laplace transform of delta, affine in delta(0).

    The numerator follows the POOLED convention: w is frozen at its
    independence value and the quadratic boundary bracket is dropped,
    leaving delta(0) as the single free parameter.
    """
    den, basis = _cleared_parts(model, variant)
    # The basis rows are zero-padded; trim() keeps degree() the true degree.
    num_const = Polynomial(basis[1] * _independence_w(model)).trim()
    return ParametricRational(num_const, Polynomial(basis[0]), Polynomial(den))


def _build(
    model: ModelSpec, variant: SignVariant, elimination: GrowthElimination
):
    """Roots and growing-root elimination."""
    den, basis = _cleared_parts(model, variant)
    roots = poly_roots(den)
    if elimination is GrowthElimination.POOLED:
        w0 = _independence_w(model)
        elim = eliminate_growing(den, roots, basis[:2], (None, w0), pooled=True)
    else:
        elim = eliminate_growing(den, roots, basis, (None,) * len(basis))
    return roots, elim


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
    _, elim = _build(model, variant, elimination)
    delta0 = float(elim.weights[0])
    return delta0, abs(ExpSum(elim.constant, elim.terms)(0.0) - delta0)


@dataclass(frozen=True)
class ErlangSolution:
    """Closed-form survival probability for the Erlang(2) renewal model.

    Calling it evaluates delta(u); u below 0 or NaN raises InputError.

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
        boundary_constants: (w, k0, k1, k2) recovered by INDIVIDUAL
            elimination (just (w,) in the small-theta branch); None
            under POOLED.
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
        if not np.all(np.asarray(u, dtype=float) >= 0.0):
            raise InputError("delta(u) needs u >= 0")
        return self.delta(u)


def survival_erlang2(
    model: ModelSpec,
    variant: SignVariant = DEFAULT_SIGN_VARIANT,
    elimination: GrowthElimination = DEFAULT_ELIMINATION,
) -> ErlangSolution:
    """Closed-form delta(u) for the dependent Erlang(2) renewal model.

    Raises:
        InputError: If the arrival law is not Erlang(2).
        StructuralError: If the inversion violates an internal check.
            Under POOLED elimination the inconsistent sign variant fails
            the tends-to-1 gate by design; under INDIVIDUAL elimination
            both variants assemble cleanly and sign_variant_report is
            the arbiter between them.
    """
    roots, elim = _build(model, variant, elimination)
    delta = elim.survival(_AGGREGATE_TOL, _CONSTANT_TOL)
    delta0 = float(elim.weights[0])
    residual = abs(delta(0.0) - delta0)
    if not residual <= _CONSISTENCY_TOL:
        raise StructuralError(
            f"initial-value defect {residual:.3e} exceeds {_CONSISTENCY_TOL:.0e}"
        )
    boundary = None
    if elimination is GrowthElimination.INDIVIDUAL:
        boundary = tuple(float(v) for v in elim.weights[1:])
    # Each growing root's demand with w frozen at its independence value and
    # no quadratic bracket; their spread measures the pooled-mode bias.
    cands = elim.candidates(_independence_w(model))
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
    POOLED where the INDIVIDUAL system is unsolvable.  For |theta| below
    1e-9 the variants coincide and PLUS is selected without simulating.
    ``workers`` is passed to ``estimate_survival``, which validates it and
    otherwise ignores it.
    """
    from .simulate import estimate_survival

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
