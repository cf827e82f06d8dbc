"""Probability of reaching a surplus level before ruin (classical model).

chi(u, b) is the probability that the surplus process started at u attains
the level b >= u before it ever falls below zero; xi = 1 - chi is the
probability of ruin with maximum surplus below b.  For exponential claims
chi satisfies a fourth-order linear ODE in u whose characteristic quartic
coincides with the cleared transform denominator of the survival solver
divided by c^2, so

    chi(u, b) = a_0 + a_1 e^{s_1 u} + a_2 e^{s_2 u} + a_3 e^{s_3 u}

over the nonzero quartic roots s_i (one of positive real part; its
coefficient is invisibly small for moderate b yet required for the
boundary value chi(b, b) = 1).

The four coefficients solve a linear system assembled from the boundary
condition and from the first-derivative form of the renewal equation,

    chi' - (lam/c) chi = (2 theta lam^2/c^2) J(u) - (lam/c) A(u)
                         - (theta lam/c) B(u),

where A and B are convolutions of chi with the claim density f and the
auxiliary density h(x) = 2 alpha e^{-2 alpha x} - alpha e^{-alpha x},
and J(u) integrates B(s) e^{-k (s-u)} over u <= s <= b, k = 2 lam/c.
Substituting the exponential form turns each side into a combination of
the rates {0, s_i, -alpha, -2 alpha, k}.  Over the columns r_0 = 0 and
r_j = s_j, with a_j = alpha/(alpha + r_j) and b_j = 2 alpha/(2 alpha + r_j),
the four rows are, up to nonzero row factors:

    boundary chi(b, b) = 1:  e^{r_j b},  right-hand side 1;
    rate -alpha:             a_j;
    rate -2 alpha:           b_j;
    rate k:                  (b_j - a_j) e^{(r_j - k) b}/(k - r_j)
                             - b_j e^{-(2 alpha + k) b}/(k + 2 alpha)
                             + a_j e^{-(alpha + k) b}/(k + alpha).

The rates 0 and s_i cancel identically: with kappa = 2 theta lam^2/c^2,
mu = lam/c and nu = theta lam/c, each root satisfies

    kappa (b_i - a_i)/(k - s_i) - mu a_i - nu (b_i - a_i) - (s_i - mu) = 0,

and the remainder relative to the largest term is checked as the
assembly defect.  (Dickson & Gray, Scand. Actuarial J. 1984, 174-186,
give the finite-barrier form for independent claims.)

Growing-root columns are rescaled by e^{-s b} and rows are equilibrated
before solving; the raw system carries condition numbers like e^{s b}
that the rescaling removes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .classical import classical_lt, survival_classical
from .errors import (
    ConditioningError,
    InputError,
    StructuralError,
    UnsupportedStructureError,
)
from .model import ExpPoisson, ModelSpec
from .polyexp import ExpSum, Polynomial, RootClass, RootSet, poly_roots

__all__ = ["ChiSolution", "chi_characteristic", "solve_chi", "chi", "xi"]

# Below this |theta| the dependence correction is under solver noise and
# the independent-model ratio form phi(u)/phi(b) is used directly; it also
# sidesteps the quartic root that collides with the integration kernel
# rate 2 lam / c as theta -> 0.
_SMALL_THETA = 1e-6

# Distinct assembly rates must stay separated; closer approaches make the
# rate-matching system meaningless for this solution form.
_RATE_SEP_TOL = 1e-7

# The kernel rate guard is tighter because the near-collision at small
# theta is handled by equilibration down to this scale.
_KERNEL_SEP_TOL = 1e-9

# Identity rates (0 and each s_i) must cancel to this relative level.
_ASSEMBLY_TOL = 1e-6

# Equilibrated system condition gate.
_COND_LIMIT = 1e12

# chi(b, b) must reproduce the boundary value.
_BOUNDARY_TOL = 1e-6


def chi_characteristic(model: ModelSpec) -> Polynomial:
    """Characteristic quartic of the reach-probability ODE.

    Equals the cleared survival-transform denominator scaled by 1/c^2; the
    roots are shared between the two solvers.
    """
    if not isinstance(model.arrival, ExpPoisson):
        raise InputError("max-surplus solver needs exponential inter-claim times")
    return (1.0 / model.c**2) * classical_lt(model).den


@dataclass(frozen=True)
class ChiSolution:
    """Reach-before-ruin probabilities at a fixed target level.

    Attributes:
        model: Input model.
        b: Target surplus level.
        chi: Exponential-sum form of chi(u, b) on 0 <= u <= b.
        roots: Characteristic roots (shared with the survival transform).
        condition: Condition number of the equilibrated linear system
            (1.0 for the small-theta ratio branch).
        boundary_residual: |chi(b, b) - 1| of the assembled solution.
        assembly_defect: Largest relative remainder of the characteristic
            identity at the roots (0.0 for the small-theta ratio branch).
    """

    model: ModelSpec
    b: float
    chi: ExpSum
    roots: RootSet
    condition: float
    boundary_residual: float
    assembly_defect: float

    def __call__(self, u):
        uu = np.asarray(u, dtype=float)
        if np.any(uu < 0.0) or np.any(uu > self.b):
            raise InputError(f"chi(u, b) needs 0 <= u <= b = {self.b}")
        return self.chi(u)

    def xi(self, u):
        """Probability of ruin without first reaching b."""
        return 1.0 - self(u)


def _ratio_solution(model: ModelSpec, b: float) -> ChiSolution:
    """Independent-model branch: chi(u, b) = phi(u) / phi(b)."""
    sol = survival_classical(model)
    denom = float(sol.phi(b))
    terms = tuple((coef / denom, rate) for coef, rate in sol.phi.terms)
    expsum = ExpSum(sol.phi.constant / denom, terms)
    residual = abs(float(expsum(b)) - 1.0)
    return ChiSolution(model, b, expsum, sol.roots, 1.0, residual, 0.0)


def solve_chi(model: ModelSpec, b: float) -> ChiSolution:
    """Coefficients of chi(u, b) for one target level b.

    Raises:
        InputError: For non-exponential arrivals or a non-positive level.
        UnsupportedStructureError: If characteristic roots repeat, or
            collide with each other or with the assembly rates {-alpha,
            -2 alpha, 2 lam / c}.
        ConditioningError: If the equilibrated system is too ill
            conditioned to trust, including levels b so large that the
            growing root overflows the scaling.
        StructuralError: If an internal cancellation or boundary check
            fails.
    """
    if not isinstance(model.arrival, ExpPoisson):
        raise InputError("max-surplus solver needs exponential inter-claim times")
    b = float(b)
    if not (b > 0.0) or not math.isfinite(b):
        raise InputError(f"target level b must be positive, got {b!r}")
    if abs(model.theta) < _SMALL_THETA:
        return _ratio_solution(model, b)

    alpha = model.claim.alpha
    lam = model.arrival.lam
    c = model.c
    th = model.theta
    k = 2.0 * lam / c

    roots = poly_roots(classical_lt(model).den)
    s_vals = [r.value for r in roots.simple() if r.klass is not RootClass.ZERO]
    if len(s_vals) != 3:
        raise StructuralError(f"expected three nonzero roots, got {len(s_vals)}")
    for i, s in enumerate(s_vals):
        for other in s_vals[i + 1 :]:
            if abs(s - other) <= _RATE_SEP_TOL * max(1.0, abs(s)):
                raise UnsupportedStructureError("characteristic roots collide")
        for special in (-alpha, -2.0 * alpha):
            if abs(s - special) <= _RATE_SEP_TOL * max(1.0, abs(special)):
                raise UnsupportedStructureError(
                    "characteristic root collides with a claim rate"
                )
        if abs(2.0 * lam - c * s) <= _KERNEL_SEP_TOL * max(1.0, 2.0 * lam):
            raise UnsupportedStructureError(
                "characteristic root collides with the integration kernel rate"
            )
        if s.real * b > 200.0:
            raise ConditioningError(
                "level b is too large for this growth rate; use the "
                "asymptotic survival solver instead"
            )

    # Columns: the constant (rate 0) and the three nonzero roots.
    r = np.array([0.0, *s_vals], dtype=complex)
    aj = alpha / (alpha + r)
    bj = 2.0 * alpha / (2.0 * alpha + r)

    # At every root the rates 0 and s_i cancel identically; a visible
    # remainder means the rows below do not match the solution form.
    kappa = 2.0 * th * lam**2 / c**2
    mu = lam / c
    nu = th * lam / c
    summands = np.array(
        [kappa * (bj - aj) / (k - r), -mu * aj, -nu * (bj - aj), -(r - mu)]
    )
    defect = float(np.max(
        np.abs(summands.sum(axis=0))
        / np.maximum(1.0, np.max(np.abs(summands), axis=0))
    ))
    if defect > _ASSEMBLY_TOL:
        raise StructuralError(
            f"assembly left relative defect {defect:.3e} on identity rates"
        )

    # Rows: the boundary value chi(b, b) = 1, then the coefficients of
    # the rates -alpha, -2 alpha and k, each up to a nonzero common
    # factor that equilibration cancels.  The two column-independent
    # tails of the rate-k row are multiples of the two rows above it, so
    # they leave the solution unchanged; they are kept so that the
    # equilibrated matrix and its condition number stay those of the
    # rate-matching system.
    col_scale = np.exp(-np.where(r.real > 0.0, r, 0.0) * b)
    mat = np.array([
        np.exp(r * b),
        aj,
        bj,
        (bj - aj) * np.exp((r - k) * b) / (k - r)
        - bj * np.exp(-(2.0 * alpha + k) * b) / (k + 2.0 * alpha)
        + aj * np.exp(-(alpha + k) * b) / (k + alpha),
    ]) * col_scale
    rhs = np.array([1.0, 0.0, 0.0, 0.0], dtype=complex)

    row_norm = np.max(np.abs(mat), axis=1)
    if np.any(row_norm == 0.0):
        raise StructuralError("assembly produced an empty constraint row")
    mat = mat / row_norm[:, None]
    rhs = rhs / row_norm

    condition = float(np.linalg.cond(mat))
    if not np.isfinite(condition) or condition > _COND_LIMIT:
        raise ConditioningError(
            f"coefficient system condition {condition:.3e} exceeds "
            f"{_COND_LIMIT:.0e}"
        )
    coef = np.linalg.solve(mat, rhs) * col_scale

    # Realify against solver roundoff before the structural validation.
    noise = 1e-10 * max(1.0, float(np.max(np.abs(coef))))
    if abs(coef[0].imag) > noise:
        raise ConditioningError("constant coefficient came out complex")
    constant = float(coef[0].real)
    terms = []
    for i, s in enumerate(s_vals):
        a_i = coef[i + 1]
        if s.imag == 0.0:
            if abs(a_i.imag) > noise:
                raise ConditioningError("real-rate coefficient came out complex")
            a_i = complex(a_i.real, 0.0)
        terms.append((a_i, s))
    terms.sort(key=lambda t: -t[1].real)
    expsum = ExpSum(constant, tuple(terms))

    residual = abs(float(expsum(b)) - 1.0)
    if residual > _BOUNDARY_TOL:
        raise StructuralError(
            f"solution misses the boundary value by {residual:.3e}"
        )
    return ChiSolution(model, b, expsum, roots, condition, residual, defect)


def chi(model: ModelSpec, u, b: float):
    """Probability of reaching b before ruin from initial surplus u."""
    return solve_chi(model, b)(u)


def xi(model: ModelSpec, u, b: float):
    """Probability of ruin with maximum surplus staying below b."""
    return 1.0 - chi(model, u, b)
