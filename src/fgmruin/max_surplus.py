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
    rate k:                  (b_j - a_j) e^{(r_j - k) b}/(k - r_j),

leaving out the rate-k terms in e^{-(alpha + k) b} and e^{-(2 alpha + k) b},
multiples of the rate -alpha and -2 alpha rows.

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

# Characteristic roots must stay 1e-9 * |rate| from the assembly rates
# -alpha, -2 alpha and 2 lam / c, where the rows lose their meaning;
# equilibration handles any approach short of that.  rate - s is accurate
# relative to |rate|, and the kernel rate can be far below 1.
_RATE_SEP_TOL = 1e-9

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
        UnsupportedStructureError: If characteristic roots repeat, or one
            lies within 1e-9 * |rate| of -alpha, -2 alpha or 2 lam / c.
        ConditioningError: If the growing root s has s * b > 200 or the
            equilibrated system's condition number exceeds 1e12.
        StructuralError: If an internal cancellation or boundary check
            fails, or ExpSum finds the constant or a real-rate coefficient
            complex beyond 1e-9.
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

    den = classical_lt(model).den
    roots = poly_roots(den)
    s_vals = np.array(
        [r.value for r in roots.roots if r.klass is not RootClass.ZERO]
    )
    # The assembly identity divides by each root's distance to the rates,
    # down to 1e-9 of them, so it needs the roots to about an ulp.  One
    # Newton step gets there from the eigenvalues' few ulps: a root 1.3e-9
    # from -2 alpha, off by 1.5e-15, left an assembly defect of 1.2e-6.
    s_vals = s_vals - den(s_vals) / den.derivative()(s_vals)
    rates = np.array([-alpha, -2.0 * alpha, k])
    gap = np.abs(s_vals[:, None] - rates) / np.abs(rates)
    if np.min(gap) <= _RATE_SEP_TOL:
        i, j = np.unravel_index(np.argmin(gap), gap.shape)
        raise UnsupportedStructureError(
            f"characteristic root {complex(s_vals[i]):.6g} collides with the "
            f"assembly rate {rates[j]:.6g}"
        )
    if np.max(s_vals.real) * b > 200.0:
        raise ConditioningError(
            "level b is too large for this growth rate; use the "
            "asymptotic survival solver instead"
        )

    # Columns: the constant (rate 0) and the three nonzero roots.
    r = np.concatenate(([0.0], s_vals))
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
    # factor that equilibration cancels.
    col_scale = np.exp(-np.where(r.real > 0.0, r, 0.0) * b)
    mat = np.array([
        np.exp(r * b),
        aj,
        bj,
        (bj - aj) * np.exp((r - k) * b) / (k - r),
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

    # A conjugate pair of roots enters the sum once, by its upper member.
    terms = sorted(
        ((a, s) for a, s in zip(coef[1:], s_vals) if s.imag >= 0.0),
        key=lambda t: -t[1].real,
    )
    expsum = ExpSum(coef[0], tuple(terms))

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
