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
the rates {0, s_i, -alpha, -2 alpha, k}.  Each column r_j in {0, s_1, s_2,
s_3} is scaled by g(r) = (alpha + r)(2 alpha + r)(k - r), so the unknown
y_j gives the coefficient y_j g(r_j), and the four rows are, up to nonzero
row factors:

    boundary chi(b, b) = 1:  g(r_j) e^{r_j b},  right-hand side 1;
    rate -alpha:             alpha (2 alpha + r_j)(k - r_j);
    rate -2 alpha:           2 alpha (alpha + r_j)(k - r_j);
    rate k (times e^{k b}):  alpha r_j e^{r_j b},

leaving out the rate-k terms in e^{-(alpha + k) b} and e^{-(2 alpha + k) b},
multiples of the rate -alpha and -2 alpha rows.  No entry divides by the
distance between a root and a rate.  As theta -> 0 two roots tend to
-2 alpha and k; at theta = 0 they equal them, g vanishes and so do their
coefficients.  One system thus serves every theta, and at theta = 0 it
gives chi(u, b) = phi(u)/phi(b).

The growing term is anchored at b: its column is scaled by e^{-s b}, and
it is kept apart as a' e^{s (u - b)}.  Every entry then lies within the
floating-point range at any b, and rows are equilibrated before solving.

The rates 0 and s_i cancel identically: with kappa = 2 theta lam^2/c^2,
mu = lam/c and nu = theta lam/c, each root satisfies the identity over
the same factor g,

    kappa alpha r - mu alpha (2 alpha + r)(k - r) - nu alpha r (k - r)
        - (r - mu) g(r) = 0,

and the remainder relative to the largest term (or to 1, if that is
larger) is checked as the assembly defect.  (Dickson & Gray, Scand.
Actuarial J. 1984, 174-186, give the finite-barrier form for independent
claims.)
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .classical import (
    _cleared_parts,
    survival_classical,  # noqa: F401  (bench/tracer.py wraps this module's binding)
)
from .errors import ConditioningError, InputError, StructuralError
from .model import ExpPoisson, ModelSpec
from .polyexp import ExpSum, Polynomial, RootClass, RootSet, poly_roots

__all__ = ["ChiSolution", "chi_characteristic", "solve_chi", "chi", "xi"]

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
    return Polynomial(_cleared_parts(model)[0] * (1.0 / model.c**2))


@dataclass(frozen=True)
class ChiSolution:
    """Reach-before-ruin probabilities at a fixed target level.

    Attributes:
        model: Input model.
        b: Target surplus level.
        chi: The constant and decaying terms of chi(u, b).
        growing: The growing term as a function of u - b, a' e^{s (u - b)}.
        roots: Characteristic roots (shared with the survival transform).
        condition: Condition number of the equilibrated linear system.
        boundary_residual: |chi(b, b) - 1| of the assembled solution.
        assembly_defect: Largest relative remainder of the characteristic
            identity at the roots.
    """

    model: ModelSpec
    b: float
    chi: ExpSum
    growing: ExpSum
    roots: RootSet
    condition: float
    boundary_residual: float
    assembly_defect: float

    def __call__(self, u):
        uu = np.asarray(u, dtype=float)
        if not np.all((uu >= 0.0) & (uu <= self.b)):
            raise InputError(f"chi(u, b) needs 0 <= u <= b = {self.b}")
        return self.chi(u) + self.growing(uu - self.b)

    def xi(self, u):
        """Probability of ruin without first reaching b."""
        return 1.0 - self(u)


def solve_chi(model: ModelSpec, b: float) -> ChiSolution:
    """Coefficients of chi(u, b) for one target level b.

    Raises:
        InputError: For non-exponential arrivals or a non-positive level.
        UnsupportedStructureError: If characteristic roots repeat.
        ConditioningError: If the equilibrated system's condition number
            exceeds 1e12.
        StructuralError: If the assembly identity or the boundary value
            check fails, or ExpSum finds the constant or a real-rate
            coefficient complex beyond 1e-9.
    """
    if not isinstance(model.arrival, ExpPoisson):
        raise InputError("max-surplus solver needs exponential inter-claim times")
    b = float(b)
    if not (b > 0.0) or not math.isfinite(b):
        raise InputError(f"target level b must be positive, got {b!r}")

    alpha = model.claim.alpha
    lam = model.arrival.lam
    c = model.c
    th = model.theta
    k = 2.0 * lam / c

    roots = poly_roots(_cleared_parts(model)[0])
    # Columns: the constant (rate 0) and the three nonzero roots.
    r = np.array([0.0] + [
        rt.value for rt in roots.roots if rt.klass is not RootClass.ZERO
    ])
    g = (alpha + r) * (2.0 * alpha + r) * (k - r)

    # At every root the rates 0 and s_i cancel identically; a visible
    # remainder means the rows below do not match the solution form.
    kappa = 2.0 * th * lam**2 / c**2
    mu = lam / c
    nu = th * lam / c
    summands = np.array([
        kappa * alpha * r,
        -mu * alpha * (2.0 * alpha + r) * (k - r),
        -nu * alpha * r * (k - r),
        -(r - mu) * g,
    ])
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
    # factor that equilibration cancels.  The growing column is anchored
    # at b, so its unknown weighs e^{s (u - b)}.
    grow = int(np.argmax(r.real))
    shift = b * (np.arange(4) == grow)
    mat = np.array([
        g * np.exp(r * (b - shift)),
        alpha * (2.0 * alpha + r) * (k - r) * np.exp(-r * shift),
        2.0 * alpha * (alpha + r) * (k - r) * np.exp(-r * shift),
        alpha * r * np.exp(r * (b - shift)),
    ])
    rhs = np.array([1.0, 0.0, 0.0, 0.0])
    row_norm = np.max(np.abs(mat), axis=1)
    mat = mat / row_norm[:, None]
    rhs = rhs / row_norm

    condition = float(np.linalg.cond(mat))
    if not np.isfinite(condition) or condition > _COND_LIMIT:
        raise ConditioningError(
            f"coefficient system condition {condition:.3e} exceeds "
            f"{_COND_LIMIT:.0e}"
        )
    coef = np.linalg.solve(mat, rhs) * g

    # A conjugate pair of roots enters the sum once, by its upper member.
    terms = sorted(
        ((coef[j], r[j]) for j in range(1, 4) if j != grow and r[j].imag >= 0.0),
        key=lambda t: -t[1].real,
    )
    decaying = ExpSum(coef[0], tuple(terms))
    growing = ExpSum(0.0, ((coef[grow], r[grow]),))

    residual = abs(decaying(b) + growing(0.0) - 1.0)
    if residual > _BOUNDARY_TOL:
        raise StructuralError(
            f"solution misses the boundary value by {residual:.3e}"
        )
    return ChiSolution(
        model, b, decaying, growing, roots, condition, residual, defect
    )


def chi(model: ModelSpec, u, b: float):
    """Probability of reaching b before ruin from initial surplus u."""
    return solve_chi(model, b)(u)


def xi(model: ModelSpec, u, b: float):
    """Probability of ruin with maximum surplus staying below b."""
    return 1.0 - chi(model, u, b)
