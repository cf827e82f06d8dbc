"""Probability of reaching a surplus level before ruin (classical model).

chi(u, b) is the probability that the surplus process started at u attains
the level b >= u before it ever falls below zero; xi = 1 - chi is the
probability of ruin with maximum surplus below b.  The solver works at
unit rates, alpha = lam = 1, with the premium c' = c alpha / lam
(``model.unit_rates``) and the level b' = alpha b; the model's chi(u, b)
is the unit-rate chi at (alpha u, b'), so on the way out the roots and
rates are multiplied by alpha.  For exponential claims chi satisfies a
fourth-order linear ODE in u whose characteristic quartic coincides with
the cleared transform denominator of the survival solver divided by
c'^2, so

    chi(u, b') = a_0 + a_1 e^{s_1 u} + a_2 e^{s_2 u} + a_3 e^{s_3 u}

over the nonzero quartic roots s_i (one of positive real part; its
coefficient is invisibly small for moderate b' yet required for the
boundary value chi(b', b') = 1).

The four coefficients solve a linear system assembled from the boundary
condition and from the first-derivative form of the renewal equation,

    chi' - (1/c') chi = (2 theta/c'^2) J(u) - (1/c') A(u)
                        - (theta/c') B(u),

where A and B are convolutions of chi with the claim density f and the
auxiliary density h(x) = 2 e^{-2 x} - e^{-x}, and J(u) integrates
B(s) e^{-k (s-u)} over u <= s <= b', k = 2/c'.  Substituting the
exponential form turns each side into a combination of the rates
{0, s_i, -1, -2, k}.  Each column r_j in {0, s_1, s_2, s_3} is scaled by
g(r) = (1 + r)(2 + r)(k - r), so the unknown y_j gives the coefficient
y_j g(r_j), and the four rows are, up to nonzero row factors:

    boundary chi(b', b') = 1:  g(r_j) e^{r_j b'},  right-hand side 1;
    rate -1:                   (2 + r_j)(k - r_j);
    rate -2:                   2 (1 + r_j)(k - r_j);
    rate k (times e^{k b'}):   r_j e^{r_j b'},

leaving out the rate-k terms in e^{-(1 + k) b'} and e^{-(2 + k) b'},
multiples of the rate -1 and -2 rows.  No entry divides by the distance
between a root and a rate.  As theta -> 0 two roots tend to -2 and k; at
theta = 0 they equal them, g vanishes and so do their coefficients.  One
system thus serves every theta, and at theta = 0 it gives
chi(u, b) = phi(u)/phi(b).

The growing term is anchored at b': its column is scaled by e^{-s b'}, and
it is kept apart as a' e^{s (u - b')}.  Every entry then lies within the
floating-point range at any b', and rows are equilibrated before solving.

The rates 0 and s_i cancel identically: with kappa = 2 theta/c'^2,
mu = 1/c' and nu = theta/c', each root satisfies the identity over the
same factor g,

    kappa r - mu (2 + r)(k - r) - nu r (k - r) - (r - mu) g(r) = 0,

and the remainder relative to the largest term (or to 1, if that is
larger) is checked as the assembly defect.  (Dickson & Gray, Scand.
Actuarial J. 1984, 174-186, give the finite-barrier form for independent
claims.)
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import Polynomial

from .classical import (
    _cleared_parts,
    classical_lt,
    survival_classical,  # noqa: F401  (bench/tracer.py wraps this module's binding)
)
from .errors import ConditioningError, InputError, StructuralError
from .model import ExpPoisson, ModelSpec, _surplus_levels, unit_rates
from .polyexp import ExpSum, RootSet, poly_roots

__all__ = ["ChiSolution", "chi_characteristic", "solve_chi", "chi", "xi"]

# Identity rates (0 and each s_i) must cancel to this relative level.
_ASSEMBLY_TOL = 1e-6

# Equilibrated system condition gate.
_COND_LIMIT = 1e12

# chi(b, b) must reproduce the boundary value.
_BOUNDARY_TOL = 1e-6

# What each row of the coefficient system imposes, in row order.
_ROWS = ("the boundary value chi(b, b) = 1", "rate -alpha", "rate -2 alpha", "rate k")

# The smallest row norm equilibration divides by: numpy's complex division
# scales by the divisor's reciprocal, which overflows for a subnormal.
_NORMAL_MIN = float(np.finfo(float).tiny)


def chi_characteristic(model: ModelSpec) -> Polynomial:
    """Characteristic quartic of the reach-probability ODE, in model units.

    Equals the cleared survival-transform denominator scaled by 1/c^2; the
    roots are shared between the two solvers.
    """
    return classical_lt(model).den / model.c / model.c


@dataclass(frozen=True)
class ChiSolution:
    """Reach-before-ruin probabilities at a fixed target level.

    Calling it evaluates chi(u, b) at a number or array 0 <= u <= b.  A
    level outside [0, b], NaN, a bool or bool array, and what does not
    convert to floats (None, "x") raise InputError, whose message names
    the input.

    Attributes:
        model: Input model.
        b: Target surplus level.
        chi: The constant and decaying terms of chi(u, b).
        growing: The growing term as a function of u - b, a' e^{s (u - b)}.
        roots: Characteristic roots (shared with the survival transform).
        condition: Condition number of the equilibrated unit-rate system.
        boundary_residual: |chi(b, b) - 1| of the assembled solution.
        assembly_defect: Largest relative remainder of the characteristic
            identity at the unit-rate roots.
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
        uu = _surplus_levels(u, f"chi(u, b) needs numbers 0 <= u <= b = {self.b}", self.b)
        return self.chi(uu) + self.growing(uu - self.b)

    def xi(self, u):
        """Probability of ruin without first reaching b."""
        return 1.0 - self(u)


# Entries that leave the float range fail the defect, row, condition or
# boundary gate; the numpy warnings on the way would say nothing more.
@np.errstate(over="ignore", invalid="ignore")
def solve_chi(model: ModelSpec, b: float) -> ChiSolution:
    """Coefficients of chi(u, b) for one target level b.

    Raises:
        InputError: For non-exponential arrivals, or a level b that is not
            a positive finite number: a bool, None or "x" included.
        UnsupportedStructureError: If characteristic roots repeat.
        ConditioningError: If the loading rounds to zero at unit rates, a
            row of the system vanishes (below the smallest normal float) or
            overflows, the equilibrated system's condition number exceeds
            1e12 or is not finite, or a root times alpha overflows.
        StructuralError: If the assembly identity or the boundary value
            check fails, or ExpSum finds the constant or a real-rate
            coefficient complex beyond 1e-9.
    """
    c, alpha = unit_rates(model, ExpPoisson)
    try:
        if np.asarray(b).dtype == bool:
            raise TypeError
        level = float(b)
    except (TypeError, ValueError):
        level = math.nan
    if not 0.0 < level < math.inf:
        raise InputError(f"target level b must be positive and finite, got {b!r}")
    b = level
    th = model.theta
    k = 2.0 / c
    b_unit = b * alpha

    roots = poly_roots(_cleared_parts(c, th)[0])
    # Columns: the constant (rate 0; D(0) is exactly 0) and the three nonzero roots.
    r = roots.poles
    plus_1, plus_2, k_minus = 1.0 + r, 2.0 + r, k - r
    g = plus_1 * plus_2 * k_minus

    # At every root the rates 0 and s_i cancel identically; a visible
    # remainder means the rows below do not match the solution form.
    mu = 1.0 / c
    summands = np.array([
        2.0 * th / c**2 * r,
        -mu * plus_2 * k_minus,
        -(th / c) * r * k_minus,
        -(r - mu) * g,
    ])
    size = np.abs(summands)
    defect = float((np.abs(summands.sum(axis=0))
                    / np.maximum(1.0, size.max(axis=0))).max())
    # Written so that a NaN defect fails the gate.
    if not defect <= _ASSEMBLY_TOL:
        raise StructuralError(
            f"assembly left relative defect {defect:.3e} on identity rates"
        )

    # Rows: the boundary value chi(b', b') = 1, then the coefficients of
    # the rates -1, -2 and k, each up to a nonzero common factor that
    # equilibration cancels.  The growing column is anchored at b', so
    # its unknown weighs e^{s (u - b')}.
    reals = [v.real for v in r.tolist()]
    grow = reals.index(max(reals))
    shift = np.array([b_unit * (j == grow) for j in range(4)])
    at_b, at_shift = np.exp(r * (b_unit - shift)), np.exp(-r * shift)
    mat = np.array([
        g * at_b,
        plus_2 * k_minus * at_shift,
        2.0 * plus_1 * k_minus * at_shift,
        r * at_b,
    ])
    row_norm = np.abs(mat).max(axis=1)
    # A row that underflows in every column, to zero or to subnormals, or
    # that overflows leaves nothing to equilibrate.
    for what, norm in zip(_ROWS, row_norm.tolist()):
        if not _NORMAL_MIN <= norm < math.inf:
            raise ConditioningError(
                f"coefficient system row for {what} vanished or overflowed "
                f"(row norm {norm!r})"
            )
    mat = mat / row_norm[:, None]
    rhs = np.array([1.0, 0.0, 0.0, 0.0]) / row_norm

    # The 2-norm condition number, as np.linalg.cond computes it: a NaN or
    # zero smallest singular value counts as an infinite condition.
    try:
        sv = np.linalg.svd(mat, compute_uv=False).tolist()
    except np.linalg.LinAlgError:
        sv = [math.nan]
    condition = sv[0] / sv[-1] if sv[-1] > 0.0 else math.inf
    if not condition <= _COND_LIMIT:
        raise ConditioningError(
            f"coefficient system condition {condition:.3e} exceeds "
            f"{_COND_LIMIT:.0e}"
        )
    coef = (np.linalg.solve(mat, rhs) * g).tolist()
    roots = roots.scaled(alpha)
    rates = roots.poles.tolist()

    # A conjugate pair of roots enters the sum once, by its upper member.
    terms = sorted(
        ((coef[j], rates[j]) for j in range(1, 4) if j != grow and rates[j].imag >= 0.0),
        key=lambda t: -t[1].real,
    )
    decaying = ExpSum(coef[0], tuple(terms))
    growing = ExpSum(0.0, ((coef[grow], rates[grow]),))

    residual = abs(decaying(b) + growing(0.0) - 1.0)
    if not residual <= _BOUNDARY_TOL:
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
