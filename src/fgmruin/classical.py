"""Survival probabilities for the dependent compound Poisson model.

The survival probability phi(u) of the surplus process with exponential
inter-claim times satisfies a second-order integro-differential equation
whose Laplace transform is rational once the claim transforms are cleared.
The solver works at unit rates, alpha = lam = 1, where the premium is
c' = c alpha / lam (``model.unit_rates``).  With f~ = 1/(1+s) and
h~ = s/((1+s)(2+s)), the cleared denominator is the quartic

    D(s) = (c'^2 s^2 - 3 c' s + 2)(1+s)(2+s) - 2 (2+s) + c' s (2+s)
           + theta c' s^2

with D(0) = 0, and the numerator is affine in the unknown phi(0):

    N(s) = phi(0) c'^2 s (1+s)(2+s) + (2 - 2 c')(1+s)(2+s).

phi(0) is pinned by boundedness: the transform must be analytic in the
right half-plane, so the numerator has to vanish at every root of D with
positive real part.  Partial fractions over the remaining poles then give
phi(u) in closed form as a constant plus decaying exponentials; the
constant equals N(0)/D'(0) = 1 identically, which is checked rather than
assumed.  The model's phi(u) is the unit-rate one at alpha u: on the way
out the roots and rates are multiplied by alpha.  ``classical_lt`` gives
the model's lam^2 alpha N(s / alpha) over lam^2 alpha^2 D(s / alpha).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import ExpPoisson, ModelSpec, _surplus_levels, unit_rates
from .polyexp import (
    RESIDUE_DROP_REL,
    ExpSum,
    ParametricRational,
    RootSet,
    coeff_rows,
    eliminate_growing,
    partial_fractions,  # noqa: F401  (bench/tracer.py wraps this module's binding)
    poly_roots,
    rescaled,
)

__all__ = ["ClassicalSolution", "classical_lt", "solve_phi0", "survival_classical"]

# The zero-pole residue equals 1 analytically; the assembled value must
# agree to this tolerance.
_CONSTANT_TOL = 1e-8


def _cleared_parts(c: float, th: float):
    """Ascending (den, num_const, num_slope) at unit rates and premium c.

    den is an array, its constant exactly 0 (4 - 4); the others are lists.
    c and th are taken as Python floats, numpy scalars included, and after
    ``np.convolve`` the corrections run on Python floats, which give numpy's
    bits and overflow to inf or nan without a warning; poly_roots refuses
    the non-finite coefficients an overflowing premium leaves.
    """
    c, th = float(c), float(th)
    c2 = c * c
    q = [2.0, 3.0, 1.0]  # (1 + s)(2 + s)
    d0, d1, d2, d3, d4 = np.convolve([2.0, -3.0 * c, c2], q).tolist()
    # Less 2 (2 + s), plus c s (2 + s) one place up, plus theta c s^2.
    den = np.array([d0 - 4.0, (d1 - 2.0) + 2.0 * c, (d2 + c) + th * c, d3, d4])
    w = 2.0 - 2.0 * c
    num_const = [x * w for x in q]
    num_slope = [x * c2 for x in (0.0, *q)]  # times s
    return den, num_const, num_slope


def classical_lt(model: ModelSpec) -> ParametricRational:
    """Cleared Laplace transform of phi in model units, affine in phi(0)."""
    c, alpha = unit_rates(model, ExpPoisson)
    den, num_const, num_slope = _cleared_parts(c, model.theta)
    k = model.arrival.lam * model.arrival.lam * alpha
    return ParametricRational(rescaled(num_const, k, alpha), rescaled(num_slope, k, alpha),
                              rescaled(den, k * alpha, alpha))


@dataclass(frozen=True)
class ClassicalSolution:
    """Closed-form survival probability for the compound Poisson model.

    Calling it evaluates phi(u) at a number or array u >= 0.  A level below
    0, NaN, a bool or bool array, and what does not convert to floats
    (None, "x") raise InputError, whose message names the input.

    Attributes:
        model: Input model.
        phi0: Survival probability at zero initial surplus.
        phi: Exponential-sum form of phi(u), valid for u >= 0.
        roots: Roots of the cleared transform denominator.
        phi0_candidates: Per-growing-root elimination values (diagnostic;
            the elimination's residual and realness gates keep each within
            1.1e-7 * max(1, |phi0|) of phi0).
    """

    model: ModelSpec
    phi0: float
    phi: ExpSum
    roots: RootSet
    phi0_candidates: tuple[complex, ...]

    def __call__(self, u):
        return self.phi(_surplus_levels(u, "phi(u) needs numbers u >= 0"))


def _eliminate(model: ModelSpec):
    """c', alpha, unit-rate roots and elimination: num_const weighs 1, phi(0) is free."""
    c, alpha = unit_rates(model, ExpPoisson)
    den, num_const, num_slope = _cleared_parts(c, model.theta)
    roots = poly_roots(den)
    return c, alpha, roots, eliminate_growing(den, roots, coeff_rows(num_slope, num_const),
                                           (None, 1.0))


def solve_phi0(model: ModelSpec) -> float:
    """Survival probability at zero surplus, via growing-root elimination."""
    return float(_eliminate(model)[3].weights[0])


def survival_classical(model: ModelSpec) -> ClassicalSolution:
    """Closed-form phi(u) for the dependent compound Poisson model.

    Raises:
        InputError: If the arrival law is not exponential.
        ConditioningError: If the loading rounds to zero at unit rates, or
            a coefficient, root or residue leaves the float range.
        StructuralError: If root elimination or inversion fails one of the
            internal consistency gates.
    """
    c, alpha, roots, elim = _eliminate(model)
    roots = roots.scaled(alpha)
    phi = elim.survival(RESIDUE_DROP_REL, _CONSTANT_TOL, alpha, c - 1.0)
    return ClassicalSolution(model, float(elim.weights[0]), phi, roots,
                             elim.candidates(1.0))
