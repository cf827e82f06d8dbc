"""Survival probabilities for the dependent compound Poisson model.

The survival probability phi(u) of the surplus process with exponential
inter-claim times satisfies a second-order integro-differential equation
whose Laplace transform is rational once the claim transforms are cleared.
With f~ = alpha/(alpha+s) and h~ = alpha s/((alpha+s)(2 alpha+s)), the
cleared denominator is the quartic

    D(s) = (c^2 s^2 - 3 lam c s + 2 lam^2)(alpha+s)(2 alpha+s)
           - 2 lam^2 alpha (2 alpha+s) + lam c alpha s (2 alpha+s)
           + theta lam c alpha s^2

with D(0) = 0, and the numerator is affine in the unknown phi(0):

    N(s) = phi(0) c^2 s (alpha+s)(2 alpha+s)
           + (-2 lam c + 2 lam^2 m1)(alpha+s)(2 alpha+s).

phi(0) is pinned by boundedness: the transform must be analytic in the
right half-plane, so the numerator has to vanish at every root of D with
positive real part.  Partial fractions over the remaining poles then give
phi(u) in closed form as a constant plus decaying exponentials; the
constant equals N(0)/D'(0) = 1 identically, which is checked rather than
assumed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError, StructuralError
from .model import ExpPoisson, ModelSpec
from .polyexp import (
    RESIDUE_DROP_REL,
    ExpSum,
    ParametricRational,
    Polynomial,
    RootSet,
    coeff_rows,
    eliminate_growing,
    partial_fractions,  # noqa: F401  (bench/tracer.py wraps this module's binding)
    poly_roots,
    shifted_zero_constant,
)

__all__ = ["ClassicalSolution", "classical_lt", "solve_phi0", "survival_classical"]

# The zero-pole residue equals 1 analytically; the assembled value must
# agree to this tolerance.
_CONSTANT_TOL = 1e-8


def _cleared_parts(model: ModelSpec):
    """Ascending arrays (den, num_const, num_slope); D's constant is snapped to 0."""
    if not isinstance(model.arrival, ExpPoisson):
        raise InputError("classical solver needs exponential inter-claim times")
    a = model.claim.alpha
    lam = model.arrival.lam
    c = model.c
    th = model.theta
    lin_2a = np.array([2.0 * a, 1.0])
    q = np.convolve([a, 1.0], lin_2a)
    den = np.convolve([2.0 * lam**2, -3.0 * lam * c, c**2], q)
    den[:2] -= lin_2a * (2.0 * lam**2 * a)
    den[1:3] += lin_2a * (lam * c * a)  # times s: one place up
    den[2] += th * lam * c * a
    num_const = q * (-2.0 * lam * c + 2.0 * lam**2 * model.m1)
    num_slope = np.append(0.0, q) * c**2  # times s
    return shifted_zero_constant(den), num_const, num_slope


def classical_lt(model: ModelSpec) -> ParametricRational:
    """Cleared Laplace transform of phi, its numerator affine in phi(0)."""
    den, num_const, num_slope = map(Polynomial, _cleared_parts(model))
    return ParametricRational(num_const, num_slope, den)


@dataclass(frozen=True)
class ClassicalSolution:
    """Closed-form survival probability for the compound Poisson model.

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
        return self.phi(u)


def _eliminate(model: ModelSpec):
    """Roots, growing-root elimination and per-root phi(0) candidates.

    The numerator weight of num_const is fixed at 1 and the weight of
    num_slope, phi(0), is the unknown; each growing root g alone demands
    -num_const(g)/num_slope(g), and the elimination's residual gate, which
    measures each row's distance from its candidate, makes them agree.
    """
    den, num_const, num_slope = _cleared_parts(model)
    roots = poly_roots(den)
    elim = eliminate_growing(den, roots, coeff_rows(num_slope, num_const), (None, 1.0))
    phi0 = float(elim.weights[0])
    slope, const = elim.growing_values
    return roots, elim, phi0, tuple(complex(c) for c in -const / slope)


def solve_phi0(model: ModelSpec) -> float:
    """Survival probability at zero surplus, via growing-root elimination."""
    return _eliminate(model)[2]


def survival_classical(model: ModelSpec) -> ClassicalSolution:
    """Closed-form phi(u) for the dependent compound Poisson model.

    Raises:
        InputError: If the arrival law is not exponential.
        StructuralError: If root elimination or inversion fails one of the
            internal consistency gates.
    """
    roots, elim, phi0, cands = _eliminate(model)
    if not (0.0 < phi0 < 1.0):
        raise StructuralError(f"survival at zero fell outside (0, 1): {phi0!r}")
    phi = elim.survival(RESIDUE_DROP_REL, _CONSTANT_TOL)
    return ClassicalSolution(model, phi0, phi, roots, cands)
