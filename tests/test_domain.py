"""The closed-form solvers over the whole valid parameter domain.

A Hypothesis property draws models from the domain the solvers claim
(positive loading down to 1e-6, any |theta| <= 1, rates spanning a factor
of 25) and requires every solver to return a well-shaped answer.  An
independent 60-digit mpmath computation pins the classical boundary value
phi(0) at small loadings, where the transform has a decaying root within
1e-6 of the zero root.
"""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from fgmruin import (
    Erlang2,
    ExpClaim,
    ExpPoisson,
    FgmParam,
    GrowthElimination,
    ModelSpec,
    classical_lt,
    solve_chi,
    survival_classical,
    survival_erlang2,
)
from fgmruin.polyexp import RootClass, poly_roots

# Roundoff slack for probability bounds, monotonicity and chi(b, b) = 1.
SHAPE_TOL = 1e-9
# |phi(0+) - phi(0)| of a returned solution.
ORIGIN_TOL = 1e-8
# Relative accuracy demanded of phi(0) against the 60-digit reference.
PHI0_REL_TOL = 1e-8
# |candidate - phi(0)| / max(1, phi(0)) for every growing root's candidate:
# the elimination's 1e-8 residual gate plus its 1e-7 realness gate.
CANDIDATE_TOL = 1.1e-7

LOG_RATE = (math.log(0.2), math.log(5.0))


def _spec(c, alpha, lam, theta, erlang=False):
    arrival = Erlang2(2.0 * lam) if erlang else ExpPoisson(lam)
    return ModelSpec(c, ExpClaim(alpha), arrival, FgmParam(theta))


def _params(loading, alpha, lam, theta):
    return (1.0 + loading) * lam / alpha, alpha, lam, theta


def _check_shape(values):
    values = np.asarray(values)
    assert np.all(np.isfinite(values))
    assert values.min() >= -SHAPE_TOL
    assert values.max() <= 1.0 + SHAPE_TOL
    assert np.diff(values).min() >= -SHAPE_TOL


@st.composite
def _models(draw):
    loading = 10.0 ** draw(st.floats(-6.0, 1.0))
    theta = draw(st.floats(-1.0, 1.0))
    alpha = math.exp(draw(st.floats(*LOG_RATE)))
    lam = math.exp(draw(st.floats(*LOG_RATE)))
    return _params(loading, alpha, lam, theta)


@given(params=_models())
@example(params=(1.000001, 1.0, 1.0, -0.5))
@settings(max_examples=300, deadline=None)
def test_every_solver_solves_the_valid_domain(params):
    alpha = params[1]
    grid = np.linspace(0.0, 20.0 / alpha, 21)
    poisson = _spec(*params)
    sol = survival_classical(poisson)
    _check_shape(sol(grid))
    assert abs(sol(0.0) - sol.phi0) <= ORIGIN_TOL
    spread = np.abs(np.array(sol.phi0_candidates) - sol.phi0)
    assert np.all(spread <= CANDIDATE_TOL * max(1.0, sol.phi0))
    for elimination in GrowthElimination:
        sol = survival_erlang2(_spec(*params, erlang=True), elimination=elimination)
        _check_shape(sol(grid))
        assert abs(sol(0.0) - sol.delta0) <= ORIGIN_TOL
    b = 10.0 / alpha
    values = solve_chi(poisson, b)(np.linspace(0.0, b, 21))
    _check_shape(values)
    assert abs(values[-1] - 1.0) <= SHAPE_TOL


def _reference_roots(c, alpha, lam, theta):
    """Roots of D(s)/s for the classical quartic, at 60 digits."""
    c, a, lam, th = (mpmath.mpf(v) for v in (c, alpha, lam, theta))
    q = [a * 2 * a, 3 * a, 1]  # (alpha + s)(2 alpha + s), ascending
    base = [2 * lam**2, -3 * lam * c, c**2]
    den = [mpmath.mpf(0)] * 5
    for i, x in enumerate(base):
        for j, y in enumerate(q):
            den[i + j] += x * y
    den[0] -= 2 * lam**2 * a * 2 * a
    den[1] -= 2 * lam**2 * a - lam * c * a * 2 * a
    den[2] += lam * c * a + th * lam * c * a
    assert abs(den[0]) <= mpmath.mpf(10) ** -50 * max(abs(d) for d in den)
    return mpmath.polyroots(den[:0:-1], maxsteps=200, extraprec=200)


def _reference_phi0(c, alpha, lam, theta):
    """phi(0) = -num_const(g) / num_slope(g) at the growing root g."""
    with mpmath.workdps(60):
        (g,) = [r for r in _reference_roots(c, alpha, lam, theta) if mpmath.re(r) > 0]
        c, a, lam = mpmath.mpf(c), mpmath.mpf(alpha), mpmath.mpf(lam)
        num_const = (-2 * lam * c + 2 * lam**2 / a) * (a + g) * (2 * a + g)
        num_slope = c**2 * g * (a + g) * (2 * a + g)
        return -num_const / num_slope


@pytest.mark.parametrize("alpha,lam", [(1.0, 1.0), (0.2, 5.0), (5.0, 0.2)])
@pytest.mark.parametrize("loading", [1e-6, 1e-5, 1e-4, 1e-2, 1.0])
def test_phi0_matches_high_precision_reference(loading, alpha, lam):
    for theta in (-1.0, -0.5, 0.0, 0.5, 1.0):
        params = _params(loading, alpha, lam, theta)
        want = _reference_phi0(*params)
        got = survival_classical(_spec(*params)).phi0
        assert abs(got - want) <= PHI0_REL_TOL * abs(want), (theta, got, want)


def test_small_decaying_root_is_kept_apart_from_zero():
    # c = 1.000001, alpha = lam = 1, theta = -0.5: a decaying root sits at
    # about -8.89e-7, next to the zero root every cleared denominator has.
    params = (1.000001, 1.0, 1.0, -0.5)
    roots = poly_roots(classical_lt(_spec(*params)).den)
    assert roots.max_multiplicity == 1
    assert [r.value for r in roots.distinct(RootClass.ZERO)] == [0.0]
    with mpmath.workdps(60):
        want = min(
            (r for r in _reference_roots(*params) if mpmath.re(r) < 0),
            key=lambda r: abs(r),
        )
        want = complex(want)
    (small,) = [r.value for r in roots.distinct(RootClass.DECAYING) if abs(r.value) < 1e-3]
    assert small.real == pytest.approx(-8.89e-7, rel=1e-3)
    assert abs(small - want) <= PHI0_REL_TOL * abs(want)
