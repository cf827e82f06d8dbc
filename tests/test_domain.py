"""The closed-form solvers over the whole valid parameter domain.

Two Hypothesis properties draw models from the domain the solvers claim
(positive loading down to 1e-6, any |theta| <= 1, rates spanning a factor
of 25; then loading up to 1e3, rates spanning a factor of 400 and |theta|
down to 1e-9) and require every solver to return a well-shaped answer.
Independent 60-digit mpmath computations pin the classical boundary value
phi(0) at small loadings, where the transform has a decaying root within
1e-6 of the zero root, and the Erlang boundary value delta(0) at large
loadings, where four growing roots crowd near the kernel root 2 beta / c.
"""

import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from mp_reference import reference_delta0

from fgmruin import (
    ConditioningError,
    Erlang2,
    ExpClaim,
    ExpPoisson,
    FgmParam,
    GrowthElimination,
    ModelSpec,
    chi_characteristic,
    classical_lt,
    erlang_lt,
    solve_chi,
    survival_classical,
    survival_erlang2,
)
from fgmruin.model import unit_rates
from fgmruin.polyexp import partial_fractions, poly_roots

# Roundoff slack for probability bounds, monotonicity and chi(b, b) = 1.
SHAPE_TOL = 1e-9
# |phi(0+) - phi(0)| of a returned solution.
ORIGIN_TOL = 1e-8
# Relative accuracy demanded of phi(0) against the 60-digit reference.
PHI0_REL_TOL = 1e-8
# Relative accuracy demanded of the Erlang delta(0) against its reference.
DELTA0_REL_TOL = 1e-6
# |delta(0+) - delta(0)| on the wide domain.  Where four growing Erlang
# roots crowd within 1e-3 of each other (|theta| near 1e-9 at loadings
# above 100), the delta(0) weight of the elimination loses digits: it is
# 3.4e-8 off the 60-digit reference at theta = 2e-9 while delta(0+) is
# within 1.4e-13, and up to 1.9e-7 off delta(0+) on a 4000-model sweep.
WIDE_DELTA0_ORIGIN_TOL = 1e-6
# |public residue - solver term coefficient| relative to the largest
# residue: the two paths round the same sums in a different order.  On
# 6000 random models per solver the worst was 1.0e-15.
TRANSFORM_PATH_TOL = 1e-14
# |candidate - phi(0)| / max(1, phi(0)) for every growing root's candidate:
# the elimination's 1e-8 residual gate plus its 1e-7 realness gate.
CANDIDATE_TOL = 1.1e-7

LOG_RATE = (math.log(0.2), math.log(5.0))
WIDE_LOG_RATE = (math.log(0.05), math.log(20.0))


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


@st.composite
def _wide_models(draw):
    loading = 10.0 ** draw(st.floats(-6.0, 3.0))
    alpha = math.exp(draw(st.floats(*WIDE_LOG_RATE)))
    lam = math.exp(draw(st.floats(*WIDE_LOG_RATE)))
    small = st.builds(
        lambda sign, e: sign * 10.0**e, st.sampled_from((-1.0, 1.0)), st.floats(-9.0, 0.0)
    )
    theta = draw(st.one_of(st.floats(-1.0, 1.0), small))
    return _params(loading, alpha, lam, theta)


@given(params=_wide_models())
@example(params=_params(999.0, 0.1, 0.1, 2e-9))
@example(params=(1001.0, 1.0, 1.0, -1e-6))
@settings(max_examples=300, deadline=None)
def test_every_solver_solves_the_wide_domain(params):
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
        assert abs(sol(0.0) - sol.delta0) <= WIDE_DELTA0_ORIGIN_TOL
    # (1001, 1, 1, -1e-6) has a characteristic root next to -2 alpha.
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
    assert roots.poles[roots.zero].tolist() == [0.0]
    with mpmath.workdps(60):
        want = min(
            (r for r in _reference_roots(*params) if mpmath.re(r) < 0),
            key=lambda r: abs(r),
        )
        want = complex(want)
    decaying = roots.poles[~(roots.zero | roots.growing)]
    (small,) = [v for v in decaying.tolist() if abs(v) < 1e-3]
    assert small.real == pytest.approx(-8.89e-7, rel=1e-3)
    assert abs(small - want) <= PHI0_REL_TOL * abs(want)


@pytest.mark.parametrize(
    "c,alpha,beta,theta",
    [
        (1.5, 1.0, 2.0, -1.0),
        (1.5, 1.0, 2.0, 0.5),
        (200.0, 0.08, 0.12, -3e-4),
        # Loading 999, 265.7 and 539: these raised as repeated poles under
        # a fixed 2e-5 multiplicity radius.
        (1000.0, 0.1, 0.2, 2e-9),
        (1000.0, 0.1, 0.2, -1e-6),
        (1000.0, 0.1, 0.2, 1e-6),
        (1000.0, 0.1, 0.2, 1e-4),
        (1000.0, 0.1, 0.2, -1e-3),
        (200.0, 0.08, 0.12, 7e-8),
        (900.0, 0.06, 0.2, -8e-4),
    ],
)
def test_delta0_matches_high_precision_reference(c, alpha, beta, theta):
    want = reference_delta0(c, alpha, beta, theta)
    model = ModelSpec(c, ExpClaim(alpha), Erlang2(beta), FgmParam(theta))
    got = survival_erlang2(model, elimination=GrowthElimination.INDIVIDUAL).delta0
    assert abs(got - want) <= DELTA0_REL_TOL * abs(want), (got, want)


@pytest.mark.parametrize("alpha,rate,c", [(1e160, 1.0, 1.0)])
def test_overflowing_rates_raise_conditioning_error(alpha, rate, c):
    """A loading whose powers overflow the assembly raises a typed error.

    The rate is lambda for the classical and chi solvers and beta for the
    Erlang solver; at unit rates the premium is c' = 1e160, whose square
    overflows.  The chi characteristic quartic carries the overflow to
    poly_roots as well.
    """
    claim, copula = ExpClaim(alpha), FgmParam(0.5)
    poisson = ModelSpec(c, claim, ExpPoisson(rate), copula)
    erlang = ModelSpec(c, claim, Erlang2(rate), copula)
    for solve in (lambda: survival_classical(poisson),
                  lambda: survival_erlang2(erlang),
                  lambda: solve_chi(poisson, 1.0),
                  lambda: poly_roots(chi_characteristic(poisson))):
        with pytest.raises(ConditioningError, match="not finite"):
            solve()


@pytest.mark.parametrize("theta", [0.0, 0.5])
@pytest.mark.parametrize("c,alpha,rate", [
    (1e201, 1e-200, 1.0), (2e200, 1.0, 1e200),
    (2.740722066331817e-123, 7.2295534740352e+147, 1.690252308629954e+23),
])
def test_rescaled_rates_solve_like_unit_rates(c, alpha, rate, theta):
    """Models that only change the units of a moderate model solve like it.

    The rate is lambda for the classical and chi solvers and beta for the
    Erlang solver.  In model units these transforms overflowed, had a
    companion row -q[1:] / q[0] that overflowed or, for Erlang, a leading
    coefficient of order c**5 that underflowed to 0.0.  At unit rates they
    are premiums c' of 10, 2 and about 117, and each solution is the
    unit-rate one at alpha u, with no numpy warning.
    """
    claim, copula = ExpClaim(alpha), FgmParam(theta)
    poisson = ModelSpec(c, claim, ExpPoisson(rate), copula)
    erlang = ModelSpec(c, claim, Erlang2(rate), copula)
    c_unit, _ = unit_rates(poisson, ExpPoisson)
    unit = ModelSpec(c_unit, ExpClaim(1.0), ExpPoisson(1.0), copula)
    unit_erlang = ModelSpec(c_unit, ExpClaim(1.0), Erlang2(1.0), copula)
    u = np.linspace(0.0, 9.0, 10)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        pairs = [(survival_classical(poisson), survival_classical(unit)),
                 (solve_chi(poisson, 10.0 / alpha), solve_chi(unit, 10.0))]
        for elimination in GrowthElimination:
            pairs.append((survival_erlang2(erlang, elimination=elimination),
                          survival_erlang2(unit_erlang, elimination=elimination)))
    for got, want in pairs:
        np.testing.assert_allclose(got(u / alpha), want(u), rtol=1e-14, atol=0.0)


def test_vanished_leading_coefficient_raises_conditioning_error():
    """The model-unit Erlang denominator of c = 2.7e-123 is refused.

    In model units the leading coefficient is of order c**5, 0.0 in floats,
    and ``erlang_lt``'s rescaled coefficients leave the float range; root
    finding on them raises a conditioning failure, not the usage error for
    a zero leading coefficient.  The solver never forms them: at unit rates
    (c' about 117) it solves, as ``test_rescaled_rates_solve_like_unit_rates``
    checks against the unit-rate model.
    """
    model = ModelSpec(2.740722066331817e-123, ExpClaim(7.2295534740352e+147),
                      Erlang2(1.690252308629954e+23), FgmParam(0.5))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        den = erlang_lt(model).den
        with pytest.raises(ConditioningError, match="not finite"):
            poly_roots(den)
        for elimination in GrowthElimination:
            assert 0.0 < survival_erlang2(model, elimination=elimination).delta0 < 1.0


def test_overflowing_companion_row_raises_conditioning_error():
    """The model-unit classical denominator of c = 2.7e-123 is refused.

    In model units its companion row -q[1:] / q[0] overflowed; ``classical_lt``'s
    rescaled coefficients now leave the float range themselves, and root
    finding on them raises a conditioning failure.  The classical and chi
    solvers never form them: at unit rates (c' about 117) both solve.
    """
    model = ModelSpec(2.740722066331817e-123, ExpClaim(7.2295534740352e+147),
                      ExpPoisson(1.690252308629954e+23), FgmParam(0.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for den in (classical_lt(model).den, chi_characteristic(model)):
            with pytest.raises(ConditioningError, match="not finite"):
                poly_roots(den)
        assert 0.0 < survival_classical(model).phi0 < 1.0
        assert 0.0 < solve_chi(model, 10.0 / model.claim.alpha)(0.0) < 1.0


def test_erlang_basis_overflow_raises_conditioning_error():
    """A loading of 2e160 on the small-theta branch raises a typed error.

    At alpha = 1e160 with beta = c = 1 the unit-rate premium is c' = 1e160,
    whose square overflows the coefficients, which poly_roots refuses; the
    solver raises without a numpy warning.
    """
    model = ModelSpec(1.0, ExpClaim(1e160), Erlang2(1.0), FgmParam(0.0))
    for elimination in GrowthElimination:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConditioningError, match="not finite"):
                survival_erlang2(model, elimination=elimination)


def _random_models(n, seed):
    """Poisson and Erlang models with rates log-uniform on [0.2, 5],
    loading 10**U[-2, 2] and theta uniform on [-1, 1]."""
    rng = np.random.default_rng(seed)
    alpha, lam, beta = np.exp(rng.uniform(*LOG_RATE, (3, n)))
    loading = 10.0 ** rng.uniform(-2.0, 2.0, n)
    theta = rng.uniform(-1.0, 1.0, n)
    for a, la, be, ld, th in zip(alpha, lam, beta, loading, theta):
        poisson = ModelSpec((1.0 + ld) * la / a, ExpClaim(a), ExpPoisson(la),
                            FgmParam(th))
        erlang = ModelSpec((1.0 + ld) * 0.5 * be / a, ExpClaim(a), Erlang2(be),
                           FgmParam(th))
        yield poisson, erlang


def _assert_transform_matches_terms(lt, param, terms):
    """The public transform's residues at the decaying poles are the terms."""
    f = lt.with_param(param)
    roots = poly_roots(f.den)
    residues = dict(partial_fractions(f, roots))
    scale = max(abs(r) for r in residues.values())
    upper = [p for p in roots.poles[~(roots.zero | roots.growing)].tolist()
             if p.imag >= 0.0]
    matched = set()
    for coef, rate in terms:
        pole = min(upper, key=lambda p: abs(p - rate))
        matched.add(pole)
        assert abs(residues[pole] - coef) <= TRANSFORM_PATH_TOL * scale
    for pole in set(upper) - matched:
        # The solver drops residues at most 1e-8 of its largest one.
        assert abs(residues[pole]) <= 2e-8 * scale


def test_public_transforms_match_solver_terms():
    """classical_lt and erlang_lt invert to the solvers' decaying terms.

    erlang_lt encodes the POOLED numerator, so it is checked against the
    POOLED solution.
    """
    for poisson, erlang in _random_models(400, 18):
        sol = survival_classical(poisson)
        _assert_transform_matches_terms(classical_lt(poisson), sol.phi0,
                                        sol.phi.terms)
        sol = survival_erlang2(erlang, elimination=GrowthElimination.POOLED)
        _assert_transform_matches_terms(erlang_lt(erlang), sol.delta0,
                                        sol.delta.terms)
