"""The closed forms and the Monte Carlo survival estimate are free of units.

Measuring money in mean claims 1/alpha and time in 1/lam (or 1/beta) leaves
each closed form with two parameters, the loading and theta, and the solvers
work in those units.  A change of units must therefore change no outcome:
the same values, up to the rounding of c' = c alpha / lam and of alpha u, or
the same typed refusal.  And on a coarse (loading, theta) grid, with a level
axis b' = alpha b for chi, every refusal left belongs to the MINUS sign
variant, which simulation rejects, and none to the units.  At unit rates
the zero root of each cleared denominator is exact.  The simulated
estimates obey the same rule, and on a loading axis up to the largest
float they either solve or refuse by name.
"""

import warnings

import numpy as np
import pytest

from fgmruin import (
    ConditioningError,
    Erlang2,
    ExpClaim,
    ExpPoisson,
    FgmParam,
    GrowthElimination,
    ModelSpec,
    RuinModelError,
    SignVariant,
    estimate_reach_prob,
    estimate_survival,
    solve_chi,
    survival_classical,
    survival_erlang2,
)
from fgmruin.classical import _cleared_parts as classical_parts
from fgmruin.erlang import _cleared_parts as erlang_parts

# Largest difference, in units in the last place of the value, between a
# model with every rate times 10**k and the same model at k = 0.  Measured
# at most 27 ulps (the MINUS variant's exact elimination) over k in
# [-300, 300]; classical and chi at most 3.
SCALE_ULPS = 64

U = np.linspace(0.0, 10.0, 11)


def _outcome(solve, u):
    """("ok", values at u) or ("error", type name, message)."""
    try:
        return ("ok", np.asarray(solve()(u)))
    except RuinModelError as exc:
        return ("error", type(exc).__name__, str(exc))


def _outcomes(k):
    """Every solver mode on one loading-1 model with each rate times 10**k."""
    s = 10.0**k
    claim, copula = ExpClaim(s), FgmParam(0.5)
    poisson = ModelSpec(2.0, claim, ExpPoisson(s), copula)
    erlang = ModelSpec(2.0, claim, Erlang2(2.0 * s), copula)
    out = {
        "classical": _outcome(lambda: survival_classical(poisson), U / s),
        "chi": _outcome(lambda: solve_chi(poisson, 10.0 / s), U / s),
    }
    for v in SignVariant:
        for e in GrowthElimination:
            out[v.value, e.value] = _outcome(
                lambda v=v, e=e: survival_erlang2(erlang, v, e), U / s)
    return out


def test_rescaled_rates_give_the_unit_rate_outcome():
    """Rates times 10**k, k in [-300, 300] in steps of 10: the k = 0 outcome."""
    want = _outcomes(0)
    # Both outcomes occur at k = 0: the MINUS variant fails the pooled gates.
    assert want["minus", "pooled"][0] == "error" and want["classical"][0] == "ok"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for k in range(-300, 301, 10):
            for name, got in _outcomes(k).items():
                if want[name][0] == "error":
                    assert got == want[name], (k, name)
                    continue
                assert got[0] == "ok", (k, name, got)
                ulps = np.abs(got[1] - want[name][1]) / np.spacing(want[name][1])
                assert ulps.max() <= SCALE_ULPS, (k, name, ulps.max())


LOADINGS = 10.0 ** np.arange(-6.0, 4.0)
THETAS = (-1.0, -0.5, -1e-6, 0.0, 5e-10, 1e-4, 0.5, 1.0)
LEVELS = (0.1, 10.0, 1000.0)

# The MINUS variant's refusals: more growing roots than boundary unknowns,
# or a survival value that the pooled or exact elimination cannot place.
MINUS_REFUSALS = ("6 elimination equations for 5 unknown weights",
                  "survival at zero fell outside (0, 1)", "zero-pole residue")


@pytest.mark.parametrize("loading", LOADINGS, ids=[f"{x:.0e}" for x in LOADINGS])
def test_unit_rate_grid_refuses_only_the_minus_variant(loading):
    """classical, chi at every level and PLUS solve the whole grid."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for theta in THETAS:
            copula = FgmParam(theta)
            poisson = ModelSpec(1.0 + loading, ExpClaim(1.0), ExpPoisson(1.0), copula)
            erlang = ModelSpec((1.0 + loading) / 2.0, ExpClaim(1.0), Erlang2(1.0), copula)
            phi = survival_classical(poisson)
            assert 0.0 < phi.phi0 < 1.0
            for b in LEVELS:
                assert abs(solve_chi(poisson, b)(b) - 1.0) <= 1e-9
            for e in GrowthElimination:
                assert 0.0 < survival_erlang2(erlang, SignVariant.PLUS, e).delta0 < 1.0
                try:
                    survival_erlang2(erlang, SignVariant.MINUS, e)
                except RuinModelError as exc:
                    assert str(exc).startswith(MINUS_REFUSALS), (theta, e, exc)


@pytest.mark.parametrize("c", [0.5 + 2.0**-53, 1.0 + 2.0**-52, 1.5, 1e3, 1e150, 1e300])
def test_unit_rate_denominators_vanish_exactly_at_zero(c):
    """D(0) is formed from integers alone (4 - 4, 16 - 16, 1 - 1): exactly 0."""
    assert classical_parts(c, 0.5)[0][0] == 0.0
    for theta in (0.0, 0.5):
        for variant in SignVariant:
            assert erlang_parts(c, theta, variant)[0][0] == 0.0


# Largest relative difference of a simulated value or stderr between a model
# with every rate times 10**k and the same model at k = 0.  Measured at most
# 3.6e-15 over every k in [-300, 300] (n = 2000, both laws, theta -1 and
# 0.5).  Reach walks the tilted unit-rate law; its value and stderr move
# with the last bit of c', by at most 8.5e-16 relative (n = 4000, k in
# steps of 25).
MC_SCALE_REL = 1e-14


def _mc_estimates(erlang, theta, k):
    """(value, stderr) rows of survival at u = 0 and 5 and of reach of b = 5
    from 0, with every rate times 10**k."""
    s = 10.0**k
    model = ModelSpec(1.5, ExpClaim(s), Erlang2(2.0 * s) if erlang else ExpPoisson(s),
                      FgmParam(theta))
    survival = estimate_survival(model, np.array([0.0, 5.0]) / s, n=4000, seed=1)
    reach = estimate_reach_prob(model, 0.0, 5.0 / s, n=4000, seed=1)
    return np.array([(e.value, e.stderr) for e in survival + [reach]])


@pytest.mark.parametrize("erlang", [False, True], ids=["poisson", "erlang"])
@pytest.mark.parametrize("theta", [-1.0, 0.5])
def test_rescaled_rates_give_the_unit_rate_estimate(erlang, theta):
    """Rates times 10**k, k in [-300, 300] in steps of 25: the k = 0 estimates."""
    want = _mc_estimates(erlang, theta, 0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for k in range(-300, 301, 25):
            rel = np.abs(_mc_estimates(erlang, theta, k) - want) / want
            assert rel.max() <= MC_SCALE_REL, (k, rel)


# Decades of the relative loading from 1e-2 to 1e308 (every other one) at
# unit rates.  Measured at n = 2000: survival solves up to 1e74 in every
# cell and is refused by name above 1e75; reach solves everywhere.
MC_LOADING_DECADES = range(-2, 309, 2)


@pytest.mark.parametrize("erlang", [False, True], ids=["poisson", "erlang"])
@pytest.mark.parametrize("theta", [-1.0, 0.0, 0.5, 1.0])
def test_loading_axis_solves_or_refuses_by_name(erlang, theta):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for e in MC_LOADING_DECADES:
            loading = 10.0**e
            model = ModelSpec((1.0 + loading) / 2.0 if erlang else 1.0 + loading,
                              ExpClaim(1.0), Erlang2(1.0) if erlang else ExpPoisson(1.0),
                              FgmParam(theta))
            reach = estimate_reach_prob(model, 0.0, 1.0, n=2000, seed=1)
            assert 0.0 <= reach.value <= 1.0
            try:
                got = estimate_survival(model, [0.0, 1.0], n=2000, seed=1)
            except ConditioningError as exc:
                assert loading > 1e75 and "relative loading" in str(exc), (e, exc)
                continue
            assert loading <= 1e75, e
            assert all(0.0 <= est.value <= 1.0 and 0.0 < est.stderr < np.inf
                       for est in got), (e, got)
