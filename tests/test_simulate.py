"""Tests for the Monte Carlo path engine and estimators."""

import dataclasses
import math
import re
import time
import warnings

import mpmath
import numpy as np
import pytest
import strata_ratios
from mp_reference import reference_psi

from fgmruin import simulate
from fgmruin.classical import survival_classical
from fgmruin.erlang import solve_delta0, survival_erlang2
from fgmruin.errors import ConditioningError, InputError
from fgmruin.max_surplus import chi
from fgmruin.model import (Erlang2, ExpClaim, ExpPoisson, FgmParam, ModelSpec, PairTilt, _Pairs,
                           sample_pairs, unit_rates)
from fgmruin.simulate import (
    _ROUND_STEPS,
    SimEstimate,
    _Martingale,
    _Workspace,
    _cgf,
    _claims_per_round,
    _lundberg_root,
    _mixture,
    _run_reach,
    _run_survival,
    _tilt,
    estimate_reach_prob,
    estimate_survival,
)


def _poisson_model(theta, c=1.5, alpha=1.0, lam=1.0):
    return ModelSpec(c, ExpClaim(alpha), ExpPoisson(lam), FgmParam(theta))


def _erlang_model(theta, c=1.5, alpha=1.0, beta=2.0):
    return ModelSpec(c, ExpClaim(alpha), Erlang2(beta), FgmParam(theta))


EPS = float(np.finfo(float).eps)


def _independent_psi(model, u):
    """psi(u) = (1 - R) e^{-R alpha u} at theta = 0, in 40 digits.

    R solves the unit-rate Lundberg equation: r = 1 - 1/c' (Poisson) or
    c'^2 r^2 - (c'^2 - 2 c') r - (2 c' - 1) = 0 (Erlang(2)).
    """
    with mpmath.workdps(40):
        cp = mpmath.mpf(unit_rates(model, type(model.arrival))[0])
        if isinstance(model.arrival, Erlang2):
            a, b = cp * cp, -(cp * cp - 2 * cp)
            R = (-b + mpmath.sqrt(b * b + 4 * a * (2 * cp - 1))) / (2 * a)
        else:
            R = 1 - 1 / cp
        return float((1 - R) * mpmath.exp(-R * model.claim.alpha * u))


def _classical_psi(model, u):
    """psi(u) as minus the decaying terms of the classical closed form, not 1 - phi(u)."""
    return -sum(coef * math.exp(rate * u) if isinstance(rate, float)
                else 2.0 * (coef * np.exp(rate * u)).real
                for coef, rate in survival_classical(model).phi.terms)


def _reference_psi(model, u):
    """psi(u): exact at theta = 0, else the classical closed form's terms
    (Poisson times) or the 60-digit reference (Erlang(2) times)."""
    if model.theta == 0.0:
        return _independent_psi(model, u)
    if isinstance(model.arrival, Erlang2):
        return reference_psi(model.c, model.claim.alpha, model.arrival.beta, model.theta, u)
    return _classical_psi(model, u)


def _binomial_gate(estimate, truth, n):
    se = max(estimate.stderr, np.sqrt(truth * (1.0 - truth) / n))
    assert abs(estimate.value - truth) <= 3.0 * se, (
        f"estimate {estimate.value:.5f} vs {truth:.5f}, 3se = {3 * se:.5f}"
    )


class TestEstimateReach:
    @pytest.mark.parametrize(
        "theta,u,b",
        [(0.5, 0.0, 10.0), (-0.5, 1.0, 10.0), (1.0, 5.0, 20.0)],
    )
    def test_matches_boundary_solver(self, theta, u, b):
        m = _poisson_model(theta)
        n = 200_000
        est = estimate_reach_prob(m, u, b, n=n, seed=7)
        _binomial_gate(est, chi(m, u, b), n)

    @pytest.mark.parametrize("loading", [0.05, 0.5, 2.0, 10.0, 100.0])
    def test_grid_matches_boundary_solver(self, loading):
        # Poisson times, theta in {-1, 0, 0.5, 1} and (u, b) in {(0, 20),
        # (18, 20), (0, 100)}, n = 5e4 at seed 1: 60 cells in about 1.1 s.
        # Worst |z| 2.12 (the exact theta = 0 cell at loading 0.05, b = 100,
        # against solve_chi's own rounding); 2.25 - 2.45 at seeds 2 - 5.  At
        # theta = 0 the estimate is exact and its stderr the rounding floor.
        for theta in (-1.0, 0.0, 0.5, 1.0):
            m = _poisson_model(theta, c=1.0 + loading)
            for u, b in ((0.0, 20.0), (18.0, 20.0), (0.0, 100.0)):
                est = estimate_reach_prob(m, u, b, n=50_000, seed=1)
                z = (est.value - float(chi(m, u, b))) / est.stderr
                assert abs(z) <= 4.0, (theta, u, b, est, z)
                if theta == 0.0:
                    assert est.stderr <= 4.0 * np.finfo(float).eps, (u, b, est)

    @pytest.mark.parametrize("model,u,b,value,stderr", [
        (_poisson_model(-1.0), 0.0, 20.0, 0.2992375492047455, 1.7282125034873048e-05),
        (_poisson_model(0.5), 0.0, 20.0, 0.35499953153092756, 1.2054227756978931e-05),
        (_erlang_model(0.5, c=1.0, beta=1.0), 1.0, 5.0, 0.8477173301642658,
         2.442663387727235e-05),
    ])
    def test_pinned_bits(self, model, u, b, value, stderr):
        # The exact bits of three reach requests, kept through changes of
        # where the rounds draw their pairs.  The stderrs are the sample
        # form, n - 1 in the variance, post-stratified on the first claim.
        est = estimate_reach_prob(model, u, b, n=200_000, seed=7)
        assert (est.value, est.stderr) == (value, stderr)

    @pytest.mark.parametrize("model,u,b,n,split", [
        (_poisson_model(0.5), 0.0, 20.0, 2000, False),
        (_poisson_model(-1.0, c=2.0), 3.0, 10.0, 2, False),
        (_erlang_model(-1.0), 1.0, 5.0, 2000, True),
        (_poisson_model(0.5), 0.0, 20.0, 20_000, True),
    ])
    def test_stderr_is_the_sample_standard_error(self, model, u, b, n, split):
        # D's variance divides its centred squares by n - 1, as survival's
        # does, then by n for the mean's.  Split on the first claim, of
        # mass q, the rest's N variance is scaled by (1 - q).
        walk = _Martingale.of(model)
        start, stop = walk.alpha * u, walk.stopping(walk.alpha * b)
        q = walk.first_mass(start, stop)
        assert ((1.0 - q) * n >= simulate._MIN_REST) == split
        _, sq, first = _run_reach(walk, start, stop, n, 1, split)
        rest, q = n - int(first), q if split else 0.0
        unit = math.exp(-walk.R * start) * walk.gap / stop.exact
        est = estimate_reach_prob(model, u, b, n=n, seed=1)
        assert est.stderr == unit * ((1.0 - q) * math.sqrt(sq / (rest * max(rest - 1, 1))))

    def test_matches_preset_point_value(self):
        m = _poisson_model(0.5)
        n = 200_000
        est = estimate_reach_prob(m, 0.0, 20.0, n=n, seed=7)
        _binomial_gate(est, 0.3546, n)

    def test_independence_matches_survival_ratio(self):
        m = _poisson_model(0.0)
        phi = survival_classical(m)
        truth = float(phi(1.0) / phi(20.0))
        n = 200_000
        est = estimate_reach_prob(m, 1.0, 20.0, n=n, seed=7)
        _binomial_gate(est, truth, n)
        # At theta = 0 every path's correction D is 0, so the estimate is
        # exact: it reads solve_chi's value to the bit, and the stderr is
        # the rounding floor, 4.6e-16 (the sample stderr is 0).
        assert est.stderr < 1e-14
        assert abs(est.value - float(chi(m, 1.0, 20.0))) <= 4.0 * est.stderr

    def test_far_level_takes_the_ratio_of_the_masses(self):
        # From u = 800, e^{-s} underflows at every stopping step (and e^{-w*}
        # would with it below s = 883): D comes from the masses scaled by
        # e^{w* + R b}, never from 0 / 0.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            est = estimate_reach_prob(_poisson_model(0.5), 800.0, 2000.0, n=1000, seed=1)
        assert math.isfinite(est.value) and 0.0 <= est.value <= 1.0
        assert math.isfinite(est.stderr)

    def test_refused_root_gives_the_mean_of_the_conditioned_indicator(self):
        # Above loading 1e6 the walk is the model's own (R = 0) and each
        # path contributes the reach probability of its stopping step, here
        # 1 on every path: the estimate is their mean and the stderr its
        # rounding floor, 4 ulps of the value plus the mean.
        m = _poisson_model(0.5, c=1e80)
        assert _Martingale.of(m).R == 0.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            est = estimate_reach_prob(m, 0.0, 1.0, n=2000, seed=1)
            sums = _reach(m, 0.0, 1.0, 2000, 1)
        assert sums[1] == 0.0
        assert est.value == sums[0] / 2000
        assert 0.0 < est.stderr <= 2e-15

    @pytest.mark.parametrize("theta", [-1.0, 0.5, 1.0])
    def test_walk_past_the_tilt_bound_matches_boundary_solver(self, theta):
        # Loading 1e7 - 1 is past _REACH_TILT_MAX, so the walk is the
        # model's own, and a path's first step does not always stop it.
        # Measured |z| 0.44 - 0.88, with stderr 1.78e-15.
        m = _poisson_model(theta, c=1e7)
        assert _Martingale.of(m).R == 0.0
        est = estimate_reach_prob(m, 0.0, 1.0, n=20_000, seed=1)
        assert abs(est.value - float(chi(m, 0.0, 1.0))) <= 4.0 * est.stderr, est

    def test_tilt_stops_at_its_loading_bound(self):
        # Near theta = 1 the masses cancel past loading 1e6; the walk is
        # tilted up to there and the model's own above.
        for make, c in ((_poisson_model, 1.0), (_erlang_model, 0.5)):
            below = make(1.0, c=c * (1.0 + 1e6), **({"beta": 1.0} if make is _erlang_model else {}))
            above = make(1.0, c=c * (1.0 + 2e6), **({"beta": 1.0} if make is _erlang_model else {}))
            assert _Martingale.of(below).R > 0.0
            assert _Martingale.of(above).R == 0.0

    def test_start_at_level_is_certain(self):
        est = estimate_reach_prob(_poisson_model(0.3), 5.0, 5.0, n=1000, seed=0)
        assert est.value == 1.0
        assert est.stderr == 0.0
        assert est.n == 1000

    def test_start_at_level_still_validates_and_normalizes(self):
        m = _poisson_model(0.3)
        with pytest.raises(InputError):
            estimate_reach_prob(m, 5.0, 5.0, n=100, seed=np.int64(3), workers=0)
        est = estimate_reach_prob(m, 5.0, 5.0, n=100, seed=np.int64(3))
        assert est == SimEstimate(1.0, 0.0, 100, 3)
        assert type(est.seed) is int

    @pytest.mark.parametrize("theta,b", [(-1.0, 20.0), (0.5, 1.0)])
    def test_stderr_covers_spread_over_seeds(self, theta, b):
        # The spread of 40 estimates over their mean stderr measured 1.05
        # (theta = -1, b = 20) and 0.89 (theta = 0.5, b = 1), and 0.80 - 1.17
        # over five sets of 40 seeds each; the binomial stderr would put it
        # near 0.03 and 0.005.
        m = _poisson_model(theta)
        est = [estimate_reach_prob(m, 0.0, b, n=20_000, seed=s) for s in range(40)]
        spread = np.std([e.value for e in est], ddof=1)
        assert 0.7 <= spread / np.mean([e.stderr for e in est]) <= 1.4

    def test_erlang_matches_fluid_embedding(self):
        # chi = 0.847683 from the fluid embedding (ROADMAP item 26).  Seeds
        # 1 - 3 read z = -0.85, +1.28 and -0.52 with stderr 2.58e-5; the
        # plain hit fraction of the model's own walk at seed 1 read 0.84675
        # with binomial stderr 8.1e-4.
        m = ModelSpec(1.0, ExpClaim(1.0), Erlang2(1.0), FgmParam(0.5))
        est = estimate_reach_prob(m, 1.0, 5.0, n=200_000, seed=1)
        assert est.stderr < 1e-4
        assert abs(est.value - 0.847683) <= 4.0 * est.stderr

    def test_refused_where_the_unit_rate_premium_is_not_a_float(self):
        # c' = c alpha / lam overflows, or rounds to 1 (loading 0).
        for m, why in ((ModelSpec(1e300, ExpClaim(1e10), ExpPoisson(1.0), FgmParam(0.5)),
                        "c' = inf"),
                       (ModelSpec(8.13025555540308e-51, ExpClaim(2.7721999910025694e+32),
                                  ExpPoisson(2.253869437753701e-18), FgmParam(0.0)),
                        "loading 0.0")):
            with pytest.raises(ConditioningError, match=re.escape(why)):
                estimate_reach_prob(m, 0.0, 1.0, n=100, seed=0)

    def test_input_validation(self):
        m = _poisson_model(0.0)
        with pytest.raises(InputError):
            estimate_reach_prob(m, 0.0, 10.0, n=0, seed=0)
        with pytest.raises(InputError):
            estimate_reach_prob(m, -1.0, 10.0, n=100, seed=0)
        with pytest.raises(InputError):
            estimate_reach_prob(m, 5.0, 4.0, n=100, seed=0)
        with pytest.raises(InputError):
            estimate_reach_prob(m, 0.0, 10.0, n=100, seed=0, workers=0)

    @pytest.mark.parametrize("u,b", [([0.0, 1.0], 10.0), (0.0, [10.0]), (None, 10.0),
                                     (0.0, None), (np.array([0.0]), 10.0),
                                     (0.0, np.array([10.0])), ("x", 10.0), (0.0, "x")])
    def test_non_numbers_refused_by_type(self, u, b):
        with pytest.raises(InputError):
            estimate_reach_prob(_poisson_model(0.5), u, b, n=100, seed=0)


class TestEstimateSurvival:
    def test_independence_truth(self):
        m = _poisson_model(0.0)
        n = 100_000
        est = estimate_survival(m, 0.0, n=n, seed=5)
        _binomial_gate(est, 1.0 / 3.0, n)
        assert isinstance(est, SimEstimate)

    def test_erlang_matches_exact_boundary_value(self):
        m = _erlang_model(-1.0)
        truth, _ = solve_delta0(m)
        n = 200_000
        est = estimate_survival(m, 0.0, n=n, seed=7)
        _binomial_gate(est, truth, n)

    @pytest.mark.parametrize("make,theta,solve", [
        (_poisson_model, 0.5, survival_classical),
        (_erlang_model, -1.0, survival_erlang2),
    ])
    def test_matches_closed_form_up_to_large_surplus(self, make, theta, solve):
        # psi(40) is 1.7e-7 (Poisson) and 5.6e-7 (Erlang): counting ruined
        # paths would need over 1e10 of them for 1 % relative error; the
        # tilted paths give it from 2e4.
        m = make(theta)
        sol = solve(m)
        for u in (0.0, 5.0, 40.0):
            est = estimate_survival(m, u, n=20_000, seed=23)
            psi, psi_hat = 1.0 - float(sol(u)), 1.0 - est.value
            assert abs(psi_hat - psi) <= 4.0 * est.stderr, (u, psi_hat, psi, est.stderr)
        assert est.stderr <= 1e-2 * psi

    @pytest.mark.parametrize("make,theta,solve", [
        (_poisson_model, 0.5, survival_classical),
        (_erlang_model, -1.0, survival_erlang2),
    ])
    def test_curve_from_one_walk_matches_closed_form(self, make, theta, solve):
        m = make(theta)
        sol = solve(m)
        grid = [0.0, 5.0, 20.0, 40.0]
        estimates = estimate_survival(m, grid, n=20_000, seed=23)
        assert [e.n for e in estimates] == [20_000] * 4
        for u, est in zip(grid, estimates):
            psi, psi_hat = 1.0 - float(sol(u)), 1.0 - est.value
            assert abs(psi_hat - psi) <= 4.0 * est.stderr, (u, psi_hat, psi, est.stderr)

    def test_one_level_grid_is_the_scalar_estimate(self):
        m = _erlang_model(0.5)
        for u in (0.0, 7.5):
            assert estimate_survival(m, [u], n=5000, seed=4)[0] == estimate_survival(
                m, u, n=5000, seed=4)
        assert isinstance(estimate_survival(m, np.float64(1.0), n=100, seed=4), SimEstimate)

    def test_unsorted_grid_comes_back_in_input_order(self):
        m = _poisson_model(-0.5)
        ascending = estimate_survival(m, [0.0, 2.0, 2.0, 9.0], n=5000, seed=8)
        shuffled = estimate_survival(m, np.array([9.0, 2.0, 0.0, 2.0]), n=5000, seed=8)
        assert shuffled == [ascending[3], ascending[1], ascending[0], ascending[2]]
        values = [e.value for e in ascending]
        assert values[1] == values[2]
        assert values[0] < values[1] < values[3]

    def test_budget_refuses_grid_by_largest_level(self):
        m = _poisson_model(0.5, c=1.01)
        estimate_survival(m, 100.0, n=10, seed=0)
        start = time.perf_counter()
        with pytest.raises(ConditioningError, match="from u = 1000"):
            estimate_survival(m, [0.0, 1000.0, 100.0], n=100_000, seed=0)
        assert time.perf_counter() - start < 1.0

    def test_small_loading_at_zero_surplus(self):
        # At loading 0.01 a tilted path takes about a hundred claims, and the
        # pool's tail advances its few live paths many claims per round.
        m = _poisson_model(0.5, c=1.01)
        start = time.perf_counter()
        est = estimate_survival(m, 0.0, n=20_000, seed=29)
        assert time.perf_counter() - start < 5.0
        truth = float(survival_classical(m)(0.0))
        assert abs(est.value - truth) <= 4.0 * est.stderr

    @pytest.mark.parametrize("make,theta", [(_poisson_model, -1.0), (_erlang_model, 0.5)])
    def test_stderr_below_binomial(self, make, theta):
        # The conditioned weights E[e^{-R D} | the walk before the ruinous
        # step] lie in (0, 1], as e^{-R D} does, so their variance is at most
        # psi (1 - psi); conditioning only lowers it.
        for u in (0.0, 5.0):
            est = estimate_survival(make(theta), u, n=20_000, seed=3)
            psi = 1.0 - est.value
            assert 0.0 < est.stderr <= np.sqrt(psi * (1.0 - psi) / est.n)

    @pytest.mark.parametrize("make,c,alpha", [(_poisson_model, 1.5, 2.0),
                                              (_erlang_model, 1.5, 1.0)])
    def test_exact_at_independence(self, make, c, alpha):
        # At theta = 0 every ruinous step's claim part is one Exp(1 - R)
        # phase in claim units, so every conditioned weight is 1 - R,
        # exactly the tilt's centre, and psi(u) = (1 - R) e^{-R alpha u}
        # comes out exactly.  The sample stderr is 0, so the stderr is the
        # value's rounding floor, 4 ulps of 1.
        m = make(0.0, c=c, alpha=alpha)
        grid = [0.0, 2.5, 10.0]
        want = [1.0 - _independent_psi(m, u) for u in grid]
        floor = 4.0 * EPS * (1.0 + EPS)
        for u, phi, est in zip(grid, want, estimate_survival(m, grid, n=2000, seed=1)):
            assert abs(est.value - phi) <= 1e-12, (u, est)
            assert 0.0 < est.stderr <= floor, (u, est)

    @pytest.mark.parametrize("make", [_poisson_model, _erlang_model])
    def test_independence_skips_the_walk_with_its_bits(self, monkeypatch, make):
        # At theta = 0, a = 0 and every centred weight is 0, so the estimate
        # takes zero sums without walking.  The walk itself runs where a is
        # the smallest float: the weights' scale R a / 2 and every weight
        # still round to 0, and h(u) and the spread keep their bits.
        m = make(0.0)
        grid = [0.0, 2.5, 10.0]
        walked = []
        run, tilt_of = simulate._run_survival, simulate._tilt
        monkeypatch.setattr(simulate, "_run_survival",
                            lambda *args: walked.append(args) or run(*args))
        skipped = estimate_survival(m, grid, n=2000, seed=1)
        assert not walked

        def tiny(model, u):
            tilt = tilt_of(model, u)
            return dataclasses.replace(tilt, ruin=tilt.ruin._replace(a=5e-324))

        monkeypatch.setattr(simulate, "_tilt", tiny)
        assert tiny(m, 10.0).ruin.scale == 0.0
        assert estimate_survival(m, grid, n=2000, seed=1) == skipped
        assert len(walked) == 1

    def test_stderr_covers_the_rounding_of_the_value(self):
        # psi(100) is 1.6e-25 at loading 1, so the value rounds to 1, while
        # the sample stderr of psi is 2.9e-29: without the rounding floor
        # z read -5.6e3 (and -1.8e4 at n = 2e5).
        m = _poisson_model(0.5, c=2.0)
        est = estimate_survival(m, 100.0, n=20_000, seed=1)
        psi = _classical_psi(m, 100.0)
        assert est.value == 1.0 and psi == pytest.approx(1.649e-25, rel=1e-3)
        assert abs((1.0 - est.value) - psi) <= 4.0 * est.stderr, est

    def test_dependence_orders_survival(self):
        # Positive dependence couples long gaps with large claims, which
        # helps survival; the estimate must increase with theta.
        n = 500_000
        values = []
        for theta in (-1.0, -0.5, 0.0, 0.5, 1.0):
            est = estimate_survival(_poisson_model(theta), 0.0, n=n, seed=13)
            values.append(est.value)
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_input_validation(self):
        m = _poisson_model(0.0)
        with pytest.raises(InputError):
            estimate_survival(m, -1.0, n=100, seed=0)
        with pytest.raises(InputError):
            estimate_survival(m, 0.0, n=0, seed=0)
        with pytest.raises(InputError):
            estimate_survival(m, 0.0, n=100, seed=0, workers=0)
        for grid in ([0.0, -1.0], [0.0, np.inf], [np.nan], [], [[0.0, 1.0]], "x", None, [0.0, "x"]):
            with pytest.raises(InputError):
                estimate_survival(m, grid, n=100, seed=0)

    def test_overflowing_level_refused_by_name(self):
        # alpha u = 1e400 has no float: it is inf claims away from ruin.
        m = ModelSpec(1.5, ExpClaim(1e200), ExpPoisson(1e200), FgmParam(0.5))
        with pytest.raises(ConditioningError, match="u = 1e\\+200: a tilted path needs about inf"):
            estimate_survival(m, [0.0, 1e200], n=100, seed=0)
        assert estimate_survival(m, [0.0, 5e-200], n=100, seed=0)[1].value > 0.5

    @pytest.mark.parametrize("make", [_poisson_model, _erlang_model])
    def test_small_loading_raises_at_once(self, make):
        m = make(0.5, c=1.001)
        start = time.perf_counter()
        with pytest.raises(ConditioningError, match="relative loading 0.001"):
            estimate_survival(m, 0.0, n=100_000, seed=0)
        assert time.perf_counter() - start < 1.0

    def test_strong_dependence_at_large_loading(self):
        # At loading 100 and theta = 1 the tilted law is far from the product
        # of its margins; the mixture sampler draws it as fast as any other.
        m = _poisson_model(1.0, c=101.0)
        start = time.perf_counter()
        est = estimate_survival(m, 0.0, n=200_000, seed=0)
        assert time.perf_counter() - start < 1.0
        psi, psi_hat = 1.0 - float(survival_classical(m)(0.0)), 1.0 - est.value
        assert abs(psi_hat - psi) <= 4.0 * est.stderr, (psi_hat, psi, est.stderr)

    @pytest.mark.parametrize("make,c,solve", [(_poisson_model, 1001.0, survival_classical),
                                              (_erlang_model, 101.0, survival_erlang2)])
    def test_stderr_covers_rare_small_claim_ruins(self, make, c, solve):
        # At loading 1000 (Poisson) or 100 (Erlang) and theta = -1 a ruin by
        # the small claim phase alone weighs about 0.5 against about 1e-3 and
        # is rarer than one in 1e5 paths.  Weighted by the category of the
        # ruinous step, most runs drew none and read 0.09 % low, 50 and 44
        # sample stderrs off.  Weighted given the walk before that step,
        # every path carries its share of that ruin: z = -0.03 and -0.22.
        m = make(-1.0, c=c)
        est = estimate_survival(m, 5.0, n=131072, seed=0)
        psi, psi_hat = 1.0 - float(solve(m)(5.0)), 1.0 - est.value
        assert abs(psi_hat - psi) <= 4.0 * est.stderr, (psi_hat, psi, est.stderr)
        assert est.stderr <= 1e-2 * psi

    @pytest.mark.parametrize("make,c,solve", [(_poisson_model, 1001.0, survival_classical),
                                              (_erlang_model, 101.0, survival_erlang2)])
    def test_rare_small_claim_ruins_leave_no_skew(self, make, c, solve):
        # The cells above over seeds 0 - 9: the median relative error
        # measured 2.0e-5 (Poisson) and 2.5e-6 (Erlang).  Conditioned on
        # the ruinous step's category and threshold instead, it read 9.3e-4
        # and 9.2e-4, most runs about 0.09 % low.
        m = make(-1.0, c=c)
        psi = 1.0 - float(solve(m)(5.0))
        errors = [abs(1.0 - estimate_survival(m, 5.0, n=131072, seed=seed).value - psi) / psi
                  for seed in range(10)]
        assert np.median(errors) <= 1e-4, errors

    @pytest.mark.parametrize("make,theta,u", [(_poisson_model, 0.5, 0.0),
                                              (_erlang_model, -1.0, 5.0)])
    def test_stderr_covers_spread_over_seeds(self, make, theta, u):
        # The spread of 40 estimates over their mean stderr measured 1.02
        # (Poisson, theta = 0.5, u = 0) and 0.81 (Erlang, theta = -1, u = 5),
        # and 0.81 - 1.15 over five sets of 40 seeds each.  The stderr is
        # 10.4 and 4.6 times below that of the weights conditioned on the
        # ruinous step's category and threshold, and still the spread's.
        m = make(theta)
        est = [estimate_survival(m, u, n=20_000, seed=s) for s in range(40)]
        spread = np.std([e.value for e in est], ddof=1)
        assert 0.7 <= spread / np.mean([e.stderr for e in est]) <= 1.4

    @pytest.mark.parametrize("theta", [-1.0, 0.0, 1.0])
    def test_erlang_loading_1000_matches_reference(self, theta):
        # At loading 1e3 the gap alpha - R is 9.4e-11 to 8e-6, the deficit at
        # ruin is of order 1 / gap, and nearly every plain weight
        # e^{-R deficit} underflows.  The weight given the walk before the
        # ruinous step does not: the estimate agrees with the 60-digit psi,
        # and at theta = 0 with the exact (1 - R) e^{-R alpha u}.
        m = _erlang_model(theta, c=1001.0)
        est = estimate_survival(m, 0.0, n=20_000, seed=0)
        psi = _reference_psi(m, 0.0)
        assert abs((1.0 - est.value) - psi) <= 4.0 * est.stderr, (est, psi)

    # Every (law, c, theta) with a cell that the plain-weight effective
    # sample size gate refused at n = 131072, seed 0, alpha = 1, beta = 2:
    # Erlang c in {101, 1001, 10001} and Poisson c in {1001, 10001}, theta in
    # {-1, 0.5, 1}, u in {0, 5, 10} refused 21 Erlang and 8 Poisson cells.
    # Measured: max |z| 1.62 (Erlang) and 1.73 (Poisson) over seeds 0 - 3.
    # From Erlang c = 1001, u = 10 and c = 10001, u = 5 the value rounds
    # psi, and the rounding floor is the stderr.
    @pytest.mark.parametrize("make,c,theta", [
        (_erlang_model, 101.0, 1.0),
        (_erlang_model, 1001.0, -1.0), (_erlang_model, 1001.0, 0.5), (_erlang_model, 1001.0, 1.0),
        (_erlang_model, 10001.0, -1.0), (_erlang_model, 10001.0, 0.5),
        (_erlang_model, 10001.0, 1.0),
        (_poisson_model, 1001.0, 1.0), (_poisson_model, 10001.0, 0.5),
        (_poisson_model, 10001.0, 1.0),
    ])
    def test_large_loading_matches_reference(self, make, c, theta):
        m = make(theta, c=c)
        grid = [0.0, 5.0, 10.0]
        psi = [_reference_psi(m, u) for u in grid]
        for seed in range(4):
            for u, want, est in zip(grid, psi, estimate_survival(m, grid, n=131072, seed=seed)):
                z = ((1.0 - est.value) - want) / est.stderr
                assert abs(z) <= 4.0, (seed, u, est, want)

    def test_stderr_covers_the_skewed_cell(self):
        # Erlang loading 100, theta = 1, u = 10: a rare first step that lands
        # within u of ruin weighs about 2e4 times the typical path, and most
        # runs draw none.  The sample stderr alone read |z| from 6.0 to 55
        # in 6 of 8 seeds; the spread floor, what one path can move the
        # mean, covers it at every seed (measured |z| at most 0.47).
        m = _erlang_model(1.0, c=101.0)
        psi = _reference_psi(m, 10.0)
        for seed in range(8):
            est = estimate_survival(m, 10.0, n=131072, seed=seed)
            assert abs((1.0 - est.value) - psi) <= 4.0 * est.stderr, (seed, est, psi)


def _slowest_rate(terms):
    return max(rate for _, rate in terms if isinstance(rate, float) and rate < 0.0)


def _unit_args(model):
    """(c', theta, Erlang times?): the tilt helpers' arguments, as ``_tilt`` forms them."""
    return (unit_rates(model, type(model.arrival))[0], model.theta,
            isinstance(model.arrival, Erlang2))


# The benchmark's six survival-at-0 and reach cells.  The Poisson
# theta = -1 survival cell is the first level of a grid whose first-claim
# ruin mass h(u) runs from 0.61 down to 0.15.
_STRATA_CELLS = {
    "poisson -1": (_poisson_model(-1.0), [0.0, 0.5, 1.0, 1.5, 2.0]),
    "poisson 0.5": (_poisson_model(0.5), [0.0]),
    "erlang -1": (_erlang_model(-1.0), [0.0]),
    "erlang 0.5": (_erlang_model(0.5), [0.0]),
    "reach -1": (_poisson_model(-1.0), 20.0),
    "reach 0.5": (_poisson_model(0.5), 20.0),
}


def _strata_z(name):
    """z against the closed form at n = 2e4, seeds 1 - 32, as a (seeds, levels) array."""
    model, arg = _STRATA_CELLS[name]
    if name.startswith("reach"):
        want = [float(chi(model, 0.0, arg))]
        runs = [[estimate_reach_prob(model, 0.0, arg, n=20_000, seed=seed)]
                for seed in range(1, 33)]
    else:
        solve = survival_erlang2 if isinstance(model.arrival, Erlang2) else survival_classical
        want = solve(model)(np.array(arg)).tolist()
        runs = [estimate_survival(model, arg, n=20_000, seed=seed) for seed in range(1, 33)]
    return np.array([[(e.value - w) / e.stderr for e, w in zip(run, want)] for run in runs])


@pytest.fixture(scope="module")
def strata_z():
    return {name: _strata_z(name) for name in _STRATA_CELLS}


class TestFirstClaimStrata:
    @pytest.mark.parametrize("name", list(_STRATA_CELLS))
    def test_stderr_covers_the_error_over_seeds(self, name, strata_z):
        # Post-stratified on the first claim.  Measured RMS z 0.88 - 1.15 per
        # level and 30 to 32 of the 32 seeds within 2 stderr.
        z = strata_z[name]
        assert np.all(np.sqrt(np.mean(z * z, axis=0)) <= 1.3), z
        assert np.all(np.mean(np.abs(z) <= 2.0, axis=0) >= 0.875), z

    @pytest.mark.parametrize("name", list(_STRATA_CELLS))
    def test_strata_at_least_halve_the_variance(self, name):
        # The plain variance over the post-stratified one, from the same
        # paths at seed 1 (tests/strata_ratios.py measured 2.5 - 3.5 at
        # n = 2e5).  The same paths, with the first claim's mass replaced
        # by the share that stopped there, give the plain estimate within
        # 4 ulps.
        model, arg = _STRATA_CELLS[name]
        b = arg if name.startswith("reach") else None
        mass, share, ratio, ulps = strata_ratios.measure(model, 0.0, b, 20_000, 1)
        assert 0.55 < mass < 0.65 and abs(share - mass) < 0.01
        assert ratio >= 2.0 and ulps <= 4.0, (ratio, ulps)


@pytest.mark.parametrize("estimate", [
    lambda m, seed: estimate_survival(m, 0.0, n=1000, seed=seed),
    lambda m, seed: estimate_reach_prob(m, 0.0, 5.0, n=1000, seed=seed),
], ids=["survival", "reach"])
class TestSeed:
    @pytest.mark.parametrize("seed", [-1, -(2**70), 1.5, 2.0, "3", None])
    def test_refused_unless_a_nonnegative_integer(self, estimate, seed):
        with pytest.raises(InputError, match="seed must be a nonnegative integer"):
            estimate(_poisson_model(0.5), seed)

    def test_numpy_integer_is_the_same_seed(self, estimate):
        m = _poisson_model(0.5)
        got = estimate(m, np.int64(7))
        assert got == estimate(m, 7)
        assert type(got.seed) is int


@pytest.mark.parametrize("estimate", [
    lambda m, **kw: estimate_survival(m, 0.0, seed=1, **kw),
    lambda m, **kw: estimate_reach_prob(m, 0.0, 5.0, seed=1, **kw),
], ids=["survival", "reach"])
class TestCounts:
    """The path and worker counts are integers, as the seed is."""

    @pytest.mark.parametrize("n", [1000.7, 2.0, "3"])
    def test_path_count_refused_unless_an_integer(self, estimate, n):
        with pytest.raises(InputError, match="path count must be a positive integer"):
            estimate(_poisson_model(0.5), n=n)

    @pytest.mark.parametrize("workers", [1.5, 2.0, "3"])
    def test_worker_count_refused_unless_an_integer(self, estimate, workers):
        with pytest.raises(InputError, match="worker count must be a positive integer"):
            estimate(_poisson_model(0.5), n=1000, workers=workers)

    def test_numpy_integers_pass(self, estimate):
        m = _poisson_model(0.5)
        got = estimate(m, n=np.int64(1000), workers=np.int64(5))
        assert got == estimate(m, n=1000)
        assert type(got.n) is int


@pytest.mark.parametrize("value", [2.5, 3.0, "3", None, True])
@pytest.mark.parametrize("call", [
    lambda m, v: sample_pairs(m, np.random.default_rng(0), v),
    lambda m, v: estimate_survival(m, 0.0, n=v),
    lambda m, v: estimate_survival(m, 0.0, n=1000, seed=v),
    lambda m, v: estimate_reach_prob(m, 0.0, 5.0, n=1000, workers=v),
], ids=["pairs", "paths", "seed", "workers"])
def test_counts_refused_by_type_unless_integers(call, value):
    # A bool is an Integral, but no count: n=True would simulate one path.
    with pytest.raises(InputError, match="must be a (nonnegative|positive) integer"):
        call(_poisson_model(0.5), value)


@pytest.mark.parametrize("u", [True, np.bool_(False), np.array(True), [False, True],
                               np.array([True, False])])
def test_survival_refuses_a_bool_surplus(u):
    # float(True) is 1.0: the estimate ran at u = 1.
    with pytest.raises(InputError, match="initial surplus must be"):
        estimate_survival(_poisson_model(0.5), u, n=10)


@pytest.mark.parametrize("u,b", [(True, 20.0), (np.bool_(True), 20.0), (1.0, True),
                                 (0.0, np.bool_(True)), (0.0, np.array(True))])
def test_reach_refuses_a_bool_level(u, b):
    with pytest.raises(InputError, match="initial surplus must be|target level must be"):
        estimate_reach_prob(_poisson_model(0.5), u, b, n=10)


class TestAdjustmentCoefficient:
    @pytest.mark.parametrize("theta", [-1.0, -0.5, 0.0, 0.5, 1.0])
    def test_is_the_slowest_survival_rate(self, theta):
        # alpha = 1, so the unit-rate R is the model's.
        m = _poisson_model(theta)
        want = -_slowest_rate(survival_classical(m).phi.terms)
        assert _lundberg_root(*_unit_args(m))[0] == pytest.approx(want, rel=1e-10)
        m = _erlang_model(theta)
        want = -_slowest_rate(survival_erlang2(m).delta.terms)
        assert _lundberg_root(*_unit_args(m))[0] == pytest.approx(want, rel=1e-10)

    @pytest.mark.parametrize("c", [1.0 + 1e-6, 1e3])
    @pytest.mark.parametrize("theta", [-1.0, 1.0])
    def test_loading_extremes(self, c, theta):
        # R crowds 0 at small loading and alpha at large loading, where the
        # gap alpha - R must keep its own relative precision.
        m = _poisson_model(theta, c=c)
        want = -_slowest_rate(survival_classical(m).phi.terms)
        R, gap = _lundberg_root(*_unit_args(m))
        assert R == pytest.approx(want, rel=1e-9)
        assert gap == pytest.approx(m.claim.alpha - want, rel=1e-9)


def _stopping_quad(walk, b, s):
    """(H+, H-, M) at the walk s before the stopping step, by 22-digit quadrature over W.

    The integrands of the ``_Martingale`` docstring at unit rates, with
    f_W and Fbar_W of Exp(1) or Erlang(2, 1) and tb = theta (2 Fbar_W - 1);
    M weighs e^{-R S_N} by the claim's phases, k1 = 1 / (1 - R) and
    k2 = 2 / (2 - R), from ``walk.gap``.  Over the cells of
    ``TestStoppingMasses`` M agrees with 50-digit quadrature to 1.8e-19
    relative, and the test's D to its float rounding (1.5e-16, as at 30
    digits); at 20 digits M strayed by up to 3.1e-15, at two points.
    """
    with mpmath.workdps(22):
        R, gap, theta, c, b, s = (mpmath.mpf(v) for v in (walk.R, walk.gap, walk.model.theta,
                                                          walk.model.c, b, s))
        # 1 - R from the root's own gap: 1 - R of the rounded R is off by
        # 1e-13 relative where R nears 1.
        k1, k2 = 1 / gap, 2 / (1 + gap)
        ws = (b - s) / c
        if isinstance(walk.model.arrival, Erlang2):
            f, fbar = (lambda w: w * mpmath.exp(-w)), (lambda w: (1 + w) * mpmath.exp(-w))
        else:
            f = fbar = lambda w: mpmath.exp(-w)

        def tb(w):
            return theta * (2 * fbar(w) - 1)

        def below(g):
            return mpmath.quad(lambda w: f(w) * g(w, s + c * w), [0, ws])

        def above(g):
            return mpmath.quad(lambda w: f(w) * g(w, s + c * w), [ws, ws + 1, mpmath.inf])

        return (above(lambda w, p: 1),
                below(lambda w, p: mpmath.exp(-p) * (1 - tb(w) + tb(w) * mpmath.exp(-p))),
                above(lambda w, p: mpmath.exp(-R * p) * ((1 - tb(w)) * k1 + tb(w) * k2))
                + below(lambda w, p: mpmath.exp(-p) * ((1 - tb(w)) * k1
                                                       + tb(w) * k2 * mpmath.exp(-p))))


def _u0(walk):
    """U0 = U(1 + R c)(0), the theta = 0 ratio of H+ to M's reach part at w* = 0."""
    a1 = 1.0 + walk.R * walk.model.c
    return 1.0 / a1 / a1 if isinstance(walk.model.arrival, Erlang2) else 1.0 / a1


# The closed forms of ``_Martingale.corrections`` against ``_stopping_quad``:
# both arrivals, theta in {-1, -0.5, 0, 0.5, 1}, c' in {1.05, 1.5, 11},
# b' in {1, 20} and s in {0, b'/2, b' - 1e-9}.  Measured apart by at most
# 3.5e-15 (M) and 1.7e-15 (D / (1 - R), relative to 1 + |D / (1 - R)|),
# except at Erlang c' = 11, theta = 1 (loading 21): 1.65e-14 and 1.58e-14,
# where the finite-level terms of ``stopping``, differences of the
# whole-line constants, lose about eps loading^2.
_STOPPING_RTOL = 3e-14


@pytest.mark.parametrize("erlang,c", [(True, 11.0), (True, 101.0), (True, 1e4),
                                      (False, 101.0), (False, 1e6)])
def test_whole_line_constants_match_50_digits(erlang, c):
    # _Stopping.a_inf = f~_W(c') (1 - theta rho(c')) and
    # d0 = theta f~_W(2c') rho(2c') at theta = 1, where the differences
    # a[0] - a_p[0] and d_p[0] - d[0] lose about eps c' (Poisson) or eps c'^2
    # (Erlang) relative.  Measured apart by at most 1.3e-16 and 4.4e-16.
    arrival = Erlang2(1.0) if erlang else ExpPoisson(1.0)
    stop = _Martingale.of(ModelSpec(c, ExpClaim(1.0), arrival, FgmParam(1.0))).stopping(20.0)
    with mpmath.workdps(50):
        cp = mpmath.mpf(c)

        def f(s):
            return 1 / (1 + s) ** 2 if erlang else 1 / (1 + s)

        def rho(s):
            return s * (s * s + 6 * s + 6) / (2 + s) ** 3 if erlang else s / (2 + s)

        for got, want in ((stop.a_inf, f(cp) * (1 - rho(cp))), (stop.d0, f(2 * cp) * rho(2 * cp))):
            assert abs(got - want) <= 1e-15 * want, (got, want)


class TestStoppingMasses:
    @pytest.mark.parametrize("make", [_poisson_model, _erlang_model])
    @pytest.mark.parametrize("theta", [-1.0, -0.5, 0.0, 0.5, 1.0])
    @pytest.mark.parametrize("c", [1.05, 1.5, 11.0])
    def test_closed_forms_match_quadrature(self, make, theta, c):
        # Unit rates: alpha = 1 and lam or beta = 1, so c' = c.
        walk = _Martingale.of(make(theta, c=c, **({"beta": 1.0} if make is _erlang_model else {})))
        u0 = _u0(walk)
        for b in (1.0, 20.0):
            s = np.array([0.0, b / 2.0, b - 1e-9])
            stop = walk.stopping(b)
            spare = [np.empty(3) for _ in range(5)]
            e = walk.corrections(s.copy(), stop, spare)
            # d = M / (k1 g p) is left in spare[1].
            g = math.exp(-walk.R * b)
            mass = spare[1] / walk.gap * g * np.exp(-(b - s) / c)
            for j, sj in enumerate(s.tolist()):
                h_plus, h_minus, m = _stopping_quad(walk, b, sj)
                want = (walk.gap * m - h_minus - g * u0 * h_plus) / (walk.gap * m)
                err = (float(abs(mass[j] - m) / m),
                       float(abs(e[j] - want) / (1 + abs(want))))
                assert max(err) <= _STOPPING_RTOL, (b, sj, err)


def _rejection_steps(model, R, rng, n):
    """n tilted steps c w - x by rejection from the tilted margins.

    Proposals X ~ Exp(alpha - R) and W from the tilted arrival law are
    accepted with probability (1 + theta (1 - 2F_X(x))(1 - 2F_W(w))) / (1 + |theta|).
    """
    a, c, th = model.claim.alpha, model.c, model.theta
    parts, have = [], 0
    while have < n:
        x = rng.standard_exponential(2 * n) / (a - R)
        if isinstance(model.arrival, Erlang2):
            b = model.arrival.beta
            w = rng.standard_exponential((2, 2 * n)).sum(axis=0) / (b + R * c)
            gw = 2.0 * np.exp(-b * w) * (1.0 + b * w) - 1.0
        else:
            lam = model.arrival.lam
            w = rng.standard_exponential(2 * n) / (lam + R * c)
            gw = 2.0 * np.exp(-lam * w) - 1.0
        gx = 2.0 * np.exp(-a * x) - 1.0
        accept = rng.random(2 * n) * (1.0 + abs(th)) < 1.0 + th * gx * gw
        parts.append((c * w - x)[accept])
        have += parts[-1].size
    return np.concatenate(parts)[:n]


_TILT_CELLS = [(make, theta, loading) for make in (_poisson_model, _erlang_model)
               for theta in (-1.0, 0.0, 0.5, 1.0) for loading in (0.5, 100.0, 1e3)]
_LOADING_HALF_CELLS = [(_poisson_model, 0.5), (_erlang_model, -1.0),
                       (_poisson_model, 1.0), (_erlang_model, 1.0)]


class TestTiltedPairs:
    @pytest.mark.parametrize("make,theta,loading", _TILT_CELLS)
    def test_masses_sum_to_one(self, make, theta, loading):
        # The categories' masses add up to M(R) = E[e^{R(X - cW)}] = 1, also
        # where R crowds alpha and single masses reach 1e10.
        m = make(theta, c=1.0 + loading)
        args = _unit_args(m)
        masses, coef = _mixture(*args, *_lundberg_root(*args))
        assert np.all(masses > 0.0)
        assert abs(masses.sum() - 1.0) <= 1e-12
        assert masses.size <= 13 and coef.shape[1] == masses.size

    @pytest.mark.parametrize("make,theta,loading", _TILT_CELLS + [
        (make, theta, 0.01) for make in (_poisson_model, _erlang_model)
        for theta in (-1.0, 0.0, 0.5, 1.0)])
    def test_raced_table_identities(self, make, theta, loading):
        # The table's exact mean step is the tilted drift -(log M)'(R), and
        # its exact E[e^{R step}] = sum p prod 1 / (1 - R coef) is M(R) = 1.
        # Measured apart by at most 2.8e-14 and 2.2e-14 of |drift| (both at
        # loading 0.01), and the masses' sum by 1.6e-15.
        args = _unit_args(make(theta, c=1.0 + loading))
        R, gap = _lundberg_root(*args)
        masses, coef = _mixture(*args, R, gap)
        drift = -_cgf(*args, R, gap)[1]
        assert abs(masses.sum() - 1.0) <= 1e-14
        assert abs(masses @ coef.sum(axis=0) - drift) <= 1e-13 * abs(drift)
        assert abs(masses @ np.prod(1.0 / (1.0 - R * coef), axis=0) - 1.0) <= 1e-13 * abs(drift)
        # A category's phases are of one sign, its nonzero coefficients come
        # first, and the categories ascend in phase count, so the users of
        # each row are a suffix of the categories.
        used = coef != 0.0
        count = used.sum(axis=0)
        assert np.all((coef > 0.0).all(axis=0, where=used) | (coef < 0.0).all(axis=0, where=used))
        assert np.array_equal(used, np.arange(coef.shape[0])[:, None] < count)
        assert np.all(np.diff(count) >= 0)

    @pytest.mark.parametrize("make,theta,loading", _TILT_CELLS)
    def test_mean_step_is_the_tilted_drift(self, make, theta, loading):
        m = make(theta, c=1.0 + loading)
        args = _unit_args(m)
        R, gap = _lundberg_root(*args)
        n = 200_000
        tilt = _tilt(m, 0.0)
        steps = tilt.steps(np.random.default_rng(2024), n, _Workspace(n, tilt.cuts.size))
        drift = -_cgf(*args, R, gap)[1]
        se = steps.std(ddof=1) / np.sqrt(n)
        assert abs(steps.mean() - drift) <= 4.0 * se, (steps.mean(), drift, se)

    @pytest.mark.parametrize("make,theta,loading", _TILT_CELLS)
    @pytest.mark.parametrize("tilted", [True, False], ids=["tilted", "R=0"])
    def test_pair_buffers_draw_the_fresh_bits(self, make, theta, loading, tilted):
        # A reach request draws its pairs into its own buffers: one buffer
        # reused for rounds of any size, a larger one after a smaller and
        # the other way round, draws what fresh arrays draw, bit for bit.
        walk = _Martingale.of(make(theta, c=1.0 + loading))
        table = walk.pairs if tilted else PairTilt.of(walk.model, 0.0, 1.0)
        size = 3000
        work = _Pairs(size, table.cuts.size)
        fresh, reused = np.random.default_rng(5), np.random.default_rng(5)
        for n in (0, 1, 1000, size, 7, size):
            want = sample_pairs(walk.model, fresh, n, table)
            got = sample_pairs(walk.model, reused, n, table, work=work)
            assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1]), n

    @pytest.mark.parametrize("make,theta", _LOADING_HALF_CELLS)
    def test_tilted_weight_has_mean_one(self, make, theta):
        # E_R[e^{-R(X - cW)}] = E[1] = 1 exactly when the steps follow the
        # tilted law and R solves the Lundberg equation.  Only at small
        # loading: at large loading the weight's variance is infinite.
        m = make(theta)
        tilt = _tilt(m, 0.0)
        n = 200_000
        work = _Workspace(n, tilt.cuts.size)
        weight = np.exp(tilt.R * tilt.steps(np.random.default_rng(2024), n, work))
        se = weight.std(ddof=1) / np.sqrt(n)
        assert abs(weight.mean() - 1.0) <= 4.0 * se

    @pytest.mark.parametrize("make,theta", [(_poisson_model, 0.5), (_erlang_model, -1.0),
                                            (_erlang_model, 0.5)])
    def test_workspace_reuse_matches_fresh_draws(self, make, theta):
        # One workspace reused over rounds of any size, as a pool reuses it,
        # must draw what fresh arrays draw: no category, comparison or
        # exponential of a longer round may leak into a shorter one.  Erlang
        # at theta = 0.5 has the largest table, 13 categories; each table
        # here draws at least one row sparsely.
        tilt = _tilt(make(theta), 0.0)
        if (make, theta) == (_erlang_model, 0.5):
            assert tilt.cuts.size == 12
        coef, first = tilt.phases
        assert any(first)
        work = _Workspace(5000, tilt.cuts.size)
        fresh, reused = np.random.default_rng(5), np.random.default_rng(5)
        for n in (5000, 3000, 2999, _ROUND_STEPS, 1, 0, 2500, _ROUND_STEPS, 40, 1):
            u = fresh.random(n)
            cat = (u[:, None] >= tilt.cuts).sum(axis=1)
            want = coef[0][cat] * fresh.standard_exponential(n)
            for row, f in zip(coef[1:], first[1:]):
                # A row takes exponentials for the categories from f on.
                at = np.flatnonzero(cat >= f)
                want[at] += fresh.standard_exponential(at.size) * row[cat[at]]
            assert np.array_equal(tilt.steps(reused, n, work), want)

    @pytest.mark.parametrize("loading", [0.01, 0.1])
    @pytest.mark.parametrize("make", [_poisson_model, _erlang_model])
    @pytest.mark.parametrize("theta", [-1.0, 0.0, 1.0])
    def test_predicted_claims_track_claims_drawn(self, make, theta, loading):
        # The budget's prediction (u + 1/(alpha - R)) / mu_R against the mean
        # claims 10 000 tilted paths from zero draw up to their ruin.  Over
        # 8 seeds the ratio ran 0.64 - 1.31 at loading 0.01 and 0.81 - 1.23
        # at 0.1; the prediction it replaced was about 100x too large.
        tilt = _tilt(make(theta, c=1.0 + loading), 0.0)
        ratio = _claims_to_ruin(tilt, 10_000, np.random.default_rng(0)) / tilt.claims
        assert 0.6 <= ratio <= 1.5, ratio

    @pytest.mark.parametrize("make,theta", _LOADING_HALF_CELLS)
    def test_matches_rejection_sampler(self, make, theta):
        # Two-sample Kolmogorov-Smirnov test at the 1 % level.
        m = make(theta)
        tilt = _tilt(m, 0.0)
        n = 100_000
        mixture = np.sort(tilt.steps(np.random.default_rng(7), n, _Workspace(n, tilt.cuts.size)))
        reference = np.sort(_rejection_steps(m, tilt.R, np.random.default_rng(8), n))
        both = np.concatenate([mixture, reference])
        gap = (np.searchsorted(mixture, both, side="right")
               - np.searchsorted(reference, both, side="right")) / n
        assert np.max(np.abs(gap)) <= 1.628 * np.sqrt(2.0 / n)


def _claims_to_ruin(tilt, n, rng):
    """Mean claims n tilted walks from zero draw, the ruinous one included."""
    walk = np.zeros(n)
    claims = 0
    work = _Workspace(n + _ROUND_STEPS, tilt.cuts.size)
    while walk.size:
        k = _claims_per_round(walk.size)
        steps = np.cumsum(tilt.steps(rng, walk.size * k, work).reshape(-1, k), axis=1)
        steps += walk[:, None]
        below = steps < 0.0
        fired = below.any(axis=1)
        claims += int(below.argmax(axis=1)[fired].sum()) + np.count_nonzero(fired)
        claims += k * np.count_nonzero(~fired)
        walk = steps[~fired, -1]
    return claims / n


def _refill(live, waiting, fresh_path):
    """The pool after a round: ``live`` in order, then fresh paths up to its width."""
    fresh = min(waiting, simulate._BLOCK_SIZE - len(live))
    return live + [fresh_path] * fresh, waiting - fresh


def _run_reach_reference(walk, u, b, n, seed):
    """The reach engine walked claim by claim in plain Python.

    The survivors of a round keep their order and fresh paths from u join
    at the end, up to ``_BLOCK_SIZE`` live, until all n have entered; each
    round draws the same tilted pairs as ``_run_reach``, and a path stops at
    the claim before which its surplus reaches b, or which ruins it.
    Returns, path by path, the walk s before the step at which the path
    stopped and the claims it drew after it entered, the rounds' claims per
    path summed, and, path by path, whether that step was its first claim.
    """
    rng = np.random.default_rng(seed)
    model = walk.model
    live, waiting = [], n  # (surplus, claims drawn since entering, claims walked)
    clock = 0
    stops, drawn, first = [], [], []
    while True:
        live, waiting = _refill(live, waiting, (u, 0, 0))
        if not live:
            return stops, drawn, clock, first
        k = _claims_per_round(len(live))
        clock += k
        w, x = sample_pairs(model, rng, len(live) * k, walk.pairs)
        cw, x = (model.c * w).tolist(), x.tolist()
        survivors = []
        for i, (s, claims, walked) in enumerate(live):
            claims += k
            for j in range(i * k, (i + 1) * k):
                before, s = s, s + (cw[j] - x[j])
                walked += 1
                if s + x[j] >= b or s < 0.0:
                    break
            else:
                survivors.append((s, claims, walked))
                continue
            stops.append(before)
            drawn.append(claims)
            first.append(walked == 1)
        live = survivors


def _integral(terms, lo, hi):
    """The integral over [lo, hi] (hi may be inf) of sum coef w^k e^{-a w}, terms (coef, k, a).

    The tail from lo is e^{-a lo} sum_j k! / j! lo^j / a^{k - j + 1}.
    """
    def tail(k, a, x):
        if x == math.inf:
            return 0.0
        return math.exp(-a * x) * sum(math.factorial(k) / math.factorial(j) * x**j
                                      / a ** (k - j + 1) for j in range(k + 1))
    return sum(coef * (tail(k, a, lo) - tail(k, a, hi)) for coef, k, a in terms)


def _times(f, g):
    """The product of two sums of terms (coef, k, a)."""
    return [(c1 * c2, k1 + k2, a1 + a2) for c1, k1, a1 in f for c2, k2, a2 in g]


def _stopping_reference(walk, b, s):
    """(H+, H-, M) at the walk s before the stopping step, in plain Python.

    The integrands of the ``_Martingale`` docstring over the inter-claim
    time w, each expanded into terms coef w^k e^{-a w} and integrated term
    by term: f_W = w^m e^{-w}, Fbar_W = (1 + w)^m e^{-w} (m = 1 for
    Erlang(2)), tb = theta (2 Fbar_W - 1), P = s + c w.
    """
    R, theta, c = walk.R, walk.model.theta, walk.model.c
    k1, k2 = 1.0 / walk.gap, 2.0 / (1.0 + walk.gap)
    erlang = isinstance(walk.model.arrival, Erlang2)
    f = [(1.0, 1 if erlang else 0, 1.0)]
    fbar = [(1.0, 0, 1.0)] + ([(1.0, 1, 1.0)] if erlang else [])
    tb = [(-theta, 0, 0.0)] + [(2.0 * theta * k, j, a) for k, j, a in fbar]
    one = [(1.0, 0, 0.0)]
    not_tb = one + [(-k, j, a) for k, j, a in tb]
    e_p = [(math.exp(-s), 0, c)]  # e^{-P}
    e_2p = [(math.exp(-2.0 * s), 0, 2.0 * c)]  # e^{-2P}
    e_rp = [(math.exp(-R * s), 0, R * c)]  # e^{-R P}
    ws = (b - s) / c
    ruin = _times(f, _times(e_p, not_tb) + _times(e_2p, tb))
    m_ruin = _times(f, _times(e_p, [(k1 * k, j, a) for k, j, a in not_tb])
                    + _times(e_2p, [(k2 * k, j, a) for k, j, a in tb]))
    m_reach = _times(f, _times(e_rp, [(k1 * k, j, a) for k, j, a in not_tb]
                               + [(k2 * k, j, a) for k, j, a in tb]))
    return (_integral(f, ws, math.inf), _integral(ruin, 0.0, ws),
            _integral(m_reach, ws, math.inf) + _integral(m_ruin, 0.0, ws))


def _control_sums_reference(walk, b, stops):
    """The moments of ``_run_reach`` from the walk before each stopping step, in plain Python.

    D / (1 - R) = 1 - (H- + g U0 H+) / ((1 - R) M) from ``_stopping_reference``.
    """
    g, u0 = math.exp(-walk.R * b), _u0(walk)
    e = []
    for s in stops:
        h_plus, h_minus, m = _stopping_reference(walk, b, s)
        e.append(1.0 - (h_minus + g * u0 * h_plus) / (walk.gap * m))
    n = len(e)
    mean = math.fsum(e) / n
    return [math.fsum(e), math.fsum((v - mean) ** 2 for v in e)]


def _log_moments(walk, b, stops):
    """The moments ``_run_reach`` takes from one chunk of its log holding ``stops``, in its order.

    The corrections come from ``_Martingale.corrections`` itself, so a
    request whose log is one chunk, at most the pool's width of paths,
    gives the same bits when its paths stop where ``stops`` says.
    """
    s = np.array(stops)
    e = walk.corrections(s, walk.stopping(b), [np.empty(s.size) for _ in range(5)])
    total = e.sum()
    e -= total / s.size
    return [total, float(np.einsum("i,i->", e, e))]


def _ruin_terms(masses, columns):
    """The terms (w, s) of the ruin probability h(v) = sum w e^{-v/s} of a step, in plain Python.

    A category's negative coefficients are the scales s_i of its claim
    phases, and its positive ones scale the exponentials of its positive
    part P.  The claim part's tail is sum_i c_i e^{-t/s_i}, with
    c_i = prod_{j != i} s_i / (s_i - s_j), at t = v + P, and
    E[e^{-P / s}] = prod 1 / (1 + x / s) over P's coefficients x.
    """
    terms = []
    for p, column in zip(masses, columns):
        scales = [-x for x in column if x < 0.0]
        for i, s in enumerate(scales):
            w = p * math.prod(s / (s - t) for j, t in enumerate(scales) if j != i)
            w *= math.prod(1.0 / (1.0 + x / s) for x in column if x > 0.0)
            terms.append((w, s))
    return terms


def _conditioned_weight(R, terms, v):
    """E[e^{-R D} | the walk before the ruinous step] at v, that walk plus u, in plain Python.

    The deficit is the rest of the phase the claim part crosses in, so the
    weighted ruin probability g takes each term of h times 1 / (1 + R s).
    """
    g = h = 0.0
    for w, s in terms:
        x = w * math.exp(-v / s)
        h += x
        g += x / (1.0 + R * s)
    return g / h


def _run_survival_reference(model, tilt, levels, n, seed, split=None):
    """The survival engine walked claim by claim in plain Python.

    The pool refills as in ``_run_reach_reference``, with fresh paths from
    zero.  Returns per level the sums of the conditioned weights, at the
    walk before each passage, less the tilt's centre, and of their squares,
    and the count of passages at a path's first claim, which the sums
    leave out at the levels ``split`` marks (none by default); and the
    claims each path drew after it entered, with the rounds' claims per
    path summed.
    """
    rng = np.random.default_rng(seed)
    args = _unit_args(model)
    terms = _ruin_terms(_mixture(*args, *_lundberg_root(*args))[0].tolist(),
                        tilt.phases.coef.T.tolist())
    split = [False] * len(levels) if split is None else list(split)
    live, waiting = [], n  # (surplus gained from zero, next level, claims drawn)
    sums = [[0.0] * len(levels) for _ in range(3)]
    drawn = []
    clock = 0
    work = _Workspace(n + _ROUND_STEPS, tilt.cuts.size)
    while True:
        live, waiting = _refill(live, waiting, (0.0, 0, 0))
        if not live:
            return sums, drawn, clock
        k = _claims_per_round(len(live))
        clock += k
        steps = tilt.steps(rng, len(live) * k, work).tolist()
        survivors = []
        for i, (v, j, claims) in enumerate(live):
            walked, claims = claims, claims + k
            for at in range(i * k, (i + 1) * k):
                before, v = v, v + steps[at]
                walked += 1
                while j < len(levels) and v < -levels[j]:
                    if walked == 1 and split[j]:
                        sums[2][j] += 1
                    else:
                        w = _conditioned_weight(tilt.R, terms, before + levels[j])
                        w -= tilt.ruin.center
                        sums[0][j] += w
                        sums[1][j] += w * w
                    j += 1
                if j == len(levels):
                    drawn.append(claims)
                    break
            else:
                survivors.append((v, j, claims))
        live = survivors


def _reach(model, u, b, n, seed):
    """``_run_reach`` of the unit-rate walk of model, with u and b in claim units."""
    walk = _Martingale.of(model)
    return _run_reach(walk, u, walk.stopping(b), n, seed)


def _logged_stops(monkeypatch):
    """A list that records the walk before each stop ``_run_reach`` logs, chunk by chunk."""
    logged = []
    corrections = _Martingale.corrections

    def record(self, s, stop, spare):
        logged.extend(s.tolist())
        return corrections(self, s, stop, spare)

    monkeypatch.setattr(_Martingale, "corrections", record)
    return logged


def _narrow_pool(monkeypatch, width=1000, round_steps=64):
    """A pool ``width`` paths wide whose rounds aim at ``round_steps`` pairs.

    Then a request of a few thousand paths refills the pool over many
    rounds, with one claim per path while it is full.
    """
    monkeypatch.setattr(simulate, "_BLOCK_SIZE", width)
    monkeypatch.setattr(simulate, "_ROUND_STEPS", round_steps)


class TestRunBlock:
    @pytest.mark.parametrize("make", [_poisson_model, _erlang_model])
    @pytest.mark.parametrize("u,b", [(0.0, 5.0), (0.0, 45.0), (5.0, 5.0), (5.0, 45.0)])
    def test_compact_surplus_matches_index_array_loop(self, make, u, b):
        # 4096 paths log their stops in one chunk, in the reference's order.
        walk = _Martingale.of(make(0.5))
        for seed in (0, 11, 2024):
            want = _log_moments(walk, b, _run_reach_reference(walk, u, b, 4096, seed)[0])
            assert list(_run_reach(walk, u, walk.stopping(b), 4096, seed)) == want + [0.0]

    @pytest.mark.parametrize("make", [_poisson_model, _erlang_model])
    @pytest.mark.parametrize("theta", [-1.0, 0.5])
    @pytest.mark.parametrize("u,b", [(0.0, 1.0), (0.0, 20.0), (3.0, 10.0)])
    def test_control_sums_match_claim_by_claim_walk(self, make, theta, u, b):
        # Split, the paths that stop at their first claim are counted and
        # left out of the sums; unsplit, every path is summed.
        walk = _Martingale.of(make(theta))
        for seed, split in ((0, False), (11, True)):
            stops, _, _, first = _run_reach_reference(walk, u, b, 3000, seed)
            got = _run_reach(walk, u, walk.stopping(b), 3000, seed, split)
            rest = [s for s, f in zip(stops, first) if not (split and f)]
            want = _control_sums_reference(walk, b, rest) + [3000 - len(rest)]
            np.testing.assert_allclose(got, want, rtol=1e-12)
            assert 0 < got[2] < 3000 if split else got[2] == 0

    @pytest.mark.parametrize("make", [_poisson_model, _erlang_model])
    @pytest.mark.parametrize("u,b", [(0.0, 1.0), (3.0, 20.0)])
    def test_refilled_pool_matches_claim_by_claim_walk(self, monkeypatch, make, u, b):
        # 3001 paths through a pool 1000 wide: it refills over many rounds
        # and its log of stopping steps is flushed in chunks, whose moments
        # are pooled.
        _narrow_pool(monkeypatch)
        walk = _Martingale.of(make(0.5))
        for seed in (0, 11):
            stops, _, _, first = _run_reach_reference(walk, u, b, 3001, seed)
            got = _run_reach(walk, u, walk.stopping(b), 3001, seed, split=True)
            rest = [s for s, f in zip(stops, first) if not f]
            np.testing.assert_allclose(
                got, _control_sums_reference(walk, b, rest) + [3001 - len(rest)], rtol=1e-12)

    def test_ruin_fraction_matches_theory(self):
        # At u = 0 the independent model ruins with probability 2/3; a
        # level of 60 leaves no measurable truncation.
        m = _poisson_model(0.0)
        n = 4000
        frac = 1.0 - estimate_reach_prob(m, 0.0, 60.0, n=n, seed=42).value
        se = np.sqrt((2.0 / 3.0) * (1.0 / 3.0) / n)
        assert abs(frac - 2.0 / 3.0) <= 3.0 * se

    def test_first_claim_ruin_is_reproducible(self, monkeypatch):
        # A single path draws _claims_per_round(1) tilted pairs in its first
        # round.  Seed 0 draws a first pair with x > c w (seed 0 is the
        # smallest nonnegative seed that does), so a single path from zero
        # surplus is ruined by its first claim, and logs s = 0.  At theta = 0
        # with Poisson times every correction is 0.
        m = _poisson_model(0.0)
        walk = _Martingale.of(m)
        w, x = sample_pairs(walk.model, np.random.default_rng(0), _claims_per_round(1),
                            walk.pairs)
        assert x[0] > m.c * w[0]
        logged = _logged_stops(monkeypatch)
        assert [list(_reach(m, 0.0, 60.0, 1, 0)) for _ in range(2)] == [[0.0, 0.0, 0.0]] * 2
        assert logged == [0.0, 0.0]
        # Split, the path is counted as a first-claim stop, and nothing is logged.
        walk = _Martingale.of(m)
        assert list(_run_reach(walk, 0.0, walk.stopping(60.0), 1, 0, split=True)) == [
            0.0, 0.0, 1.0]
        assert logged == [0.0, 0.0]

    def test_level_crossed_before_first_claim(self, monkeypatch):
        # Seed 2 draws a first tilted pair with c w >= 0.5 and x > c w
        # (seed 2 is the smallest nonnegative seed that does; 6, 7 and 8
        # also qualify): the premium income lifts u = 0 to b = 0.5 before
        # the claim that would ruin the path: either way the path stops at
        # that claim and logs s = 0.
        m = _poisson_model(0.0)
        walk = _Martingale.of(m)
        w, x = sample_pairs(walk.model, np.random.default_rng(2), _claims_per_round(1),
                            walk.pairs)
        assert m.c * w[0] >= 0.5
        assert x[0] > m.c * w[0]
        logged = _logged_stops(monkeypatch)
        assert list(_reach(m, 0.0, 0.5, 1, 2)) == [0.0, 0.0, 0.0]
        assert logged == [0.0]

    def test_claims_per_round(self):
        # One claim per path while a round's pairs fill a full batch, then
        # about _ROUND_STEPS pairs per round, never twice that.
        assert _claims_per_round(_ROUND_STEPS) == 1
        assert _claims_per_round(_ROUND_STEPS - 1) == 2
        assert _claims_per_round(1) == _ROUND_STEPS
        for live in (1, 3, 100, 1000, _ROUND_STEPS - 1):
            assert _ROUND_STEPS <= live * _claims_per_round(live) < 2 * _ROUND_STEPS


class TestRunTiltedBlock:
    @pytest.mark.parametrize("make,theta", [(_poisson_model, 0.5), (_erlang_model, -1.0)])
    @pytest.mark.parametrize("levels", [[0.0], [5.0], [0.0, 2.0, 2.0, 10.0]])
    def test_matches_claim_by_claim_walk(self, make, theta, levels):
        m = make(theta)
        levels = np.array(levels)
        tilt = _tilt(m, float(levels[-1]))
        # Unsplit, then every level split on the first claim.
        for seed, split in ((0, levels < 0.0), (11, levels >= 0.0)):
            got = _run_survival(tilt, levels, 4096, seed, split)
            want = _run_survival_reference(m, tilt, levels.tolist(), 4096, seed, split)[0]
            # The centred sums are of order 100 and take either sign; the
            # reference's ratio g / h less the centre loses a few ulps of 1
            # per path.  Measured apart by at most 2.6e-14 relative.
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("make,theta", [(_poisson_model, 0.5), (_erlang_model, -1.0)])
    @pytest.mark.parametrize("levels", [[5.0], [0.0, 2.0, 2.0, 10.0]])
    def test_refilled_pool_matches_claim_by_claim_walk(self, monkeypatch, make, theta, levels):
        # 3001 paths through a pool 1000 wide, whose log of top-level
        # passages is flushed into the conditioned sums in chunks.
        _narrow_pool(monkeypatch)
        m = make(theta)
        levels = np.array(levels)
        tilt = _tilt(m, float(levels[-1]))
        # Every level split, then every other one.
        for seed, split in ((0, levels >= 0.0), (11, np.arange(levels.size) % 2 == 1)):
            got = _run_survival(tilt, levels, 3001, seed, split)
            want = _run_survival_reference(m, tilt, levels.tolist(), 3001, seed, split)[0]
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)


class TestClaimCap:
    def test_cap_raises_by_name(self, monkeypatch):
        # Tilted paths from u = 5 take a few claims each: under a cap of 3
        # some path must draw past it, and either estimate names the cap.
        monkeypatch.setattr(simulate, "_MAX_CLAIMS", 3)
        m = _poisson_model(0.5)
        with pytest.raises(ConditioningError, match="cap of 3 claims"):
            estimate_survival(m, 5.0, n=1000, seed=1)
        with pytest.raises(ConditioningError, match="cap of 3 claims"):
            estimate_reach_prob(m, 5.0, 20.0, n=1000, seed=1)

    @pytest.mark.parametrize("width,round_steps", [(1000, 64), (200, 1)])
    def test_cap_counts_each_path_from_its_entry(self, monkeypatch, width, round_steps):
        # A request of many rounds draws more claims per path in all than
        # its longest path draws after it enters, so a cap of that longest
        # path's claims would refuse it if the cap counted the request's
        # claims.  It passes, with the uncapped bits; one claim less
        # refuses.  The second pool advances one claim per round.
        _narrow_pool(monkeypatch, width, round_steps)
        m = _poisson_model(0.5)
        levels = np.array([0.0, 5.0])
        tilt = _tilt(m, 5.0)
        walk = _Martingale.of(m)
        _, drawn, clock = _run_survival_reference(m, tilt, levels.tolist(), 3001, 4)
        reach = _run_reach_reference(walk, 0.0, 20.0, 3001, 4)
        for run, longest, total in (
                (lambda: _run_survival(tilt, levels, 3001, 4), max(drawn), clock),
                (lambda: _run_reach(walk, 0.0, walk.stopping(20.0), 3001, 4),
                 max(reach[1]), reach[2])):
            assert longest < total
            want = run()
            monkeypatch.setattr(simulate, "_MAX_CLAIMS", longest)
            assert np.array_equal(run(), want)
            monkeypatch.setattr(simulate, "_MAX_CLAIMS", longest - 1)
            with pytest.raises(ConditioningError, match=f"cap of {longest - 1} claims"):
                run()


class TestPastOnePool:
    # 100 003 paths: three pools' width of them and a remainder, so the pool
    # refills for many rounds and its logs are flushed more than once.
    N = 100_003

    def test_survival_grid_and_reach_match_closed_forms(self):
        m = _poisson_model(0.5)
        grid = [0.0, 5.0, 10.0]
        for est, want in zip(estimate_survival(m, grid, n=self.N, seed=1),
                             survival_classical(m)(grid).tolist()):
            assert abs(est.value - want) <= 4.0 * est.stderr, (est, want)
        est = estimate_reach_prob(m, 0.0, 20.0, n=self.N, seed=1)
        want = float(chi(m, 0.0, 20.0))
        assert abs(est.value - want) <= 4.0 * est.stderr, (est, want)

    def test_same_seed_same_bits(self):
        m = _erlang_model(-0.5)
        assert (estimate_survival(m, [0.0, 3.0], n=self.N, seed=5)
                == estimate_survival(m, [0.0, 3.0], n=self.N, seed=5))
        assert (estimate_reach_prob(_poisson_model(-0.5), 1.0, 10.0, n=self.N, seed=5)
                == estimate_reach_prob(_poisson_model(-0.5), 1.0, 10.0, n=self.N, seed=5))


class TestDeterminism:
    @pytest.mark.parametrize("n", [10, 20_000])
    def test_same_seed_same_answer(self, n):
        m = _poisson_model(0.5)
        a = estimate_reach_prob(m, 0.0, 10.0, n=n, seed=99)
        b = estimate_reach_prob(m, 0.0, 10.0, n=n, seed=99)
        assert a == b

    @pytest.mark.parametrize("make,theta", [(_poisson_model, 0.5), (_erlang_model, 1.0)])
    def test_worker_count_does_not_change_results(self, make, theta):
        m = make(theta)
        n = 50_000
        base = estimate_survival(m, 1.0, n=n, seed=17, workers=1)
        for workers in (2, 4):
            est = estimate_survival(m, 1.0, n=n, seed=17, workers=workers)
            assert est.value == base.value
            assert est.stderr == base.stderr

    def test_worker_count_does_not_change_curves(self):
        m = _erlang_model(-0.5)
        grid = [3.0, 0.0, 12.0]
        base = estimate_survival(m, grid, n=70_000, seed=31, workers=1)
        for workers in (2, 4):
            assert estimate_survival(m, grid, n=70_000, seed=31, workers=workers) == base

    def test_different_seeds_differ(self):
        m = _poisson_model(0.5)
        a = estimate_reach_prob(m, 0.0, 10.0, n=20_000, seed=1)
        b = estimate_reach_prob(m, 0.0, 10.0, n=20_000, seed=2)
        assert a.value != b.value
