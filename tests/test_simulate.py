"""Tests for the Monte Carlo path engine and estimators."""

import time

import numpy as np
import pytest

from fgmruin.classical import survival_classical
from fgmruin.erlang import solve_delta0, survival_erlang2
from fgmruin.errors import ConditioningError, InputError
from fgmruin.max_surplus import chi
from fgmruin.model import Erlang2, ExpClaim, ExpPoisson, FgmParam, ModelSpec, sample_pairs
from fgmruin.simulate import (
    _ROUND_STEPS,
    SimEstimate,
    _Workspace,
    _block_rng,
    _cgf,
    _claims_per_round,
    _lundberg_root,
    _mixture,
    _run_block,
    _run_tilted_block,
    _tilt,
    estimate_reach_prob,
    estimate_survival,
)


def _poisson_model(theta, c=1.5, alpha=1.0, lam=1.0):
    return ModelSpec(c, ExpClaim(alpha), ExpPoisson(lam), FgmParam(theta))


def _erlang_model(theta, c=1.5, alpha=1.0, beta=2.0):
    return ModelSpec(c, ExpClaim(alpha), Erlang2(beta), FgmParam(theta))


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

    def test_stderr_is_binomial(self):
        est = estimate_reach_prob(_poisson_model(0.5), 0.0, 10.0, n=20_000, seed=3)
        want = np.sqrt(est.value * (1.0 - est.value) / est.n)
        assert est.stderr == pytest.approx(want, rel=1e-12)

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
        # At loading 0.01 a tilted path takes about a hundred claims, and a
        # block's tail advances its few live paths many claims per round.
        m = _poisson_model(0.5, c=1.01)
        start = time.perf_counter()
        est = estimate_survival(m, 0.0, n=20_000, seed=29)
        assert time.perf_counter() - start < 5.0
        truth = float(survival_classical(m)(0.0))
        assert abs(est.value - truth) <= 4.0 * est.stderr

    @pytest.mark.parametrize("make,theta", [(_poisson_model, -1.0), (_erlang_model, 0.5)])
    def test_stderr_below_binomial(self, make, theta):
        # The weights e^{-R S} lie in (0, 1], so their variance is at most
        # psi (1 - psi).
        for u in (0.0, 5.0):
            est = estimate_survival(make(theta), u, n=20_000, seed=3)
            psi = 1.0 - est.value
            assert 0.0 < est.stderr <= np.sqrt(psi * (1.0 - psi) / est.n)

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
        for grid in ([0.0, -1.0], [0.0, np.inf], [np.nan], [], [[0.0, 1.0]]):
            with pytest.raises(InputError):
                estimate_survival(m, grid, n=100, seed=0)

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

    @pytest.mark.parametrize("theta", [-1.0, 0.0, 1.0])
    def test_degenerate_tilt_raises(self, theta):
        # At loading 1e3 the gap alpha - R is 9.4e-11 to 8e-6, the deficit at
        # ruin is of order 1 / gap, and nearly every weight e^{-R deficit}
        # underflows: the estimate would be far off with a tiny stderr.
        m = _erlang_model(theta, c=1001.0)
        with pytest.raises(ConditioningError, match="effective sample size"):
            estimate_survival(m, 0.0, n=20_000, seed=0)


def _slowest_rate(terms):
    return max(rate for _, rate in terms if isinstance(rate, float) and rate < 0.0)


class TestAdjustmentCoefficient:
    @pytest.mark.parametrize("theta", [-1.0, -0.5, 0.0, 0.5, 1.0])
    def test_is_the_slowest_survival_rate(self, theta):
        m = _poisson_model(theta)
        want = -_slowest_rate(survival_classical(m).phi.terms)
        assert _lundberg_root(m)[0] == pytest.approx(want, rel=1e-10)
        m = _erlang_model(theta)
        want = -_slowest_rate(survival_erlang2(m).delta.terms)
        assert _lundberg_root(m)[0] == pytest.approx(want, rel=1e-10)

    @pytest.mark.parametrize("c", [1.0 + 1e-6, 1e3])
    @pytest.mark.parametrize("theta", [-1.0, 1.0])
    def test_loading_extremes(self, c, theta):
        # R crowds 0 at small loading and alpha at large loading, where the
        # gap alpha - R must keep its own relative precision.
        m = _poisson_model(theta, c=c)
        want = -_slowest_rate(survival_classical(m).phi.terms)
        R, gap = _lundberg_root(m)
        assert R == pytest.approx(want, rel=1e-9)
        assert gap == pytest.approx(m.claim.alpha - want, rel=1e-9)


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
        masses, coef = _mixture(m, *_lundberg_root(m))
        assert np.all(masses > 0.0)
        assert abs(masses.sum() - 1.0) <= 1e-12
        assert masses.size <= 14 and coef.shape[1] == masses.size

    @pytest.mark.parametrize("make,theta,loading", _TILT_CELLS)
    def test_mean_step_is_the_tilted_drift(self, make, theta, loading):
        m = make(theta, c=1.0 + loading)
        R, gap = _lundberg_root(m)
        n = 200_000
        steps = _tilt(m, 0.0).steps(np.random.default_rng(2024), n, _Workspace(n))
        drift = -_cgf(m, R, gap)[1]
        se = steps.std(ddof=1) / np.sqrt(n)
        assert abs(steps.mean() - drift) <= 4.0 * se, (steps.mean(), drift, se)

    @pytest.mark.parametrize("make,theta", _LOADING_HALF_CELLS)
    def test_tilted_weight_has_mean_one(self, make, theta):
        # E_R[e^{-R(X - cW)}] = E[1] = 1 exactly when the steps follow the
        # tilted law and R solves the Lundberg equation.  Only at small
        # loading: at large loading the weight's variance is infinite.
        m = make(theta)
        tilt = _tilt(m, 0.0)
        n = 200_000
        weight = np.exp(tilt.R * tilt.steps(np.random.default_rng(2024), n, _Workspace(n)))
        se = weight.std(ddof=1) / np.sqrt(n)
        assert abs(weight.mean() - 1.0) <= 4.0 * se

    @pytest.mark.parametrize("make,theta", [(_poisson_model, 0.5), (_erlang_model, -1.0)])
    def test_workspace_reuse_matches_fresh_draws(self, make, theta):
        # One workspace reused over shrinking rounds, as a block reuses it,
        # must draw what fresh arrays draw: no category or exponential of a
        # longer round may leak into a shorter one.
        tilt = _tilt(make(theta), 0.0)
        work = _Workspace(5000)
        fresh, reused = np.random.default_rng(5), np.random.default_rng(5)
        for n in (5000, 3000, 2999, 1, 0, 2500, 40):
            u = fresh.random(n)
            cat = (u[:, None] >= tilt.cuts).sum(axis=1)
            want = tilt.coef[0][cat] * fresh.standard_exponential(n)
            for coef in tilt.coef[1:]:
                want += fresh.standard_exponential(n) * coef[cat]
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
        mixture = np.sort(tilt.steps(np.random.default_rng(7), n, _Workspace(n)))
        reference = np.sort(_rejection_steps(m, tilt.R, np.random.default_rng(8), n))
        both = np.concatenate([mixture, reference])
        gap = (np.searchsorted(mixture, both, side="right")
               - np.searchsorted(reference, both, side="right")) / n
        assert np.max(np.abs(gap)) <= 1.628 * np.sqrt(2.0 / n)


def _claims_to_ruin(tilt, n, rng):
    """Mean claims n tilted walks from zero draw, the ruinous one included."""
    walk = np.zeros(n)
    claims = 0
    work = _Workspace(n + _ROUND_STEPS)
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


def _run_block_reference(model, u, b, size, seed, block):
    """The reach engine walked claim by claim in plain Python.

    Each round draws the same arrays as ``_run_block``; the pre-claim level
    check comes before the ruin check at the same claim.
    """
    rng = _block_rng(seed, block)
    live = [u] * size
    reached = 0
    while live:
        k = _claims_per_round(len(live))
        w, x = sample_pairs(model, rng, len(live) * k)
        cw, x = (model.c * w).tolist(), x.tolist()
        survivors = []
        for i, s in enumerate(live):
            for j in range(i * k, (i + 1) * k):
                s = s + (cw[j] - x[j])
                if s + x[j] >= b:
                    reached += 1
                    break
                if s < 0.0:
                    break
            else:
                survivors.append(s)
        live = survivors
    return reached


def _run_tilted_block_reference(tilt, levels, size, seed, block):
    """The survival engine walked claim by claim in plain Python."""
    rng = _block_rng(seed, block)
    live = [(0.0, 0)] * size  # (surplus gained from zero, next level)
    total = [0.0] * len(levels)
    total_sq = [0.0] * len(levels)
    work = _Workspace(size + _ROUND_STEPS)
    while live:
        k = _claims_per_round(len(live))
        steps = tilt.steps(rng, len(live) * k, work).tolist()
        survivors = []
        for i, (v, j) in enumerate(live):
            for step in steps[i * k:(i + 1) * k]:
                v = v + step
                while j < len(levels) and v < -levels[j]:
                    y = float(np.exp(tilt.R * (v + levels[j])))
                    total[j] += y
                    total_sq[j] += y * y
                    j += 1
                if j == len(levels):
                    break
            else:
                survivors.append((v, j))
        live = survivors
    return total, total_sq


class TestRunBlock:
    @pytest.mark.parametrize("make", [_poisson_model, _erlang_model])
    @pytest.mark.parametrize("u,b", [(0.0, 5.0), (0.0, 45.0), (5.0, 5.0), (5.0, 45.0)])
    def test_compact_surplus_matches_index_array_loop(self, make, u, b):
        m = make(0.5)
        for seed, block in ((0, 0), (11, 3), (2024, 7)):
            want = _run_block_reference(m, u, b, 4096, seed, block)
            assert _run_block(m, u, b, 4096, seed, block) == want

    def test_ruin_fraction_matches_theory(self):
        # At u = 0 the independent model ruins with probability 2/3; a
        # level of 60 leaves no measurable truncation.
        m = _poisson_model(0.0)
        n = 4000
        frac = 1.0 - estimate_reach_prob(m, 0.0, 60.0, n=n, seed=42).value
        se = np.sqrt((2.0 / 3.0) * (1.0 / 3.0) / n)
        assert abs(frac - 2.0 / 3.0) <= 3.0 * se

    def test_first_claim_ruin_is_reproducible(self):
        # A single path draws _claims_per_round(1) pairs in its first round.
        # Block 0 of seed 7 draws a first pair with x > c w (seed 7 is the
        # smallest nonnegative seed that does), so a single path from zero
        # surplus is ruined by its first claim.
        m = _poisson_model(0.0)
        w, x = sample_pairs(m, _block_rng(7, 0), _claims_per_round(1))
        assert x[0] > m.c * w[0]
        assert [_run_block(m, 0.0, 60.0, 1, 7, 0) for _ in range(2)] == [0, 0]

    def test_level_crossed_before_first_claim(self):
        # Block 0 of seed 7 draws a first pair with c w >= 0.5 and x > c w
        # (seed 7 is the smallest nonnegative seed that does; 15 and 27 also
        # qualify): the premium income lifts u = 0 to b = 0.5 before the
        # claim that would ruin the path.
        m = _poisson_model(0.0)
        w, x = sample_pairs(m, _block_rng(7, 0), _claims_per_round(1))
        assert m.c * w[0] >= 0.5
        assert x[0] > m.c * w[0]
        assert _run_block(m, 0.0, 0.5, 1, 7, 0) == 1

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
        for seed, block in ((0, 0), (11, 3)):
            total, total_sq = _run_tilted_block(tilt, levels, 4096, seed, block,
                                                _Workspace(4096 + _ROUND_STEPS))
            want, want_sq = _run_tilted_block_reference(tilt, levels.tolist(), 4096,
                                                        seed, block)
            np.testing.assert_allclose(total, want, rtol=1e-12, atol=0.0)
            np.testing.assert_allclose(total_sq, want_sq, rtol=1e-12, atol=0.0)


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
