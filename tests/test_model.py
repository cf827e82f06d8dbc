"""Tests for model primitives: copula, margins, auxiliaries, sampling."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate, stats

from fgmruin.errors import InputError, LoadingError
from fgmruin.model import (
    Erlang2,
    ExpClaim,
    ExpPoisson,
    FgmParam,
    ModelSpec,
    conditional_grade,
    f_tilde,
    fgm_cdf,
    fgm_density,
    h_aux,
    h_tilde,
    joint_density,
    k_aux,
    sample_pairs,
)


def _poisson_model(theta, c=1.5, alpha=1.0, lam=1.0):
    return ModelSpec(c, ExpClaim(alpha), ExpPoisson(lam), FgmParam(theta))


def _erlang_model(theta, c=1.5, alpha=1.0, beta=2.0):
    return ModelSpec(c, ExpClaim(alpha), Erlang2(beta), FgmParam(theta))


class TestFgmParam:
    @pytest.mark.parametrize("theta", [-1.0, -0.25, 0.0, 1.0])
    def test_accepts_range(self, theta):
        assert FgmParam(theta).theta == theta

    @pytest.mark.parametrize("theta", [-1.0001, 1.5, np.nan, np.inf])
    def test_rejects_out_of_range(self, theta):
        with pytest.raises(InputError):
            FgmParam(theta)


class TestFgmCdf:
    def test_edge_collapses_to_margin(self):
        assert fgm_cdf(1.0, 0.4, 0.7) == pytest.approx(0.4, abs=1e-15)

    def test_independence_is_product(self):
        assert fgm_cdf(0.3, 0.6, 0.0) == pytest.approx(0.18, abs=1e-15)

    @pytest.mark.parametrize("theta", [-1.0, -0.3, 0.2, 1.0])
    def test_center_value(self, theta):
        # C(1/2, 1/2) = 1/4 + theta/16
        want = 0.25 + 0.0625 * theta
        assert fgm_cdf(0.5, 0.5, theta) == pytest.approx(want, abs=1e-15)

    def test_center_at_full_dependence(self):
        assert fgm_cdf(0.5, 0.5, 1.0) == pytest.approx(0.3125, abs=1e-15)

    @pytest.mark.parametrize("theta", [-1.0, 0.3, 1.0])
    def test_uniform_margins(self, theta):
        grid = np.linspace(0.0, 1.0, 100)
        assert np.max(np.abs(fgm_cdf(grid, 1.0, theta) - grid)) <= 1e-15
        assert np.max(np.abs(fgm_cdf(1.0, grid, theta) - grid)) <= 1e-15
        assert np.max(np.abs(fgm_cdf(grid, 0.0, theta))) <= 1e-15

    @pytest.mark.parametrize("u,v", [(-0.1, 0.5), (0.5, 1.1), (2.0, 2.0)])
    def test_domain_errors(self, u, v):
        with pytest.raises(InputError):
            fgm_cdf(u, v, 0.5)

    def test_accepts_param_object(self):
        assert fgm_cdf(0.5, 0.5, FgmParam(1.0)) == pytest.approx(0.3125)


class TestFgmDensity:
    def test_center_row_is_flat(self):
        v = np.linspace(0.0, 1.0, 11)
        assert np.max(np.abs(fgm_density(0.5, v, 0.9) - 1.0)) <= 1e-15

    def test_corner_value(self):
        assert fgm_density(0.0, 0.0, 0.5) == pytest.approx(1.5, abs=1e-15)

    def test_opposite_quadrant(self):
        assert fgm_density(0.25, 0.75, -1.0) == pytest.approx(1.25, abs=1e-15)

    @pytest.mark.parametrize("theta", [-1.0, 1.0])
    def test_nonnegative_on_grid(self, theta):
        g = np.linspace(0.0, 1.0, 41)
        uu, vv = np.meshgrid(g, g)
        assert np.min(fgm_density(uu, vv, theta)) >= -1e-15

    @pytest.mark.parametrize("theta", [-1.0, 0.4, 1.0])
    def test_normalizes_to_one(self, theta):
        total, err = integrate.dblquad(
            lambda v, u: fgm_density(u, v, theta), 0.0, 1.0, 0.0, 1.0
        )
        assert total == pytest.approx(1.0, abs=1e-8)

    def test_domain_errors(self):
        with pytest.raises(InputError):
            fgm_density(1.2, 0.5, 0.0)


class TestExpMargins:
    def test_claim_accessors(self):
        ex = ExpClaim(2.0)
        assert ex.mean == pytest.approx(0.5)
        assert ex.pdf(0.0) == pytest.approx(2.0)
        assert ex.cdf(np.log(2.0) / 2.0) == pytest.approx(0.5, abs=1e-14)
        assert ex.ppf(0.5) == pytest.approx(np.log(2.0) / 2.0, abs=1e-14)

    def test_poisson_accessors(self):
        ar = ExpPoisson(0.5)
        assert ar.mean == pytest.approx(2.0)
        assert ar.pdf(0.0) == pytest.approx(0.5)

    @pytest.mark.parametrize("rate", [0.0, -1.0, np.nan])
    def test_positive_rate_required(self, rate):
        with pytest.raises(InputError):
            ExpClaim(rate)
        with pytest.raises(InputError):
            ExpPoisson(rate)
        with pytest.raises(InputError):
            Erlang2(rate)

    def test_ppf_rejects_unit_quantile(self):
        with pytest.raises(InputError):
            ExpClaim(1.0).ppf(1.0)
        with pytest.raises(InputError):
            ExpPoisson(1.0).ppf(1.0)
        with pytest.raises(InputError):
            Erlang2(2.0).ppf(1.0)


class TestErlang2:
    def test_mean_and_pdf(self):
        e2 = Erlang2(2.0)
        assert e2.mean == pytest.approx(1.0)
        assert e2.pdf(0.0) == pytest.approx(0.0)
        assert e2.pdf(1.0) == pytest.approx(4.0 * np.exp(-2.0))

    @pytest.mark.parametrize("beta", [0.5, 2.0, 3.7])
    def test_ppf_matches_reference(self, beta):
        e2 = Erlang2(beta)
        ref = stats.erlang(2, scale=1.0 / beta)
        q = np.linspace(0.001, 0.999, 25)
        assert np.max(np.abs(e2.ppf(q) - ref.ppf(q))) <= 1e-9

    def test_cdf_ppf_roundtrip(self):
        e2 = Erlang2(2.0)
        q = np.concatenate([
            [0.0], 10.0 ** -np.arange(300.0, 5.0, -1.0),
            np.linspace(1e-6, 1.0 - 1e-6, 200), 1.0 - 10.0 ** -np.arange(6.0, 16.0),
        ])
        assert np.max(np.abs(e2.cdf(e2.ppf(q)) - q)) <= 1e-12

    def test_scalar_and_vector_agree(self):
        e2 = Erlang2(2.0)
        qs = [0.01, 0.5, 0.99]
        vec = e2.ppf(np.array(qs))
        for q, want in zip(qs, vec):
            assert e2.ppf(q) == pytest.approx(want, abs=0.0)


class TestModelSpec:
    def test_accessors(self):
        m = _poisson_model(0.5)
        assert m.theta == 0.5
        assert m.m1 == pytest.approx(1.0)

    def test_loading_requires_positive_margin(self):
        with pytest.raises(LoadingError):
            ModelSpec(1.0, ExpClaim(1.0), ExpPoisson(1.0), FgmParam(0.0))

    def test_loading_equality_rejected(self):
        # c E[W] == E[X] has no safety margin and must be rejected too.
        with pytest.raises(LoadingError):
            ModelSpec(1.0, ExpClaim(1.0), Erlang2(2.0), FgmParam(0.0))

    def test_loading_error_is_value_error(self):
        with pytest.raises(ValueError):
            ModelSpec(0.5, ExpClaim(1.0), ExpPoisson(1.0), FgmParam(0.0))

    def test_invalid_premium_rate(self):
        with pytest.raises(InputError):
            ModelSpec(-1.5, ExpClaim(1.0), ExpPoisson(1.0), FgmParam(0.0))


class TestJointDensity:
    def test_independence_factorizes(self):
        m = _poisson_model(0.0)
        x = np.array([0.2, 1.0, 3.0])
        t = np.array([0.1, 0.5, 2.0])
        want = m.claim.pdf(x) * m.arrival.pdf(t)
        assert np.max(np.abs(joint_density(x, t, m) - want)) <= 1e-14

    def test_origin_value(self):
        # f(0, 0) = alpha lam (1 + theta) since both grades start at 0.
        m = _poisson_model(0.5)
        assert joint_density(0.0, 0.0, m) == pytest.approx(1.5, abs=1e-14)

    @pytest.mark.parametrize(
        "model,x,t",
        [
            (_erlang_model(-1.0), 0.7, 1.3),
            (_poisson_model(0.8), 0.9, 0.6),
            (_erlang_model(0.6), 1.8, 0.4),
        ],
    )
    def test_matches_mixed_partial_of_joint_cdf(self, model, x, t):
        """Density equals the mixed second partial of the copula joint CDF.

        Central differences of C(F(x), G(t)) at an interior point provide
        an oracle independent of the density formula.
        """
        h = 1e-5

        def joint_cdf(xx, tt):
            return fgm_cdf(model.claim.cdf(xx), model.arrival.cdf(tt), model.theta)

        num = (
            joint_cdf(x + h, t + h)
            - joint_cdf(x - h, t + h)
            - joint_cdf(x + h, t - h)
            + joint_cdf(x - h, t - h)
        ) / (4.0 * h * h)
        assert joint_density(x, t, model) == pytest.approx(num, abs=1e-6)

    @pytest.mark.parametrize("model", [_poisson_model(0.8), _erlang_model(-1.0)])
    def test_mass_matches_joint_cdf(self, model):
        top = 40.0
        mass, err = integrate.dblquad(
            lambda t, x: joint_density(x, t, model), 0.0, top, 0.0, top
        )
        want = fgm_cdf(model.claim.cdf(top), model.arrival.cdf(top), model.theta)
        assert mass == pytest.approx(want, abs=1e-6)

    def test_negative_arguments_rejected(self):
        m = _poisson_model(0.5)
        with pytest.raises(InputError):
            joint_density(-0.1, 1.0, m)
        with pytest.raises(InputError):
            joint_density(1.0, -0.1, m)


@pytest.mark.parametrize("call", [
    lambda: ExpClaim(1.0).ppf(np.nan),
    lambda: ExpPoisson(1.0).ppf(np.nan),
    lambda: Erlang2(2.0).ppf(np.nan),
    lambda: fgm_cdf(np.nan, 0.5, 0.5),
    lambda: fgm_density(0.5, np.nan, 0.5),
    lambda: joint_density(np.nan, 1.0, _poisson_model(0.5)),
], ids=["claim-ppf", "poisson-ppf", "erlang-ppf", "fgm-cdf", "fgm-density",
        "joint-density"])
def test_nan_argument_rejected(call):
    # NaN fails every comparison, so a domain check written as "any out of
    # range" lets it through; each check must ask for all in range.
    with pytest.raises(InputError):
        call()


class TestAuxiliaries:
    def test_h_aux_values(self):
        claim = ExpClaim(1.0)
        assert h_aux(0.0, claim) == pytest.approx(1.0, abs=1e-14)
        assert h_aux(np.log(2.0), claim) == pytest.approx(0.0, abs=1e-14)
        assert h_aux(-1.0, claim) == 0.0

    def test_h_aux_integrates_to_zero(self):
        claim = ExpClaim(1.3)
        total, err = integrate.quad(lambda x: h_aux(x, claim), 0.0, 80.0)
        assert total == pytest.approx(0.0, abs=1e-10)

    def test_k_aux_values(self):
        pois = ExpPoisson(1.0)
        erl = Erlang2(2.0)
        assert k_aux(0.0, pois) == pytest.approx(1.0, abs=1e-14)
        assert k_aux(0.0, erl) == pytest.approx(0.0, abs=1e-14)
        for arrival in (pois, erl):
            median = arrival.ppf(0.5)
            assert k_aux(median, arrival) == pytest.approx(0.0, abs=1e-10)

    @pytest.mark.parametrize("arrival", [ExpPoisson(0.7), Erlang2(2.0)])
    def test_k_aux_integrates_to_zero(self, arrival):
        total, err = integrate.quad(lambda t: k_aux(t, arrival), 0.0, 120.0)
        assert total == pytest.approx(0.0, abs=1e-10)


class TestTransforms:
    def test_f_tilde_values(self):
        claim = ExpClaim(1.0)
        assert f_tilde(0.0, claim) == pytest.approx(1.0)
        assert f_tilde(1.0, claim) == pytest.approx(0.5)
        assert f_tilde(claim.alpha, claim) == pytest.approx(0.5)

    def test_h_tilde_values(self):
        claim = ExpClaim(1.0)
        assert h_tilde(0.0, claim) == pytest.approx(0.0, abs=1e-15)
        assert h_tilde(1.0, claim) == pytest.approx(1.0 / 6.0)
        assert abs(h_tilde(1e8, claim)) < 1e-7

    def test_pole_arguments_rejected(self):
        claim = ExpClaim(1.0)
        with pytest.raises(InputError):
            f_tilde(-1.0, claim)
        with pytest.raises(InputError):
            h_tilde(-1.0, claim)
        with pytest.raises(InputError):
            h_tilde(-2.0, claim)

    @pytest.mark.parametrize("alpha", [1.0, 2.0])
    @pytest.mark.parametrize("s", [0.5, 1.0, 2.0])
    def test_h_tilde_matches_quadrature(self, alpha, s):
        claim = ExpClaim(alpha)
        val, err = integrate.quad(
            lambda x: np.exp(-s * x) * h_aux(x, claim), 0.0, np.inf
        )
        assert h_tilde(s, claim) == pytest.approx(val, abs=1e-8)


@given(
    p=st.floats(1e-9, 1.0 - 1e-9, allow_nan=False),
    a=st.floats(-1.0, 1.0, allow_nan=False),
)
@settings(max_examples=200, deadline=None)
def test_conditional_grade_solves_its_equation(p, a):
    g = conditional_grade(p, a)
    assert 0.0 <= g <= 1.0
    assert abs(g + a * g * (1.0 - g) - p) < 1e-12


class TestSampling:
    def test_rejects_negative_count(self):
        m = _poisson_model(0.0)
        with pytest.raises(InputError):
            sample_pairs(m, np.random.default_rng(0), -1)

    def test_zero_count_gives_empty(self):
        m = _poisson_model(0.0)
        w, x = sample_pairs(m, np.random.default_rng(0), 0)
        assert w.shape == (0,)
        assert x.shape == (0,)

    @pytest.mark.parametrize("make", [_poisson_model, _erlang_model])
    @pytest.mark.parametrize("theta", [-1.0, -1e-13, 0.0, 0.5, 1.0])
    def test_pairs_equal_margin_and_grade_functions(self, make, theta):
        # The in-place sampler must give, bit for bit, what the public
        # quantile or cdf, conditional_grade and the claim quantile give on
        # the same draws; theta = -1e-13 takes the |a| < 1e-12 branch.
        m = make(theta, alpha=0.7)
        n = 50_000
        w, x = sample_pairs(m, np.random.default_rng(99), n)
        rng = np.random.default_rng(99)
        if isinstance(m.arrival, Erlang2):
            want_w = rng.gamma(2.0, 1.0 / m.arrival.beta, n)
            v = m.arrival.cdf(want_w)
        else:
            v = rng.random(n)
            want_w = m.arrival.ppf(v)
        grade = conditional_grade(rng.random(n), theta * (1.0 - 2.0 * v))
        assert np.array_equal(w, want_w)
        assert np.array_equal(x, m.claim.ppf(grade))

    def test_independence_has_no_correlation(self):
        m = _poisson_model(0.0)
        n = 100_000
        w, x = sample_pairs(m, np.random.default_rng(2024), n)
        corr = np.corrcoef(w, x)[0, 1]
        assert abs(corr) < 3.0 / np.sqrt(n)

    @pytest.mark.parametrize("make", [_poisson_model, _erlang_model])
    def test_grade_correlation_tracks_dependence(self, make):
        """Sampled grade correlation matches the quadrature moment.

        The grade covariance scale 12 E[UV] - 3 is computed from the
        copula density by quadrature and compared with the sampled
        version, so the sampler is checked against the copula itself
        rather than a closed-form shortcut.
        """
        theta = 1.0
        m = make(theta)
        want, err = integrate.dblquad(
            lambda v, u: 12.0 * u * v * fgm_density(u, v, theta), 0, 1, 0, 1
        )
        want -= 3.0
        n = 1_000_000
        w, x = sample_pairs(m, np.random.default_rng(7), n)
        uu = m.arrival.cdf(w)
        vv = m.claim.cdf(x)
        stat = 12.0 * uu * vv
        got = np.mean(stat) - 3.0
        se = np.std(stat) / np.sqrt(n)
        assert got == pytest.approx(want, abs=3.0 * se)

    @pytest.mark.parametrize("make", [_poisson_model, _erlang_model])
    def test_joint_cdf_at_medians(self, make):
        theta = -0.8
        m = make(theta)
        n = 200_000
        w, x = sample_pairs(m, np.random.default_rng(31), n)
        mw = m.arrival.ppf(0.5)
        mx = m.claim.ppf(0.5)
        p_hat = np.mean((w <= mw) & (x <= mx))
        p = fgm_cdf(0.5, 0.5, theta)
        se = np.sqrt(p * (1.0 - p) / n)
        assert abs(p_hat - p) <= 3.0 * se

    @pytest.mark.parametrize("theta", [-1.0, 1.0])
    def test_erlang_joint_grade_cdf_on_quartile_grid(self, theta):
        """The Erlang sampler's grade pairs follow the FGM copula.

        The empirical joint CDF of (F_W(w), F_X(x)) at each pair of the
        quartiles 0.25, 0.5 and 0.75 must lie within four binomial
        standard errors of C(q1, q2).
        """
        m = _erlang_model(theta)
        n = 200_000
        w, x = sample_pairs(m, np.random.default_rng(2718), n)
        grade_w = m.arrival.cdf(w)
        grade_x = m.claim.cdf(x)
        q = np.array([0.25, 0.5, 0.75])
        below_w = grade_w[:, None] <= q
        below_x = grade_x[:, None] <= q
        got = below_w.T.astype(float) @ below_x.astype(float) / n
        want = fgm_cdf(q[:, None], q[None, :], theta)
        se = np.sqrt(want * (1.0 - want) / n)
        assert np.all(np.abs(got - want) <= 4.0 * se), np.abs(got - want) / se

    @pytest.mark.parametrize("make", [_poisson_model, _erlang_model])
    def test_marginals_pass_ks(self, make):
        m = make(0.6)
        n = 100_000
        w, x = sample_pairs(m, np.random.default_rng(1717), n)
        res_w = stats.kstest(w, m.arrival.cdf)
        res_x = stats.kstest(x, m.claim.cdf)
        assert res_w.pvalue > 0.001
        assert res_x.pvalue > 0.001
