"""Tests for the compound Poisson survival solver."""

import numpy as np
import pytest
from numpy.polynomial import Polynomial
from hypothesis import given, settings, strategies as st
from scipy import integrate

from fgmruin.classical import (
    ClassicalSolution,
    _cleared_parts,
    classical_lt,
    solve_phi0,
    survival_classical,
)
from fgmruin.errors import InputError
from fgmruin.model import (
    Erlang2,
    ExpClaim,
    ExpPoisson,
    FgmParam,
    ModelSpec,
    f_tilde,
    h_tilde,
)
from fgmruin.polyexp import expsum_eval, partial_fractions, poly_roots

EXAMPLE = dict(c=1.5, alpha=1.0, lam=1.0)


def _model(theta, c=None, alpha=None, lam=None):
    c = EXAMPLE["c"] if c is None else c
    alpha = EXAMPLE["alpha"] if alpha is None else alpha
    lam = EXAMPLE["lam"] if lam is None else lam
    return ModelSpec(c, ExpClaim(alpha), ExpPoisson(lam), FgmParam(theta))


def _raw_transform(model, s, phi0):
    """Survival transform straight from the transformed renewal equation.

    Built pointwise from the margin transforms without clearing
    denominators, so it exercises none of the polynomial pipeline.
    """
    c, lam, th = model.c, model.arrival.lam, model.theta
    m1 = model.m1
    ft = f_tilde(s, model.claim)
    ht = h_tilde(s, model.claim)
    den = (
        c * c * s * s
        - 3.0 * lam * c * s
        + 2.0 * lam * lam * (1.0 - ft)
        + lam * c * s * (ft + th * ht)
    )
    num = c * c * s * phi0 + (-2.0 * lam * c + 2.0 * lam * lam * m1)
    return num / den


class TestTransform:
    def test_rejects_non_poisson_arrivals(self):
        m = ModelSpec(1.5, ExpClaim(1.0), Erlang2(2.0), FgmParam(0.0))
        with pytest.raises(InputError):
            classical_lt(m)

    @pytest.mark.parametrize("theta", [-1.0, 0.5])
    @pytest.mark.parametrize("phi0", [0.2, 0.9])
    def test_matches_pointwise_construction(self, theta, phi0):
        """Cleared rational transform equals the uncleared one pointwise."""
        m = _model(theta)
        lt = classical_lt(m)
        rng = np.random.default_rng(42)
        probes = 1.0 + rng.random(20) * 3.0 + 1j * rng.normal(size=20)
        for s in probes:
            want = _raw_transform(m, s, phi0)
            got = complex(lt(s, phi0))
            assert abs(got - want) <= 1e-10 * max(1.0, abs(want))

    @pytest.mark.parametrize(
        "params", [(1.5, 1.0, 1.0, -1.0), (1.5, 1.0, 1.0, 0.5), (7.3, 0.4, 2.9, 0.0)]
    )
    def test_arrays_match_factored_formulas(self, params):
        """D and both parts of N at 20 complex points, against the docstring."""
        c, a, lam, th = params
        m = _model(th, c=c, alpha=a, lam=lam)
        den, num_const, num_slope = _cleared_parts(m)
        rng = np.random.default_rng(7)
        for s in rng.normal(size=20) * 3.0 + 1j * rng.normal(size=20) * 3.0:
            q = (a + s) * (2 * a + s)
            parts = {
                "den": (
                    (c * c * s * s - 3 * lam * c * s + 2 * lam**2) * q,
                    -2 * lam**2 * a * (2 * a + s),
                    lam * c * a * s * (2 * a + s),
                    th * lam * c * a * s * s,
                ),
                "num_const": ((-2 * lam * c + 2 * lam**2 * m.m1) * q,),
                "num_slope": (c * c * s * q,),
            }
            arrays = {"den": den, "num_const": num_const, "num_slope": num_slope}
            for name, terms in parts.items():
                got = np.polyval(arrays[name][::-1], s)
                scale = sum(abs(t) for t in terms)
                assert abs(got - sum(terms)) <= 1e-12 * scale, name

    def test_roots_of_array_and_polynomial_agree(self):
        den = _cleared_parts(_model(0.5))[0]
        a, b = poly_roots(den), poly_roots(Polynomial(den))
        for field in ("poles", "zero", "growing"):
            assert np.array_equal(getattr(a, field), getattr(b, field))

    def test_denominator_degree(self):
        assert classical_lt(_model(0.7)).den.degree() == 4

    def test_zero_root_present(self):
        rs = poly_roots(classical_lt(_model(0.3)).den)
        assert min(abs(v) for v in rs.values()) < 1e-9


class TestBoundaryValue:
    def test_pinned_survival_at_zero(self):
        assert solve_phi0(_model(-0.5)) == pytest.approx(0.31468101, abs=1e-6)
        assert solve_phi0(_model(0.0)) == pytest.approx(1.0 / 3.0, abs=1e-9)
        assert solve_phi0(_model(0.5)) == pytest.approx(0.35487742, abs=1e-6)

    def test_candidates_agree_between_growing_roots(self):
        # theta away from 0 yields one real growing root here, but the
        # elimination reports every candidate it used; they must agree.
        sol = survival_classical(_model(0.5))
        vals = np.array([c.real for c in sol.phi0_candidates])
        assert np.max(vals) - np.min(vals) <= 1e-8
        assert all(abs(c.imag) <= 1e-9 for c in sol.phi0_candidates)

    def test_residue_linear_forms(self):
        """Residues as affine functions of the unknown initial value.

        At theta = -1/2 the three nonzero poles carry residues
        const + slope * phi(0) with the pinned coefficient pairs.
        """
        m = _model(-0.5)
        lt = classical_lt(m)
        rs = poly_roots(lt.den)
        dden = np.polyder(lt.den.coef[::-1])
        expected = {
            -0.2976: (-0.5747, -0.3848),
            -2.1148: (0.0042, 0.0200),
            1.4123: (-0.4295, 1.3649),
        }
        for pole, (want_const, want_slope) in expected.items():
            r = min(rs.values(), key=lambda v: abs(v - pole))
            const = complex(lt.num_const(r)) / complex(np.polyval(dden, r))
            slope = complex(lt.num_slope(r)) / complex(np.polyval(dden, r))
            assert const.real == pytest.approx(want_const, abs=2e-3)
            assert slope.real == pytest.approx(want_slope, abs=2e-3)


class TestSurvivalFunction:
    def test_example_terms_negative_dependence(self):
        sol = survival_classical(_model(-0.5))
        assert sol.phi.constant == pytest.approx(1.0, abs=1e-9)
        terms = sorted(sol.phi.terms, key=lambda t: -t[1].real)
        (c1, r1), (c2, r2) = terms
        assert c1.real == pytest.approx(-0.6958, abs=2e-3)
        assert r1.real == pytest.approx(-0.2976, abs=2e-3)
        assert c2.real == pytest.approx(0.0105, abs=2e-3)
        assert r2.real == pytest.approx(-2.1148, abs=2e-3)

    def test_example_terms_positive_dependence(self):
        sol = survival_classical(_model(0.5))
        terms = sorted(sol.phi.terms, key=lambda t: -t[1].real)
        (c1, r1), (c2, r2) = terms
        assert c1.real == pytest.approx(-0.6311, abs=2e-3)
        assert r1.real == pytest.approx(-0.3788, abs=2e-3)
        assert c2.real == pytest.approx(-0.0140, abs=2e-3)
        assert r2.real == pytest.approx(-1.8736, abs=2e-3)

    def test_example_terms_independence(self):
        sol = survival_classical(_model(0.0))
        assert len(sol.phi.terms) == 1
        coef, rate = sol.phi.terms[0]
        assert coef.real == pytest.approx(-2.0 / 3.0, abs=1e-4)
        assert rate.real == pytest.approx(-1.0 / 3.0, abs=1e-4)

    @pytest.mark.parametrize(
        "c,alpha,lam",
        [(EXAMPLE["c"], EXAMPLE["alpha"], EXAMPLE["lam"]), (1.0, 2.0, 1.3)],
    )
    def test_independence_closed_form(self, c, alpha, lam):
        """theta = 0 reduces to the classical exponential-claim formula."""
        sol = survival_classical(_model(0.0, c=c, alpha=alpha, lam=lam))
        u = np.linspace(0.0, 20.0, 201)
        want = 1.0 - (lam / (c * alpha)) * np.exp(-(alpha - lam / c) * u)
        assert np.max(np.abs(sol(u) - want)) <= 1e-9

    @pytest.mark.parametrize("theta", [-1.0, -0.5, 0.0, 0.5, 1.0])
    def test_monotone_and_bounded(self, theta):
        sol = survival_classical(_model(theta))
        u = np.arange(0.0, 20.0 + 1e-12, 0.1)
        vals = sol(u)
        assert np.all(vals >= 0.0)
        assert np.all(vals <= 1.0)
        assert np.min(np.diff(vals)) >= -1e-10

    @pytest.mark.parametrize("s", [0.5, 1.0, 2.0])
    def test_inversion_consistent_with_transform(self, s):
        # quad of phi(u) e^{-su} must reproduce the rational transform.
        m = _model(-0.8)
        sol = survival_classical(m)
        lt = classical_lt(m)
        want = complex(lt(s, sol.phi0)).real
        got, err = integrate.quad(lambda u: sol(u) * np.exp(-s * u), 0.0, np.inf)
        assert got == pytest.approx(want, rel=1e-7)

    def test_solution_fields(self):
        sol = survival_classical(_model(0.5))
        assert isinstance(sol, ClassicalSolution)
        assert 0.0 < sol.phi0 < 1.0
        assert sol.model.theta == 0.5
        u = np.array([0.0, 1.0, 5.0])
        assert np.allclose(sol(u), expsum_eval(sol.phi, u))
        assert sol(0.0) == pytest.approx(sol.phi0, abs=1e-12)

    @pytest.mark.parametrize("u", [-1.0, -1e-300, np.nan, [0.0, 1.0, -2.0]])
    def test_rejects_negative_or_nan_surplus(self, u):
        # At theta = 0 the exponential sum reads 0.0696 at u = -1.
        sol = survival_classical(_model(0.0))
        with pytest.raises(InputError, match="u >= 0"):
            sol(u)


@given(
    theta=st.floats(-1.0, 1.0, allow_nan=False),
    c=st.floats(1.2, 3.0, allow_nan=False),
)
@settings(max_examples=25, deadline=None)
def test_solver_is_stable_across_parameters(theta, c):
    sol = survival_classical(_model(theta, c=c))
    assert 0.0 < sol.phi0 < 1.0
    assert sol.phi.constant == pytest.approx(1.0, abs=1e-8)
    vals = sol(np.linspace(0.0, 30.0, 61))
    assert np.all(vals >= -1e-12)
    assert np.all(vals <= 1.0 + 1e-12)
