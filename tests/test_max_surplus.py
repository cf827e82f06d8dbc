"""Tests for maximum-surplus-before-ruin probabilities."""

import cmath
import math

import numpy as np
import pytest
from scipy.integrate import quad

from fgmruin.classical import survival_classical
from fgmruin.errors import ConditioningError, InputError
from fgmruin.max_surplus import ChiSolution, chi, chi_characteristic, solve_chi, xi
from fgmruin.model import Erlang2, ExpClaim, ExpPoisson, FgmParam, ModelSpec
from fgmruin.polyexp import RootClass, poly_roots

PRESET_B = 20.0

# Decaying (coefficient, rate) pairs of chi(u, 20) on the worked example,
# four dependence levels.
PRESET_TERMS = {
    -1.0: ((-0.7223, -0.2687), (0.0186, -2.2207)),
    -0.5: ((-0.6970, -0.2976), (0.0105, -2.1148)),
    0.5: ((-0.6314, -0.3788), (-0.0140, -1.8736)),
    1.0: ((-0.5866, -0.4392), (-0.0335, -1.7305)),
}


def _model(theta, c=1.5, alpha=1.0, lam=1.0):
    return ModelSpec(c, ExpClaim(alpha), ExpPoisson(lam), FgmParam(theta))


class TestCharacteristic:
    def test_rejects_non_poisson_arrivals(self):
        m = ModelSpec(1.5, ExpClaim(1.0), Erlang2(2.0), FgmParam(0.0))
        with pytest.raises(InputError):
            chi_characteristic(m)

    def test_degree_and_zero_root(self):
        p = chi_characteristic(_model(0.7))
        assert p.degree == 4
        rs = poly_roots(p)
        assert len(rs.distinct(RootClass.ZERO)) == 1

    def test_known_root_at_independence(self):
        p = chi_characteristic(_model(0.0))
        assert abs(p(-1.0 / 3.0)) < 1e-6

    def test_known_roots_with_dependence(self):
        rs = poly_roots(chi_characteristic(_model(0.5)))
        vals = rs.values()
        for want in (-0.3788, -1.8736):
            nearest = min(vals, key=lambda v: abs(v - want))
            assert abs(nearest - want) <= 2e-4

    @pytest.mark.parametrize(
        "alpha,lam,c,theta",
        [(1.0, 1.0, 1.5, -0.5), (1.0, 1.0, 1.5, 1.0), (2.0, 1.3, 1.0, 0.7)],
    )
    def test_monic_closed_form_coefficients(self, alpha, lam, c, theta):
        """Characteristic quartic has the closed-form coefficient display."""
        m = _model(theta, c=c, alpha=alpha, lam=lam)
        p = chi_characteristic(m)
        lead = p.coeffs[-1]
        monic = tuple(co / lead for co in p.coeffs)
        want = (
            0.0,
            -(4.0 * alpha**2 * lam / c - 4.0 * alpha * lam**2 / c**2),
            -(
                8.0 * alpha * lam / c
                - 2.0 * alpha**2
                - 2.0 * lam**2 / c**2
                - alpha * lam * theta / c
            ),
            -(3.0 * lam / c - 3.0 * alpha),
            1.0,
        )
        assert len(monic) == len(want)
        for got, expect in zip(monic, want):
            assert got == pytest.approx(expect, abs=1e-12 * max(1.0, abs(expect)))

    def test_shares_survival_denominator_roots(self):
        from fgmruin.classical import classical_lt

        m = _model(-0.5)
        r_chi = sorted(v.real for v in poly_roots(chi_characteristic(m)).values())
        r_phi = sorted(v.real for v in poly_roots(classical_lt(m).den).values())
        assert np.allclose(r_chi, r_phi, atol=1e-9)


class TestSolveChi:
    @pytest.mark.parametrize("b", [5.0, 20.0, 40.0])
    @pytest.mark.parametrize("theta", [-1.0, 0.0, 0.5])
    def test_boundary_value_at_target(self, theta, b):
        sol = solve_chi(_model(theta), b)
        assert sol(b) == pytest.approx(1.0, abs=1e-9)
        assert sol.boundary_residual <= 1e-9

    @pytest.mark.parametrize("theta", [-1.0, -0.5, 0.5, 1.0])
    def test_monotone_and_bounded_in_surplus(self, theta):
        sol = solve_chi(_model(theta), PRESET_B)
        u = np.arange(0.0, PRESET_B + 1e-9, 0.25)
        vals = sol(u)
        assert np.all(vals >= 0.0)
        assert np.all(vals <= 1.0 + 1e-12)
        assert np.min(np.diff(vals)) >= -1e-10

    def test_decreasing_in_target_level(self):
        m = _model(0.5)
        for u in (0.0, 1.0, 5.0):
            vals = [chi(m, u, b) for b in (10.0, 20.0, 40.0)]
            assert vals[0] > vals[1] > vals[2]

    @pytest.mark.parametrize("theta", sorted(PRESET_TERMS))
    def test_preset_term_table(self, theta):
        """Decaying terms of chi(u, 20) match the eight pinned pairs."""
        sol = solve_chi(_model(theta), PRESET_B)
        decaying = sorted(
            ((c, r) for c, r in sol.chi.terms if r.real < -1e-9),
            key=lambda t: -t[1].real,
        )
        assert len(decaying) == 2
        for (coef, rate), (want_c, want_r) in zip(decaying, PRESET_TERMS[theta]):
            assert coef.real == pytest.approx(want_c, abs=2e-3)
            assert rate.real == pytest.approx(want_r, abs=2e-3)

    def test_point_values_on_preset_level(self):
        assert chi(_model(0.5), 0.0, PRESET_B) == pytest.approx(0.3546, abs=3e-3)
        assert chi(_model(1.0), 5.0, PRESET_B) == pytest.approx(0.9347, abs=3e-3)
        assert xi(_model(-1.0), 0.0, PRESET_B) == pytest.approx(0.7037, abs=3e-3)

    def test_xi_is_complement(self):
        sol = solve_chi(_model(0.5), PRESET_B)
        u = np.linspace(0.0, PRESET_B, 9)
        assert np.allclose(sol.xi(u), 1.0 - sol(u), atol=1e-14)
        assert xi(_model(0.5), 3.0, PRESET_B) == pytest.approx(
            1.0 - chi(_model(0.5), 3.0, PRESET_B), abs=1e-14
        )

    def test_independence_reduces_to_survival_ratio(self):
        m = _model(0.0)
        sol = solve_chi(m, PRESET_B)
        assert sol.condition == 1.0
        phi = survival_classical(m)
        u = np.linspace(0.0, PRESET_B, 41)
        want = phi(u) / phi(PRESET_B)
        assert np.max(np.abs(sol(u) - want)) <= 1e-6

    @pytest.mark.parametrize("theta", [-0.5, 0.5])
    @pytest.mark.parametrize("u", [0.0, 1.0, 5.0])
    def test_far_target_approaches_unconditional_survival(self, theta, u):
        # chi(u, b) -> phi(u) as b grows; at b = 40 they already agree
        # to a few parts in 1e4.
        m = _model(theta)
        want = survival_classical(m)(u)
        assert abs(chi(m, u, 40.0) - want) <= 1e-3

    def test_diagnostics_are_small(self):
        sol = solve_chi(_model(1.0), PRESET_B)
        assert sol.condition < 1e12
        assert sol.assembly_defect <= 1e-6
        assert sol.boundary_residual <= 1e-6
        assert isinstance(sol, ChiSolution)

    def test_growing_term_is_retained(self):
        # The finite-interval solution keeps a growing exponential whose
        # weight is exponentially small at the preset level.
        sol = solve_chi(_model(0.5), PRESET_B)
        growing = [(c, r) for c, r in sol.chi.terms if r.real > 1e-9]
        assert len(growing) == 1
        coef, rate = growing[0]
        assert abs(coef) * np.exp(rate.real * PRESET_B) <= 1.0


class TestValidation:
    def test_surplus_above_target_rejected(self):
        sol = solve_chi(_model(0.5), 10.0)
        with pytest.raises(InputError):
            sol(10.5)

    def test_negative_surplus_rejected(self):
        sol = solve_chi(_model(0.5), 10.0)
        with pytest.raises(InputError):
            sol(-0.1)

    @pytest.mark.parametrize("b", [0.0, -5.0, np.inf, np.nan])
    def test_bad_target_level_rejected(self, b):
        with pytest.raises(InputError):
            solve_chi(_model(0.5), b)

    def test_oversized_target_reports_conditioning(self):
        # The growing characteristic root makes e^{rb} overflow the
        # solvable range long before b = 200.
        with pytest.raises(ConditioningError):
            solve_chi(_model(-0.5), 200.0)


class TestRenewalEquation:
    """The solved chi satisfies the renewal equation it is built from.

    Independent of the row algebra in solve_chi: A, B and J are evaluated
    by adaptive quadrature of the returned exponential sum, and chi' comes
    from its terms.  A wrong row leaves an O(1) residual that the 1e-3
    reference-table tests above cannot see.
    """

    TOL = 1e-9

    @pytest.mark.parametrize("theta", [-1.0, 0.5])
    @pytest.mark.parametrize(
        "c,alpha,lam,b",
        # At b = 1 the decaying-root entries of the rate-k row are of
        # order one; at the two larger levels they are exponentially small.
        [(1.5, 1.0, 1.0, 20.0), (0.3, 2.0, 0.5, 5.0), (1.5, 1.0, 1.0, 1.0)],
    )
    def test_residual_vanishes(self, theta, c, alpha, lam, b):
        self._check(theta, c, alpha, lam, b)

    def test_weak_dependence_example(self):
        """Just above the ratio branch, a root 8e-8 from -2 alpha."""
        alpha = math.exp(-1.0)
        self._check(1e-6, 2.0 / alpha, alpha, 1.0, 10.0 / alpha)

    def test_small_kernel_rate_example(self):
        """A root 4.5e-10 from the kernel rate 2 lam / c = 0.003."""
        self._check(2e-4, 100.0, 1.0, 0.15, 10.0)

    def _check(self, theta, c, alpha, lam, b):
        sol = solve_chi(_model(theta, c=c, alpha=alpha, lam=lam), b)
        k = 2.0 * lam / c

        # Scalar cmath evaluation keeps the nested quadrature fast; a term
        # with a non-real rate stands for its conjugate pair.
        const = sol.chi.constant
        terms = [(co * (2.0 if complex(r).imag else 1.0), r)
                 for co, r in sol.chi.terms]

        def chi_at(u):
            return const + sum(co * cmath.exp(r * u) for co, r in terms).real

        def conv(density, u):
            return quad(lambda x: chi_at(u - x) * density(x), 0.0, u,
                        epsabs=1e-14, epsrel=1e-13)[0]

        def f(x):
            return alpha * math.exp(-alpha * x)

        def h(x):
            return 2.0 * alpha * math.exp(-2.0 * alpha * x) - f(x)

        for u in (0.0, 0.3 * b, 0.7 * b):
            big_j = quad(lambda s: conv(h, s) * math.exp(-k * (s - u)), u, b,
                         epsabs=1e-14, epsrel=1e-13)[0]
            slope = sum(co * r * cmath.exp(r * u) for co, r in terms).real
            lhs = slope - (lam / c) * chi_at(u)
            rhs = (
                (2.0 * theta * lam**2 / c**2) * big_j
                - (lam / c) * conv(f, u)
                - (theta * lam / c) * conv(h, u)
            )
            assert abs(lhs - rhs) <= self.TOL, (u, lhs, rhs)


class TestAssemblyRateGuard:
    def test_weak_dependence_example_solves(self):
        """A root 8e-8 from -2 alpha is outside the 1e-9 assembly-rate guard.

        At theta = 1e-6, just above the ratio branch, one characteristic
        root is still within 1.1e-7 * |2 alpha| of -2 alpha.  The system is
        well conditioned there, and chi agrees with the independent ratio
        form to about 1e-3 * theta.
        """
        alpha = math.exp(-1.0)
        m = _model(1e-6, c=2.0 / alpha, alpha=alpha, lam=1.0)
        b = 10.0 / alpha
        sol = solve_chi(m, b)
        gap = min(abs(r.value + 2.0 * alpha) for r in sol.roots.roots)
        assert 1e-9 < gap < 1e-7
        assert sol.condition < 10.0
        assert sol.boundary_residual <= 1e-12
        u = np.linspace(0.0, b, 41)
        phi = survival_classical(m)
        assert np.max(np.abs(sol(u) - phi(u) / phi(b))) <= 1e-3 * m.theta

    def test_small_kernel_rate_solves(self):
        """The guard is relative to |rate|, not to max(1, |rate|).

        At a loading of 99 the kernel rate 2 lam / c is 0.003, and a root
        lies 4.5e-10 from it: inside 1e-9 in absolute terms but 1.5e-7
        relative to the rate.  The system is well conditioned.
        """
        m = _model(2e-4, c=100.0, alpha=1.0, lam=0.15)
        k = 2.0 * 0.15 / 100.0
        sol = solve_chi(m, 10.0)
        gap = min(abs(r.value - k) for r in sol.roots.roots)
        assert 1e-9 * k < gap < 1e-9
        assert sol.condition < 10.0
        assert sol.boundary_residual <= 1e-12

    def test_root_just_outside_guard_passes_assembly_gate(self):
        """A root 1.3e-9 from -2 alpha needs the roots to about an ulp.

        The eigenvalue is 1.5e-15 off, relative, which leaves an assembly
        defect of 1.2e-6, above the 1e-6 gate; refined, it is 1.4e-8.
        """
        m = _model(-1.333521432163324e-06, c=501.2864610575233, alpha=1.0, lam=1.0)
        sol = solve_chi(m, 10.0)
        gap = min(abs(r.value + 2.0) for r in sol.roots.roots) / 2.0
        assert 1e-9 < gap < 2e-9
        assert sol.assembly_defect <= 1e-7
