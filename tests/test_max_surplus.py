"""Tests for maximum-surplus-before-ruin probabilities."""

import cmath
import math
import warnings

import numpy as np
import pytest
from scipy.integrate import quad

from fgmruin import max_surplus
from fgmruin.classical import survival_classical
from fgmruin.errors import ConditioningError, InputError, StructuralError
from fgmruin.max_surplus import ChiSolution, chi, chi_characteristic, solve_chi, xi
from fgmruin.model import Erlang2, ExpClaim, ExpPoisson, FgmParam, ModelSpec
from fgmruin.polyexp import poly_roots

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
        assert p.degree() == 4
        rs = poly_roots(p)
        assert np.count_nonzero(rs.zero) == 1

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
        lead = p.coef[-1]
        monic = tuple(co / lead for co in p.coef)
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
        phi = survival_classical(m)
        u = np.linspace(0.0, PRESET_B, 41)
        want = phi(u) / phi(PRESET_B)
        assert np.max(np.abs(sol(u) - want)) <= 1e-12

    @pytest.mark.parametrize("theta", [-0.5, 0.5])
    @pytest.mark.parametrize("u", [0.0, 1.0, 5.0])
    def test_far_target_approaches_unconditional_survival(self, theta, u):
        # chi(u, b) -> phi(u) as b grows; at b = 40 they already agree
        # to a few parts in 1e4.
        m = _model(theta)
        want = survival_classical(m)(u)
        assert abs(chi(m, u, 40.0) - want) <= 1e-3

    @pytest.mark.parametrize("theta", [-1.0, 0.0, 0.5])
    @pytest.mark.parametrize(
        "alpha,lam,c", [(1.0, 1.0, 1.5), (0.2, 0.5, 3.0), (5.0, 1.0, 0.22)]
    )
    def test_distant_target_equals_unconditional_survival(self, theta, alpha, lam, c):
        # At b = 1000 / alpha, e^{s b} overflows; the anchored growing term
        # keeps the solve finite, and chi(u, b) is phi(u) to rounding.
        m = _model(theta, c=c, alpha=alpha, lam=lam)
        b = 1000.0 / alpha
        u = np.linspace(0.0, 50.0 / alpha, 101)
        sol = solve_chi(m, b)
        assert np.max(np.abs(sol(u) - survival_classical(m)(u))) <= 1e-9
        assert sol(b) == pytest.approx(1.0, abs=1e-9)

    def test_continuous_in_theta_at_independence(self):
        # One system serves every theta, so the slope of chi(0) in theta
        # is the same from 1e-2 down to 1e-10; a switch to another formula
        # at some small theta would show as a jump in it.
        b = 10.0
        base = chi(_model(0.0), 0.0, b)
        slopes = [
            (chi(_model(th), 0.0, b) - base) / th
            for th in (1e-2, 1e-5, 1e-7, 1e-10)
        ]
        assert max(slopes) - min(slopes) <= 0.01 * abs(slopes[0])

    def test_diagnostics_are_small(self):
        sol = solve_chi(_model(1.0), PRESET_B)
        assert sol.condition < 1e12
        assert sol.assembly_defect <= 1e-6
        assert sol.boundary_residual <= 1e-6
        assert isinstance(sol, ChiSolution)

    def test_growing_term_is_retained(self):
        # The finite-interval solution keeps a growing exponential, anchored
        # at the target level: its weight there is at most 1, and it is
        # exponentially small at u = 0.
        sol = solve_chi(_model(0.5), PRESET_B)
        assert all(r.real < -1e-9 for _, r in sol.chi.terms)
        ((coef, rate),) = sol.growing.terms
        assert sol.growing.constant == 0.0
        assert rate > 1e-9
        assert abs(coef) <= 1.0
        assert abs(coef) * np.exp(-rate * PRESET_B) <= 1e-12


class TestGates:
    def test_huge_rates_keep_defect_finite(self):
        # The defect's summands are of degree 4 in the rates; at
        # alpha = lam = 1e100 they would overflow in model units, and the
        # same model at alpha = lam = 1, b = 10 gives chi.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sol = solve_chi(_model(0.5, c=2.0, alpha=1e100, lam=1e100), 1e-99)
        assert math.isfinite(sol.assembly_defect)
        assert sol.assembly_defect <= 1e-14
        want = solve_chi(_model(0.5, c=2.0), 10.0)(0.0)
        assert abs(sol(0.0) - want) <= 1e-15 * want

    def test_overflowed_system_raises_conditioning_error(self):
        # Claims a hundred orders of magnitude faster than arrivals: the
        # identity holds, but the rate-k row underflows in every column.
        with pytest.raises(ConditioningError, match="row for rate k vanished"):
            solve_chi(_model(0.5, c=2.0, alpha=1e100), 10.0)

    def test_vanished_row_refused_before_equilibration(self):
        # At alpha = 1e50 alpha r e^{r b} underflows to zero in every column;
        # dividing that row by its zero norm used to warn twice and leave a
        # NaN row for the condition gate.
        with pytest.raises(ConditioningError) as exc:
            solve_chi(_model(0.5, c=2.0, alpha=1e50), 10.0)
        assert str(exc.value) == ("coefficient system row for rate k vanished "
                                  "or overflowed (row norm 0.0)")

    def test_tiny_rates_solve_like_unit_rates(self):
        # Every rate at 1e-105 rescales alpha = lam = 1 and b = 10.  In model
        # units g ~ alpha^3 left the boundary row a subnormal norm, and the
        # row gate refused it.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sol = solve_chi(_model(0.5, c=2.0, alpha=1e-105, lam=1e-105), 1e106)
        want = solve_chi(_model(0.5, c=2.0), 10.0)
        u = np.linspace(0.0, 9.0, 10)
        np.testing.assert_allclose(sol(u * 1e105), want(u), rtol=1e-14, atol=0.0)

    def test_nan_defect_fails_assembly_gate(self, monkeypatch):
        real = max_surplus.poly_roots

        def nan_root(p):
            roots = real(p)
            roots.poles[-1] = complex("nan")
            return roots

        monkeypatch.setattr(max_surplus, "poly_roots", nan_root)
        with pytest.raises(StructuralError, match="assembly"):
            solve_chi(_model(0.5), 10.0)

    def test_nan_residual_fails_boundary_gate(self, monkeypatch):
        monkeypatch.setattr(np.linalg, "solve",
                            lambda a, b: np.full(b.shape, np.nan))
        with pytest.raises(StructuralError, match="boundary"):
            solve_chi(_model(0.5), 10.0)


class TestValidation:
    def test_surplus_above_target_rejected(self):
        sol = solve_chi(_model(0.5), 10.0)
        with pytest.raises(InputError):
            sol(10.5)

    def test_negative_surplus_rejected(self):
        # NaN fails every comparison, so it is rejected with the negatives;
        # a bool read as 0 or 1.  A list mixing a bool with floats is a
        # float grid, as for the estimators.
        sol = solve_chi(_model(0.5), 10.0)
        for u in (-0.1, np.nan, [1.0, np.nan], True, np.bool_(False), np.array(True),
                  [False, True], "x", None, [0.5, "x"]):
            with pytest.raises(InputError, match="0 <= u <= b") as info:
                sol(u)
            assert str(info.value).endswith(f"got {u!r}")
        assert sol([True, 0.5]).tolist() == sol(np.array([1.0, 0.5])).tolist()

    @pytest.mark.parametrize("b", [0.0, -5.0, np.inf, np.nan, True, np.bool_(True),
                                   np.array(True), "x", None, [2.0, 3.0]])
    def test_bad_target_level_rejected(self, b):
        # A bool level solved at b = 1; None, "x" and a list raised a bare
        # TypeError or ValueError.
        with pytest.raises(InputError, match="positive and finite") as info:
            solve_chi(_model(0.5), b)
        assert str(info.value).endswith(f"got {b!r}")

    def test_oversized_target_reports_conditioning(self):
        # e^{s b} overflows long before b = 200, but the growing term is
        # anchored at b, so the system stays well conditioned and chi(u, b)
        # is phi(u) to rounding far below the target.
        m = _model(-0.5)
        sol = solve_chi(m, 200.0)
        assert sol.condition < 1e12
        u = np.linspace(0.0, 20.0, 81)
        assert np.max(np.abs(sol(u) - survival_classical(m)(u))) <= 1e-9


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
        # At c = 0.22, alpha = 5 the growing root is about 8.5, so s b is
        # 213 at b = 25 and 851 at b = 100, where e^{s b} overflows.
        [(1.5, 1.0, 1.0, 20.0), (0.3, 2.0, 0.5, 5.0), (1.5, 1.0, 1.0, 1.0),
         (0.22, 5.0, 1.0, 25.0), (0.22, 5.0, 1.0, 100.0)],
    )
    def test_residual_vanishes(self, theta, c, alpha, lam, b):
        self._check(theta, c, alpha, lam, b)

    @pytest.mark.parametrize("theta", [0.0, 1e-9, 1e-7])
    def test_residual_vanishes_near_independence(self, theta):
        """Two roots sit within about theta of -2 alpha and 2 lam / c."""
        self._check(theta, 1.5, 1.0, 1.0, 20.0)

    def test_weak_dependence_example(self):
        """Weak dependence, a root 8e-8 from -2 alpha."""
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
        # The growing term is anchored at b.
        terms = [(co * (2.0 if complex(r).imag else 1.0), r, 0.0)
                 for co, r in sol.chi.terms]
        terms += [(co, r, b) for co, r in sol.growing.terms]

        def chi_at(u):
            return const + sum(
                co * cmath.exp(r * (u - shift)) for co, r, shift in terms
            ).real

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
            slope = sum(
                co * r * cmath.exp(r * (u - shift)) for co, r, shift in terms
            ).real
            lhs = slope - (lam / c) * chi_at(u)
            rhs = (
                (2.0 * theta * lam**2 / c**2) * big_j
                - (lam / c) * conv(f, u)
                - (theta * lam / c) * conv(h, u)
            )
            assert abs(lhs - rhs) <= self.TOL, (u, lhs, rhs)


class TestAssemblyRateGuard:
    def test_weak_dependence_example_solves(self):
        """A root 8e-8 from -2 alpha.

        At theta = 1e-6 one characteristic root is within 1.1e-7 * |2 alpha|
        of -2 alpha.  The system is well conditioned there, and chi agrees
        with the independent form phi(u)/phi(b) to about 1e-3 * theta.
        """
        alpha = math.exp(-1.0)
        m = _model(1e-6, c=2.0 / alpha, alpha=alpha, lam=1.0)
        b = 10.0 / alpha
        sol = solve_chi(m, b)
        gap = np.min(np.abs(sol.roots.poles + 2.0 * alpha))
        assert 1e-9 < gap < 1e-7
        assert sol.condition < 10.0
        assert sol.boundary_residual <= 1e-12
        u = np.linspace(0.0, b, 41)
        phi = survival_classical(m)
        assert np.max(np.abs(sol(u) - phi(u) / phi(b))) <= 1e-3 * m.theta

    def test_small_kernel_rate_solves(self):
        """A root 4.5e-10 from a small kernel rate.

        At a loading of 99 the kernel rate 2 lam / c is 0.003, and a root
        lies 4.5e-10 from it, 1.5e-7 relative to the rate.  The system is
        well conditioned.
        """
        m = _model(2e-4, c=100.0, alpha=1.0, lam=0.15)
        k = 2.0 * 0.15 / 100.0
        sol = solve_chi(m, 10.0)
        gap = np.min(np.abs(sol.roots.poles - k))
        assert 1e-9 * k < gap < 1e-9
        assert sol.condition < 10.0
        assert sol.boundary_residual <= 1e-12

    def test_root_just_outside_guard_passes_assembly_gate(self):
        """A root 1.3e-9 from -2 alpha passes the assembly gate.

        The identity over g(r) = (alpha + r)(2 alpha + r)(k - r) divides by
        no gap, so the eigenvalues' few ulps of error leave a defect near
        rounding, far below the 1e-6 gate.
        """
        m = _model(-1.333521432163324e-06, c=501.2864610575233, alpha=1.0, lam=1.0)
        sol = solve_chi(m, 10.0)
        gap = np.min(np.abs(sol.roots.poles + 2.0)) / 2.0
        assert 1e-9 < gap < 2e-9
        assert sol.assembly_defect <= 1e-7
