"""Tests for the dependent Erlang(2) renewal survival solver."""

import math

import numpy as np
import pytest
from numpy.polynomial import Polynomial
from numpy.polynomial import polynomial as P
from hypothesis import given, settings, strategies as st
from scipy import integrate
from test_domain import _check_shape

from fgmruin.classical import _cleared_parts as _classical_parts
from fgmruin.erlang import (
    GrowthElimination,
    SignVariant,
    _cleared_parts,
    erlang_lt,
    select_sign_variant,
    sign_variant_report,
    solve_delta0,
    survival_erlang2,
)
from fgmruin.errors import InputError, StructuralError
from fgmruin.model import Erlang2, ExpClaim, ExpPoisson, FgmParam, ModelSpec
from fgmruin.polyexp import RationalFn, poly_roots

INDIVIDUAL = GrowthElimination.INDIVIDUAL
POOLED = GrowthElimination.POOLED
PLUS = SignVariant.PLUS
MINUS = SignVariant.MINUS

# Boundary values under the exact elimination, frozen from this solver
# and cross-checked against large simulations (z within one stderr at
# four million paths).  Regression anchors, not external references.
EXACT_DELTA0 = {
    -1.0: 0.37523106,
    -0.5: 0.39850117,
    0.5: 0.45523384,
    1.0: 0.48997339,
}

# Boundary values and term tables under pooled elimination; these match
# the four-decimal worked-example values.
POOLED_DELTA0 = {-1.0: 0.3713, -0.5: 0.3963, 0.5: 0.4579, 1.0: 0.4957}
POOLED_TERMS = {
    -1.0: ((-0.6459, -0.3488), (0.0172, -2.1517)),
    -0.5: ((-0.6134, -0.3833), (0.0098, -2.0792)),
    0.5: ((-0.5289, -0.4762), (-0.0132, -1.9119)),
    1.0: ((-0.4723, -0.5409), (-0.0320, -1.8116)),
}

THETAS = (-1.0, -0.5, 0.5, 1.0)


def _model(theta, c=1.5, alpha=1.0, beta=2.0):
    return ModelSpec(c, ExpClaim(alpha), Erlang2(beta), FgmParam(theta))


def _model_unit_basis(m):
    """The five numerator basis polynomials in model units, as factored.

    c^2 s (2 beta - c s)^3 (alpha + s)(2 alpha + s), its quotient by c^2 s,
    and theta (alpha + s)(2 alpha + s) times 1, 2 beta - c s and its square:
    the weights delta(0), w, k0, k1 and k2 multiply them.
    """
    c, a, beta, th = m.c, m.claim.alpha, m.arrival.beta, m.theta
    ker = Polynomial([2.0 * beta, -c])
    q = Polynomial([a, 1.0]) * Polynomial([2.0 * a, 1.0])
    cof = ker**3 * q
    return [c * c * Polynomial([0.0, 1.0]) * cof, cof, th * q, th * q * ker,
            th * q * ker**2]


class TestTransform:
    def test_rejects_poisson_arrivals(self):
        m = ModelSpec(1.5, ExpClaim(1.0), ExpPoisson(1.0), FgmParam(0.0))
        with pytest.raises(InputError):
            erlang_lt(m)

    @pytest.mark.parametrize("variant", [PLUS, MINUS])
    @pytest.mark.parametrize(
        "params", [(1.5, 1.0, 2.0, -1.0), (1.5, 1.0, 2.0, 0.5), (9.1, 0.3, 3.7, 5e-10)]
    )
    def test_arrays_match_factored_formulas(self, params, variant):
        """D and the basis rows at 20 complex points, in both units.

        In model units D is the module docstring's beta^5 alpha^2 D(s / alpha),
        with the kernel factor 2 beta - c s; below |theta| = 1e-9 the
        transform is cleared by (alpha + s) alone, leaving
        D = (c^2 s^2 - 2 beta c s + beta^2)(alpha + s) - beta^2 alpha and the
        basis rows c^2 s (alpha + s) and alpha + s.  erlang_lt, rescaled from
        the unit-rate parts, must follow these formulas, and the parts must
        follow them at alpha = beta = 1 and c' = c alpha / beta.
        """
        c, a, beta, th = params
        lt = erlang_lt(_model(th, c=c, alpha=a, beta=beta), variant)
        w = -2.0 * beta * c + beta * beta / a
        c_unit = c * a / beta
        den, basis = _cleared_parts(c_unit, th, variant)
        # In model units the transform gives D and, at w's independence
        # value, the delta(0) row and w times w's row.
        cases = (((c, a, beta), (lt.den, lt.num_slope, lt.num_const), (1.0, 1.0, w)),
                 ((c_unit, 1.0, 1.0), [Polynomial(p) for p in (den, *basis)],
                  (1.0,) * (len(basis) + 1)))
        rng = np.random.default_rng(7)
        for (c, a, beta), polys, weights in cases:
            for s in rng.normal(size=20) * 3.0 + 1j * rng.normal(size=20) * 3.0:
                base2 = c * c * s * s - 2 * beta * c * s + beta**2
                if abs(th) < 1e-9:
                    want = [
                        (base2 * (a + s), -(beta**2) * a),
                        (c * c * s * (a + s),),
                        (a + s,),
                    ]
                else:
                    ker, q = 2 * beta - c * s, (a + s) * (2 * a + s)
                    bracket = (
                        beta**2 * ker**3, 4 * beta**5, -variant.sigma * 6 * beta**4 * ker
                    )
                    want = [
                        (base2 * ker**3 * q, -(beta**2) * a * (2 * a + s) * ker**3)
                        + tuple(-th * a * s * b for b in bracket),
                        (c * c * s * ker**3 * q,),
                        (ker**3 * q,),
                        (th * q,),
                        (th * q * ker,),
                        (th * q * ker**2,),
                    ]
                assert len(basis) == len(want) - 1
                for poly, weight, terms in zip(polys, weights, want):
                    scale = sum(abs(weight * t) for t in terms)
                    assert abs(poly(s) - weight * sum(terms)) <= 1e-12 * scale

    @pytest.mark.parametrize("theta", [0.5, 0.0])
    def test_roots_of_array_and_polynomial_agree(self, theta):
        den = _cleared_parts(0.75, theta, PLUS)[0]
        a, b = poly_roots(den), poly_roots(Polynomial(den))
        for field in ("poles", "zero", "growing"):
            assert np.array_equal(getattr(a, field), getattr(b, field))

    def test_denominator_degree_seven_with_dependence(self):
        assert erlang_lt(_model(0.5)).den.degree() == 7

    def test_denominator_degree_three_at_independence(self):
        assert erlang_lt(_model(0.0)).den.degree() == 3

    @pytest.mark.parametrize("theta", THETAS)
    def test_root_structure(self, theta):
        rs = poly_roots(erlang_lt(_model(theta)).den)
        assert np.count_nonzero(rs.zero) == 1
        assert np.count_nonzero(rs.growing) == 4
        assert np.count_nonzero(~(rs.zero | rs.growing)) == 2

    def test_full_root_set_strong_negative_dependence(self):
        """All seven denominator roots at theta = -1 match the pinned set."""
        rs = poly_roots(erlang_lt(_model(-1.0)).den)
        want = [
            3.6476 + 0.0j,
            2.3592 + 1.1277j,
            2.3592 - 1.1277j,
            1.8011 + 0.0j,
            0.0 + 0.0j,
            -0.3488 + 0.0j,
            -2.1517 + 0.0j,
        ]
        got = rs.values()
        assert len(got) == len(want)
        for w in want:
            nearest = min(got, key=lambda v: abs(v - w))
            assert abs(nearest - w) <= 2e-3


class TestBoundaryValue:
    @pytest.mark.parametrize("theta", THETAS)
    def test_pooled_matches_printed_values(self, theta):
        d0, _ = solve_delta0(_model(theta), elimination=POOLED)
        assert d0 == pytest.approx(POOLED_DELTA0[theta], abs=1e-3)

    @pytest.mark.parametrize("theta", THETAS)
    def test_exact_elimination_regression_values(self, theta):
        d0, residual = solve_delta0(_model(theta))
        assert d0 == pytest.approx(EXACT_DELTA0[theta], abs=1e-5)
        assert residual < 1e-5

    @pytest.mark.parametrize("theta", THETAS)
    def test_initial_value_residual_small(self, theta):
        for elim in (INDIVIDUAL, POOLED):
            _, residual = solve_delta0(_model(theta), elimination=elim)
            assert residual < 1e-5

    def test_independence_branch_agreement(self):
        d_ind, _ = solve_delta0(_model(0.0), elimination=INDIVIDUAL)
        d_pool, _ = solve_delta0(_model(0.0), elimination=POOLED)
        assert d_ind == pytest.approx(d_pool, abs=1e-9)

    def test_tiny_theta_uses_independence_branch(self):
        d_zero, _ = solve_delta0(_model(0.0))
        d_tiny, _ = solve_delta0(_model(1e-12))
        assert d_tiny == pytest.approx(d_zero, abs=1e-9)

    def test_small_theta_continuous_with_independence(self):
        # 1e-6 goes through the full degree-7 machinery and must land
        # next to the independence value.
        d_zero, _ = solve_delta0(_model(0.0))
        d_small, _ = solve_delta0(_model(1e-6))
        assert d_small == pytest.approx(d_zero, abs=1e-4)

    @pytest.mark.parametrize("theta", THETAS)
    def test_final_value_limit_is_one(self, theta):
        """Richardson-extrapolated s delta~(s) as s -> 0 equals 1."""
        m = _model(theta)
        lt = erlang_lt(m)
        d0, _ = solve_delta0(m, elimination=POOLED)

        def v(s):
            return s * complex(lt(s, d0)).real

        limit = (10.0 * v(1e-5) - v(1e-4)) / 9.0
        assert limit == pytest.approx(1.0, abs=1e-3)


class TestCloseKernelRoots:
    """Loading 999 and small |theta|: four roots near 2 beta / c = 4e-4.

    They sit 9.1e-4 (theta = 2e-9) to 1.8e-2 (theta = 1e-4) apart relative
    to their modulus, under 2e-5 absolute, which a fixed absolute radius
    once merged into a repeated pole.  Every mode and sign variant must
    solve and stay within 0.0105 |theta| of the independent solution.
    The shape checks apply to PLUS, as in the domain property: MINUS
    under POOLED tops 1 by the pooled bias of the inconsistent variant
    (1.5e-9 at theta = -1e-6).
    """

    @pytest.mark.parametrize("theta", [2e-9, -1e-6, 1e-6, 1e-4])
    def test_close_kernel_roots_solve(self, theta):
        grid = np.linspace(0.0, 200.0, 41)
        want = survival_erlang2(_model(0.0, c=1000.0, alpha=0.1, beta=0.2))(grid)
        m = _model(theta, c=1000.0, alpha=0.1, beta=0.2)
        for variant in SignVariant:
            for elim in GrowthElimination:
                sol = survival_erlang2(m, variant=variant, elimination=elim)
                got = sol(grid)
                if variant is PLUS:
                    _check_shape(got)
                assert np.max(np.abs(got - want)) <= 0.0105 * abs(theta)


class TestSolution:
    @pytest.mark.parametrize("theta", THETAS)
    def test_pooled_term_table(self, theta):
        sol = survival_erlang2(_model(theta), elimination=POOLED)
        assert sol.delta.constant == pytest.approx(1.0, abs=1e-6)
        assert len(sol.delta.terms) == 2
        for (coef, rate), (want_c, want_r) in zip(sol.delta.terms, POOLED_TERMS[theta]):
            assert coef.real == pytest.approx(want_c, abs=2e-3)
            assert rate.real == pytest.approx(want_r, abs=2e-3)

    def test_fields_exact_elimination(self):
        sol = survival_erlang2(_model(-1.0))
        assert sol.variant is PLUS
        assert sol.elimination is INDIVIDUAL
        assert sol.boundary_constants is not None
        assert len(sol.boundary_constants) == 4
        assert sol.consistency_residual < 1e-5
        assert sol(0.0) == pytest.approx(sol.delta0, abs=1e-9)
        # A list mixing a bool with floats is a float grid, as for the estimators.
        assert sol([True, 0.5]).tolist() == sol(np.array([1.0, 0.5])).tolist()

    def test_fields_pooled_elimination(self):
        sol = survival_erlang2(_model(-1.0), elimination=POOLED)
        assert sol.elimination is POOLED
        assert sol.boundary_constants is None

    @pytest.mark.parametrize("elimination", [INDIVIDUAL, POOLED])
    @pytest.mark.parametrize("u", [-3.0, -1e-300, np.nan, [0.0, 1.0, -2.0], True,
                                   np.bool_(False), np.array(True), [False, True],
                                   "x", None, [0.5, "x"]])
    def test_rejects_negative_or_nan_surplus(self, u, elimination):
        # At theta = 0.5 the exponential sum reads -5.34 at u = -3, and a
        # bool read as 0 or 1; the message names the input.
        sol = survival_erlang2(_model(0.5), elimination=elimination)
        with pytest.raises(InputError, match="u >= 0") as info:
            sol(u)
        assert str(info.value).endswith(f"got {u!r}")

    @pytest.mark.parametrize("theta", THETAS)
    def test_monotone_and_bounded(self, theta):
        sol = survival_erlang2(_model(theta))
        u = np.arange(0.0, 20.0 + 1e-12, 0.1)
        vals = sol(u)
        assert np.all(vals >= 0.0)
        assert np.all(vals <= 1.0)
        assert np.min(np.diff(vals)) >= -1e-10

    @pytest.mark.parametrize("s", [0.5, 1.0, 2.0])
    def test_inversion_consistent_with_complete_transform(self, s):
        """quad of delta(u) e^{-su} reproduces the assembled fraction.

        The complete numerator keeps every boundary unknown, so this
        only holds under the exact elimination; it is rebuilt here from
        the factored basis in model units and the solution's delta(0) and
        boundary constants, which the solver maps back from unit rates.
        """
        m = _model(0.5)
        sol = survival_erlang2(m)
        num = Polynomial((0.0,))
        for weight, p in zip((sol.delta0, *sol.boundary_constants), _model_unit_basis(m)):
            num = num + weight * p
        fraction = RationalFn(num, erlang_lt(m, PLUS).den)
        got, err = integrate.quad(lambda u: sol(u) * np.exp(-s * u), 0.0, np.inf)
        want = complex(fraction(s)).real
        assert got == pytest.approx(want, rel=1e-7)

    def test_single_candidate_at_independence(self):
        sol = survival_erlang2(_model(0.0))
        (cand,) = sol.delta0_candidates
        assert abs(cand - sol.delta0) <= 4.0 * np.finfo(float).eps

    @pytest.mark.parametrize("theta", [0.5, -1.0])
    def test_candidates_come_in_conjugate_pairs(self, theta):
        # Four growing roots, one candidate each; conjugate roots demand
        # conjugate values, and the candidates do not depend on the mode.
        cands = survival_erlang2(_model(theta)).delta0_candidates
        assert len(cands) == 4
        np.testing.assert_allclose(np.sort_complex(cands),
                                   np.sort_complex(np.conj(cands)), rtol=1e-15)
        pooled = survival_erlang2(_model(theta), elimination=POOLED)
        assert pooled.delta0_candidates == cands


    def test_decaying_pair_stored_once(self):
        """A decaying conjugate pair enters delta once, by its upper member.

        The MINUS variant at theta = 0.7 keeps the pair -1.3803 +- 0.2101i.
        delta must equal the real part of the residue sum over both
        members and the zero pole, computed here from the transform in
        model units.
        """
        m = _model(0.7)
        sol = survival_erlang2(m, variant=MINUS)
        (coef, rate), = sol.delta.terms
        assert rate == pytest.approx(-1.3803 + 0.2101j, abs=1e-4)
        den = erlang_lt(m, MINUS).den.coef
        num = Polynomial((0.0,))
        for weight, p in zip((sol.delta0, *sol.boundary_constants), _model_unit_basis(m)):
            num = num + weight * p
        roots = poly_roots(den)
        poles = roots.poles[~roots.growing]
        residues = num(poles) / np.polyval(np.polyder(den[::-1]), poles)

        def full_pair_sum(u):
            return float(np.sum(residues * np.exp(poles * u)).real)

        u = np.linspace(0.0, 20.0, 201)
        assert np.max(np.abs(sol(u) - [full_pair_sum(x) for x in u])) <= 1e-14
        assert abs(sol(1.3) - full_pair_sum(1.3)) <= 1e-14

    @pytest.mark.parametrize("loading,theta,message", [
        (1e9, 0.0, "1.0 (w - 1 = 0) at relative loading 1e+09 at unit rates"),
        (1e7, -1.0, "1.0000000000129248 (w - 1 = 1.29e-11) at relative loading 1e+07 "
                    "at unit rates"),
    ])
    def test_huge_loading_refusal_names_loading_and_distance(self, loading, theta, message):
        """Past loading 1e8 delta(0) = 1 - O(1/loading^2) rounds to 1 or above it.

        The refusal names the unit-rate loading and w - 1, 0 where the
        weight rounds to exactly 1.
        """
        m = ModelSpec((1.0 + loading) / 2.0, ExpClaim(1.0), Erlang2(1.0), FgmParam(theta))
        with pytest.raises(StructuralError) as err:
            survival_erlang2(m)
        assert str(err.value) == "survival at zero fell outside (0, 1): " + message


def _lundberg_cleared(c, theta, erlang, small=False):
    """1 - M(-s) times its denominators, from the claim and arrival transforms alone.

    At unit rates M(r) = E[e^{r(X - c W)}] = f~_X(-r) f~_W(c r)
    + theta h~(-r) k~_W(c r), with f~_X(s) = 1 / (1 + s), h~(s) =
    E[e^{-s X} (1 - 2 F_X)] = 2 / (2 + s) - 1 / (1 + s), and at r = -s
    f~_W(-c s) = 1 / (1 - c s), k~_W(-c s) = 2 / (2 - c s) - 1 / (1 - c s)
    (Poisson), or 1 / (1 - c s)^2 and 2 / (2 - c s)^2 + 4 / (2 - c s)^3
    - 1 / (1 - c s)^2 (Erlang(2)).  Cleared by (1 + s)(2 + s)(1 - c s)
    (2 - c s), or (1 + s)(2 + s)(1 - c s)^2 (2 - c s)^3, 1 - M is a sum of
    signed products of the linear factors; ``small`` takes theta = 0
    cleared by (1 + s)(1 - c s)^2.  Returns the ascending coefficients and
    the same sum over the factors' absolute values, which bounds each
    coefficient's rounding.
    """
    one, s1, s2, w1, w2 = [1.0], [1.0, 1.0], [2.0, 1.0], [1.0, -c], [2.0, -c]
    m, p = (2, 3) if erlang else (1, 1)
    if small:
        terms = [(1.0, [s1] + [w1] * m), (-1.0, [one])]
    else:
        h = [(2.0, [s1]), (-1.0, [s2])]
        k = ([(2.0, [w1, w1, w2]), (4.0, [w1, w1]), (-1.0, [w2] * 3)] if erlang
             else [(2.0, [w1]), (-1.0, [w2])])
        terms = [(1.0, [s1, s2] + [w1] * m + [w2] * p), (-1.0, [s2] + [w2] * p)]
        terms += [(-theta * a * b, f + g) for a, f in h for b, g in k]
    value, bound = np.zeros(8), np.zeros(8)
    for coef, factors in terms:
        term, size = np.array([coef]), np.array([abs(coef)])
        for f in factors:
            term, size = P.polymul(term, f), P.polymul(size, np.abs(f))
        value[:term.size] += term
        bound[:size.size] += size
    return value, bound


def test_denominators_are_the_cleared_lundberg_function():
    # ROADMAP item 34: classical D and the Erlang PLUS D are 1 - M(-s)
    # cleared, coefficient for coefficient; PLUS is the generalized
    # Lundberg equation of the renewal model, and MINUS differs from it by
    # exactly -12 theta s (2 - c' s).  Measured within 1.9 eps of each
    # coefficient's bound (the sum of its terms' magnitudes) over these 40
    # seeded (c', theta), and 3.7 over 200; 1e-12 relative on any nonzero
    # coefficient is at least 1600 eps of its bound at one of the 40.
    eps = np.finfo(float).eps
    rng = np.random.default_rng(34)
    cells = zip(10.0 ** rng.uniform(-0.2, 3.0, 40), rng.uniform(-1.0, 1.0, 40))
    for c, theta in cells:
        for erlang, den in ((False, _classical_parts(c, theta)[0]),
                            (True, _cleared_parts(c, theta, SignVariant.PLUS)[0])):
            want, bound = _lundberg_cleared(c, theta, erlang)
            got = np.zeros(8)
            got[:den.size] = den
            assert np.all(np.abs(got - want) <= 8.0 * eps * bound), (c, theta, erlang)
        # bound is the Erlang one, from the last pass of the loop.
        gap = _cleared_parts(c, theta, SignVariant.MINUS)[0] - den
        twelve = [0.0, -24.0 * theta, 12.0 * theta * c]
        assert np.all(np.abs(gap[:3] - twelve) <= 8.0 * eps * bound[:3]), (c, theta)
        assert not gap[3:].any() and gap[0] == 0.0
    # Below |theta| = 1e-9 the Erlang D is the theta = 0 function, cleared
    # by (1 + s)(1 - c' s)^2.
    for c in (0.75, 1.5, 300.0):
        for theta in (0.0, -5e-10, 5e-10):
            den = _cleared_parts(c, theta, SignVariant.PLUS)[0]
            want, bound = _lundberg_cleared(c, theta, True, small=True)
            assert np.all(np.abs(den - want[:den.size]) <= 8.0 * eps * bound[:den.size])
            assert not want[den.size:].any()


class TestSignVariants:
    @pytest.mark.parametrize("theta", [-0.5, 0.5])
    def test_flipped_variant_fails_pooled_shape_gates(self, theta):
        with pytest.raises(StructuralError):
            survival_erlang2(_model(theta), variant=MINUS, elimination=POOLED)

    def test_flipped_variant_unsolvable_exactly_at_negative_theta(self):
        # Five growing roots against four boundary unknowns: the exact
        # system is genuinely overdetermined there.
        with pytest.raises(StructuralError, match="elimination equations for"):
            solve_delta0(_model(-1.0), variant=MINUS, elimination=INDIVIDUAL)

    def test_flipped_variant_builds_at_positive_theta(self):
        # The flipped variant can pass every structural gate; only the
        # simulation benchmark rejects it.  Keeping this pinned documents
        # why variant selection needs a simulation, not more algebra.
        d0, _ = solve_delta0(_model(0.5), variant=MINUS, elimination=INDIVIDUAL)
        assert d0 == pytest.approx(0.8393, abs=1e-3)
        d0_plus, _ = solve_delta0(_model(0.5), variant=PLUS, elimination=INDIVIDUAL)
        assert abs(d0 - d0_plus) > 0.3

    def test_report_short_circuits_at_independence(self):
        report = sign_variant_report(_model(0.0), n=1000, seed=5)
        assert report.selected is PLUS
        assert report.n == 0
        assert report.seed == 5
        assert math.isnan(report.mc_value)
        assert all(row.consistent for row in report.rows)
        d0, _ = solve_delta0(_model(0.0))
        assert [(r.variant, r.delta0, r.z_score, r.elimination) for r in report.rows] == [
            (v, d0, 0.0, INDIVIDUAL) for v in (PLUS, MINUS)]

    def test_report_from_one_path(self):
        # One path's stderr is the one-path floor, not 0: the width of the
        # range of a ruin's weight given the walk before its step, 0.027
        # here.  delta(0) is a mean of such weights and lies in that range
        # too, so even one path tells PLUS from MINUS, 0.38 apart.
        report = sign_variant_report(_model(0.5), n=1, seed=5)
        assert 0.0 < report.mc_stderr < 0.03
        assert all(math.isfinite(r.z_score) for r in report.rows)
        assert [r.consistent for r in report.rows] == [True, False]
        assert report.selected is PLUS

    @pytest.mark.parametrize("kwargs", [
        {"n": -5, "seed": 1}, {"n": 1000, "seed": 1.5}, {"n": 1000, "seed": -1},
        {"n": 1000, "seed": 1, "workers": 0},
    ])
    def test_report_validates_inputs_at_independence(self, kwargs):
        with pytest.raises(InputError):
            sign_variant_report(_model(0.0), **kwargs)

    def test_selection_by_simulation(self):
        choice = select_sign_variant(_model(-1.0), n=20_000, seed=11)
        assert choice is PLUS

    def test_report_records_fallback_elimination(self):
        report = sign_variant_report(_model(-1.0), n=20_000, seed=11)
        by_variant = {row.variant: row for row in report.rows}
        assert by_variant[PLUS].elimination is INDIVIDUAL
        assert by_variant[MINUS].elimination is POOLED
        assert by_variant[PLUS].consistent
        assert not by_variant[MINUS].consistent
        assert report.selected is PLUS


@given(
    theta=st.one_of(
        st.just(0.0),
        st.floats(1e-3, 1.0, allow_nan=False),
        st.floats(-1.0, -1e-3, allow_nan=False),
    )
)
@settings(max_examples=15, deadline=None)
def test_solver_is_stable_across_dependence(theta):
    sol = survival_erlang2(_model(theta))
    assert 0.0 < sol.delta0 < 1.0
    vals = sol(np.linspace(0.0, 30.0, 61))
    assert np.all(vals >= -1e-12)
    assert np.all(vals <= 1.0 + 1e-12)
