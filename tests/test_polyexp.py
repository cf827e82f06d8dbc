"""Tests for polynomial algebra, root finding, and Laplace inversion."""

import math

import numpy as np
import pytest
from numpy.polynomial import Polynomial
from hypothesis import assume, example, given, settings, strategies as st

from fgmruin.classical import classical_lt
from fgmruin.erlang import erlang_lt
from fgmruin.errors import (
    ConditioningError,
    InputError,
    StructuralError,
    UnsupportedStructureError,
)
from fgmruin.max_surplus import chi_characteristic
from fgmruin.model import Erlang2, ExpClaim, ExpPoisson, FgmParam, ModelSpec
from fgmruin.polyexp import (
    SEP,
    Elimination,
    ExpSum,
    RationalFn,
    RootSet,
    _solve,
    coeff_rows,
    eliminate_growing,
    expsum_eval,
    partial_fractions,
    poly_roots,
)


def _classical_model(theta):
    return ModelSpec(1.5, ExpClaim(1.0), ExpPoisson(1.0), FgmParam(theta))


class TestPolyRoots:
    def test_factorable_quadratic(self):
        rs = poly_roots(Polynomial((2, -3, 1)))
        vals = sorted(r.real for r in rs.values())
        assert vals == pytest.approx([1.0, 2.0], abs=1e-10)
        assert rs.growing.all() and not rs.zero.any()

    def test_triple_zero_root(self):
        with pytest.raises(UnsupportedStructureError):
            poly_roots(Polynomial((0, 0, 0, 1)))

    def test_degree_zero_rejected(self):
        with pytest.raises(InputError):
            poly_roots(Polynomial((4.0,)))

    def test_linear_with_zero_constant_gives_one_zero_root(self):
        rs = poly_roots([0.0, 2.0])
        assert rs.poles.tolist() == [0j]
        assert rs.zero.tolist() == [True]
        assert rs.growing.tolist() == [False]

    def test_double_zero_root_rejected(self):
        with pytest.raises(UnsupportedStructureError):
            poly_roots([0.0, 0.0, 1.0])

    def test_survival_denominator_roots(self):
        """The quartic from the worked survival example factors as printed."""
        den = classical_lt(_classical_model(-0.5)).den
        rs = poly_roots(den)
        got = sorted(r.real for r in rs.values())
        assert got == pytest.approx([-2.1148, -0.2976, 0.0, 1.4123], abs=2e-4)
        assert rs.zero.tolist() == [True, False, False, False]
        assert rs.growing.tolist() == [False, False, False, True]

    def test_solver_denominator_residuals(self):
        # The eigenvalue roots of the solver quartics sit far inside the
        # generic backward-error budget.
        for theta in (-1.0, -0.5, 0.0, 0.5, 1.0):
            den = classical_lt(_classical_model(theta)).den
            scale = max(abs(c) for c in den.coef)
            for r in poly_roots(den).values():
                bound = 1e-10 * scale * max(1.0, abs(r)) ** den.degree()
                assert abs(den(r)) <= bound

    def test_conjugate_pair_symmetrized(self):
        cases = (
            # (s^2 + 2s + 5)(s + 1): pair -1 +/- 2i plus a real root.
            (Polynomial((5, 2, 1)) * Polynomial((1, 1)), 1),
            # (s^2 + 2s + 5)(s^2 - s + 3)(s + 1): two pairs and a real root.
            (Polynomial((5, 2, 1)) * Polynomial((3, -1, 1)) * Polynomial((1, 1)), 2),
        )
        for p, pairs in cases:
            rs = poly_roots(p)
            complex_vals = [v for v in rs.values() if v.imag != 0.0]
            assert len(complex_vals) == 2 * pairs
            for upper, lower in zip(complex_vals[::2], complex_vals[1::2]):
                assert upper.imag > 0.0
                assert upper == lower.conjugate()

    def test_close_pair_not_adjacent_in_sort_order_rejected(self):
        # 1 + i and 1 + 1e-6 + i lie 1e-6 apart, but 1 + 5e-7 - 5i sorts
        # between them, so a check of neighbours alone would miss them.
        upper = (1 + 1j, 1 + 5e-7 - 5j, 1 + 1e-6 + 1j)
        roots = [z for u in upper for z in (u, u.conjugate())]
        p = np.poly(roots).real[::-1]
        z = np.sort_complex(np.roots(p[::-1]))
        i, j = (int(np.argmin(abs(z - w))) for w in (1 + 1j, 1 + 1e-6 + 1j))
        assert abs(i - j) > 1
        with pytest.raises(UnsupportedStructureError):
            poly_roots(p)

    def test_repeated_nonzero_roots_rejected(self):
        cube = Polynomial((1, 1)) * Polynomial((1, 1)) * Polynomial((1, 1))
        double = Polynomial((1, 2, 1)) * Polynomial((3, 1)) * Polynomial((0, 1))
        for p in (cube, double):
            with pytest.raises(UnsupportedStructureError):
                poly_roots(p)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_coefficient_rejected(self, bad):
        with pytest.raises(ConditioningError, match="not finite"):
            poly_roots(np.array([0.0, bad, 1.0]))

    @pytest.mark.parametrize("c", [
        [math.nan, 1.0, 1.0], [1.0, 2.0, math.nan, 1.0], [1.0, 1.0, math.nan],
        [math.inf, 1.0, 1.0], [0.0, 1.0, -math.inf], [0.0, 1.0, math.nan, 1.0],
    ], ids=["nan-constant", "nan-middle", "nan-leading", "inf-constant",
            "inf-leading-zero-root", "nan-middle-zero-root"])
    def test_non_finite_coefficient_anywhere_rejected(self, c):
        with pytest.raises(ConditioningError, match="not finite"):
            poly_roots(np.array(c))

    @pytest.mark.parametrize("z", [1.0, -3.0, 2.0 + 5.0j])
    @pytest.mark.parametrize("zero", [False, True])
    def test_separation_edge(self, z, zero):
        # z and z (1 + eps) lie eps |z| apart, the larger modulus being
        # |z| (1 + eps): they are one repeated root when eps < SEP (1 + eps).
        # The eigenvalues of a pair 1e-4 apart are good to about 1e-12, far
        # inside the 1 % margins either side.
        def roots_of(eps):
            pair = [z, z * (1.0 + eps)]
            if isinstance(z, complex):
                pair += [w.conjugate() for w in pair]
            c = np.poly(pair + [-0.5]).real[::-1]
            return poly_roots(np.append(0.0, c) if zero else c)

        with pytest.raises(UnsupportedStructureError):
            roots_of(0.99 * SEP)
        rs = roots_of(1.01 * SEP)
        assert len(rs.poles) == (5 if isinstance(z, complex) else 3) + zero

    def test_overflowing_companion_row_rejected(self):
        # Every coefficient is finite, but 1e300 / 1e-10 is not.
        with pytest.raises(ConditioningError, match="companion row"):
            poly_roots([1.0, 1e300, 1e-10])

    def test_unpaired_complex_eigenvalue_rejected(self, monkeypatch):
        # LAPACK always pairs; a solver that did not would be caught.
        monkeypatch.setattr(np.linalg, "eigvals",
                            lambda a: np.array([1.0 + 1.0j, 1.0 - 1.5j]))
        with pytest.raises(StructuralError, match="no conjugate partner"):
            poly_roots(Polynomial((3, -2, 1)))

    @pytest.mark.parametrize("p", [
        # (s + 1)(s^2 + 2s + 5): a real root on the real part of a pair.
        Polynomial((1, 1)) * Polynomial((5, 2, 1)),
        # (s^2 + 2s + 5)(s^2 + 2s + 2): two pairs on one real part.
        Polynomial((5, 2, 1)) * Polynomial((2, 2, 1)),
    ])
    def test_tie_order_matches_reference(self, p):
        _assert_matches_reference(p.coef)


def _poly_roots_reference(c):
    """(poles, zero, growing) by the partner search ``poly_roots`` replaced.

    ``np.roots`` in ``np.sort_complex`` order; each value pairs with the
    non-real value nearest its conjugate within 1e-9 * max(1, modulus);
    each pair is symmetrized, upper member first, and placed where its
    lower member sorts.  LAPACK's pairs are exactly conjugate already, so
    ``poly_roots`` must return the same bits without these steps.
    """
    c = np.asarray(c, dtype=float)
    k = int(np.argmax(c != 0.0))
    if len(c) - k < 2:
        return np.zeros(k, dtype=complex), np.ones(k, dtype=bool), np.zeros(k, dtype=bool)
    z = np.sort_complex(np.roots(c[k:][::-1]))
    scale = 1e-9 * np.maximum(1.0, np.abs(z))
    cplx = np.abs(z.imag) > scale
    near = (np.abs(z - z.conj()[:, None]) <= scale[:, None]) & cplx
    idx = np.arange(len(z))
    partner = np.where(cplx, near.argmax(axis=1), idx)
    assert ((near[idx, partner] | ~cplx) & (partner[partner] == idx)).all()
    w = z[partner]
    sym = 0.5 * (z.real + w.real) + 1j * np.abs(0.5 * (z.imag - w.imag))
    order = np.lexsort((idx, np.minimum(idx, partner)))
    vals = np.where(partner < idx, sym.conj(), sym)[order]
    decays = vals.real < -1e-9 * np.abs(vals)
    poles = np.concatenate((np.zeros(k, dtype=complex), vals))
    zero = np.arange(len(poles)) < k
    growing = np.concatenate((np.zeros(k, dtype=bool), ~decays))
    return poles, zero, growing


def _assert_matches_reference(c):
    rs = poly_roots(c)
    poles, zero, growing = _poly_roots_reference(c)
    assert rs.poles.dtype == poles.dtype and rs.poles.tobytes() == poles.tobytes()
    assert rs.zero.tolist() == zero.tolist()
    assert rs.growing.tolist() == growing.tolist()


def test_solver_denominators_match_reference():
    """Classical, Erlang and chi denominators of 800 models, bit for bit.

    The models cover the benchmark sweep's domain: relative loading
    log-uniform on [1e-6, 10], theta uniform on [-1, 1], alpha and lambda
    log-uniform on [0.2, 5], beta = 2 lambda, c = (1 + loading) lambda / alpha.
    """
    rng = np.random.default_rng(800)
    n = 800
    loading = 10.0 ** rng.uniform(-6.0, 1.0, n)
    theta = rng.uniform(-1.0, 1.0, n)
    alpha, lam = np.exp(rng.uniform(math.log(0.2), math.log(5.0), (2, n)))
    for ld, th, a, la in zip(loading, theta, alpha, lam):
        c = (1.0 + ld) * la / a
        poisson = ModelSpec(c, ExpClaim(a), ExpPoisson(la), FgmParam(th))
        erlang = ModelSpec(c, ExpClaim(a), Erlang2(2.0 * la), FgmParam(th))
        for den in (classical_lt(poisson).den, erlang_lt(erlang).den,
                    chi_characteristic(poisson)):
            _assert_matches_reference(den.coef)


@st.composite
def _separated_roots(draw):
    """Conjugate-closed root lists with pairwise separation >= 0.3."""
    n_real = draw(st.integers(min_value=1, max_value=4))
    n_pairs = draw(st.integers(min_value=0, max_value=2))
    vals: list[complex] = []
    for _ in range(n_real + n_pairs):
        z = complex(
            draw(st.floats(-4.0, 4.0, allow_nan=False)),
            draw(st.floats(0.5, 4.0, allow_nan=False)),
        )
        vals.append(z)
    reals = [complex(z.real, 0.0) for z in vals[:n_real]]
    pairs = []
    for z in vals[n_real:]:
        pairs.extend([z, z.conjugate()])
    roots = reals + pairs
    for i, a in enumerate(roots):
        for b in roots[i + 1:]:
            assume(abs(a - b) >= 0.3)
    return roots


@given(roots=_separated_roots(), leading=st.floats(0.5, 3.0))
@settings(max_examples=40, deadline=None)
def test_roots_roundtrip_reconstruction(roots, leading):
    """np.poly(poly_roots(p)) reproduces p coefficient-wise.

    Checks the degree <= 8 reconstruction contract at relative 1e-6
    against the coefficient scale.
    """
    p = Polynomial(leading * np.poly(roots).real[::-1])
    rs = poly_roots(p)
    rebuilt = Polynomial(p.coef[-1] * np.poly(rs.values()).real[::-1])
    scale = max(abs(c) for c in p.coef)
    assert rebuilt.degree() == p.degree()
    for got, want in zip(rebuilt.coef, p.coef):
        assert got == pytest.approx(want, abs=1e-6 * scale)
    for r in rs.values():
        bound = 1e-8 * scale * max(1.0, abs(r)) ** p.degree()
        assert abs(p(r)) <= bound


@given(roots=_separated_roots(), leading=st.floats(0.5, 3.0), zero=st.booleans())
@settings(max_examples=40, deadline=None)
# A subnormal root underflows the constant coefficient to an exact zero.
@example(roots=[5e-324 + 0j, 0.5 + 0j, 1j, -1j, 2j, -2j], leading=1.0, zero=False)
def test_roots_match_reference(roots, leading, zero):
    c = leading * np.poly(roots).real[::-1]
    # A zero constant coefficient (a zero root, or a subnormal one whose
    # product underflows) plus the appended zero is a double zero root,
    # which poly_roots refuses.
    assume(not (zero and c[0] == 0.0))
    _assert_matches_reference(np.append(0.0, c) if zero else c)


def _residue_at(pairs, pole):
    return min(pairs, key=lambda pr: abs(pr[0] - pole))[1]


class TestPartialFractions:
    def test_textbook_two_poles(self):
        f = RationalFn(Polynomial((1,)), Polynomial((0, 1)) * Polynomial((1, 1)))
        pairs = partial_fractions(f)
        assert len(pairs) == 2
        assert _residue_at(pairs, 0.0) == pytest.approx(1.0, abs=1e-10)
        assert _residue_at(pairs, -1.0) == pytest.approx(-1.0, abs=1e-10)

    def test_textbook_single_pole(self):
        f = RationalFn(Polynomial((1,)), Polynomial((2, 1)))
        ((pole, res),) = partial_fractions(f)
        assert pole == pytest.approx(-2.0, abs=1e-10)
        assert res == pytest.approx(1.0, abs=1e-10)

    def test_survival_transform_residues_at_independence(self):
        """The independence-case transform splits into poles 0 and -1/3."""
        lt = classical_lt(_classical_model(0.0))
        f = lt.with_param(1.0 / 3.0)
        pairs = partial_fractions(f)
        by_pole = {p: r for p, r in pairs}
        scale = max(abs(r) for r in by_pole.values())
        zero = min(by_pole, key=lambda p: abs(p))
        third = min(by_pole, key=lambda p: abs(p + 1.0 / 3.0))
        assert by_pole[zero].real == pytest.approx(1.0, abs=1e-4)
        assert by_pole[third].real == pytest.approx(-0.6667, abs=1e-4)
        for p, r in by_pole.items():
            if p not in (zero, third):
                assert abs(r) <= 1e-8 * scale

    def test_reconstruction_at_probe_points(self):
        """Sum of residue/(s - pole) equals f at 20 probes to relative 1e-8."""
        rng = np.random.default_rng(1234)
        dens = [
            Polynomial((0, 1)) * Polynomial((1, 1)) * Polynomial((5, 2, 1)),
            Polynomial((2, 1)) * Polynomial((-1, 1)) * Polynomial((0.5, 1)),
            classical_lt(_classical_model(0.7)).den,
        ]
        nums = [Polynomial((1.0, 0.5)), Polynomial((3.0,)), Polynomial((1, 2, 1))]
        for num, den in zip(nums, dens):
            f = RationalFn(num, den)
            pairs = partial_fractions(f)
            probes = rng.normal(size=20) + 1j * rng.normal(size=20) + 3.0
            for s in probes:
                direct = complex(f(s))
                recon = sum(r / (s - p) for p, r in pairs)
                assert abs(recon - direct) <= 1e-8 * max(1.0, abs(direct))

    def test_repeated_pole_rejected(self):
        f = RationalFn(Polynomial((1,)), Polynomial((1, 1)) * Polynomial((1, 1)))
        with pytest.raises(UnsupportedStructureError):
            partial_fractions(f)

    def test_improper_fraction_rejected(self):
        f = RationalFn(Polynomial((1, 2, 3)), Polynomial((1, 1)))
        with pytest.raises(InputError):
            partial_fractions(f)

    def test_zero_denominator_rejected(self):
        with pytest.raises(InputError):
            RationalFn(Polynomial((1,)), Polynomial((0.0,)))


class TestExpSum:
    def test_constant_only(self):
        e = ExpSum(0.75, ())
        assert e(0.0) == 0.75
        assert e(13.2) == 0.75

    def test_survival_shape_at_zero(self):
        e = ExpSum(1.0, ((-0.6667 + 0j, -0.3333 + 0j),))
        assert e(0.0) == pytest.approx(0.3333, abs=1e-12)

    def test_conjugate_pair_matches_direct_arithmetic(self):
        coef = 1.0 + 1.0j
        rate = -1.0 + 1.0j
        e = ExpSum(0.0, ((coef, rate),))
        for u in np.linspace(0.0, 5.0, 10):
            want = 2.0 * (coef * np.exp(rate * u)).real
            assert e(float(u)) == pytest.approx(want, abs=1e-12)

    def test_vector_evaluation(self):
        e = ExpSum(1.0, ((-0.5 + 0j, -2.0 + 0j),))
        u = np.linspace(0.0, 3.0, 7)
        out = expsum_eval(e, u)
        assert out.shape == u.shape
        assert out[0] == pytest.approx(0.5, abs=1e-14)

    @pytest.mark.parametrize("u", [1.5, np.float64(1.5), np.array(1.5)])
    def test_scalar_input_gives_float(self, u):
        e = ExpSum(1.0, ((-0.5 + 0j, -2.0 + 0j), (0.25 + 0.5j, -1.0 + 3.0j)))
        out = expsum_eval(e, u)
        assert type(out) is float
        assert out == expsum_eval(e, np.array([1.5]))[0]

    def test_vector_input_gives_array(self):
        e = ExpSum(1.0, ((-0.5 + 0j, -2.0 + 0j),))
        out = expsum_eval(e, np.array([0.0]))
        assert isinstance(out, np.ndarray) and out.shape == (1,)

    @pytest.mark.parametrize("shape", [(0,), (3,), (2, 3)])
    def test_no_terms_keeps_input_shape(self, shape):
        out = expsum_eval(ExpSum(0.75, ()), np.zeros(shape))
        assert isinstance(out, np.ndarray) and out.shape == shape
        assert (out == 0.75).all()

    def test_rate_below_axis_rejected(self):
        with pytest.raises(StructuralError, match="below the real axis"):
            ExpSum(0.0, ((1.0 - 1.0j, -1.0 - 1.0j),))

    def test_both_pair_members_rejected(self):
        coef, rate = 1.0 + 1.0j, -1.0 + 1.0j
        with pytest.raises(StructuralError, match="below the real axis"):
            ExpSum(0.0, ((coef, rate), (coef.conjugate(), rate.conjugate())))

    def test_complex_coefficient_on_real_rate_rejected(self):
        with pytest.raises(StructuralError):
            ExpSum(0.0, ((1.0 + 0.5j, -1.0 + 0j),))

    def test_rate_near_axis_stored_real(self):
        e = ExpSum(1.0, ((-0.5 + 1e-12j, -2.0 + 1e-10j),))
        coef, rate = e.terms[0]
        assert type(coef) is float and type(rate) is float
        assert (coef, rate) == (-0.5, -2.0)
        assert e(1.0) == 1.0 - 0.5 * np.exp(-2.0)

    def test_pair_at_small_rates_stays_a_pair(self):
        # Realness is relative to |rate|, so a pair near 1e-105 is no more
        # real than the same pair near 1.
        e = ExpSum(0.0, ((0.1 + 0.2j, complex(-1e-105, 5e-106)),))
        ((coef, rate),) = e.terms
        assert (coef, rate) == (0.1 + 0.2j, complex(-1e-105, 5e-106))
        assert e(0.0) == 0.2

    def test_complex_constant_rejected(self):
        with pytest.raises(StructuralError, match="complex constant"):
            ExpSum(1.0 + 2e-9j, ())
        e = ExpSum(1.0 + 5e-10j, ())
        assert type(e.constant) is float and e.constant == 1.0

    def test_interleaved_conjugate_pairs_accepted(self):
        a, ra = 1.0 + 1.0j, -1.0 + 1.0j
        b, rb = 0.5 - 2.0j, -3.0 + 0.5j
        e = ExpSum(0.25, ((a, ra), (-0.75, -0.5), (b, rb)))
        for u in np.linspace(0.0, 5.0, 10):
            want = (0.25 - 0.75 * np.exp(-0.5 * u)
                    + 2.0 * (a * np.exp(ra * u) + b * np.exp(rb * u)).real)
            assert e(float(u)) == pytest.approx(want, abs=1e-12)


def _invert(f):
    """Inverse transform of a simple-pole rational from its partial fractions.

    The zero pole's residue is the constant; every other pole adds one
    term, a conjugate pair by its upper member.
    """
    pairs = partial_fractions(f)
    constant = sum(r.real for p, r in pairs if p == 0)
    return ExpSum(constant, tuple((r, p) for p, r in pairs if p != 0 and p.imag >= 0))


class TestInvertRational:
    # Transform pairs with known closed-form inverses, checked to 1e-8
    # pointwise on u in [0, 10].
    CASES = (
        (
            RationalFn(Polynomial((1,)), Polynomial((2, 1))),
            lambda u: np.exp(-2.0 * u),
        ),
        (
            RationalFn(Polynomial((1,)), Polynomial((0, 1, 1))),
            lambda u: 1.0 - np.exp(-u),
        ),
        (
            RationalFn(Polynomial((1,)), Polynomial((1, 0, 1))),
            np.sin,
        ),
        (
            RationalFn(Polynomial((0, 1)), Polynomial((1, 0, 1))),
            np.cos,
        ),
        (
            RationalFn(Polynomial((1,)), Polynomial((1, 1)) * Polynomial((2, 1))),
            lambda u: np.exp(-u) - np.exp(-2.0 * u),
        ),
    )

    @pytest.mark.parametrize("f,inverse", CASES)
    def test_textbook_inversions(self, f, inverse):
        e = _invert(f)
        u = np.linspace(0.0, 10.0, 101)
        got = expsum_eval(e, u)
        assert np.max(np.abs(got - inverse(u))) <= 1e-8

    def test_zero_pole_feeds_constant(self):
        f = RationalFn(Polynomial((1,)), Polynomial((0, 1)) * Polynomial((1, 1)))
        e = _invert(f)
        assert e.constant == pytest.approx(1.0, abs=1e-12)
        assert len(e.terms) == 1


class TestNanGates:
    """A NaN gate quantity fails its gate instead of passing through."""

    @pytest.mark.parametrize("constant,defect", [
        (math.nan, 0.0), (1.0, math.nan), (math.nan, math.nan),
    ])
    def test_elimination_survival_refuses_nan(self, constant, defect):
        # The growing gate comes before the constant gate.
        gate = "growing residue" if math.isnan(defect) else "zero-pole residue"
        elim = Elimination(np.full(1, 0.5), np.ones((1, 1)), constant, (), defect, 1.0)
        with pytest.raises(StructuralError, match=gate):
            elim.survival(1e-8, 1e-8, 1.0, 1.0)

    @pytest.mark.parametrize("weight", [math.nan, 1.0])
    def test_elimination_survival_refuses_weight_outside_unit_interval(self, weight):
        elim = Elimination(np.full(1, weight), np.ones((1, 1)), 1.0, (), 0.0, 1.0)
        with pytest.raises(StructuralError, match=r"fell outside \(0, 1\)"):
            elim.survival(1e-8, 1e-8, 1.0, 1.0)

    def test_solve_refuses_nan_row(self):
        rows = np.array([[1.0, 2.0], [math.nan, 1.0]])
        with pytest.raises(StructuralError):
            _solve(rows, np.array([1.0, 0.5]))

    @pytest.mark.parametrize("row,rhs,gate", [
        # A NaN right-hand side passes the degenerate-row gate (s <= 1e-12
        # max(s, NaN) is false) and leaves a NaN residual.
        ([3.0, 1.0], math.nan, "left residual nan"),
        ([3.0, 1.0], complex(1.0, math.nan), "left residual nan"),
        ([0.0, 0.0], math.nan, "left residual nan"),
        # An infinite one makes its row degenerate, and so does a zero row.
        ([3.0, 1.0], math.inf, "degenerate elimination row"),
        ([0.0, 0.0], 0.5, "degenerate elimination row"),
        ([0.0, 0.0], 0.0, "degenerate elimination row"),
    ])
    def test_solve_gate_edges(self, row, rhs, gate):
        rows = np.array([[1.0, 2.0], row], dtype=complex)
        # A zero row divides by zero on the way to its residual gate.
        with np.errstate(invalid="ignore", divide="ignore"), \
                pytest.raises(StructuralError, match=gate):
            _solve(rows, np.array([1.0, rhs], dtype=complex))


# den = s (s - 2)(s + 1)(s + 2): D'(-1) = 3 and D'(-2) = -8, integers that
# Horner's rule reaches exactly at the exact roots.
_EXACT_DEN = np.array([0.0, -4.0, -4.0, 1.0, 1.0])


def _exact_roots(*poles):
    """A RootSet of exact poles, the zero root first and the positive growing."""
    z = np.array(poles, dtype=complex)
    return RootSet(z, z == 0, z.real > 0)


class TestCollect:
    """Which decaying terms eliminate_growing keeps, and in which order."""

    @pytest.mark.parametrize("drop", [True, False])
    def test_residue_exactly_at_drop_floor_is_dropped(self, drop):
        # The unknown row s (s + 1)(s + 2) vanishes at 0, -1 and -2; 3 s (s + 2)
        # gives -1 at -1, the largest residue, and beta s (s + 1) gives
        # -beta / 4 at -2.  beta = 4e-8 puts that residue exactly at the
        # floor 1e-8 * 1, which is dropped; one ulp more is kept.
        beta = 4e-8 if drop else np.nextafter(4e-8, 1.0)
        basis = coeff_rows([0.0, 2.0, 3.0, 1.0], [0.0, 6.0, 3.0], [0.0, beta, beta])
        elim = eliminate_growing(_EXACT_DEN, _exact_roots(0, -2, -1, 2), basis,
                                 (None, 1.0, 1.0))
        assert elim.scale == 1.0
        assert elim.constant == 0.0
        terms = [(-beta / 4.0 + 0j, -2 + 0j)] * (not drop) + [(-1 + 0j, -1 + 0j)]
        assert sorted(elim.terms, key=lambda t: t[1].real) == terms

    @pytest.mark.parametrize("pairs", [(2.0, 1.0), (1.0, 2.0)])
    def test_equal_real_parts_keep_root_order(self, pairs):
        # Two decaying pairs on Re s = -1: the stable sort on -Re keeps them
        # in the order of the roots.
        upper = [-1.0 + y * 1j for y in pairs]
        poles = [0j, *(z for u in upper for z in (u, u.conjugate())), 1 + 0j]
        den = np.poly(poles).real[::-1]
        elim = eliminate_growing(den, _exact_roots(*poles), coeff_rows([0.0, 1.0], [1.0]),
                                 (None, 1.0))
        assert [rate for _, rate in elim.terms] == upper
