"""Rational functions and exponential-sum inversion.

The survival solvers work with Laplace transforms that are rational in s
after clearing denominators.  The solvers keep them as ascending
coefficients from assembly to elimination, the denominator as an array;
the public transform functions return them as
``numpy.polynomial.Polynomial``.  numpy computes every value that reaches
a result or a gate.  The decisions on the 3 to 8 roots and weights
(finiteness, order, class, the elimination gates, the kept terms) run on
Python lists of those values, cheaper than a numpy call each; they read
moduli from ``np.abs``, whose last bit Python's complex ``abs`` can miss,
and do no complex arithmetic.  This module supplies the shared machinery:

* ``times_linear`` and ``coeff_rows``: products with a linear factor in
  plain float arithmetic, with ``np.convolve``'s bits, and zero-padded
  rows of coefficients.
* ``RationalFn`` and ``ParametricRational``: ratios of polynomials, the
  latter with a numerator that is affine in one scalar parameter.
* ``poly_roots``: simple roots only, as arrays in a ``RootSet``.  The exact
  zero root is divided out, the rest are companion-matrix eigenvalues, and
  two closer than ``SEP`` times the larger modulus raise.  LAPACK returns
  each complex pair consecutive and exactly conjugate, upper member first;
  one stable sort on (real part, -|imaginary part|) orders the roots, and
  one comparison classifies them by the sign of the real part.  Non-finite
  coefficients, as an overflowing premium gives, raise ``ConditioningError``.
  ``RootSet.scaled`` takes unit-rate roots to model units.
* ``partial_fractions`` / ``ExpSum``: simple-pole expansion and the
  resulting inverse transform, a real constant plus one exponential per
  real pole or conjugate pair, the pair stored once by its upper member.
* ``eliminate_growing``: the step every solver shares after root finding;
  it solves a square system for the numerator weights that cancel the
  growing poles and collects the remaining residues into the constant and
  decaying terms.
* ``rescaled``: a transform assembled at unit rates, in model units.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from numpy.polynomial import Polynomial
from numpy.polynomial.polynomial import polyval

from .errors import (
    ConditioningError,
    InputError,
    StructuralError,
    UnsupportedStructureError,
)

__all__ = [
    "RationalFn",
    "ParametricRational",
    "RootSet",
    "poly_roots",
    "partial_fractions",
    "ExpSum",
    "expsum_eval",
    "Elimination",
    "eliminate_growing",
]

# A nonzero root decays when its real part is below -1e-9 times its modulus.
# Companion-matrix eigenvalues are accurate relative to the coefficients, not
# absolutely, so the threshold scales with the root instead of being a floor.
_DECAY_REL = 1e-9

# An ExpSum rate this close to the real axis, relative to |rate|, is real.  A
# solver's pair is never that close: SEP keeps its members 1e-4 |rate| apart.
CONJUGATE_TOL = 1e-9

# Two eigenvalues closer than SEP times the larger modulus are taken as one
# repeated root, which no solver supports.  The eigenvalues of a repeated
# root scatter like eps**(1/m) relative to it: 5.7e-8 for the double root
# of (s+1)^2 (s+2), 1.1e-5 for (s+1)^3 and up to 4.8e-5 for a triple root
# among four others.  The closest distinct roots the solvers meet with
# loading up to 1e3 sit 5.9e-4 apart (Erlang roots near 2/c' at
# loading 1e3 and |theta| = 1e-9); classical roots at least 0.49 apart.
SEP = 1e-4

# Residues at most this fraction of the largest one are structural zeros:
# eliminated growing poles and spurious poles the clearing introduces.
RESIDUE_DROP_REL = 1e-8

# Equilibrated elimination systems must be solved to this relative accuracy,
# and their solutions must be real to this relative level.  A row whose
# unknown coefficients sit below 1e-12 of its right-hand side is degenerate.
_SYSTEM_TOL = 1e-8
_REALNESS_TOL = 1e-7
_DEGENERATE_REL = 1e-12


@np.errstate(over="ignore", invalid="ignore")
def rescaled(c, k: float, alpha: float) -> Polynomial:
    """k p(s / alpha) for p's ascending coefficients c: coefficient i times k alpha**-i."""
    return Polynomial(np.asarray(c) * (k * np.float64(alpha) ** -np.arange(len(c))))


def coeff_rows(*coeffs: list[float]) -> np.ndarray:
    """One zero-padded row of ascending coefficients per argument."""
    width = max(map(len, coeffs))
    return np.array([[*c, *[0.0] * (width - len(c))] for c in coeffs])


def times_linear(c: list[float], a0: float, a1: float) -> list[float]:
    """Ascending coefficients of c(s) (a0 + a1 s), with np.convolve's bits.

    np.convolve adds each coefficient's products onto 0.0.  Here there are
    at most two, and two summands add to the same bits in either order.
    """
    lo = [x * a0 for x in c]
    hi = [x * a1 for x in c]
    return [0.0 + lo[0], *[0.0 + (x + y) for x, y in zip(lo[1:], hi)], 0.0 + hi[-1]]


@dataclass(frozen=True, eq=False)
class RootSet:
    """Simple roots of a real polynomial as arrays, with their classes.

    Invariant: there is one root per degree of the source polynomial, no
    two are closer than SEP times the larger modulus, and non-real roots
    occur in exactly conjugate pairs, upper member first.  The exact zero
    root, when present, comes first.

    Attributes:
        poles: Every root, complex.
        zero: Mask of the exact zero root.
        growing: Mask of the roots that do not decay; the rest of the
            nonzero roots decay.
    """

    poles: np.ndarray
    zero: np.ndarray
    growing: np.ndarray

    def values(self) -> list[complex]:
        return self.poles.tolist()

    def scaled(self, alpha: float) -> "RootSet":
        """The roots times alpha; ConditioningError if one overflows."""
        # numpy scales each part alone, so this is exactly its overflow test.
        top = max(max(abs(v.real), abs(v.imag)) for v in self.poles.tolist())
        if not top * abs(alpha) < math.inf:
            raise ConditioningError(f"roots times alpha = {alpha!r} overflow")
        return RootSet(self.poles * alpha, self.zero, self.growing)

    @property
    def max_multiplicity(self) -> int:
        # Always 1; kept for bench/tracer.py until ROADMAP item 7 drops it.
        return 1


def poly_roots(p) -> RootSet:
    """Simple roots with their classes.

    p is a numpy Polynomial or an array of ascending coefficients, the
    last one nonzero.  One exact zero low-order coefficient gives the zero
    root by construction and is divided out, so small nonzero roots are
    never confused with it.  The quotient's roots are the eigenvalues of its
    companion matrix, built as ``np.roots`` builds it.  LAPACK's real
    eigensolver returns each complex pair as (wr + i wi, wr - i wi) with
    wi > 0: consecutive and exactly conjugate, up to the sign of a zero
    wr, which adding 0j settles.  numpy gives their moduli and distances,
    and Python lists of those values take the decisions.  One stable sort
    on (real part, -|imaginary part|) orders them; each pair keeps its
    upper member first and sits where its lower member falls in
    ``np.sort_complex`` order.  A root decays when its real part is below
    -1e-9 times its modulus and grows otherwise.

    Raises:
        InputError: If p has degree below 1 or a zero leading coefficient.
        ConditioningError: If a coefficient is not finite, as when the
            premium's powers overflow the transform assembly, or the
            companion row overflows although every coefficient is finite.
        UnsupportedStructureError: If zero is a repeated root, or two
            eigenvalues lie within SEP times the larger modulus of each
            other.
        StructuralError: If a non-real eigenvalue is not followed by its
            exact conjugate.
    """
    c = np.asarray(p.coef if isinstance(p, Polynomial) else p, dtype=float)
    coef = c.tolist()
    if len(coef) < 2 or coef[-1] == 0.0:
        raise InputError("root finding needs degree >= 1, leading coefficient != 0")
    if not all(map(math.isfinite, coef)):
        raise ConditioningError(f"transform coefficients are not finite: {coef!r}")
    # One exact zero low-order coefficient gives the zero root; two repeat it.
    k = 0 if coef[0] != 0.0 else 1
    if k and coef[1] == 0.0:
        raise UnsupportedStructureError("repeated poles are not supported")
    n = len(coef) - 1 - k  # the degree of the quotient by s**k
    poles, growing = [0j] * k, [False] * k
    if n:
        lead, top = coef[-1], max(map(abs, coef))
        # Division rounds monotonically, so the companion row overflows
        # exactly when top / |lead| does; Python floats give inf, no warning.
        if top / abs(lead) == math.inf:
            raise ConditioningError(
                f"companion row -q[1:] / q[0] overflows: leading coefficient "
                f"{lead!r} against largest coefficient {top!r}")
        companion = np.eye(n, k=-1)
        # -q[1:] / q[0] for q = c[k:][::-1]: x / -y rounds as -x / y.
        companion[0] = c[k:-1][::-1] / -lead
        # A pair's real parts may come back as -0.0 and 0.0; adding 0j makes
        # both 0.0, and the roots complex when all are real.
        z = np.linalg.eigvals(companion) + 0j
        # |z_i - z_j| < SEP max(|z_i|, |z_j|) for some pair exactly when
        # |z_i - z_j| < SEP |z_i| for some ordered pair, as the distance is
        # symmetric: each row's nearest other root decides (fmin skips NaN).
        mod = np.abs(z).tolist()
        dist = np.abs(z[:, None] - z)
        dist.flat[:: n + 1] = np.inf
        if any(d < SEP * m for d, m in zip(np.fmin.reduce(dist, axis=1).tolist(), mod)):
            raise UnsupportedStructureError("repeated poles are not supported")
        ranked = sorted(zip(z.tolist(), mod), key=lambda vm: (vm[0].real, -abs(vm[0].imag)))
        poles += [v for v, _ in ranked]
        # Each upper member must be followed by its exact conjugate, which
        # the loop then skips; a lower member met on its own has no partner.
        rest = iter(poles[k:])
        for v in rest:
            if v.imag < 0.0 or (v.imag > 0.0 and next(rest, None) != v.conjugate()):
                raise StructuralError(f"complex root {v!r} has no conjugate partner")
        # Oscillatory poles do not vanish at infinity: they count as growing.
        growing += [v.real >= -_DECAY_REL * m for v, m in ranked]
    return RootSet(np.array(poles), np.array([True] * k + [False] * n), np.array(growing))


@dataclass(frozen=True)
class RationalFn:
    """Ratio of two real polynomials."""

    num: Polynomial
    den: Polynomial

    def __post_init__(self):
        if not self.den.coef.any():
            raise InputError("rational function needs a nonzero denominator")

    def __call__(self, s):
        return self.num(s) / self.den(s)


@dataclass(frozen=True)
class ParametricRational:
    """Rational function whose numerator is affine in one parameter.

    Represents (num_const(s) + p * num_slope(s)) / den(s) for a scalar
    parameter p, which the survival solvers use with p equal to the
    unknown survival probability at zero.
    """

    num_const: Polynomial
    num_slope: Polynomial
    den: Polynomial

    def with_param(self, p: float) -> RationalFn:
        return RationalFn(self.num_const + float(p) * self.num_slope, self.den)

    def __call__(self, s, p: float):
        return (self.num_const(s) + float(p) * self.num_slope(s)) / self.den(s)


def partial_fractions(
    f: RationalFn, roots: RootSet | None = None
) -> tuple[tuple[complex, complex], ...]:
    """Simple-pole partial fractions of a strictly proper rational function.

    Returns (pole, residue) pairs with residues num(pole) / den'(pole), in
    the order of ``roots.poles``.  ``poly_roots`` returns simple roots only,
    so a repeated pole raises there.
    """
    if f.num.degree() >= f.den.degree():
        raise InputError("partial fractions require deg(num) < deg(den)")
    if roots is None:
        roots = poly_roots(f.den)
    poles = roots.poles
    residues = f.num(poles) / f.den.deriv()(poles)
    return tuple((complex(p), complex(r)) for p, r in zip(poles, residues))


def _real(value, what: str) -> float:
    """value as a float, once its imaginary part is within 1e-9 * max(1, |value|)."""
    z = complex(value)
    if abs(z.imag) > 1e-9 * max(1.0, abs(z)):
        raise StructuralError(f"{what} {z!r}")
    return z.real


@dataclass(frozen=True)
class ExpSum:
    """constant + sum of coef * exp(rate * u), one term per real rate or pair.

    A rate within CONJUGATE_TOL * |rate| of the real axis is real and its
    term is coef * exp(rate * u); a rate above the axis stands for its
    conjugate pair, 2 Re(coef * exp(rate * u)); a rate below is rejected.
    The constant and the real-rate terms are stored as floats.
    """

    constant: float
    terms: tuple[tuple[complex, complex], ...]

    def __post_init__(self):
        terms = []
        for coef, rate in self.terms:
            coef, rate = complex(coef), complex(rate)
            if abs(rate.imag) <= CONJUGATE_TOL * abs(rate):
                coef = _real(coef, "real-rate term has complex coefficient")
                rate = rate.real
            elif rate.imag < 0.0:
                raise StructuralError(
                    f"rate {rate!r} is below the real axis; a conjugate pair "
                    "is given by its upper member"
                )
            terms.append((coef, rate))
        constant = _real(self.constant, "ExpSum has complex constant")
        object.__setattr__(self, "constant", constant)
        object.__setattr__(self, "terms", tuple(terms))

    def __call__(self, u):
        return expsum_eval(self, u)


def expsum_eval(e: ExpSum, u):
    """Evaluate an ExpSum at u (scalar or array) in real arithmetic."""
    uu = np.asarray(u, dtype=float)
    total = e.constant
    for coef, rate in e.terms:
        term = coef * np.exp(rate * uu)
        total = total + (term if isinstance(rate, float) else 2.0 * term.real)
    if uu.ndim == 0:
        return float(total)
    return total if e.terms else np.full(uu.shape, total)


def _collect(
    poles: list[complex], residues: list[complex], size: list[float],
    k: int, growing: list[bool], floor: float,
) -> tuple[float, tuple[tuple[complex, complex], ...]]:
    """Zero-pole constant and ExpSum terms of the decaying poles, slowest first.

    size holds the residues' moduli; k is 1 when the first pole is the zero
    root, exactly 0, whose residue num(0) / den'(0) is real.  Each real
    decaying pole or conjugate pair (by its upper member) gives a (residue,
    pole) term; residues of modulus at most ``floor`` are dropped.
    """
    terms = [(r, p) for p, r, m, g in zip(poles[k:], residues[k:], size[k:], growing[k:])
             if not g and m > floor and p.imag >= 0.0]
    terms.sort(key=lambda rp: -rp[1].real)
    return (residues[0].real if k else 0.0), tuple(terms)


@dataclass(frozen=True)
class Elimination:
    """Numerator weights that cancel the growing poles, and what they leave.

    Attributes:
        weights: Every basis weight, solved and fixed alike.
        growing_values: The basis polynomials at the distinct growing
            roots, one row per basis polynomial.
        constant: Residue at the zero pole.
        terms: (residue, pole) of the decaying poles in ExpSum form (one
            term per conjugate pair), slowest decay first, without the
            residues below 1e-8 of the largest.
        growing_defect: The largest growing residue left, or the modulus of
            their sum for a pooled elimination.
        scale: The largest residue modulus over all poles.
    """

    weights: np.ndarray
    growing_values: np.ndarray
    constant: float
    terms: tuple[tuple[complex, complex], ...]
    growing_defect: float
    scale: float

    def survival(self, growing_tol: float, constant_tol: float,
                 alpha: float, loading: float) -> ExpSum:
        """The inverted survival function, after its three gates.

        The first weight, the survival probability at zero, must lie in
        (0, 1), the growing defect within ``growing_tol`` times
        max(1, scale), and the constant, the limit at infinity, within
        ``constant_tol`` of 1.  The rates are the poles times alpha, taking
        a unit-rate solution to model units.  ``loading``, the relative
        loading at unit rates, only names the case in the first gate's
        refusal: at a huge loading the weight rounds to 1 (w - 1 = 0).
        """
        w = float(self.weights[0])
        if not 0.0 < w < 1.0:
            raise StructuralError(
                f"survival at zero fell outside (0, 1): {w!r} (w - 1 = {w - 1.0:.3g}) "
                f"at relative loading {loading:.3g} at unit rates"
            )
        if not self.growing_defect <= growing_tol * max(1.0, self.scale):
            raise StructuralError(
                f"growing residue {self.growing_defect:.3e} survived "
                f"elimination (gate {growing_tol:.0e})"
            )
        if not abs(self.constant - 1.0) <= constant_tol:
            raise StructuralError(
                f"zero-pole residue {self.constant!r} differs from 1 "
                f"(gate {constant_tol:.0e})"
            )
        return ExpSum(self.constant, tuple((c, p * alpha) for c, p in self.terms))

    def candidates(self, w: float) -> tuple[complex, ...]:
        """The first weight each growing root demands alone, the second fixed at w.

        A root where the first basis polynomial vanishes is skipped.
        """
        slope, const = self.growing_values[:2]
        nonzero = [j for j, a in enumerate(slope.tolist()) if a != 0]
        return tuple((-w * const[nonzero] / slope[nonzero]).tolist())


def _solve(rows: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Real solution of a square equilibrated system under the residual gate."""
    if rows.shape[0] != rows.shape[1]:
        raise StructuralError(f"{rows.shape[0]} elimination equations for "
                              f"{rows.shape[1]} unknown weights")
    row_scale = np.abs(rows).max(axis=1)
    # s <= rel * np.maximum(s, r): a NaN s or r passes, as NaN compares false.
    if any(s <= _DEGENERATE_REL * max(s, r)
           for s, r in zip(row_scale.tolist(), np.abs(rhs).tolist()) if r == r):
        raise StructuralError("degenerate elimination row")
    rows = rows / row_scale[:, None]
    rhs = rhs / row_scale
    try:
        x = np.linalg.solve(rows, rhs)
    except np.linalg.LinAlgError as exc:
        raise StructuralError(f"elimination system is singular: {exc}") from exc
    # A NaN weight makes every residual NaN, which fails whatever the scale.
    x_scale = max(1.0, *np.abs(x).tolist())
    residual = float(np.abs(rows @ x - rhs).max())
    if not residual <= _SYSTEM_TOL * x_scale:
        raise StructuralError(f"elimination system left residual {residual:.3e}")
    if not all(abs(v.imag) <= _REALNESS_TOL * x_scale for v in x.tolist()):
        raise StructuralError("elimination weights are not real")
    return x.real


def eliminate_growing(
    den: np.ndarray,
    roots: RootSet,
    basis: np.ndarray,
    weights: Sequence[float | None],
    pooled: bool = False,
) -> Elimination:
    """Solve for the numerator weights that cancel the growing poles.

    den holds ascending coefficients and each row of the 2-D basis those of
    one basis polynomial, zero-padded and no wider than D'.  The numerator
    is sum(weights[i] * basis[i]) over den, None marking an unknown weight.
    Each growing pole asks for a zero residue (pooled: one equation, their
    residues sum to zero).  A zero-pole residue of 1, the survival
    function's limit, joins the equations when it involves an unknown
    weight; otherwise the solution's constant is left for the caller to
    check.  The basis rows and D' = sum(i den[i] s**(i-1)) are laid out as
    the columns of one coefficient block and evaluated at all roots in one
    ``polyval`` call, the equilibrated square system is solved exactly, and
    the residues of the solved numerator are collected in one pass.  numpy
    computes these values; the masks, the solve's gates and the kept terms
    are decided on Python lists of them.  ``roots`` come from ``poly_roots(den)``.

    Raises:
        ConditioningError: If a basis row, D' or a residue overflows at a
            root.
        StructuralError: If there is no growing root, or the system is not
            square, degenerate or singular, leaves a residual above 1e-8
            or has a solution that is not real to 1e-7.
    """
    poles, growing, grows = roots.poles, roots.growing, roots.growing.tolist()
    if True not in grows:
        raise StructuralError("no growing denominator root to eliminate")
    k = int(roots.zero[0])  # 1 with the zero root, which then comes first
    nb, width = basis.shape
    cols = np.zeros((len(den) - 1, nb + 1))
    cols[:width, :nb] = basis.T
    # D' and the roots' powers can overflow, which the finiteness check
    # refuses; the numpy warnings on the way would say nothing more.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        cols[:, nb] = den[1:] * np.arange(1, len(den))
        at_roots = polyval(poles, cols)
        basis_at_roots = at_roots[:-1]
        basis_residues = basis_at_roots / at_roots[-1]
    if not (np.isfinite(at_roots).all() and np.isfinite(basis_residues).all()):
        raise ConditioningError("basis values or residues at the roots overflow")

    unknown = [i for i, w in enumerate(weights) if w is None]
    full = np.array([0.0 if w is None else float(w) for w in weights])
    known = full @ basis_residues
    free = basis_residues[unknown]
    rows = free[:, growing].T
    rhs = -known[growing]
    if pooled:
        rows = rows.sum(axis=0, keepdims=True)
        rhs = rhs.sum(keepdims=True)
    if k and any(free[:, 0].tolist()):
        rows = np.concatenate((rows, free[:, :1].T))
        rhs = np.concatenate((rhs, 1.0 - known[:1]))
    full[unknown] = _solve(rows, rhs)

    residues = full @ basis_residues
    size = np.abs(residues)
    scale = float(size.max())
    defect = abs(residues[growing].sum()) if pooled else size[growing].max()
    constant, terms = _collect(poles.tolist(), residues.tolist(), size.tolist(),
                               k, grows, RESIDUE_DROP_REL * scale)
    return Elimination(
        full, basis_at_roots[:, growing], constant, terms, float(defect), scale
    )
