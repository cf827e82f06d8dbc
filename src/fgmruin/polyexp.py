"""Polynomial algebra, rational functions, and exponential-sum inversion.

The survival solvers work with Laplace transforms that are rational in s
after clearing denominators.  The solvers keep them as arrays of ascending
coefficients from assembly to elimination; ``Polynomial`` is the type the
public transform functions return.  This module supplies the shared machinery:

* ``Polynomial``: dense real polynomials with ascending coefficients.
* ``RationalFn`` and ``ParametricRational``: ratios of polynomials, the
  latter with a numerator that is affine in one scalar parameter.
* ``poly_roots``: simple roots only.  The exact zero root is divided out,
  the rest are companion-matrix eigenvalues, and two closer than ``SEP``
  times the larger modulus raise; conjugate symmetrization and
  sign-of-real-part classification follow.
* ``partial_fractions`` / ``ExpSum``: simple-pole expansion and the
  resulting inverse transform, a real constant plus one exponential per
  real pole or conjugate pair, the pair stored once by its upper member.
* ``eliminate_growing``: the step every solver shares after root finding;
  it picks the numerator weights that cancel the growing poles and collects
  the remaining residues into the constant and decaying terms.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Sequence

import numpy as np

from .errors import InputError, StructuralError, UnsupportedStructureError

__all__ = [
    "Polynomial",
    "RationalFn",
    "ParametricRational",
    "RootClass",
    "Root",
    "RootSet",
    "poly_roots",
    "partial_fractions",
    "ExpSum",
    "expsum_eval",
    "invert_rational",
    "Elimination",
    "eliminate_growing",
]

# A nonzero root decays when its real part is below -1e-9 times its modulus.
# Companion-matrix eigenvalues are accurate relative to the coefficients, not
# absolutely, so the threshold scales with the root instead of being a floor.
_DECAY_REL = 1e-9

# Conjugate partners must agree to this tolerance before symmetrization.
CONJUGATE_TOL = 1e-9

# Two eigenvalues closer than SEP times the larger modulus are taken as one
# repeated root, which no solver supports.  The eigenvalues of a repeated
# root scatter like eps**(1/m) relative to it: 5.7e-8 for the double root
# of (s+1)^2 (s+2), 1.1e-5 for (s+1)^3 and up to 4.8e-5 for a triple root
# among four others.  The closest distinct roots the solvers meet with
# loading up to 1e3 sit 5.9e-4 apart (Erlang roots near 2 beta / c at
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


@dataclass(frozen=True)
class Polynomial:
    """Real polynomial with ascending coefficients c[0] + c[1] s + ...

    Trailing zero coefficients are stripped at construction so that the
    leading coefficient is nonzero for any nonzero polynomial.
    """

    coeffs: tuple[float, ...]

    def __init__(self, coeffs: Iterable[float]):
        cs = [float(c) for c in coeffs]
        if not cs:
            raise InputError("polynomial needs at least one coefficient")
        while len(cs) > 1 and cs[-1] == 0.0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return self.coeffs == (0.0,)

    def __call__(self, s):
        # np.polyval's Horner loop, without converting the coefficients.
        x = np.asanyarray(s)
        y = np.zeros_like(x)
        for c in reversed(self.coeffs):
            y = y * x + c
        return y

    def __add__(self, other: "Polynomial") -> "Polynomial":
        n = max(len(self.coeffs), len(other.coeffs))
        a = np.zeros(n)
        a[: len(self.coeffs)] += self.coeffs
        a[: len(other.coeffs)] += other.coeffs
        return Polynomial(a)

    def __mul__(self, other):
        if isinstance(other, Polynomial):
            return Polynomial(np.convolve(self.coeffs, other.coeffs))
        return Polynomial(np.asarray(self.coeffs) * float(other))

    __rmul__ = __mul__


def shifted_zero_constant(c: np.ndarray) -> np.ndarray:
    """Snap c[0], zero by construction, to 0 in place; it must be below 1e-9 max|c|."""
    scale = float(np.max(np.abs(c)))
    if abs(c[0]) > 1e-9 * scale:
        raise StructuralError(f"constant coefficient {float(c[0])!r} is not "
                              f"negligible against scale {scale!r}")
    c[0] = 0.0
    return c


def coeff_rows(*coeffs: np.ndarray) -> np.ndarray:
    """One zero-padded row of ascending coefficients per argument."""
    rows = np.zeros((len(coeffs), max(len(c) for c in coeffs)))
    for row, c in zip(rows, coeffs):
        row[: len(c)] = c
    return rows


def _derivative(c: np.ndarray) -> np.ndarray:
    return c[1:] * np.arange(1, len(c))


def _horner(rows: np.ndarray, x: np.ndarray) -> np.ndarray:
    """All rows at every x in one Horner loop; top zero padding changes no value."""
    y = np.zeros((len(rows), len(x)), dtype=x.dtype)
    for col in rows.T[::-1, :, None]:
        y = y * x + col
    return y


class RootClass(Enum):
    """Sign-of-real-part classification of a transform pole."""

    ZERO = "zero"
    DECAYING = "decaying"
    GROWING = "growing"


@dataclass(frozen=True)
class Root:
    value: complex
    klass: RootClass


@dataclass(frozen=True)
class RootSet:
    """Simple roots of a real polynomial with their classes.

    Invariant: there is one root per degree of the source polynomial, no
    two are closer than SEP times the larger modulus, and non-real roots
    occur in exactly conjugate pairs.
    """

    roots: tuple[Root, ...]
    source_degree: int

    def values(self, klass: RootClass | None = None) -> list[complex]:
        return [r.value for r in self.roots if klass is None or r.klass is klass]

    @property
    def max_multiplicity(self) -> int:
        # Always 1; kept for bench/tracer.py until ROADMAP item 7 drops it.
        return 1


def _conjugate_partners(values: np.ndarray) -> np.ndarray:
    """Index of each value's conjugate partner, -1 where there is none.

    A value within CONJUGATE_TOL * max(1, modulus) of the real axis is its
    own partner.  Another value i pairs with the first non-real j within
    CONJUGATE_TOL * max(1, |value i|) of its conjugate, provided that j
    pairs back with i; so a repeated non-real value finds no partner.
    """
    v = np.asarray(values, dtype=complex)
    scale = CONJUGATE_TOL * np.maximum(1.0, np.abs(v))
    cplx = np.abs(v.imag) > scale
    # No non-real value is within tolerance of its own conjugate.
    near = (np.abs(v - v.conj()[:, None]) <= scale[:, None]) & cplx
    idx = np.arange(len(v))
    partner = np.where(cplx, near.argmax(axis=1), idx)
    found = (near[idx, partner] | ~cplx) & (partner[partner] == idx)
    return np.where(found, partner, -1)


def poly_roots(p) -> RootSet:
    """Simple roots with their classes.

    p is a Polynomial or an array of ascending coefficients, the last one
    nonzero.  One exact zero low-order coefficient gives the ZERO root by
    construction and is divided out, so small nonzero roots are never
    confused with it.  The quotient's roots are its companion-matrix
    eigenvalues in ``np.sort_complex`` order.  Non-real roots are
    symmetrized into exact conjugate pairs (positive imaginary part
    first), and each root is classified as decaying or growing by the
    sign of its real part relative to its own modulus.

    Raises:
        InputError: If p has degree below 1 or a zero leading coefficient.
        UnsupportedStructureError: If zero is a repeated root, or two
            eigenvalues lie within SEP times the larger modulus of each
            other.
        StructuralError: If a non-real eigenvalue has no conjugate partner.
    """
    c = np.asarray(p.coeffs if isinstance(p, Polynomial) else p, dtype=float)
    if len(c) < 2 or c[-1] == 0.0:
        raise InputError("root finding needs degree >= 1, leading coefficient != 0")
    k = int(np.argmax(c != 0.0))
    if k > 1:
        raise UnsupportedStructureError("repeated poles are not supported")
    roots = [Root(0j, RootClass.ZERO)] if k else []
    if len(c) - k < 2:
        return RootSet(tuple(roots), len(c) - 1)
    z = np.sort_complex(np.roots(c[k:][::-1]))

    mod = np.abs(z)
    dist = np.abs(z[:, None] - z)
    np.fill_diagonal(dist, np.inf)
    if np.any(dist < SEP * np.maximum(mod[:, None], mod)):
        raise UnsupportedStructureError("repeated poles are not supported")

    partner = _conjugate_partners(z)
    if (partner < 0).any():
        bad = complex(z[(partner < 0).argmax()])
        raise StructuralError(f"complex root {bad!r} has no conjugate partner")
    idx = np.arange(len(z))
    w = z[partner]
    sym = 0.5 * (z.real + w.real) + 1j * np.abs(0.5 * (z.imag - w.imag))
    order = np.lexsort((idx, np.minimum(idx, partner)))
    vals = np.where(partner < idx, sym.conj(), sym)[order]
    # Purely oscillatory poles do not vanish at infinity: they count as growing.
    decays = vals.real < -_DECAY_REL * np.abs(vals)
    roots += [
        Root(v, RootClass.DECAYING if d else RootClass.GROWING)
        for v, d in zip(vals.tolist(), decays.tolist())
    ]
    return RootSet(tuple(roots), len(c) - 1)


@dataclass(frozen=True)
class RationalFn:
    """Ratio of two real polynomials."""

    num: Polynomial
    den: Polynomial

    def __post_init__(self):
        if self.den.is_zero:
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
    the order of ``roots.roots``.  ``poly_roots`` returns simple roots only,
    so a repeated pole raises there.
    """
    if f.num.degree >= f.den.degree:
        raise InputError("partial fractions require deg(num) < deg(den)")
    if roots is None:
        roots = poly_roots(f.den)
    poles = np.array(roots.values(), dtype=complex)
    residues = f.num(poles) / Polynomial(_derivative(f.den.coeffs))(poles)
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

    A rate within CONJUGATE_TOL * max(1, |rate|) of the real axis is real
    and its term is coef * exp(rate * u); a rate above the axis stands for
    its conjugate pair, 2 Re(coef * exp(rate * u)); a rate below is
    rejected.  The constant and the real-rate terms are stored as floats.
    """

    constant: float
    terms: tuple[tuple[complex, complex], ...]

    def __post_init__(self):
        terms = []
        for coef, rate in self.terms:
            coef, rate = complex(coef), complex(rate)
            if abs(rate.imag) <= CONJUGATE_TOL * max(1.0, abs(rate)):
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
    total = np.full(uu.shape, e.constant)
    for coef, rate in e.terms:
        term = coef * np.exp(rate * uu)
        total = total + (term if isinstance(rate, float) else 2.0 * term.real)
    if np.isscalar(u) or uu.ndim == 0:
        return float(total)
    return total


def _collect(
    poles: np.ndarray, residues: np.ndarray, zero: np.ndarray, floor: float
) -> tuple[float, tuple[tuple[complex, complex], ...]]:
    """Zero-pole constant and ExpSum terms, slowest decay first.

    Each real pole gives a (residue, pole) term and each conjugate pair
    gives one, from its upper member.  Residues of modulus at most
    ``floor`` are dropped.  The zero root is exactly 0, so its residue
    num(0) / den'(0) is real.
    """
    constant = float(np.sum(residues[zero].real))
    keep = ~zero & (np.abs(residues) > floor) & (poles.imag >= 0.0)
    order = np.argsort(-poles[keep].real, kind="stable")
    terms = tuple(
        (complex(r), complex(p))
        for r, p in zip(residues[keep][order], poles[keep][order])
    )
    return constant, terms


def invert_rational(f: RationalFn, roots: RootSet | None = None) -> ExpSum:
    """Inverse Laplace transform of a strictly proper simple-pole rational.

    Poles classified as zero feed the constant; every other pole with a
    nonzero residue carries a coef * exp(pole * u) term.
    """
    if roots is None:
        roots = poly_roots(f.den)
    pairs = partial_fractions(f, roots)
    poles = np.array([p for p, _ in pairs], dtype=complex)
    residues = np.array([r for _, r in pairs], dtype=complex)
    zero = np.array([r.klass is RootClass.ZERO for r in roots.roots])
    return ExpSum(*_collect(poles, residues, zero, 0.0))


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

    def survival(self, growing_tol: float, constant_tol: float) -> ExpSum:
        """The inverted survival function, after its two gates.

        The growing defect must stay within ``growing_tol`` times
        max(1, scale), and the constant, the limit at infinity, within
        ``constant_tol`` of 1.
        """
        if self.growing_defect > growing_tol * max(1.0, self.scale):
            raise StructuralError(
                f"growing residue {self.growing_defect:.3e} survived "
                f"elimination (gate {growing_tol:.0e})"
            )
        if abs(self.constant - 1.0) > constant_tol:
            raise StructuralError(
                f"zero-pole residue {self.constant!r} differs from 1 "
                f"(gate {constant_tol:.0e})"
            )
        return ExpSum(self.constant, self.terms)


def _solve(rows: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Real solution of an equilibrated system under the residual gate."""
    row_scale = np.max(np.abs(rows), axis=1)
    if np.any(row_scale <= _DEGENERATE_REL * np.maximum(row_scale, np.abs(rhs))):
        raise StructuralError("degenerate elimination row")
    rows = rows / row_scale[:, None]
    rhs = rhs / row_scale
    if rows.shape[0] == rows.shape[1]:
        try:
            x = np.linalg.solve(rows, rhs)
        except np.linalg.LinAlgError as exc:
            raise StructuralError(f"elimination system is singular: {exc}") from exc
    else:
        x = np.linalg.lstsq(rows, rhs, rcond=None)[0]
    x_scale = max(1.0, float(np.max(np.abs(x))))
    residual = float(np.max(np.abs(rows @ x - rhs)))
    if residual > _SYSTEM_TOL * x_scale:
        raise StructuralError(f"elimination system left residual {residual:.3e}")
    if float(np.max(np.abs(x.imag))) > _REALNESS_TOL * x_scale:
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
    check.  D' and the basis rows are evaluated at all roots in one stacked
    Horner loop, the equilibrated system is solved exactly when square and
    by least squares otherwise, and the residues of the solved numerator
    are collected in one pass.  ``roots`` are those of ``poly_roots(den)``.

    Raises:
        StructuralError: If there is no growing root, or the system is
            degenerate, singular, leaves a residual above 1e-8 or has a
            solution that is not real to 1e-7.
    """
    poles = np.array(roots.values(), dtype=complex)
    growing = np.array([r.klass is RootClass.GROWING for r in roots.roots])
    zero = np.array([r.klass is RootClass.ZERO for r in roots.roots])
    if not growing.any():
        raise StructuralError("no growing denominator root to eliminate")
    at_roots = _horner(coeff_rows(*basis, _derivative(den)), poles)
    basis_at_roots = at_roots[:-1]
    basis_residues = basis_at_roots / at_roots[-1]

    unknown = np.array([w is None for w in weights])
    fixed = np.array([0.0 if w is None else float(w) for w in weights])
    known = fixed @ basis_residues
    rows = basis_residues[unknown][:, growing].T
    rhs = -known[growing]
    if pooled:
        rows = rows.sum(axis=0, keepdims=True)
        rhs = rhs.sum(keepdims=True)
    at_zero = basis_residues[unknown][:, zero].T
    if np.any(at_zero != 0.0):
        rows = np.vstack([rows, at_zero])
        rhs = np.append(rhs, 1.0 - known[zero])
    full = fixed.copy()
    full[unknown] = _solve(rows, rhs)

    residues = full @ basis_residues
    scale = float(np.max(np.abs(residues)))
    left = residues[growing]
    defect = abs(left.sum()) if pooled else np.max(np.abs(left))
    constant, terms = _collect(
        poles[~growing], residues[~growing], zero[~growing], RESIDUE_DROP_REL * scale
    )
    return Elimination(
        full, basis_at_roots[:, growing], constant, terms, float(defect), scale
    )
