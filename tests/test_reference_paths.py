"""Bit-equality of the closed-form hot path against its plain numpy form.

The reference below is the straightforward numpy form of the same
arithmetic: the transforms cleared with ``np.convolve``, D' from
``polyder``, the basis and D' as zero-padded rows, the roots through
``argmax``, ``fill_diagonal`` and ``np.maximum``, ExpSum evaluation from an
``np.full`` start and the chi condition number from ``np.linalg.cond``.  On
seeded models over loading 1e-6 to 1e3 and |theta| <= 1 (some at theta = 0,
some at |theta| < 1e-9) the package must give the same bits, and wherever
the reference refuses, the same error type and message.
"""

import math

import numpy as np
import pytest
from numpy.polynomial.polynomial import polyder, polyval

from fgmruin import max_surplus
from fgmruin.classical import _cleared_parts as classical_parts
from fgmruin.erlang import (
    GrowthElimination,
    SignVariant,
    _cleared_parts as erlang_parts,
    _independence_w,
)
from fgmruin.errors import (
    ConditioningError,
    InputError,
    RuinModelError,
    StructuralError,
    UnsupportedStructureError,
)
from fgmruin.model import Erlang2, ExpClaim, ExpPoisson, FgmParam, ModelSpec
from fgmruin.polyexp import (
    _DECAY_REL,
    _DEGENERATE_REL,
    _REALNESS_TOL,
    _SYSTEM_TOL,
    RESIDUE_DROP_REL,
    SEP,
    ExpSum,
    coeff_rows,
    eliminate_growing,
    expsum_eval,
    poly_roots,
)

# -- reference -------------------------------------------------------------


def _ref_rows(*coeffs):
    rows = np.zeros((len(coeffs), max(len(c) for c in coeffs)))
    for row, c in zip(rows, coeffs):
        row[: len(c)] = c
    return rows


def _ref_snap(c):
    scale = float(np.max(np.abs(c)))
    if abs(c[0]) > 1e-9 * scale:
        raise StructuralError(f"constant coefficient {float(c[0])!r} is not "
                              f"negligible against scale {scale!r}")
    c[0] = 0.0
    return c


@np.errstate(over="ignore", invalid="ignore")
def _ref_classical_parts(model):
    a, lam, c, th = model.claim.alpha, model.arrival.lam, model.c, model.theta
    lam2, c2 = lam * lam, c * c
    lin_2a = np.array([2.0 * a, 1.0])
    q = np.convolve([a, 1.0], lin_2a)
    den = np.convolve([2.0 * lam2, -3.0 * lam * c, c2], q)
    den[:2] -= lin_2a * (2.0 * lam2 * a)
    den[1:3] += lin_2a * (lam * c * a)
    den[2] += th * lam * c * a
    num_const = q * (-2.0 * lam * c + 2.0 * lam2 * model.m1)
    num_slope = np.append(0.0, q) * c2
    return _ref_snap(den), num_const, num_slope


@np.errstate(over="ignore", invalid="ignore")
def _ref_erlang_parts(model, variant):
    a, beta, c, th = model.claim.alpha, model.arrival.beta, model.c, model.theta
    beta2, c2 = beta * beta, c * c
    base2 = np.array([beta2, -2.0 * beta * c, c2])
    lin_a = np.array([a, 1.0])
    if abs(th) < 1e-9:
        den = np.convolve(base2, lin_a)
        den[0] -= beta2 * a
        return _ref_snap(den), _ref_rows(np.append(0.0, lin_a) * c2, lin_a)
    lin_2a = np.array([2.0 * a, 1.0])
    ker = np.array([2.0 * beta, -c])
    ker3 = np.convolve(np.convolve(ker, ker), ker)
    cof = np.convolve(np.convolve(ker3, lin_a), lin_2a)
    q = np.convolve(lin_a, lin_2a)
    qk = np.convolve(q, ker)
    beta4, beta5 = np.float64(beta) ** 4, np.float64(beta) ** 5
    bracket = ker3 * beta2
    bracket[0] += 4.0 * beta5
    bracket[:2] -= ker * (variant.sigma * 6.0 * beta4)
    den = np.convolve(base2, cof)
    den[:5] -= np.convolve(lin_2a, ker3) * (beta2 * a)
    den[1:5] -= bracket * (th * a)
    basis = _ref_rows(np.append(0.0, cof) * c2, cof, q * th, qk * th,
                      np.convolve(qk, ker) * th)
    return _ref_snap(den), basis


def _ref_poly_roots(c):
    """(poles, zero, growing) of ascending coefficients c."""
    c = np.asarray(c, dtype=float)
    if len(c) < 2 or c[-1] == 0.0:
        raise InputError("root finding needs degree >= 1, leading coefficient != 0")
    if not np.isfinite(c).all():
        raise ConditioningError(f"transform coefficients are not finite: {c.tolist()!r}")
    k = int(np.argmax(c != 0.0))
    if k > 1:
        raise UnsupportedStructureError("repeated poles are not supported")
    q = c[k:][::-1]
    n = len(q) - 1
    if n:
        companion = np.eye(n, k=-1)
        companion[0] = -q[1:] / q[0]
        z = np.linalg.eigvals(companion) + 0j
    else:
        z = np.zeros(0, dtype=complex)
    mod = np.abs(z)
    dist = np.abs(z[:, None] - z)
    np.fill_diagonal(dist, np.inf)
    if np.any(dist < SEP * np.maximum(mod[:, None], mod)):
        raise UnsupportedStructureError("repeated poles are not supported")
    z = z[np.lexsort((-np.abs(z.imag), z.real))]
    rest = iter(z.tolist())
    for v in rest:
        if v.imag < 0.0 or (v.imag > 0.0 and next(rest, None) != v.conjugate()):
            raise StructuralError(f"complex root {v!r} has no conjugate partner")
    poles = np.concatenate((np.zeros(k, dtype=complex), z))
    growing = poles.real >= -_DECAY_REL * np.abs(poles)
    zero = np.arange(len(poles)) < k
    growing[:k] = False
    return poles, zero, growing


def _ref_solve(rows, rhs):
    if rows.shape[0] != rows.shape[1]:
        raise StructuralError(f"{rows.shape[0]} elimination equations for "
                              f"{rows.shape[1]} unknown weights")
    row_scale = np.max(np.abs(rows), axis=1)
    if np.any(row_scale <= _DEGENERATE_REL * np.maximum(row_scale, np.abs(rhs))):
        raise StructuralError("degenerate elimination row")
    rows = rows / row_scale[:, None]
    rhs = rhs / row_scale
    try:
        x = np.linalg.solve(rows, rhs)
    except np.linalg.LinAlgError as exc:
        raise StructuralError(f"elimination system is singular: {exc}") from exc
    x_scale = max(1.0, float(np.max(np.abs(x))))
    residual = float(np.max(np.abs(rows @ x - rhs)))
    if not residual <= _SYSTEM_TOL * x_scale:
        raise StructuralError(f"elimination system left residual {residual:.3e}")
    if not float(np.max(np.abs(x.imag))) <= _REALNESS_TOL * x_scale:
        raise StructuralError("elimination weights are not real")
    return x.real


def _ref_eliminate(den, roots, basis, weights, pooled=False):
    """(weights, growing values, constant, terms, defect, scale)."""
    poles, zero, growing = roots
    if not growing.any():
        raise StructuralError("no growing denominator root to eliminate")
    with np.errstate(over="ignore", invalid="ignore"):
        at_roots = polyval(poles, _ref_rows(*basis, polyder(den)).T)
    if not np.isfinite(at_roots).all():
        raise ConditioningError("basis values at the roots overflow")
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
    full[unknown] = _ref_solve(rows, rhs)
    residues = full @ basis_residues
    scale = float(np.max(np.abs(residues)))
    left = residues[growing]
    defect = abs(left.sum()) if pooled else np.max(np.abs(left))
    decaying = ~growing
    p, r, z = poles[decaying], residues[decaying], zero[decaying]
    constant = float(np.sum(r[z].real))
    keep = ~z & (np.abs(r) > RESIDUE_DROP_REL * scale) & (p.imag >= 0.0)
    order = np.argsort(-p[keep].real, kind="stable")
    terms = tuple((complex(a), complex(b)) for a, b in zip(r[keep][order], p[keep][order]))
    return full, basis_at_roots[:, growing], constant, terms, float(defect), scale


def _ref_expsum_eval(e, u):
    uu = np.asarray(u, dtype=float)
    total = np.full(uu.shape, e.constant)
    for coef, rate in e.terms:
        term = coef * np.exp(rate * uu)
        total = total + (term if isinstance(rate, float) else 2.0 * term.real)
    if np.isscalar(u) or uu.ndim == 0:
        return float(total)
    return total


def _ref_chi_gates(model, b):
    """The chi assembly defect and condition number, through their gates."""
    alpha, lam, c, th = model.claim.alpha, model.arrival.lam, model.c, model.theta
    k = 2.0 * lam / c
    poles, zero, _ = _ref_poly_roots(_ref_classical_parts(model)[0])
    r = np.concatenate(([0.0], poles[~zero]))
    g = (alpha + r) * (2.0 * alpha + r) * (k - r)
    kappa = 2.0 * th * lam**2 / c**2 / alpha / alpha
    mu, nu = lam / c / alpha, th * lam / c / alpha
    ra = r / alpha
    two, gap = 2.0 + ra, k / alpha - ra
    summands = np.array([kappa * ra, -mu * two * gap, -nu * ra * gap,
                         -(ra - mu) * ((1.0 + ra) * two * gap)])
    defect = float(np.max(np.abs(summands.sum(axis=0))
                          / np.maximum(1.0, np.max(np.abs(summands), axis=0))))
    if not defect <= 1e-6:
        raise StructuralError(f"assembly left relative defect {defect:.3e} "
                              "on identity rates")
    grow = int(np.argmax(r.real))
    shift = b * (np.arange(4) == grow)
    mat = np.array([
        g * np.exp(r * (b - shift)),
        alpha * (2.0 * alpha + r) * (k - r) * np.exp(-r * shift),
        2.0 * alpha * (alpha + r) * (k - r) * np.exp(-r * shift),
        alpha * r * np.exp(r * (b - shift)),
    ])
    mat = mat / np.max(np.abs(mat), axis=1)[:, None]
    try:
        condition = float(np.linalg.cond(mat))
    except np.linalg.LinAlgError:
        condition = math.inf
    if not np.isfinite(condition) or condition > 1e12:
        raise ConditioningError(f"coefficient system condition {condition:.3e} "
                                f"exceeds {1e12:.0e}")
    return defect, condition


# -- comparison --------------------------------------------------------------


def _outcome(f, *args):
    """("ok", result) or ("error", type name, message)."""
    try:
        return ("ok", f(*args))
    except RuinModelError as exc:
        return ("error", type(exc).__name__, str(exc))


def _bits(x):
    """A value's exact bits, -0.0 and NaN payloads included."""
    if isinstance(x, np.ndarray):
        return (x.dtype.str, x.shape, x.tobytes())
    if isinstance(x, (tuple, list)):
        return tuple(_bits(v) for v in x)
    if isinstance(x, (float, complex)):
        return np.array(x).tobytes()
    return x


def _models(n=500, seed=20240611):
    rng = np.random.default_rng(seed)
    out = []
    for i in range(n):
        loading = 10.0 ** rng.uniform(-6.0, 3.0)
        alpha, lam = np.exp(rng.uniform(math.log(0.2), math.log(5.0), 2))
        if i % 10 == 0:
            theta = 0.0
        elif i % 10 == 1:
            theta = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.0, 1e-9))
        else:
            theta = float(rng.uniform(-1.0, 1.0))
        c = (1.0 + loading) * lam / alpha
        claim, copula = ExpClaim(float(alpha)), FgmParam(theta)
        out.append((ModelSpec(float(c), claim, ExpPoisson(float(lam)), copula),
                    ModelSpec(float(c), claim, Erlang2(2.0 * float(lam)), copula)))
    return out


def _extreme_models():
    """Rates that overflow the assembly or the basis values, refused by type."""
    out = []
    for c, alpha, lam, theta in ((1.0, 1e160, 1.0, 0.5), (1.0, 1e160, 1.0, 0.0),
                                 (1e201, 1e-200, 1.0, 0.5), (2e200, 1.0, 1e200, 0.5)):
        claim, copula = ExpClaim(alpha), FgmParam(theta)
        out.append((ModelSpec(c, claim, ExpPoisson(lam), copula),
                    ModelSpec(c, claim, Erlang2(2.0 * lam), copula)))
    return out


MODELS = _models() + _extreme_models()
GRID = np.linspace(0.0, 20.0, 21)


def _assert_same(name, i, got, want):
    assert _bits(got) == _bits(want), f"{name}, model {i}: {got!r} != {want!r}"


def _elimination_tuple(elim):
    return (elim.weights, elim.growing_values, elim.constant, elim.terms,
            elim.growing_defect, elim.scale)


def _roots(den):
    rs = poly_roots(den)
    return rs.poles, rs.zero, rs.growing


def _check_elimination(name, i, den, basis, weights, pooled):
    """Compare roots, elimination and ExpSum values; 1 if the model solved."""
    ref_roots = _outcome(_ref_poly_roots, den)
    _assert_same(f"{name} roots", i, _outcome(_roots, den), ref_roots)
    if ref_roots[0] != "ok":
        return 0
    want = _outcome(_ref_eliminate, den, ref_roots[1], basis, weights, pooled)
    got = _outcome(lambda *a: _elimination_tuple(eliminate_growing(*a)),
                   den, poly_roots(den), basis, weights, pooled)
    _assert_same(f"{name} elimination", i, got, want)
    if got[0] != "ok":
        return 0
    e = _outcome(ExpSum, got[1][2], got[1][3])
    if e[0] == "ok":
        for u in (GRID, 0.0, np.float64(1.5), np.array(2.5)):
            _assert_same(f"{name} ExpSum", i, expsum_eval(e[1], u),
                         _ref_expsum_eval(e[1], u))
    return 1


def test_classical_matches_reference():
    solved = 0
    for i, (model, _) in enumerate(MODELS):
        den, num_const, num_slope = classical_parts(model)
        ref = _ref_classical_parts(model)
        _assert_same("classical parts", i, (den, np.array(num_const), np.array(num_slope)),
                     ref)
        basis = coeff_rows(num_slope, num_const)
        _assert_same("classical basis", i, basis, _ref_rows(ref[2], ref[1]))
        solved += _check_elimination("classical", i, den, basis, (None, 1.0), False)
    assert solved >= len(MODELS) // 2


@pytest.mark.parametrize("variant", [SignVariant.PLUS, SignVariant.MINUS])
@pytest.mark.parametrize("elimination", [GrowthElimination.INDIVIDUAL,
                                         GrowthElimination.POOLED])
def test_erlang_matches_reference(variant, elimination):
    solved = 0
    for i, (_, model) in enumerate(MODELS):
        parts = _outcome(erlang_parts, model, variant)
        _assert_same("Erlang parts", i, parts, _outcome(_ref_erlang_parts, model, variant))
        if parts[0] != "ok":
            continue
        den, basis = parts[1]
        if elimination is GrowthElimination.POOLED:
            args = (basis[:2], (None, _independence_w(model)), True)
        else:
            args = (basis, (None,) * len(basis), False)
        solved += _check_elimination("Erlang", i, den, *args)
    assert solved >= len(MODELS) // 2


def test_chi_gates_match_reference():
    solved = 0
    for i, (model, _) in enumerate(MODELS):
        b = 10.0 / model.claim.alpha
        want = _outcome(_ref_chi_gates, model, b)
        got = _outcome(max_surplus.solve_chi, model, b)
        if got[0] == "ok":
            solved += 1
            sol = got[1]
            _assert_same("chi gates", i, ("ok", (sol.assembly_defect, sol.condition)), want)
        elif want[0] == "error":
            _assert_same("chi refusal", i, got, want)
        else:
            # Past the condition gate only the unchanged boundary gate refuses.
            assert got[2].startswith("solution misses the boundary value"), (i, got)
    assert solved >= len(MODELS) // 2
