"""Bit-equality of the closed-form hot path against its plain numpy form.

The reference below is the straightforward numpy form of the same
arithmetic: the transforms cleared at unit rates with ``np.convolve``
(alpha = lam = beta = 1 and the premium c' of ``model.unit_rates``), D' from
``polyder``, the basis and D' as zero-padded rows, the roots through
``argmax``, ``fill_diagonal`` and ``np.maximum``, the roots in model units
as ``poles * alpha`` with an ``np.isfinite`` gate, the candidates as
``-w * b / a`` over masked arrays, ExpSum evaluation from an ``np.full``
start and the chi condition number from ``np.linalg.cond``.  On
seeded models over loading 1e-6 to 1e3 and |theta| <= 1 (some at theta = 0,
some at |theta| < 1e-9) the package must give the same bits, and wherever
the reference refuses, the same error type and message.

The tilted Monte Carlo round has its plain form too: categories from one
comparison per cut, boolean gathers of the passages and survivors, and
``searchsorted`` on every live row for the lower levels of a grid.  A
request must sum the same bits of the weights conditioned on the walk
before each passage per level, on single levels, duplicate levels and a
41-level grid, in one pool and through a refilled one: the walk of every
path, and so every passage, must be the engine's.  The reach round's plain
form draws fresh pair arrays, walks by ``np.cumsum`` and finds each path's
first stop by ``argmax``, and a reach request must give the same bits of the
moments of its corrections.  The ruin weight's closed
form, from the arrival transforms, is pinned on its own against 60-digit
sums over the sampler's own category tables and against quadrature of the
tilted pair law, which shares no code with the sampler.
"""

import math

import mpmath
import numpy as np
import pytest
from numpy.polynomial.polynomial import polyder, polyval
from scipy import integrate, special

from fgmruin import max_surplus, simulate
from fgmruin.classical import _cleared_parts as classical_parts
from fgmruin.erlang import (
    GrowthElimination,
    SignVariant,
    _cleared_parts as erlang_parts,
)
from fgmruin.errors import (
    ConditioningError,
    InputError,
    RuinModelError,
    StructuralError,
    UnsupportedStructureError,
)
from fgmruin.model import (Erlang2, ExpClaim, ExpPoisson, FgmParam, ModelSpec, sample_pairs,
                           unit_rates)
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
from fgmruin.simulate import (
    _Martingale,
    _RuinWeight,
    _claims_per_round,
    _lundberg_root,
    _mixture,
    _run_reach,
    _run_survival,
    _tilt,
)

# -- reference -------------------------------------------------------------


def _ref_rows(*coeffs):
    rows = np.zeros((len(coeffs), max(len(c) for c in coeffs)))
    for row, c in zip(rows, coeffs):
        row[: len(c)] = c
    return rows


@np.errstate(over="ignore", invalid="ignore")
def _ref_classical_parts(c, th):
    c2 = c * c
    lin_2 = np.array([2.0, 1.0])
    q = np.convolve([1.0, 1.0], lin_2)
    den = np.convolve([2.0, -3.0 * c, c2], q)
    den[:2] -= lin_2 * 2.0
    den[1:3] += lin_2 * c
    den[2] += th * c
    num_const = q * (2.0 - 2.0 * c)
    num_slope = np.append(0.0, q) * c2
    return den, num_const, num_slope


@np.errstate(over="ignore", invalid="ignore")
def _ref_erlang_parts(c, th, variant):
    c2 = c * c
    base2 = np.array([1.0, -2.0 * c, c2])
    lin_1 = np.array([1.0, 1.0])
    if abs(th) < 1e-9:
        den = np.convolve(base2, lin_1)
        den[0] -= 1.0
        return den, _ref_rows(np.append(0.0, lin_1) * c2, lin_1)
    lin_2 = np.array([2.0, 1.0])
    ker = np.array([2.0, -c])
    ker3 = np.convolve(np.convolve(ker, ker), ker)
    cof = np.convolve(np.convolve(ker3, lin_1), lin_2)
    q = np.convolve(lin_1, lin_2)
    qk = np.convolve(q, ker)
    bracket = ker3.copy()
    bracket[0] += 4.0
    bracket[:2] -= ker * (variant.sigma * 6.0)
    den = np.convolve(base2, cof)
    den[:5] -= np.convolve(lin_2, ker3)
    den[1:5] -= bracket * th
    basis = _ref_rows(np.append(0.0, cof) * c2, cof, q * th, qk * th,
                      np.convolve(qk, ker) * th)
    return den, basis


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


def _ref_scaled(poles, alpha):
    """Roots times alpha, refused when one overflows."""
    with np.errstate(over="ignore", invalid="ignore"):
        scaled = poles * alpha
    if not np.all(np.isfinite(scaled)):
        raise ConditioningError(f"roots times alpha = {alpha!r} overflow")
    return scaled


def _ref_candidates(growing_values, w):
    """-w b / a over the growing roots where the first basis value a is nonzero."""
    slope, const = growing_values[:2]
    keep = slope != 0
    return tuple(complex(v) for v in -w * const[keep] / slope[keep])


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
    c, alpha = unit_rates(model, ExpPoisson)
    th, b = model.theta, b * alpha
    k = 2.0 / c
    poles, zero, _ = _ref_poly_roots(_ref_classical_parts(c, th)[0])
    r = np.concatenate(([0.0], poles[~zero]))
    g = (1.0 + r) * (2.0 + r) * (k - r)
    kappa = 2.0 * th / c**2
    mu, nu = 1.0 / c, th / c
    summands = np.array([kappa * r, -mu * (2.0 + r) * (k - r), -nu * r * (k - r),
                         -(r - mu) * g])
    defect = float(np.max(np.abs(summands.sum(axis=0))
                          / np.maximum(1.0, np.max(np.abs(summands), axis=0))))
    if not defect <= 1e-6:
        raise StructuralError(f"assembly left relative defect {defect:.3e} "
                              "on identity rates")
    grow = int(np.argmax(r.real))
    shift = b * (np.arange(4) == grow)
    mat = np.array([
        g * np.exp(r * (b - shift)),
        (2.0 + r) * (k - r) * np.exp(-r * shift),
        2.0 * (1.0 + r) * (k - r) * np.exp(-r * shift),
        r * np.exp(r * (b - shift)),
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


def _ref_tilted_steps(tilt, rng, n):
    """n tilted steps, a category from one comparison per cut, then up to J exponentials.

    Row j takes one exponential for each step whose category is its first
    user f or later (f = 0: every step), in step order.
    """
    u = rng.random(n)
    count = np.zeros(n, dtype=np.uint8)
    for cut in tilt.cuts:
        count += u >= cut
    cat = count.astype(np.intp)
    coef, first = tilt.phases
    step = coef[0][cat] * rng.standard_exponential(n)
    for row, f in zip(coef[1:], first[1:]):
        users = cat >= f
        step[users] += rng.standard_exponential(np.count_nonzero(users)) * row[cat[users]]
    return step


def _ref_tilted_pool(tilt, levels, n, seed, split):
    """Per level, the sum and sum of squares of the conditioned weights, summed as the engine sums them.

    Every row is searched, passages and survivors are boolean gathers, and
    fresh paths join the survivors up to ``_BLOCK_SIZE`` live.  The weights
    are ``tilt.ruin.weights`` at the walk before each passage plus its
    level: a lower level's are summed by one ``bincount`` per round, and
    the top level's in the engine's chunks, the passages of whole rounds
    until the next round could overflow a log of the pool's width plus
    ``_ROUND_STEPS``, and once the pool drains.  At the levels ``split``
    marks, the passages at a path's first claim are counted in a third
    row, not summed.
    """
    rng = np.random.default_rng(seed)
    top = levels.size - 1
    sums = np.zeros((3, levels.size))
    room = min(n, simulate._BLOCK_SIZE) + simulate._ROUND_STEPS
    log = []  # the walk before each logged top-level passage, round by round
    walk = np.zeros(0)
    pending = np.zeros(0, dtype=np.intp)
    walked = np.zeros(0, dtype=np.intp)  # claims each live path has walked

    def flush():
        y = tilt.ruin.weights(np.concatenate([np.zeros(0), *log]) + levels[top])
        sums[0, top] += y.sum()
        # The engine's non-BLAS dot, whose sum order sets the last bits.
        sums[1, top] += np.einsum("i,i->", y, y)
        log.clear()

    while True:
        fresh = min(n, simulate._BLOCK_SIZE - walk.size)
        n -= fresh
        walk = np.concatenate([walk, np.zeros(fresh)])
        pending = np.concatenate([pending, np.zeros(fresh, dtype=np.intp)])
        walked = np.concatenate([walked, np.zeros(fresh, dtype=np.intp)])
        live = walk.size
        if not live:
            flush()
            return sums
        k = _claims_per_round(live)
        steps = _ref_tilted_steps(tilt, rng, live * k).reshape(live, k)
        steps[:, 0] += walk
        steps = np.cumsum(steps, axis=1)
        # The walk before each step: the round's start, then the walk itself.
        before = np.concatenate([walk[:, None], steps[:, :-1]], axis=1).ravel()
        if top:
            new = np.maximum(np.searchsorted(levels[:top], -steps.min(axis=1)), pending)
            count = new - pending
            rows = np.flatnonzero(count)
            count = count[rows]
            pair = np.repeat(np.arange(rows.size), count)
            level = np.arange(pair.size) + np.repeat(pending[rows] - (np.cumsum(count) - count),
                                                     count)
            low = np.minimum.accumulate(steps[rows], axis=1)
            first = (low[pair] >= -levels[level, None]).sum(axis=1)
            once = (walked[rows[pair]] == 0) & (first == 0) & split[level]
            sums[2, :top] += np.bincount(level[once], minlength=top)
            at, level = (rows[pair] * k + first)[~once], level[~once]
            y = tilt.ruin.weights(before[at] + levels[level])
            sums[0, :top] += np.bincount(level, weights=y, minlength=top)
            sums[1, :top] += np.bincount(level, weights=y * y, minlength=top)
            pending = new
        below = steps < -levels[top]
        first = below.argmax(axis=1)
        fired = below[np.arange(live), first]
        once = fired & (walked == 0) & (first == 0) & split[top]
        sums[2, top] += np.count_nonzero(once)
        at = (np.arange(live) * k + first)[fired & ~once]
        if sum(map(len, log)) + at.size > room:
            flush()
        log.append(before[at])
        walk = steps[~fired, -1]
        pending = pending[~fired]
        walked = walked[~fired] + k


def _ref_reach_pool(walk, u, stop, n, seed, split):
    """The sum and centred sum of squares of the corrections, pooled as the engine pools them.

    Each round draws fresh ``sample_pairs`` arrays from the request's
    stream, walks every row from its surplus with ``np.cumsum``, and finds
    each row's first stop, its pre-claim surplus reaching b or its claim
    ruining it, by ``argmax`` over the round's events; the walk before each
    stop comes from a shifted copy of the round.  Fresh paths from u join
    the survivors up to ``_BLOCK_SIZE`` live.  The walk before each stop is
    logged, and turned into ``_Martingale.corrections`` in the engine's
    chunks: the stops of whole rounds until the next round could overflow a
    log of the pool's width, and once the pool drains.  With ``split`` the
    stops at a path's first claim are counted, not logged.
    """
    rng = np.random.default_rng(seed)
    room = min(n, simulate._BLOCK_SIZE)
    log, chunks = [], []  # the walk before each stop, round by round; (size, sum, centred squares)
    surplus = np.zeros(0)
    walked = np.zeros(0, dtype=np.intp)  # claims each live path has walked
    firsts = 0

    def flush():
        s = np.concatenate(log)
        if not s.size:
            return
        e = walk.corrections(s, stop, [np.empty(s.size) for _ in range(5)])
        total = e.sum()
        e -= total / s.size
        chunks.append((s.size, total, np.einsum("i,i->", e, e)))
        log.clear()

    waiting = n
    while True:
        fresh = min(waiting, simulate._BLOCK_SIZE - surplus.size)
        waiting -= fresh
        surplus = np.concatenate([surplus, np.full(fresh, u)])
        walked = np.concatenate([walked, np.zeros(fresh, dtype=np.intp)])
        live = surplus.size
        if not live:
            flush()
            break
        k = _claims_per_round(live)
        w, x = sample_pairs(walk.model, rng, live * k, walk.pairs)
        steps = (walk.model.c * w - x).reshape(live, k)
        steps[:, 0] += surplus
        post = np.cumsum(steps, axis=1)
        event = (post + x.reshape(live, k) >= stop.b) | (post < 0.0)
        first = event.argmax(axis=1)
        fired = event[np.arange(live), first]
        once = fired & (walked == 0) & (first == 0) & split
        firsts += int(np.count_nonzero(once))
        at = (np.arange(live) * k + first)[fired & ~once]
        before = np.concatenate([surplus[:, None], post[:, :-1]], axis=1).ravel()
        if sum(map(len, log)) + at.size > room:
            flush()
        log.append(before[at])
        surplus = post[~fired, -1]
        walked = walked[~fired] + k
    size, total, sq = np.array(chunks).T
    shift = total / size - total.sum() / (n - firsts)
    return np.array([total.sum(), float(sq.sum()) + float(np.einsum("i,i->", size * shift, shift)),
                     firsts])



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
    """A loading that overflows the assembly, and rates that only rescale."""
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


def _parts(rs):
    return rs.poles, rs.zero, rs.growing


def _roots(den):
    return _parts(poly_roots(den))


def _check_elimination(name, i, den, basis, weights, pooled, alpha, w):
    """Compare roots, elimination and ExpSum values; 1 if the model solved.

    The roots are also scaled by the model's alpha and by 1e308, which
    overflows every root of modulus above about 1.8, and the elimination's
    candidates are taken with the second weight fixed at w.
    """
    ref_roots = _outcome(_ref_poly_roots, den)
    _assert_same(f"{name} roots", i, _outcome(_roots, den), ref_roots)
    if ref_roots[0] != "ok":
        return 0
    roots = poly_roots(den)
    for a in (alpha, 1e308):
        _assert_same(f"{name} scaled roots", i, _outcome(lambda: _parts(roots.scaled(a))),
                     _outcome(lambda: (_ref_scaled(ref_roots[1][0], a), *ref_roots[1][1:])))
    want = _outcome(_ref_eliminate, den, ref_roots[1], basis, weights, pooled)
    elim = _outcome(eliminate_growing, den, roots, basis, weights, pooled)
    got = ("ok", _elimination_tuple(elim[1])) if elim[0] == "ok" else elim
    _assert_same(f"{name} elimination", i, got, want)
    if got[0] != "ok":
        return 0
    _assert_same(f"{name} candidates", i, elim[1].candidates(w), _ref_candidates(want[1][1], w))
    e = _outcome(ExpSum, got[1][2], got[1][3])
    if e[0] == "ok":
        for u in (GRID, 0.0, np.float64(1.5), np.array(2.5)):
            _assert_same(f"{name} ExpSum", i, expsum_eval(e[1], u),
                         _ref_expsum_eval(e[1], u))
    return 1


def test_classical_matches_reference():
    solved = 0
    for i, (model, _) in enumerate(MODELS):
        c, alpha = unit_rates(model, ExpPoisson)
        den, num_const, num_slope = classical_parts(c, model.theta)
        ref = _ref_classical_parts(c, model.theta)
        _assert_same("classical parts", i, (den, np.array(num_const), np.array(num_slope)),
                     ref)
        basis = coeff_rows(num_slope, num_const)
        _assert_same("classical basis", i, basis, _ref_rows(ref[2], ref[1]))
        solved += _check_elimination("classical", i, den, basis, (None, 1.0), False,
                                     alpha, 1.0)
    assert solved >= len(MODELS) // 2


@pytest.mark.parametrize("variant", [SignVariant.PLUS, SignVariant.MINUS])
@pytest.mark.parametrize("elimination", [GrowthElimination.INDIVIDUAL,
                                         GrowthElimination.POOLED])
def test_erlang_matches_reference(variant, elimination):
    solved = 0
    for i, (_, model) in enumerate(MODELS):
        c, alpha = unit_rates(model, Erlang2)
        parts = _outcome(erlang_parts, c, model.theta, variant)
        _assert_same("Erlang parts", i, parts,
                     _outcome(_ref_erlang_parts, c, model.theta, variant))
        if parts[0] != "ok":
            continue
        den, basis = parts[1]
        if elimination is GrowthElimination.POOLED:
            args = (basis[:2], (None, 1.0 - 2.0 * c), True)
        else:
            args = (basis, (None,) * len(basis), False)
        solved += _check_elimination("Erlang", i, den, *args, alpha, 1.0 - 2.0 * c)
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


@pytest.mark.parametrize("arrival", [ExpPoisson(1.0), Erlang2(2.0)], ids=["poisson", "erlang"])
@pytest.mark.parametrize("theta", [-1.0, 0.5])
@pytest.mark.parametrize("levels,loading,size", [
    ([0.0], 0.5, 4096), ([5.0], 0.5, 4096), ([0.0, 2.0, 2.0, 10.0], 0.5, 4096),
    (list(range(41)), 0.01, 256),
], ids=["u0", "u5", "duplicates", "41-levels"])
def test_tilted_block_matches_reference(monkeypatch, arrival, theta, levels, loading, size):
    # Poisson(1) and Erlang(2, 2) with Exp(1) claims both have mean
    # inter-claim time 1, so c = 1 + loading; the levels are in claim units.
    # The last run walks 3 size + 1 paths through a pool size wide.
    model = ModelSpec(1.0 + loading, ExpClaim(1.0), arrival, FgmParam(theta))
    levels = np.array(levels, dtype=float)
    tilt = _tilt(model, float(levels[-1]))
    # No level split on the first claim, every level, and every other one.
    for seed, n, split in ((0, size, levels < 0.0), (11, size, levels >= 0.0),
                           (5, 3 * size + 1, np.arange(levels.size) % 2 == 0)):
        monkeypatch.setattr(simulate, "_BLOCK_SIZE", size)
        got = _run_survival(tilt, levels, n, seed, split)
        _assert_same("tilted pool", seed, got, _ref_tilted_pool(tilt, levels, n, seed, split))


@pytest.mark.parametrize("arrival", [ExpPoisson(1.0), Erlang2(2.0)], ids=["poisson", "erlang"])
@pytest.mark.parametrize("theta", [-1.0, 0.5])
@pytest.mark.parametrize("u,b", [(0.0, 20.0), (3.0, 10.0)])
def test_reach_pool_matches_reference(monkeypatch, arrival, theta, u, b):
    # The reach counterpart of the tilted pool's pin, at c = 1.5 in claim
    # units.  The last run walks 3 size + 1 paths through a pool size wide.
    walk = _Martingale.of(ModelSpec(1.5, ExpClaim(1.0), arrival, FgmParam(theta)))
    stop = walk.stopping(b)
    size = 4096
    # Unsplit, then split on the first claim.
    for seed, n, split in ((0, size, False), (11, size, True), (5, 3 * size + 1, True)):
        monkeypatch.setattr(simulate, "_BLOCK_SIZE", size)
        got = _run_reach(walk, u, stop, n, seed, split)
        _assert_same("reach pool", seed, got, _ref_reach_pool(walk, u, stop, n, seed, split))


def _mp_ruin_weight(R, masses, coef, v):
    """g(v) / h(v) for a table of categories, in 60 digits.

    A category's negative coefficients are the scales s_i of its claim
    phases, its positive ones those of its positive part P.  The claim
    part C has the density f(x) = sum_i c_i e^{-x/s_i} / s_i with
    c_i = prod_{j != i} s_i / (s_i - s_j), so past t = v + P it has the
    mass sum_i c_i e^{-t/s_i} and the mean of e^{-R (C - t)} weighted by it
    is sum_i c_i e^{-t/s_i} / (1 + R s_i); over each exponential of P,
    of scale x, e^{-P/s} averages 1 / (1 + x / s).
    """
    with mpmath.workdps(60):
        R, v = mpmath.mpf(R), mpmath.mpf(v)
        g = h = mpmath.mpf(0)
        for p, column in zip(masses.tolist(), coef.T.tolist()):
            scales = [mpmath.mpf(-x) for x in column if x < 0.0]
            for i, s in enumerate(scales):
                term = mpmath.mpf(p) * mpmath.exp(-v / s)
                for j, t in enumerate(scales):
                    if j != i:
                        term *= s / (s - t)
                for x in column:
                    if x > 0.0:
                        term /= 1 + mpmath.mpf(x) / s
                h += term
                g += term / (1 + R * s)
        return float(g / h)


@pytest.mark.parametrize("arrival", [ExpPoisson(1.0), Erlang2(1.0)], ids=["poisson", "erlang"])
@pytest.mark.parametrize("theta", [-1.0, -0.5, 0.5, 1.0])
@pytest.mark.parametrize("c", [1.5, 101.0, 1e4, 1e6, 1e10])
def test_ruin_weight_matches_60_digit_form(arrival, theta, c):
    # The closed form from the arrival transforms against g / h summed over
    # ``_mixture``'s own categories in 60 digits, at v from 0 to 1e6.  At
    # c' = 1e10 every claim scale 1 / (1 - R) is 1e9 or more, the scale of a
    # huge loading.  Measured apart by at most 6.8e-16 relative.
    erlang = isinstance(arrival, Erlang2)
    R, gap = _lundberg_root(c, theta, erlang)
    assert c < 1e10 or 1.0 / gap >= 1e9
    masses, coef = _mixture(c, theta, erlang, R, gap)
    ruin = _RuinWeight.of(c, theta, erlang, R, gap)
    assert ruin.a > -0.5
    v = np.array([0.0, 1e-8, 0.5, 3.0, 50.0, 1e3, 1e6])
    got = ruin.weights(v.copy()) + ruin.center
    assert np.all((got > 0.0) & (got <= 1.0)), got
    want = [_mp_ruin_weight(R, masses, coef, x) for x in v]
    # The weights come centred, which costs a few ulps of the centre.
    np.testing.assert_allclose(got, want, rtol=1e-13, atol=4 * np.spacing(ruin.center))
    # W' is monotone in v, from W'(0) to the centre.
    assert abs(got[0] - ruin.center) == pytest.approx(ruin.spread, rel=1e-15)


def _quad_step(model, R, gap, v, w_star=math.inf):
    """(h, g, reach) of the tilted step from v at unit rates, by quadrature over the time.

    The tilted density of (X, W) is e^{R(x - c w)} e^{-x} f_W(w)
    [1 + theta (2 e^{-x} - 1) b(w)], b = 1 - 2 F_W(w).  A step ruins from v
    when x > t = v + c w.  Integrated over x > t, the density gives
    e^{-R c w} f_W(w) [(1 - theta b) e^{-gap t} / gap
    + 2 theta b e^{-(1 + gap) t} / (1 + gap)], and the density times
    e^{-R(x - t)} gives e^{R v} f_W(w) [(1 - theta b) e^{-t} + theta b e^{-2t}].
    Each is integrated over y = c w < c w* by quad: h is the mass with
    which the step ruins before w*, g its mean of e^{-R D}.  Over every x,
    the density gives e^{-R c w} f_W(w) [(1 - theta b) / gap
    + 2 theta b / (1 + gap)], integrated over w >= w* (not y, whose scale
    c is up to 1e7 here) into reach.
    """
    c, theta = model.c, model.theta
    # The density and the distribution function F_W, free of cancellation
    # at small w, where 1 - theta b = (1 - theta) + 2 theta F_W.
    if isinstance(model.arrival, Erlang2):
        def law(w):
            return w * math.exp(-w), special.gammainc(2.0, w)
    else:
        def law(w):
            return math.exp(-w), -math.expm1(-w)

    def parts(y, t):
        density, cdf = law(y / c)
        keep, tb = (1.0 - theta) + 2.0 * theta * cdf, theta * (1.0 - 2.0 * cdf)
        h = (keep * math.exp(-gap * t) / gap
             + 2.0 * tb * math.exp(-(1.0 + gap) * t) / (1.0 + gap)) * math.exp(-R * y)
        g = (keep * math.exp(-t) + tb * math.exp(-2.0 * t)) * math.exp(R * v)
        return density / c * h, density / c * g

    def quad(f, lo, hi):
        return integrate.quad(f, lo, hi, epsabs=0.0, epsrel=1e-13, limit=200)[0]

    top = c * w_star
    h = quad(lambda y: parts(y, v + y)[0], 0.0, top)
    g = quad(lambda y: parts(y, v + y)[1], 0.0, top)
    reach = quad(lambda w: c * parts(c * w, 0.0)[0], w_star, math.inf) if top < math.inf else 0.0
    return h, g, reach


def _quad_ruin_weight(model, R, gap, v):
    """g(v) / h(v) from the tilted pair law at unit rates (``_quad_step``)."""
    h, g, _ = _quad_step(model, R, gap, v)
    return g / h


@pytest.mark.parametrize("arrival", [ExpPoisson(1.0), Erlang2(1.0)], ids=["poisson", "erlang"])
@pytest.mark.parametrize("theta", [-1.0, -0.5, 0.5, 1.0])
@pytest.mark.parametrize("c", [1.5, 101.0, 1e4])
def test_ruin_weight_matches_quadrature(arrival, theta, c):
    # The closed form W'(v) = g / h from ``_mixture``'s categories against
    # the same ratio integrated from the tilted pair law itself, which
    # shares no code with the tilt (R and 1 - R aside, from _lundberg_root).
    # Measured apart by at most 3.4e-15 relative.
    model = ModelSpec(c, ExpClaim(1.0), arrival, FgmParam(theta))
    tilt = _tilt(model, 0.0)
    R, gap = _lundberg_root(c, theta, isinstance(arrival, Erlang2))
    assert tilt.R == R and tilt.ruin.center == gap
    v = np.array([0.0, 0.5, 3.0, 30.0])
    got = tilt.ruin.weights(v.copy()) + tilt.ruin.center
    want = [_quad_ruin_weight(model, R, gap, x) for x in v]
    np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)


@pytest.mark.parametrize("arrival", [ExpPoisson(1.0), Erlang2(1.0)], ids=["poisson", "erlang"])
@pytest.mark.parametrize("theta", [-1.0, 0.5, 1.0])
@pytest.mark.parametrize("c", [1.5, 11.0])
def test_first_claim_masses_match_the_step_table_and_quadrature(arrival, theta, c):
    # The masses the estimators post-stratify on.  Survival's h(v), with
    # which a tilted step from v ruins, is at v = 0 the mass of the step
    # table's negative categories (``_mixture``), measured within 3 ulps,
    # and past 0 the tail of the tilted step, measured within 1.4e-15
    # relative of quadrature.  Reach's e^{R s} M(s), with which the tilted
    # step from s stops, is the tilted pair law's mass over W >= w* plus
    # that of ruin before w*, measured within 2.8e-14 relative (Erlang,
    # theta = 1, c' = 11, s = 0.99 b) over b in {1, 20} and s in
    # {0, b/2, 0.99 b}.
    erlang = isinstance(arrival, Erlang2)
    model = ModelSpec(c, ExpClaim(1.0), arrival, FgmParam(theta))
    R, gap = _lundberg_root(c, theta, erlang)
    ruin = _RuinWeight.of(c, theta, erlang, R, gap)
    masses, coef = _mixture(c, theta, erlang, R, gap)
    negative = masses[(coef <= 0.0).all(axis=0)].sum()
    h = ruin.mass(np.array([0.0, 0.5, 3.0, 30.0]))
    assert abs(h[0] - negative) <= 4 * np.spacing(negative)
    want = [_quad_step(model, R, gap, v)[0] for v in (0.5, 3.0, 30.0)]
    np.testing.assert_allclose(h[1:], want, rtol=5e-15, atol=0.0)
    walk = _Martingale.of(model)
    for b in (1.0, 20.0):
        stop = walk.stopping(b)
        for s in (0.0, b / 2.0, 0.99 * b):
            ruin_mass, _, reach = _quad_step(model, R, gap, s, (b - s) / c)
            assert walk.first_mass(s, stop) == pytest.approx(ruin_mass + reach, rel=1e-13, abs=0)


def test_first_claim_ruin_mass_is_the_table_mass_to_the_bit():
    # At the benchmark's Poisson theta = 0.5 cell both read 0.5984802785920904.
    R, gap = _lundberg_root(1.5, 0.5, False)
    masses, coef = _mixture(1.5, 0.5, False, R, gap)
    h = _RuinWeight.of(1.5, 0.5, False, R, gap).mass(np.array([0.0]))[0]
    assert h == masses[(coef <= 0.0).all(axis=0)].sum() == 0.5984802785920904


@pytest.mark.parametrize("arrival,c", [(ExpPoisson(1.0), 1e7), (Erlang2(1.0), 5e6)],
                         ids=["poisson", "erlang"])
@pytest.mark.parametrize("theta", [-1.0, 0.5, 1.0])
def test_first_claim_stopping_mass_past_the_tilt_bound(arrival, c, theta):
    # Loading 1e7 - 1, past _REACH_TILT_MAX: R = 0 and the mass is the
    # model's own law's, within 1 - 1e-7 of 1.  Measured within 4.4e-16
    # relative of quadrature.
    model = ModelSpec(c, ExpClaim(1.0), arrival, FgmParam(theta))
    walk = _Martingale.of(model)
    assert walk.R == 0.0
    for b in (1.0, 20.0):
        stop = walk.stopping(b)
        for s in (0.0, b / 2.0, 0.99 * b):
            ruin_mass, _, reach = _quad_step(model, 0.0, 1.0, s, (b - s) / c)
            assert walk.first_mass(s, stop) == pytest.approx(ruin_mass + reach, rel=2e-15, abs=0)


@pytest.mark.parametrize("arrival", [ExpPoisson(1.0), Erlang2(1.0)], ids=["poisson", "erlang"])
@pytest.mark.parametrize("c", [1.5, 101.0, 1e4])
def test_ruin_weight_is_one_minus_R_at_independence(arrival, c):
    # At theta = 0 every ruinous category has the one claim phase of scale
    # 1 / (1 - R): every weight is 1 - R, and the table leaves no spread.
    model = ModelSpec(c, ExpClaim(1.0), arrival, FgmParam(0.0))
    tilt = _tilt(model, 0.0)
    assert tilt.ruin.center == 1.0 - tilt.R or tilt.ruin.center == _lundberg_root(
        c, 0.0, isinstance(arrival, Erlang2))[1]
    assert tilt.ruin.a == 0.0 and tilt.ruin.scale == 0.0 and tilt.ruin.spread == 0.0
    assert np.all(tilt.ruin.weights(np.array([0.0, 0.5, 3.0, 30.0])) == 0.0)


@pytest.mark.parametrize("arrival", [ExpPoisson(1.0), Erlang2(1.0)], ids=["poisson", "erlang"])
@pytest.mark.parametrize("theta", [-1.0, -0.5, 0.5, 1.0])
@pytest.mark.parametrize("c", [1.5, 11.0, 101.0])
def test_ruin_weight_is_the_far_level_limit_of_reach(arrival, theta, c):
    # Reach's I' = H- / M, the ruin weight of its stopping step given the
    # walk s before it, and D / (1 - R) = 1 - I' / (1 - R) - g U0 J' / (1 - R)
    # with g = e^{-R b'}.  As b' grows, g and the reach mass vanish, and
    # (1 - R)(1 - corrections) becomes survival's W'(s): the same law,
    # derived twice, from ``_Martingale.stopping`` and ``_RuinWeight``,
    # which share only their whole-line factors (``_whole_line``).
    # Measured apart by at most 5.0e-16 relative (Erlang c' = 101, theta = 1).
    erlang = isinstance(arrival, Erlang2)
    walk = _Martingale.of(ModelSpec(c, ExpClaim(1.0), arrival, FgmParam(theta)))
    R, gap = _lundberg_root(c, theta, erlang)
    assert (walk.R, walk.gap) == (R, gap)
    ruin = _RuinWeight.of(c, theta, erlang, R, gap)
    s = np.linspace(0.0, 30.0, 61)
    want = ruin.weights(s.copy()) + ruin.center
    for b in (300.0, 600.0):
        spare = [np.empty(s.size) for _ in range(5)]
        corrections = walk.corrections(s.copy(), walk.stopping(b), spare)
        np.testing.assert_allclose(gap * (1.0 - corrections), want, rtol=1e-15, atol=0.0)
    # So does the first claim's stopping mass e^{R s} M(s) become the ruin
    # mass h(s), also at b' = 1e200, where the powers of w* would overflow.
    # Measured apart by at most 3.0e-16 relative.
    for b in (300.0, 1e200):
        stop = walk.stopping(b)
        masses = [walk.first_mass(x, stop) for x in s[::10]]
        np.testing.assert_allclose(masses, ruin.mass(s[::10]), rtol=1e-15, atol=0.0)
