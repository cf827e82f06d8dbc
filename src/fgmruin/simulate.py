"""Monte Carlo estimation of survival and level-reaching probabilities.

Paths of the surplus process are simulated claim by claim; ruin can only
happen at a claim instant, so a path is a random walk of i.i.d. dependent
(inter-claim time, claim amount) pairs.  Two probabilities are exposed:

* reach: the surplus attains a level b before ever falling below zero.
  Paths use the model's own pairs from ``model.sample_pairs``: the
  inter-claim time is drawn from its own law, and the claim amount by
  conditional inversion of the copula given the time's grade.
* survival: ruin never happens.  Siegmund's importance sampler draws the
  pairs from the exponentially tilted law e^{R(x - cw)} f(x, w), where R
  is the adjustment coefficient; under it ruin is certain, and each path
  runs to ruin and contributes the weight e^{-R(u - post)}, where post is
  its surplus just after the ruinous claim.  The tilted law is a finite
  mixture of sums of exponential phases, so each step is drawn exactly, with
  no rejection: one uniform picks a category, whose coefficients scale a
  few standard exponentials.  One walk from zero serves a whole grid of
  initial surpluses: ruin from u is the walk's first passage below -u.

Estimates are averaged over fixed-size blocks, each driven by its own
PCG64 stream spawned deterministically from (seed, block index), so the
result depends only on the seed and the path count.  The blocks run one
after another in the calling thread; the ``workers`` argument is kept for
compatibility, validated and otherwise ignored.  A block keeps the surplus
of its live paths as one compact array, in path order.  Each round it
draws a (live, k) array of claims with k = ceil(_ROUND_STEPS / live),
walks every row with one cumulative sum, and retires the paths whose
stopping event fired in the row: one claim per round while the block is
nearly full, many once few paths are live.  A round of one claim per path
reads its events from a boolean column instead of gathering each row's
first event, and the survival rounds of one request draw into one
workspace of buffers that every block reuses.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConditioningError, InputError
from .model import Erlang2, ModelSpec, sample_pairs

__all__ = [
    "SimEstimate",
    "estimate_reach_prob",
    "estimate_survival",
]

_BLOCK_SIZE = 32768

# Pairs one round aims to draw.  While this many paths or more are live,
# each advances one claim per round; once fewer are, each advances several,
# so the tail of a block takes few rounds.
_ROUND_STEPS = _BLOCK_SIZE // 16

# Hard cap on claims drawn per path in a block; the drift takes every path
# out of [0, b), or to ruin under the tilted law, long before this.
_MAX_CLAIMS = 1_000_000


@dataclass(frozen=True)
class SimEstimate:
    """A simulated probability with its sampling uncertainty.

    Attributes:
        value: Estimated probability.
        stderr: Standard error: binomial for reach estimates, the sample
            standard error of the importance weights for survival.
        n: Number of simulated paths.
        seed: Seed that reproduces the estimate exactly.
    """

    value: float
    stderr: float
    n: int
    seed: int


def _check_inputs(u, n: int, seed: int,
                  workers: int) -> tuple[np.ndarray, int, int]:
    levels = np.asarray(u, dtype=float)
    if levels.ndim > 1 or levels.size == 0 or not np.all(
            (levels >= 0.0) & (levels < math.inf)):
        raise InputError(f"initial surplus must be nonnegative, got {u!r}")
    n = int(n)
    if n <= 0:
        raise InputError(f"path count must be positive, got {n!r}")
    if workers < 1:
        raise InputError(f"worker count must be positive, got {workers!r}")
    return levels, n, int(seed)


def _block_rng(seed: int, block: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(block,)))


def _claims_per_round(live: int) -> int:
    """Claims each of ``live`` paths advances in one round."""
    return -(-_ROUND_STEPS // live)


def _map_blocks(run, n: int) -> list:
    """run(size, block) over the blocks of n paths, one after another."""
    sizes = [_BLOCK_SIZE] * (n // _BLOCK_SIZE)
    if n % _BLOCK_SIZE:
        sizes.append(n % _BLOCK_SIZE)
    return [run(size, block) for block, size in enumerate(sizes)]


def _next_round(live: int, drawn: int) -> tuple[int, int]:
    """Claims per path for the next round and the running total, under the cap."""
    k = _claims_per_round(live)
    if drawn + k > _MAX_CLAIMS:
        raise ConditioningError("simulation block exceeded the claim cap")
    return k, drawn + k


# numpy accumulates and takes argmax along an axis one row at a time (about
# 0.25 and 0.4 ms for 32768 rows of one column), so rounds with one claim
# per path take neither: they walk with one add and read the event from a
# boolean column.

def _walk(steps: np.ndarray, start: np.ndarray) -> None:
    """Turn each row of steps into the walk from start, in place."""
    steps[:, 0] += start
    if steps.shape[1] > 1:
        np.cumsum(steps, axis=1, out=steps)


def _first_true(mask: np.ndarray) -> np.ndarray:
    """Flat index of each row's first True; a row without one gives its first column."""
    live, k = mask.shape
    first = mask.argmax(axis=1)
    first += np.arange(0, live * k, k)
    return first


def _run_block(model: ModelSpec, u: float, b: float, size: int, seed: int,
               block: int) -> int:
    rng = _block_rng(seed, block)
    # Surplus of the paths still inside [0, b), kept in path order.
    surplus = np.full(size, u)
    reached = drawn = 0
    while surplus.size:
        live = surplus.size
        k, drawn = _next_round(live, drawn)
        w, x = sample_pairs(model, rng, live * k)
        # The surplus rises linearly between claims, so it crosses b before
        # a claim if and only if the pre-claim surplus post + x reaches b;
        # that is checked before the same claim can ruin the path.
        post = w
        post *= model.c
        post -= x
        if k == 1:
            # One claim per path: the event is the claim itself, so the
            # survivors are compressed through one boolean column.
            post += surplus
            x += post
            hit = x >= b
            reached += int(np.count_nonzero(hit))
            keep = post >= 0.0
            keep &= ~hit
            surplus = post[keep]
        else:
            # post[i, j]: surplus of path i just after its j-th claim this round.
            post = post.reshape(live, k)
            _walk(post, surplus)
            hit = post + x.reshape(live, k) >= b
            event = hit | (post < 0.0)
            first = _first_true(event)
            reached += int(np.count_nonzero(hit.ravel()[first]))
            surplus = post[~event.ravel()[first], -1]
    return reached


def estimate_reach_prob(
    model: ModelSpec,
    u: float,
    b: float,
    n: int,
    seed: int = 0,
    workers: int = 1,
) -> SimEstimate:
    """Simulated probability of reaching b before ruin from surplus u.

    The estimate is a deterministic function of (seed, n).  ``workers``
    is kept for compatibility: it must be positive, and the blocks run one
    after another whatever its value.
    """
    u = float(u)
    _, n, seed = _check_inputs(u, n, seed, workers)
    b = float(b)
    if not math.isfinite(b) or b < u:
        raise InputError("target level must be finite and at least u")
    if b == u:
        return SimEstimate(1.0, 0.0, n, seed)
    counts = _map_blocks(lambda size, block: _run_block(model, u, b, size, seed, block), n)
    hits = int(sum(counts))
    p = hits / n
    stderr = math.sqrt(max(p * (1.0 - p), 0.0) / n)
    return SimEstimate(p, stderr, n, seed)


# Largest |log E[e^{R(X - cW)}]| the adjustment coefficient may leave.
_LUNDBERG_TOL = 1e-12

# Most claims a tilted path may be predicted to need, its mean claims plus
# the diffusion scale of their spread (see ``_tilt``).  Every cell of the
# measured table in README "Errors" at loading 0.01 passes (up to 1.3e4),
# and every cell at 3e-3 fails (from 6.3e4), the two that hit the claim cap
# among them.
_CLAIM_BUDGET = 3e4

# Fewest effective paths, (sum w)^2 / sum w^2, a survival level may rest on
# (n / 100 when that is smaller).  Where the gap alpha - R is tiny (loading
# 100 and above with Erlang times or theta near 1) the deficit at ruin is of
# order 1 / gap and almost every weight e^{-R deficit} underflows.  In the
# measured table in README "Errors" every estimate more than 3 stderr off
# has ESS below 4, and every one with ESS of 58 or more is within 2.7.
_ESS_FLOOR = 30.0


def _arrival_parts(arrival, s: float):
    """log f~_W(s), its s-derivative, rho(s), 1 - rho(s) and rho'(s).

    rho = k~_W / f~_W lies in [0, 1).  Poisson: f~_W = lam / (lam + s),
    rho = s / (2 lam + s).  Erlang(2): f~_W = (beta / (beta + s))^2,
    rho = s (s^2 + 6 beta s + 6 beta^2) / (2 beta + s)^3.  Each part is
    computed without cancellation.
    """
    if isinstance(arrival, Erlang2):
        b = arrival.beta
        d = 2.0 * b + s
        return (-2.0 * math.log1p(s / b), -2.0 / (b + s),
                s * (s * s + 6.0 * b * s + 6.0 * b * b) / d**3,
                2.0 * b * b * (3.0 * s + 4.0 * b) / d**3, 12.0 * b * b * (b + s) / d**4)
    lam = arrival.lam
    d = 2.0 * lam + s
    return -math.log1p(s / lam), -1.0 / (lam + s), s / d, 2.0 * lam / d, 2.0 * lam / d**2


def _cgf(model: ModelSpec, r: float, gap: float) -> tuple[float, float]:
    """log M(r) and its r-derivative, M(r) = E[e^{r(X - cW)}]; gap = alpha - r.

    M(r) = f~_X(-r) f~_W(c r) + theta h~(-r) k~_W(c r).  With the claim
    transforms alpha / (alpha - r) and h~(-r) = -alpha r / ((alpha - r)(2 alpha - r))
    this is the product

        M(r) = alpha / gap * f~_W(c r) * (2 gap + r q) / (alpha + gap),
        q = 1 - theta rho(c r) = (1 - theta) + theta (1 - rho(c r)),

    whose last factor is 1 + x with x = -theta r rho / (alpha + gap).  The
    logarithm of each factor keeps full relative precision, at small r
    (where M - 1 would cancel) and where R crowds alpha at large loading.
    """
    a, c, th = model.claim.alpha, model.c, model.theta
    log_fw, log_fw_slope, rho, one_minus_rho, rho_slope = _arrival_parts(
        model.arrival, c * r)
    q = (1.0 - th) + th * one_minus_rho
    num = 2.0 * gap + r * q
    x = -th * r * rho / (a + gap)
    last = math.log1p(x) if abs(x) < 0.5 else math.log(num / (a + gap))
    value = math.log1p(r / gap) + log_fw + last
    num_slope = q - 2.0 - th * r * c * rho_slope
    slope = 1.0 / gap + c * log_fw_slope + num_slope / num + 1.0 / (a + gap)
    return value, slope


def _lundberg_root(model: ModelSpec) -> tuple[float, float]:
    """The adjustment coefficient R and alpha - R, each to full precision.

    R is the root in (0, alpha) of the Lundberg equation
    E[e^{R(X - cW)}] = 1, solved in closed form from the model's
    transforms; the survival solvers are not consulted.

    The steps solve log M(r) = 0.  log M is a cumulant generating function,
    hence convex, with log M(0) = 0, a negative slope at 0 (positive
    loading) and log M -> inf as r -> alpha, so Newton steps started to the
    right of R descend to it monotonically.  The start is
    r = alpha - alpha/2^k for the smallest k that makes log M positive.
    The steps move r itself when R < alpha/2 and the gap alpha - r
    otherwise, whichever is the smaller.  R is then accurate to about
    1e-16 / loading relative, the conditioning of the loading itself.

    Raises:
        ConditioningError: If |log E[e^{R(X - cW)}]| exceeds 1e-12.
    """
    a = model.claim.alpha
    gap = 0.5 * a
    while _cgf(model, a - gap, gap)[0] <= 0.0:
        gap *= 0.5
    on_r = gap == 0.5 * a
    x, sign = gap, (1.0 if on_r else -1.0)
    for _ in range(100):
        r, t = (x, a - x) if on_r else (a - x, x)
        value, slope = _cgf(model, r, t)
        step = sign * value / slope
        x -= step
        if abs(step) <= 4.0 * np.finfo(float).eps * x:
            break
    r, t = (x, a - x) if on_r else (a - x, x)
    resid = abs(_cgf(model, r, t)[0])
    if not resid <= _LUNDBERG_TOL:
        raise ConditioningError(
            f"Lundberg equation residual {resid:.3e} exceeds {_LUNDBERG_TOL:g}"
        )
    return r, t


def _claim_pieces(alpha: float, gap: float):
    """e^{Rx} f_X(x), then times 1 + a and 1 - a, as lists of (mass, phase rates).

    With a = 1 - 2 F_X(x) = 2 e^{-alpha x} - 1 and A = alpha + gap: the
    whole is alpha / gap times Exp(gap), the 1 + a piece 2 alpha / A times
    Exp(A), and the 1 - a piece 2 alpha^2 / (gap A) times Exp(gap) + Exp(A).
    """
    A = alpha + gap
    return ([(alpha / gap, (gap,))],
            [(2.0 * alpha / A, (A,))],
            [(2.0 * alpha * (alpha / (gap * A)), (gap, A))])


def _arrival_pieces(arrival, s: float):
    """e^{-sw} f_W(w), then times 1 + b and 1 - b, as lists of (mass, phase rates).

    b = 1 - 2 F_W(w).  Poisson, mu = lam + s and B = 2 lam + s: the whole is
    lam / mu times Exp(mu), the 1 + b piece 2 lam / B times Exp(B), the
    1 - b piece 2 lam^2 / (mu B) times Exp(mu) + Exp(B).  Erlang(2),
    nu = beta + s and k = 2 beta + s: the whole is (beta / nu)^2 times
    Gamma(2, nu); 1 + b = 2 e^{-beta w}(1 + beta w) gives Gamma(2, k) and
    Gamma(3, k); 1 - b = 2 F_W(w), with W the sum of two Exp(beta), gives
    Gamma(3, k) + Exp(nu) and Gamma(2, k) + Gamma(2, nu).
    """
    if isinstance(arrival, Erlang2):
        b = arrival.beta
        nu, k = b + s, 2.0 * b + s
        return ([((b / nu) ** 2, (nu, nu))],
                [(2.0 * (b / k) ** 2, (k, k)), (4.0 * (b / k) ** 3, (k, k, k))],
                [(4.0 * (b / k) ** 3 * (b / nu), (k, k, k, nu)),
                 (2.0 * (b / k) ** 2 * (b / nu) ** 2, (k, k, nu, nu))])
    lam = arrival.lam
    mu, B = lam + s, 2.0 * lam + s
    return ([(lam / mu, (mu,))],
            [(2.0 * lam / B, (B,))],
            [(2.0 * lam * (lam / (mu * B)), (mu, B))])


def _mixture(model: ModelSpec, R: float, gap: float) -> tuple[np.ndarray, np.ndarray]:
    """Category masses and (J, categories) coefficients of the tilted step c W - X.

    With a = 1 - 2 F_X(x), b = 1 - 2 F_W(w) and s = sgn theta,

        1 + theta a b = (1 - |theta|) + |theta|/2 [(1 + a)(1 + s b) + (1 - a)(1 - s b)],

    and every term is nonnegative, so the tilted law e^{R(x - cw)} f(x, w)
    mixes products of the claim and arrival pieces above.  A component's
    step is c times a sum of arrival phases minus a sum of claim phases.
    Its i-th claim phase is paired with its i-th arrival phase: by
    memorylessness c Exp(r_w) - Exp(r_x) is c / r_w times a standard
    exponential with probability c r_x / (c r_x + r_w), and -1 / r_x times
    one otherwise.  Each choice of component and signs is a category whose
    step is its J coefficients (padded with zeros) times J standard
    exponentials; identical categories merge.  The masses sum to M(R) = 1.
    """
    c, th = model.c, model.theta
    x_whole, x_plus, x_minus = _claim_pieces(model.claim.alpha, gap)
    w_whole, w_plus, w_minus = _arrival_pieces(model.arrival, R * c)
    if th < 0.0:
        w_plus, w_minus = w_minus, w_plus
    half = 0.5 * abs(th)
    rows: dict[tuple, float] = {}
    for weight, xs, ws in ((1.0 - abs(th), x_whole, w_whole),
                           (half, x_plus, w_plus), (half, x_minus, w_minus)):
        if weight == 0.0:
            continue
        for mx, x_rates in xs:
            for mw, w_rates in ws:
                pairs = [((c * rx / (c * rx + rw), c / rw), (rw / (c * rx + rw), -1.0 / rx))
                         for rw, rx in zip(w_rates, x_rates)]
                alone = ([c / rw for rw in w_rates[len(x_rates):]]
                         + [-1.0 / rx for rx in x_rates[len(w_rates):]])
                for signs in itertools.product(*pairs):
                    mass = weight * mx * mw * math.prod(p for p, _ in signs)
                    row = tuple(sorted([v for _, v in signs] + alone))
                    rows[row] = rows.get(row, 0.0) + mass
    width = max(len(row) for row in rows)
    coef = np.array([row + (0.0,) * (width - len(row)) for row in rows]).T.copy()
    return np.array(list(rows.values())), coef


class _Workspace:
    """Buffers the tilted rounds of one request draw into, block after block.

    A round of ``live`` paths draws live * k < live + _ROUND_STEPS steps,
    so a workspace of the largest block's size plus _ROUND_STEPS holds every
    round; a round uses the first live * k entries of each buffer.
    """

    def __init__(self, size: int):
        self.uniform = np.empty(size)
        self.expo = np.empty(size)
        self.cat = np.empty(size, dtype=np.intp)
        self.steps = np.empty(size)
        self.walk = np.empty(size)


@dataclass(frozen=True)
class _Tilt:
    """Exact sampler of the tilted step c W - X over the categories of ``_mixture``."""

    R: float
    cuts: np.ndarray  # cumulative category probabilities, the last one dropped
    coef: np.ndarray  # (J, categories): coefficient j of every category
    claims: float  # predicted mean claims of a path to ruin from the largest u

    def steps(self, rng: np.random.Generator, n: int, work: _Workspace) -> np.ndarray:
        """n tilted steps c w - x: a category from one uniform, then J exponentials.

        The steps are drawn into ``work`` and returned as a view of its
        first n step entries.
        """
        u = rng.random(out=work.uniform[:n])
        # A sum of comparisons beats np.searchsorted on a handful of cuts,
        # and a uint8 sum beats an intp one (there are at most 14
        # categories); np.take then gathers fastest through intp indices.
        count = np.zeros(n, dtype=np.uint8)
        for cut in self.cuts:
            count += u >= cut
        cat = work.cat[:n]
        np.copyto(cat, count)
        # Row by row: one (J, n) draw and gather measured 1.5-1.9x slower
        # for the Erlang table.  The uniforms are spent, so their buffer
        # takes each gathered coefficient row.
        step = np.take(self.coef[0], cat, out=work.steps[:n])
        e = rng.standard_exponential(out=work.expo[:n])
        step *= e
        for coef in self.coef[1:]:
            rng.standard_exponential(out=e)
            e *= np.take(coef, cat, out=u)
            step += e
        return step


def _tilt(model: ModelSpec, u: float) -> _Tilt:
    """The tilted sampler, after checking the predicted claims per path.

    A path from u is predicted to need (u + 1/(alpha - R)) / mu_R claims,
    where mu_R = M'(R) is the tilted drift of X - cW: by Wald's identity
    the claims to ruin average (u + mean deficit) / mu_R, and the deficit
    at ruin is a tilted claim phase's overshoot, whose slowest phase has
    mean 1 / (alpha - R) (exactly the deficit's mean at theta = 0).  A
    block runs until its slowest path is ruined, and that path runs past
    the mean by a few times the diffusion scale sigma_R^2 / (2 mu_R^2) of
    the claims' spread, which equals 1 / (R mu_R) within 1 % at loading
    0.01 and below.  The budget bounds the mean plus that scale; it grows
    like 1 / loading^2 as the loading goes to zero.

    Raises:
        ConditioningError: If the predicted claims per path and their
            spread exceed the budget.
    """
    R, gap = _lundberg_root(model)
    # mu_R = M'(R) = M(R) (log M)'(R), and M(R) = 1.
    mu = _cgf(model, R, gap)[1]
    claims = (u + 1.0 / gap) / mu
    spread = 1.0 / (R * mu)
    if claims + spread > _CLAIM_BUDGET:
        loading = model.c * model.arrival.mean / model.claim.mean - 1.0
        raise ConditioningError(
            f"survival at relative loading {loading:.3g} cannot be simulated "
            f"from u = {u:g}: a tilted path needs about {claims:.3g} claims "
            f"plus a spread of about {spread:.3g}, over the budget of "
            f"{_CLAIM_BUDGET:g}"
        )
    masses, coef = _mixture(model, R, gap)
    cum = np.cumsum(masses)
    return _Tilt(R, cum[:-1] / cum[-1], coef, claims)


def _lower_passages(steps: np.ndarray, levels: np.ndarray, pending: np.ndarray,
                    R: float):
    """First passages below -u_j, j < top, within one round's walk.

    ``steps`` holds each live path's walk over the round and ``pending``
    the index of the next level it has not yet passed.  Returns the level
    of each passage, its weight e^{R(V + u_j)} and the updated ``pending``.
    A path first passes a level where the walk drops below it, and there
    the walk equals its running minimum over the round.
    """
    top = levels.size - 1
    # Lower levels passed by the end of the round: u_j < -min V.
    new = np.searchsorted(levels[:top], -steps.min(axis=1))
    np.maximum(new, pending, out=new)
    count = new - pending
    rows = np.flatnonzero(count)
    count = count[rows]
    # One (row, level) pair per passage, from the row's pending level up.
    pair = np.repeat(np.arange(rows.size), count)
    level = np.arange(pair.size) + np.repeat(pending[rows] - (np.cumsum(count) - count),
                                             count)
    low = steps[rows]
    if low.shape[1] > 1:
        np.minimum.accumulate(low, axis=1, out=low)
    first = (low[pair] >= -levels[level, None]).sum(axis=1)
    return level, np.exp(R * (low[pair, first] + levels[level])), new


def _top_passages(steps: np.ndarray, level: float, R: float):
    """Rows whose walk first drops below -level this round, and their weights."""
    below = steps < -level
    if steps.shape[1] == 1:
        fired = below.ravel()
        passage = steps.ravel()[fired]
    else:
        first = _first_true(below)
        fired = below.ravel()[first]
        passage = steps.ravel()[first[fired]]
    return fired, np.exp(R * (passage + level))


def _run_tilted_block(tilt: _Tilt, levels: np.ndarray, size: int, seed: int,
                      block: int, work: _Workspace) -> tuple[np.ndarray, np.ndarray]:
    """Per level, sum and sum of squares of e^{R post} over tilted paths.

    ``levels`` are the initial surpluses u_j in ascending order.  Every path
    walks V, the surplus gained from zero, and its first passage below -u_j
    is ruin from u_j, with post = u_j + V there.  A path retires once it
    passes the largest level; with one level, that is the whole pass.  The
    rounds draw into ``work``, of at least size + _ROUND_STEPS entries.
    """
    rng = _block_rng(seed, block)
    top = levels.size - 1
    total = np.zeros(levels.size)
    total_sq = np.zeros(levels.size)
    walk = work.walk[:size]
    walk.fill(0.0)
    pending = np.zeros(size, dtype=np.intp) if top else None
    drawn = 0
    while walk.size:
        live = walk.size
        k, drawn = _next_round(live, drawn)
        steps = tilt.steps(rng, live * k, work).reshape(live, k)
        _walk(steps, walk)
        if top:
            level, y, pending = _lower_passages(steps, levels, pending, tilt.R)
            total[:top] += np.bincount(level, weights=y, minlength=top)
            total_sq[:top] += np.bincount(level, weights=y * y, minlength=top)
        fired, y = _top_passages(steps, levels[top], tilt.R)
        total[top] += y.sum()
        total_sq[top] += y @ y
        keep = ~fired
        # The steps and the walk have separate buffers, so the survivors'
        # last column is compressed straight into the walk's.
        walk = work.walk[:np.count_nonzero(keep)]
        np.compress(keep, steps[:, -1], out=walk)
        if top:
            pending = pending[keep]
    return total, total_sq


def estimate_survival(
    model: ModelSpec,
    u,
    n: int,
    seed: int = 0,
    workers: int = 1,
):
    """Simulated survival probability from initial surplus u.

    Siegmund's importance sampler: under the tilted pair law
    e^{R(x - cw)} f(x, w), with R the adjustment coefficient, the claim
    surplus drifts up and ruin is certain, and

        psi(u) = e^{-R u} E_R[e^{-R deficit}],

    where the deficit is the depth of the surplus below zero at ruin.  Each
    of the n tilted paths runs to ruin; the estimate is 1 minus the mean of
    e^{-R(u - post)} over the paths, and its standard error is the sample
    one.  The estimate has no truncation bias, its variance never exceeds
    the binomial psi(1 - psi) / n, and its relative error stays flat as u
    grows.  It is a deterministic function of (seed, n).  ``workers`` is
    kept for compatibility: it must be positive, and the blocks run one
    after another whatever its value.

    ``u`` may be a number, giving one ``SimEstimate``, or a 1-D grid in any
    order, giving a list with one ``SimEstimate`` per level in input order.
    A grid is estimated from one set of n paths, each walked from zero
    until it is ruined from the largest u, so every level is unbiased with
    its own standard error but the estimates are correlated across u.

    Raises:
        ConditioningError: If a tilted path from the largest u is predicted
            to need more claims than the budget (loading near zero), if the
            Lundberg equation is not solved to 1e-12, or if at some level
            the weights' effective sample size (sum w)^2 / sum w^2 falls
            below min(30, n / 100) (large loading with theta near 1, where
            the weights underflow).
    """
    levels, n, seed = _check_inputs(u, n, seed, workers)
    order = np.argsort(levels.ravel(), kind="stable")
    ascending = levels.ravel()[order]
    tilt = _tilt(model, float(ascending[-1]))
    work = _Workspace(min(n, _BLOCK_SIZE) + _ROUND_STEPS)
    sums = _map_blocks(
        lambda size, block: _run_tilted_block(tilt, ascending, size, seed, block, work), n
    )
    total = sum(s for s, _ in sums)
    total_sq = sum(q for _, q in sums)
    ess = np.divide(total * total, total_sq, out=np.zeros_like(total), where=total_sq > 0.0)
    floor = min(_ESS_FLOOR, n / 100.0)
    low = np.flatnonzero(ess < floor)
    if low.size:
        j = low[0]
        raise ConditioningError(
            f"survival from u = {ascending[j]:g} cannot be estimated: the importance "
            f"weights of {n} tilted paths have effective sample size {ess[j]:.3g}, "
            f"below the floor of {floor:g}"
        )
    mean = total / n
    var = np.maximum(total_sq / n - mean * mean, 0.0) * n / max(n - 1, 1)
    scale = np.exp(-tilt.R * ascending)
    value = 1.0 - scale * mean
    stderr = scale * np.sqrt(var / n)
    estimates = [None] * ascending.size
    for i, j in enumerate(order.tolist()):
        estimates[j] = SimEstimate(float(value[i]), float(stderr[i]), n, seed)
    return estimates[0] if levels.ndim == 0 else estimates
