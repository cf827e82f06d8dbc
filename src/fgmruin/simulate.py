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
  its surplus just after the ruinous claim.  The tilted pairs are drawn
  exactly by rejection from the tilted margins.  One walk from zero serves
  a whole grid of initial surpluses: ruin from u is the walk's first
  passage below -u.

Estimates are averaged over fixed-size blocks, each driven by its own
PCG64 stream spawned deterministically from (seed, block index).  The
result therefore depends only on the seed and the path count, not on how
many worker threads ran the blocks or in which order they finished.  A
block keeps the surplus of its live paths as one compact array, in path
order.  Each round it draws a (live, k) array of claims with
k = ceil(_ROUND_STEPS / live), walks every row with one cumulative sum,
and retires the paths whose stopping event fired in the row: one claim
per round while the block is nearly full, many once few paths are live.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
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


def _map_blocks(run, n: int, workers: int) -> list:
    """run(size, block) over the blocks of n paths, results in block order."""
    sizes = [_BLOCK_SIZE] * (n // _BLOCK_SIZE)
    if n % _BLOCK_SIZE:
        sizes.append(n % _BLOCK_SIZE)
    blocks = range(len(sizes))
    if workers > 1:
        with ThreadPoolExecutor(max_workers=int(workers)) as pool:
            return list(pool.map(run, sizes, blocks))
    return [run(size, block) for size, block in zip(sizes, blocks)]


def _next_round(live: int, drawn: int) -> tuple[int, int]:
    """Claims per path for the next round and the running total, under the cap."""
    k = _claims_per_round(live)
    if drawn + k > _MAX_CLAIMS:
        raise ConditioningError("simulation block exceeded the claim cap")
    return k, drawn + k


# numpy accumulates and takes argmax along an axis one row at a time (about
# 0.25 and 0.4 ms for 32768 rows of one column), so the two helpers below
# skip that pass when each row has one column.

def _walk(steps: np.ndarray, start: np.ndarray) -> None:
    """Turn each row of steps into the walk from start, in place."""
    steps[:, 0] += start
    if steps.shape[1] > 1:
        np.cumsum(steps, axis=1, out=steps)


def _first_true(mask: np.ndarray) -> np.ndarray:
    """Flat index of each row's first True; a row without one gives its first column."""
    live, k = mask.shape
    first = np.arange(0, live * k, k)
    if k > 1:
        first += mask.argmax(axis=1)
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
        # post[i, j]: surplus of path i just after its j-th claim this round.
        post = model.c * w
        post -= x
        post = post.reshape(live, k)
        _walk(post, surplus)
        # The surplus rises linearly between claims, so it crosses b before
        # a claim if and only if the pre-claim surplus reaches b; that is
        # checked before the same claim can ruin the path.
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

    The estimate is a deterministic function of (seed, n); ``workers``
    only parallelizes the blocks.
    """
    u = float(u)
    _, n, seed = _check_inputs(u, n, seed, workers)
    b = float(b)
    if not math.isfinite(b) or b < u:
        raise InputError("target level must be finite and at least u")
    if b == u:
        return SimEstimate(1.0, 0.0, n, seed)
    counts = _map_blocks(
        lambda size, block: _run_block(model, u, b, size, seed, block), n, workers
    )
    hits = int(sum(counts))
    p = hits / n
    stderr = math.sqrt(max(p * (1.0 - p), 0.0) / n)
    return SimEstimate(p, stderr, n, seed)


# Largest |log E[e^{R(X - cW)}]| the adjustment coefficient may leave.
_LUNDBERG_TOL = 1e-12

# Most proposals a tilted path may be predicted to need: claims per path
# times proposals per accepted pair.  Every cell of the measured table in
# README "Errors" at loading 0.01 passes (up to 2.5e4) and every cell at
# 3e-3 fails (from 6.3e4).
_PROPOSAL_BUDGET = 3e4

# Most proposals drawn in one batch, which bounds the sampler's memory.
_MAX_BATCH = 1 << 18


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


@dataclass(frozen=True)
class _Tilt:
    """Exact sampler of the tilted pair law f_R(x, w) = e^{R(x - cw)} f(x, w).

    Proposals come from the tilted margins, X ~ Exp(alpha - R) and W with
    density proportional to e^{-Rcw} f_W(w), and are accepted with
    probability (1 + theta (1 - 2F_X(x))(1 - 2F_W(w))) / (1 + |theta|).
    """

    model: ModelSpec
    R: float
    gap: float  # alpha - R
    rate: float  # acceptance rate of one proposal

    def propose(self, rng: np.random.Generator, k: int):
        """k proposals, as claim-surplus steps c w - x, with their acceptance."""
        m, R = self.model, self.R
        a = m.claim.alpha
        x = rng.standard_exponential(k) / self.gap
        if isinstance(m.arrival, Erlang2):
            b = m.arrival.beta
            w = rng.standard_exponential((2, k)).sum(axis=0) / (b + R * m.c)
            gw = 2.0 * np.exp(-b * w) * (1.0 + b * w) - 1.0
        else:
            lam = m.arrival.lam
            w = rng.standard_exponential(k) / (lam + R * m.c)
            gw = 2.0 * np.exp(-lam * w) - 1.0
        gx = 2.0 * np.exp(-a * x) - 1.0
        th = m.theta
        accept = rng.random(k) * (1.0 + abs(th)) < 1.0 + th * gx * gw
        return m.c * w - x, accept

    def steps(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """n tilted steps c w - x: one batch sized to accept n, topped up if short."""
        parts, have = [], 0
        while have < n:
            need = n - have
            k = math.ceil((need + 3.0 * math.sqrt(need * (1.0 - self.rate))) / self.rate)
            k = min(k, _MAX_BATCH)
            step, accept = self.propose(rng, k)
            # An index gather beats a boolean mask on a random half-full mask.
            parts.append(step[np.flatnonzero(accept)[:need]])
            have += parts[-1].size
        return parts[0] if len(parts) == 1 else np.concatenate(parts)


def _tilt(model: ModelSpec, u: float) -> _Tilt:
    """The tilted sampler, after checking the predicted work per path.

    A path from u is predicted to need 1 + (u + 1/R) / mu_R claims, where
    mu_R = M'(R) is the tilted drift of X - cW; this grows like
    1 / loading^2 as the loading goes to zero.  Each claim takes
    1 / acceptance proposals, and the acceptance rate falls towards zero at
    large loading with theta > 0.

    Raises:
        ConditioningError: If the predicted proposals per path exceed the
            budget.
    """
    R, gap = _lundberg_root(model)
    log_fw = _arrival_parts(model.arrival, model.c * R)[0]
    rate = min(1.0, gap / (model.claim.alpha * math.exp(log_fw) * (1.0 + abs(model.theta))))
    # mu_R = M'(R) = M(R) (log M)'(R), and M(R) = 1.
    claims = 1.0 + (u + 1.0 / R) / _cgf(model, R, gap)[1]
    if claims / rate > _PROPOSAL_BUDGET:
        loading = model.c * model.arrival.mean / model.claim.mean - 1.0
        raise ConditioningError(
            f"survival at relative loading {loading:.3g} cannot be simulated "
            f"from u = {u:g}: a tilted path needs about {claims:.3g} claims at "
            f"acceptance rate {rate:.3g}, over the budget of "
            f"{_PROPOSAL_BUDGET:g} proposals"
        )
    return _Tilt(model, R, gap, rate)


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
    first = _first_true(below)
    fired = below.ravel()[first]
    return fired, np.exp(R * (steps.ravel()[first[fired]] + level))


def _run_tilted_block(tilt: _Tilt, levels: np.ndarray, size: int, seed: int,
                      block: int) -> tuple[np.ndarray, np.ndarray]:
    """Per level, sum and sum of squares of e^{R post} over tilted paths.

    ``levels`` are the initial surpluses u_j in ascending order.  Every path
    walks V, the surplus gained from zero, and its first passage below -u_j
    is ruin from u_j, with post = u_j + V there.  A path retires once it
    passes the largest level; with one level, that is the whole pass.
    """
    rng = _block_rng(seed, block)
    top = levels.size - 1
    total = np.zeros(levels.size)
    total_sq = np.zeros(levels.size)
    walk = np.zeros(size)
    pending = np.zeros(size, dtype=np.intp) if top else None
    drawn = 0
    while walk.size:
        live = walk.size
        k, drawn = _next_round(live, drawn)
        steps = tilt.steps(rng, live * k).reshape(live, k)
        _walk(steps, walk)
        if top:
            level, y, pending = _lower_passages(steps, levels, pending, tilt.R)
            total[:top] += np.bincount(level, weights=y, minlength=top)
            total_sq[:top] += np.bincount(level, weights=y * y, minlength=top)
        fired, y = _top_passages(steps, levels[top], tilt.R)
        total[top] += y.sum()
        total_sq[top] += y @ y
        keep = ~fired
        walk = steps[keep, -1]
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
    grows.  It is a deterministic function of (seed, n); ``workers`` only
    parallelizes the blocks.

    ``u`` may be a number, giving one ``SimEstimate``, or a 1-D grid in any
    order, giving a list with one ``SimEstimate`` per level in input order.
    A grid is estimated from one set of n paths, each walked from zero
    until it is ruined from the largest u, so every level is unbiased with
    its own standard error but the estimates are correlated across u.

    Raises:
        ConditioningError: If a tilted path from the largest u is predicted
            to need more proposals than the budget (loading near zero, or a
            low acceptance rate at large loading with theta > 0), or the
            Lundberg equation is not solved to 1e-12.
    """
    levels, n, seed = _check_inputs(u, n, seed, workers)
    order = np.argsort(levels.ravel(), kind="stable")
    ascending = levels.ravel()[order]
    tilt = _tilt(model, float(ascending[-1]))
    sums = _map_blocks(
        lambda size, block: _run_tilted_block(tilt, ascending, size, seed, block),
        n, workers,
    )
    mean = sum(s for s, _ in sums) / n
    var = np.maximum(sum(q for _, q in sums) / n - mean * mean, 0.0) * n / max(n - 1, 1)
    scale = np.exp(-tilt.R * ascending)
    value = 1.0 - scale * mean
    stderr = scale * np.sqrt(var / n)
    estimates = [None] * ascending.size
    for i, j in enumerate(order.tolist()):
        estimates[j] = SimEstimate(float(value[i]), float(stderr[i]), n, seed)
    return estimates[0] if levels.ndim == 0 else estimates
