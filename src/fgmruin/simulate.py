"""Monte Carlo estimation of survival and level-reaching probabilities.

Paths of the surplus process are simulated claim by claim with dependent
(inter-claim time, claim amount) pairs from ``model.sample_pairs``: the
inter-claim time is drawn from its own law, and the claim amount by
conditional inversion of the model's copula given the time's grade.  Two
probabilities are exposed:

* reach: the surplus attains a level b before ever falling below zero,
* survival: ruin never happens, approximated by reach of a high proxy
  level (once the surplus is far above zero, ruin has become an
  exponentially unlikely tail event; the reported ``bias_bound`` is a
  heuristic cap on what the truncation can add).

Estimates are averaged over fixed-size blocks, each driven by its own
Philox stream spawned deterministically from (seed, block index).  The
result therefore depends only on the seed and the path count, not on how
many worker threads ran the blocks or in which order they finished.  A
block advances all of its live paths by one claim per round and keeps the
surplus of the paths still inside [0, b) as one compact array, in path
order; paths that reach b or fall below zero are dropped from it.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import ConditioningError, InputError
from .model import ModelSpec, sample_pair, sample_pairs

__all__ = [
    "Level",
    "Horizon",
    "PathKind",
    "PathOutcome",
    "SimEstimate",
    "simulate_path",
    "estimate_reach_prob",
    "estimate_survival",
    "survival_proxy_level",
]

_BLOCK_SIZE = 32768

# Hard cap on claims per path; positive loading drives every path out of
# [0, b) long before this.
_MAX_CLAIMS = 1_000_000


@dataclass(frozen=True)
class Level:
    """Stop a path when the surplus reaches b (or at ruin)."""

    b: float


@dataclass(frozen=True)
class Horizon:
    """Stop a path at time t_max (or at ruin)."""

    t_max: float


class PathKind(Enum):
    """How a simulated path terminated."""

    RUINED = "ruined"
    REACHED_LEVEL = "reached-level"
    HORIZON_SURVIVED = "horizon-survived"


@dataclass(frozen=True)
class PathOutcome:
    """Terminal state of one simulated path.

    Attributes:
        kind: Terminating event.
        time: When it happened: the ruin instant, or the moment the
            drifting surplus crossed the target level.  None for
            HORIZON_SURVIVED (nothing happened by t_max).
        deficit: Severity |surplus| at ruin, strictly positive; None
            unless kind is RUINED.
        claims_count: Claims consumed before termination.
    """

    kind: PathKind
    time: float | None
    deficit: float | None
    claims_count: int


@dataclass(frozen=True)
class SimEstimate:
    """A simulated probability with its sampling uncertainty.

    Attributes:
        value: Estimated probability.
        stderr: Binomial standard error.
        n: Number of simulated paths.
        seed: Seed that reproduces the estimate exactly.
        bias_bound: Heuristic cap on truncation bias (survival estimates
            only; None when the estimate is exact apart from sampling).
    """

    value: float
    stderr: float
    n: int
    seed: int
    bias_bound: float | None = None


def _check_inputs(u: float, n: int) -> tuple[float, int]:
    u = float(u)
    if not (u >= 0.0) or not math.isfinite(u):
        raise InputError(f"initial surplus must be nonnegative, got {u!r}")
    n = int(n)
    if n <= 0:
        raise InputError(f"path count must be positive, got {n!r}")
    return u, n


def simulate_path(
    model: ModelSpec, u: float, stop: Level | Horizon,
    rng: np.random.Generator
) -> PathOutcome:
    """One path, claim by claim, until the stop condition or ruin.

    Scalar reference implementation of the same dynamics the block engine
    vectorizes.  Between claims the surplus drifts up at rate c, so with a
    Level stop the crossing is detected on the continuous segment (the
    pre-claim surplus reaches b if and only if the linear trajectory
    crossed it) and timed as (b - current) / c; ruin can only happen at a
    claim instant.
    """
    u = float(u)
    if not (u >= 0.0) or not math.isfinite(u):
        raise InputError(f"initial surplus must be nonnegative, got {u!r}")
    if isinstance(stop, Level):
        b = float(stop.b)
        if not math.isfinite(b) or b < u:
            raise InputError("target level must be finite and at least u")
        if b == u:
            return PathOutcome(PathKind.REACHED_LEVEL, 0.0, None, 0)
        horizon = math.inf
    elif isinstance(stop, Horizon):
        if not (stop.t_max > 0.0):
            raise InputError("horizon must be positive")
        b = math.inf
        horizon = float(stop.t_max)
    else:
        raise InputError(f"unknown stop condition {stop!r}")
    s = u
    t = 0.0
    for i in range(_MAX_CLAIMS):
        w, x = sample_pair(model, rng)
        if t + w > horizon:
            return PathOutcome(PathKind.HORIZON_SURVIVED, None, None, i)
        pre = s + model.c * w
        if pre >= b:
            return PathOutcome(
                PathKind.REACHED_LEVEL, t + (b - s) / model.c, None, i
            )
        t += w
        s = pre - x
        if s < 0.0:
            return PathOutcome(PathKind.RUINED, t, -s, i + 1)
    raise ConditioningError("path exceeded the claim cap without terminating")


def _run_block(model: ModelSpec, u: float, b: float, size: int, seed: int,
               block: int) -> int:
    rng = np.random.Generator(
        np.random.Philox(np.random.SeedSequence(entropy=seed, spawn_key=(block,)))
    )
    # Surplus of the paths still inside [0, b), kept in path order.
    surplus = np.full(size, u)
    reached = 0
    for _ in range(_MAX_CLAIMS):
        if surplus.size == 0:
            return reached
        w, x = sample_pairs(model, rng, surplus.size)
        pre = surplus + model.c * w
        hit = pre >= b
        reached += int(np.count_nonzero(hit))
        post = pre - x
        surplus = post[~hit & (post >= 0.0)]
    raise ConditioningError("simulation block exceeded the claim cap")


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
    u, n = _check_inputs(u, n)
    b = float(b)
    if not math.isfinite(b) or b < u:
        raise InputError("target level must be finite and at least u")
    if workers < 1:
        raise InputError(f"worker count must be positive, got {workers!r}")
    seed = int(seed)
    if b == u:
        return SimEstimate(1.0, 0.0, n, seed)
    sizes = [_BLOCK_SIZE] * (n // _BLOCK_SIZE)
    if n % _BLOCK_SIZE:
        sizes.append(n % _BLOCK_SIZE)

    def run(args):
        block, size = args
        return _run_block(model, u, b, size, seed, block)

    jobs = list(enumerate(sizes))
    if workers > 1:
        with ThreadPoolExecutor(max_workers=int(workers)) as pool:
            counts = list(pool.map(run, jobs))
    else:
        counts = [run(j) for j in jobs]
    hits = int(sum(counts))
    p = hits / n
    stderr = math.sqrt(max(p * (1.0 - p), 0.0) / n)
    return SimEstimate(p, stderr, n, seed)


def survival_proxy_level(model: ModelSpec, u: float) -> float:
    """Default truncation level for survival estimates: u + 40 claim means."""
    return float(u) + 40.0 * model.m1


def _survival_bias_bound(model: ModelSpec, proxy: float) -> float:
    """Heuristic cap on P(ruin | surplus reached proxy).

    Uses the independent-model adjustment coefficient alpha - lam_eff / c
    with lam_eff = 1 / E[W]; exact for the independent compound Poisson
    case and indicative otherwise.
    """
    lam_eff = 1.0 / model.arrival.mean
    rate = model.claim.alpha - lam_eff / model.c
    amp = min(1.0, lam_eff / (model.c * model.claim.alpha))
    return float(amp * math.exp(-rate * proxy))


def estimate_survival(
    model: ModelSpec,
    u: float,
    n: int,
    seed: int = 0,
    workers: int = 1,
    b_proxy: float | None = None,
) -> SimEstimate:
    """Simulated survival probability from initial surplus u.

    Survival is approximated by the event of reaching ``b_proxy`` (default
    ``survival_proxy_level``) before ruin; the heuristic truncation bias
    bound is attached to the estimate.
    """
    u, n = _check_inputs(u, n)
    proxy = survival_proxy_level(model, u) if b_proxy is None else float(b_proxy)
    if not math.isfinite(proxy) or proxy <= u:
        raise InputError("survival proxy level must be finite and exceed u")
    est = estimate_reach_prob(model, u, proxy, n, seed=seed, workers=workers)
    return SimEstimate(est.value, est.stderr, est.n, est.seed,
                       _survival_bias_bound(model, proxy))
