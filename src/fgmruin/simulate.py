"""Monte Carlo estimation of survival and level-reaching probabilities.

Paths of the surplus process are simulated claim by claim; ruin can only
happen at a claim instant, so a path is a random walk of i.i.d. dependent
(inter-claim time, claim amount) pairs.  Two probabilities are exposed:

* reach: the surplus attains a level b before ever falling below zero.
  Paths draw their pairs from Siegmund's tilted law, as survival does,
  exactly, through ``model.sample_pairs`` with a ``PairTilt``: a category
  from one uniform, then the time's and the claim's exponential phases,
  by the kernel that draws the survival steps (``model._draw_phases``),
  into the request's buffers (``_ReachLog``).
  Under the tilt most paths are ruined within a few claims.  Each path
  contributes D, a closed form in the walk before its stopping step that
  combines the step's likelihood-weighted ruin and reach probabilities
  through the known mean of the likelihood ratio (a control variate whose
  slope makes D vanish at theta = 0; ``_Martingale``).
* survival: ruin never happens.  Siegmund's importance sampler draws the
  pairs from the exponentially tilted law e^{R(x - cw)} f(x, w), where R
  is the adjustment coefficient; under it ruin is certain, and each path
  runs to ruin, where its likelihood ratio e^{-R(u - post)} =
  e^{-R u} e^{-R D} has all its randomness in the deficit D = -post below
  zero.  The tilted law is a finite mixture of sums of exponential phases,
  so each step is drawn exactly, with no rejection: one uniform picks a
  category, whose coefficients, all of one sign, scale one to four
  standard exponentials (``_mixture`` races the claim phases against the
  time phases).  The estimate averages E[e^{-R D}] given the walk before
  the ruinous step, a closed form in that walk alone whose one parameter
  comes from the arrival transforms at c' and 2c' (``_RuinWeight``), in
  place of e^{-R D}, from the same draws; e^{-R D} itself is never formed.
  One walk from zero serves a whole grid of initial surpluses: ruin from
  u is the walk's first passage below -u.

Both walk at unit rates, in the units of ``model.unit_rates`` (money in
mean claims 1/alpha, time in 1/lam or 1/beta), where the walk, R and the
weights depend on the premium c' and theta alone: the levels alpha u and
alpha b are in claim units, and the estimates do not depend on the
model's units.

Each request draws from one PCG64 stream built from its seed, so the
result depends only on the seed and the path count.  Both estimators walk
their paths through one loop (``_walk_pool``), in the calling thread; the
``workers`` argument is kept for compatibility, validated and otherwise
ignored.  The loop keeps the walk of its live paths, at most
``_BLOCK_SIZE``, as one compact array.  Each round the estimator draws a
(live, k) array of claims with k = ceil(_ROUND_STEPS / live), walks every
row with one cumulative sum and marks the events that stop a path; the
loop retires the paths whose event fired, the survivors keep their order
and fresh paths join at the end, until all n have entered (``_Pool``).
So rounds run at full width, one claim per path, until the last paths
enter, and the request drains only once, with many claims per path once
few are live.  Every draw is fresh and its place fixed by the rounds
before it, so the paths are i.i.d. whatever round they enter in.  The
walk before each path's stopping step is logged, one per path, and turned
into conditioned weights (survival's top level) or corrections (reach) in
chunks, whenever the next round could overflow the log.  Both estimators
post-stratify on the first claim, whose stopping mass is a closed form:
the paths that stop there (a fresh row's first column) are counted, not
logged, where enough other paths are expected.  The rounds of a
request draw into one set of buffers (``_Workspace`` for survival,
``_ReachLog`` for reach).  A tilted round draws a phase row only for the
steps whose category uses it, where those carry under half the mass
(``model._draw_phases``).  It picks its categories from one comparison
block against the cuts, gathers its passages by index, and on a grid
searches only the paths whose round minimum passed the level they had
pending.  Each of these computes the same values in the same order as a
comparison per cut, a boolean gather and a search of every path, so the
weights keep their bits.  Sums over a pool's length avoid BLAS, whose dot
runs on every core.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ConditioningError, InputError
from .model import (Erlang2, ExpClaim, ModelSpec, PairTilt, _cgf, _Draws,
                    _draw_phases, _is_int, _pair_categories, _Pairs, _Phases, sample_pairs,
                    unit_rates)

__all__ = [
    "SimEstimate",
    "estimate_reach_prob",
    "estimate_survival",
]

# Most paths a request walks at once, its pool's width.
_BLOCK_SIZE = 32768

# Pairs one round aims to draw.  While this many paths or more are live,
# each advances one claim per round; once fewer are, each advances several,
# so the tail of a request takes few rounds.
_ROUND_STEPS = _BLOCK_SIZE // 16

# Hard cap on the claims a path draws after it enters the pool; the drift
# takes every path out of [0, b), or to ruin under the tilted law, long
# before this.  It counts no claim drawn before the path entered, so it
# binds no sooner for a larger n.
_MAX_CLAIMS = 1_000_000

# Fewest paths a request expects to walk past their first claim, (1 - q) n,
# for it to post-stratify on the first claim's known stopping mass q; below
# it the plain estimate stands.  Too few such paths show too little of their
# spread: at the 18 reach cells of ROADMAP item 35 whose RMS z passed 1.3
# (n = 2e4) the count is at most 130, and stratified at any count 12 of them
# read a larger RMS z, up to 1.2e8.
_MIN_REST = 1000


@dataclass(frozen=True)
class SimEstimate:
    """A simulated probability with its sampling uncertainty.

    Attributes:
        value: Estimated probability.
        stderr: Standard error of the estimate post-stratified on the
            first claim: (1 - q) s_rest / sqrt(N_rest), where q is the known
            mass with which a path stops at its first claim (h(u) for
            survival, e^{R u} M(u) for reach) and s_rest the sample
            standard deviation of the other N_rest paths' conditioned
            weights (survival) or corrections D (reach), scaled as the
            value.  Where fewer than 1000 paths are expected past their
            first claim, (1 - q) n < 1000, it is the plain sample standard
            error of all n paths.  Survival's is floored at what one path
            can move the mean, and both at the rounding error of the
            value, which binds where the weights or corrections are
            constant, as at theta = 0.
        n: Number of simulated paths.
        seed: Seed that reproduces the estimate exactly.
    """

    value: float
    stderr: float
    n: int
    seed: int


def _check_inputs(u, n: int, seed: int,
                  workers: int) -> tuple[np.ndarray, int, int]:
    try:
        levels = np.asarray(u, dtype=float)
    except (TypeError, ValueError):
        levels = np.empty(0)
    # float() reads a bool as 0 or 1, which is no surplus.
    if levels.ndim > 1 or levels.size == 0 or np.asarray(u).dtype == bool or not np.all(
            (levels >= 0.0) & (levels < math.inf)):
        raise InputError(f"initial surplus must be a nonnegative number or 1-D grid of them, "
                         f"got {u!r}")
    if not _is_int(n) or n <= 0:
        raise InputError(f"path count must be a positive integer, got {n!r}")
    if not _is_int(workers) or workers < 1:
        raise InputError(f"worker count must be a positive integer, got {workers!r}")
    if not _is_int(seed) or seed < 0:
        raise InputError(f"seed must be a nonnegative integer, got {seed!r}")
    return levels, int(n), int(seed)


def _claims_per_round(live: int) -> int:
    """Claims each of ``live`` paths advances in one round."""
    return -(-_ROUND_STEPS // live)


class _Pool:
    """Which of a request's n paths have entered its pool of live paths, and when.

    The pool is at most ``width`` paths wide.  Each round its survivors
    keep their order and fresh paths join at the end, until all n have
    entered, so the paths that entered in one round (a cohort) stay
    contiguous and the oldest live path comes first.  ``clock`` counts the
    claims a path live since the first round has drawn, ``ends`` holds each
    live cohort's end in the pool and ``entry`` its clock on entering: no
    path draws more than ``_MAX_CLAIMS`` claims after it enters, however
    many paths the request walks.
    """

    def __init__(self, n: int, width: int):
        self.waiting = n
        self.width = width
        self.clock = 0
        self.ends = np.zeros(0, dtype=np.intp)
        self.entry: list[int] = []

    def refill(self, live: int) -> int:
        """How many fresh paths join ``live`` survivors at the end of the pool."""
        fresh = min(self.waiting, self.width - live)
        if fresh:
            self.waiting -= fresh
            self.ends = np.append(self.ends, live + fresh)
            self.entry.append(self.clock)
        return fresh

    def claims(self, live: int) -> int:
        """Claims per path for the next round of ``live`` paths, under the cap."""
        k = _claims_per_round(live)
        self.clock += k
        if self.clock - self.entry[0] > _MAX_CLAIMS:
            raise ConditioningError(
                f"a simulated path would draw more than the cap of {_MAX_CLAIMS} claims")
        return k

    def retire(self, at: np.ndarray, k: int) -> None:
        """Drop the rows of a round of k claims per path that stopped at the flat indices ``at``.

        ``at`` ascends, so the rows before a cohort's end that stopped are
        the indices below end * k.
        """
        self.ends -= np.searchsorted(at, self.ends * k)
        gone = int(np.searchsorted(self.ends, 0, side="right"))
        if gone:
            self.ends = self.ends[gone:]
            del self.entry[:gone]


# numpy accumulates and takes argmax along an axis one row at a time (about
# 0.25 and 0.4 ms for 32768 rows of one column), so rounds with one claim
# per path take neither: they walk with one add and read the event from a
# boolean column.

def _walk(steps: np.ndarray, start: np.ndarray) -> None:
    """Turn each row of steps into the walk from start, in place."""
    steps[:, 0] += start
    if steps.shape[1] > 1:
        np.cumsum(steps, axis=1, out=steps)


def _first_events(event: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The rows of a round whose event fired, and the flat index of each one's first event."""
    live, k = event.shape
    if k == 1:
        fired = event.ravel()
        return fired, np.flatnonzero(fired)
    first = event.argmax(axis=1)
    first += np.arange(0, live * k, k)
    fired = event.ravel()[first]
    return fired, first[fired]


def _before(walk: np.ndarray, start: np.ndarray, at: np.ndarray,
            out: np.ndarray) -> np.ndarray:
    """The walk before the steps at flat indices ``at`` of a round, into ``out``.

    ``walk`` holds each row's walk over the round and ``start`` each row's
    value before it: the walk before a step is the walk one column back,
    or the round's start at the first column.
    """
    k = walk.shape[1]
    if k == 1:
        return start.take(at, out=out, mode="clip")
    before = walk.take(at - 1, out=out, mode="clip")
    np.copyto(before, start[at // k], where=at % k == 0)
    return before


def _past_first(at: np.ndarray, k: int, new: int) -> tuple[np.ndarray, int]:
    """The stops at flat indices ``at`` (ascending) not at a path's first claim, and how many are.

    The paths from row ``new`` on entered this round, so their stops come
    last and their first claim is the round's column 0.  A one-claim round
    returns a view: an integer remainder and a boolean gather cost about
    ten times the search.
    """
    cut = int(np.searchsorted(at, new * k))
    if k == 1:
        return at[:cut], at.size - cut
    first = at[cut:] % k == 0
    return np.concatenate((at[:cut], at[cut:][~first])), int(np.count_nonzero(first))


def _walk_pool(n: int, seed: int, walk: np.ndarray, before: np.ndarray, start: float,
               round_, flush, pending: bool = False, split: bool = False) -> int:
    """Walk n paths from ``start`` through one pool, logging the walk before each one's stop.

    The paths draw from one PCG64 stream built from ``seed`` and walk in one
    pool at most ``_BLOCK_SIZE`` wide (``_Pool``); ``walk`` holds the live
    paths' walk, in pool order.  Each round, ``round_(rng, walk, k,
    pending, new)`` draws k claims for each live path, the paths from row
    ``new`` on fresh, turns each row into its walk from ``walk`` in a buffer
    of its own, and returns that (live, k) walk with the mask of the events
    that stop a path.  The walk before each path's first event is logged
    into ``before``, in stopping order, and the log is handed to ``flush``
    whenever the next round could overflow it, and once the pool drains.
    With ``split`` the paths that stop at their first claim, whose walk
    before it is ``start``, are counted, not logged; the count is returned.
    With ``pending`` every path carries an index, 0 when it enters, that
    ``round_`` may update in place (survival's next level on a grid).
    """
    rng = np.random.default_rng(seed)
    pool = _Pool(n, min(n, _BLOCK_SIZE))
    index = np.zeros(0, dtype=np.intp) if pending else None
    live = logged = firsts = 0
    while True:
        fresh = pool.refill(live)
        if fresh:
            walk[live:live + fresh] = start
            if pending:
                index = np.concatenate((index, np.zeros(fresh, dtype=np.intp)))
            live += fresh
        if not live:
            break
        k = pool.claims(live)
        steps, event = round_(rng, walk[:live], k, index, live - fresh)
        fired, at = _first_events(event)
        rest = at
        if split and fresh:
            rest, first = _past_first(at, k, live - fresh)
            firsts += first
        if logged + rest.size > before.size:
            flush(before[:logged])
            logged = 0
        _before(steps, walk[:live], rest, before[logged:logged + rest.size])
        logged += rest.size
        pool.retire(at, k)
        keep = ~fired
        live -= at.size
        # np.compress, not a boolean index: about 1.7 times faster on a
        # (32768, 1) round (numpy 2.4).
        np.compress(keep, steps[:, -1], out=walk[:live])
        if pending:
            index = np.compress(keep, index)
    flush(before[:logged])
    return firsts


def _poly(coef: tuple, w: np.ndarray, out: np.ndarray):
    """sum_k coef[k] w^k into ``out``, or the number coef[0] itself where there is no w term."""
    if len(coef) == 1:
        return coef[0]
    np.multiply(w, coef[-1], out=out)
    for a in coef[-2:0:-1]:
        out += a
        out *= w
    out += coef[0]
    return out


# Largest relative loading a reach walk is tilted at.  At theta = 1 the
# masses of ``_Martingale.stopping`` lose up to 9.4e-11 (Poisson) and
# 7.3e-12 (Erlang) relative at 1e6 against 60-digit quadrature, and 2.2e-9
# at Erlang 1e4, which moves chi by less than 1e-16, since D carries the
# factor 1 - R (D is off by 9.4e-17 and 2.9e-23).  Tilted past the bound
# they stay within 1.7e-9 up to 1e17.  Past the bound the walk is the
# model's own, which stops at its first claim on all but about 1 / loading
# of the paths.
_REACH_TILT_MAX = 1e6


class _Stopping(NamedTuple):
    """The coefficients of ``_Martingale.corrections`` at one level: numbers, and polynomials in w*."""

    b: float  # the level in claim units
    clip: bool  # whether e^{w* - s + R b} may pass e^700
    a_inf: float  # d = a_inf t + keep d0 t q + m0(w*) + p m1(w*)
    keep: float  # 1 - kappa
    d0: float
    m0: tuple
    m1: tuple
    f0: tuple  # f = -kappa d0 t q + f0(w*) + p f1(w*)
    f1: tuple
    exact: float  # 1 - g U0


class _Martingale(NamedTuple):
    """The likelihood ratio of a tilted reach walk, conditioned on the walk before its stopping step.

    The walk is at unit rates (``model.unit_rates``): money in mean claims
    1/alpha, time in 1/lam or 1/beta, premium c = c'.  At claim instants the
    surplus S_n is a random walk, and E[e^{R(X - cW)}] = 1.  The paths draw
    their pairs from the tilted law e^{R(x - cw)} f(x, w) (``pairs``), as
    the survival sampler does, under which ruin comes within a few claims;
    stopped at N, the first step that reaches b or ruins, a path's
    likelihood ratio against the model's own law is e^{R(S_N - u)}.

    From s = S_{N-1} in [0, b) the next step's pre-claim surplus is
    P = s + cW: the path reaches b if P >= b, that is W >= w* = (b - s) / c,
    and is ruined if the claim passes P.  Under the model's law the claim
    given W is the signed mixture (1 - tb) Exp(1) + tb Exp(2),
    tb = theta (1 - 2 F_W(W)), so given s the step stops by reaching with
    mass H+ = P(W >= w*), by ruin with mass
    H- = E[e^{-P} (1 - tb + tb e^{-P}); W < w*], and weighs e^{-R S_N} over
    both by

        M = E[e^{-R P} ((1 - tb) k1 + tb k2); W >= w*]
          + E[e^{-P} ((1 - tb) k1 + tb k2 e^{-P}); W < w*],

    k1 = 1 / (1 - R) and k2 = 2 / (2 - R) (e^{R X} over each claim phase).
    The tilted step stops with mass e^{R s} M, so given s and that the path
    stops there, 1{ruin} e^{R S_N} averages I' = H- / M and 1{reach}
    e^{R S_N} averages J' = H+ / M.  By the tower property over the
    stopping step n, E_R[1{N = n} I'] = E_R[1{N = n} 1{ruin} e^{R S_N}],
    so E_R[I'] = e^{R u} psi_b and E_R[J'] = e^{R u} chi, and
    E_R[I' + J'] = e^{R u} is known: under the model's law every path
    leaves [0, b).  I' lies in [0, 1], since e^{-R S_N} > 1 on ruin.

    Both chi = 1 - e^{-R u} E[I'] and chi = e^{-R u} E[J'] hold, and so
    does every combination; with g = e^{-R b} and U0 below,

        chi = (1 - e^{-R u} (1 - R - E[D])) / (1 - g U0),
        D = (1 - R) - I' - g U0 J'.

    At theta = 0 with Poisson times D is 0 on every path (U0 = 1 / (1 + R c)
    is then H+ / M's ratio to the reach part of M, and the ruin part of M is
    k1 H-), so the estimate is exact; at any theta D is bounded, whereas
    J' is large on the rare tilted paths that reach b and carries their
    whole mean.  A slope fitted to the sample in its place read |z| up to
    1e15 at b = 100 and 4 - 237 at b = 20 (loadings 0.5 - 100), where few or
    no tilted paths reached b and the fit weighed J' by about 1 / g.

    With kappa = R / (2 - R), k2 - k1 = -kappa k1, so the reach integrand
    is k1 e^{-R P} (1 - kappa tb), and the ruin integrand is k1 times
    e^{-P} (1 - tb) + (1 - kappa) tb e^{-2P}.  Each mass is an integral over
    W of e^{-aW} f_W or e^{-aW} f_W Fbar_W (Fbar_W = 1 - F_W, and
    1 - 2 F_W = 2 Fbar_W - 1) times e^{-s}, e^{-2s} or e^{-R s}, over
    [0, w*) or [w*, inf), and each such integral is a constant less, or is,
    e^{-a w*} times a polynomial in w*: of degree 0 for Poisson times, up to
    2 for Erlang(2) (``stopping``).  Scaled by 1 / (g p), p = e^{-w*}, and
    since s + c w* = b turns every other exponential into e^{-b}, e^{-2b}
    or g, the masses are combinations of t = e^{w* - s + R b},
    t q = e^{w* - 2s + R b} (q = e^{-s}), p and 1 with polynomial
    coefficients, and D = (1 - R) f / d with d = M / (k1 g p) and
    f = ((1 - R) M - H- - g U0 H+) / (g p), both computed directly:
    ``corrections`` returns f / d.  f cancels no term of D's own size:
    at theta = 0 its reach part is U(1 + R c) less its value U0 at w* = 0.
    t and t q are taken at w* - s + R b <= 700, both shifted alike: this
    binds only past b (1 / c + R) = 700, where the ruin terms outweigh
    every other by e^700, and moves D by less than e^{-700} relative.
    Above loading 1e6 (``_REACH_TILT_MAX``), or where ``_lundberg_root``
    refuses, R is 0, the walk is the model's own, U0 is 0 and
    D = H+ / (H+ + H-), the reach probability of the step.
    """

    model: ModelSpec  # the model at unit rates, whose tilted pairs the paths walk
    alpha: float  # claim rate: a model level u is alpha u in claim units
    R: float  # adjustment coefficient at unit rates, 0 past the tilt bound or where refused
    gap: float  # 1 - R
    kappa: float  # R / (2 - R)
    pairs: PairTilt  # the tilted pair law at R

    @classmethod
    def of(cls, model: ModelSpec) -> _Martingale:
        law = type(model.arrival)
        c, alpha = unit_rates(model, law)
        unit = ModelSpec(c, ExpClaim(1.0), law(1.0), model.copula)
        R, gap = 0.0, 1.0
        if _loading(c, law is Erlang2) <= _REACH_TILT_MAX:
            try:
                R, gap = _lundberg_root(c, model.theta, law is Erlang2)
            except ConditioningError:
                pass
        return cls(unit, alpha, R, gap, R / (1.0 + gap), PairTilt.of(unit, R, gap))

    def chi(self, u: float, stop: _Stopping, mean: float) -> float:
        """chi from u in claim units and the mean of ``corrections``, (1 - R) times D's."""
        scale = math.exp(-self.R * u)
        # 1 - e^{-R u} (1 - R), as two nonnegative terms.
        return (self.R * scale - math.expm1(-self.R * u) + scale * self.gap * mean) / stop.exact

    def stopping(self, b: float) -> _Stopping:
        """The coefficients of ``corrections`` at level b in claim units.

        The integrals of e^{-aW} f_W and e^{-aW} f_W Fbar_W over [w*, inf)
        are e^{-a w*} U(a)(w*) and e^{-a w*} V(a)(w*), with U(a) = V(a) =
        [1/a] for Poisson times and U(a) = [1/a^2, 1/a],
        V(a) = [1/a^2 + 2/a^3, 1/a + 2/a^2, 1/a] for Erlang(2), low degree
        first; over [0, w*) they are the constant term less that.  So,
        with a = (1 + theta) U(1 + c), a_p = 2 theta V(2 + c),
        d = theta U(1 + 2c) and d_p = 2 theta V(2 + 2c), the ruin mass is
        H- / p = t' [a - a_p]_0 - e^{-b} (a(w*) - p a_p(w*))
        + t' q [d_p - d]_0 - e^{-2b} (p d_p(w*) - d(w*)), t' = e^{w* - s},
        whose whole-line constants [a - a_p]_0 = f~_W(c) (1 - theta rho(c))
        and [d_p - d]_0 = theta f~_W(2c) rho(2c) come from ``_whole_line``:
        as differences they lose about eps c (Poisson) or eps c^2 (Erlang)
        relative near theta = 1.  The ruin part of M / k1 is the same with
        its d terms times 1 - kappa = 2 (1 - R) / (2 - R).  Above w*,
        e^{-R P} = g e^{-R c (W - w*)}, and 1 - kappa tb =
        (1 + kappa theta) - 2 kappa theta Fbar_W, so with a1 = 1 + R c the
        reach part of M / k1 is g p [(1 + kappa theta) U(a1)(w*)
        - 2 kappa theta p V(2 + R c)(w*)], and U0 = U(a1)(0), 1 / a1 or
        1 / a1^2.  Divided by g, e^{-b} and e^{-2b} become e^{-(1 - R) b}
        and e^{-(2 - R) b}, and (1 + kappa theta) U(a1) - U0 (1 or 1 + w*)
        is [kappa theta / a1] or [kappa theta / a1^2,
        ((1 + kappa theta) R c + kappa theta) / a1^2].
        """
        R, theta, c, kappa, gap = self.R, self.model.theta, self.model.c, self.kappa, self.gap
        erlang = isinstance(self.model.arrival, Erlang2)

        # Divisions, not powers: a reaches 2e308 at the largest premiums,
        # where a power overflows and a quotient underflows to 0.
        def u_(k, a):
            return (k / a / a, k / a) if erlang else (k / a,)

        def v_(k, a):
            if not erlang:
                return (k / a,)
            return (k / a / a * (1.0 + 2.0 / a), k / a * (1.0 + 2.0 / a), k / a)

        def add(x, y, kx=1.0, ky=1.0):
            """kx x + ky y, term by term."""
            return tuple(kx * i + ky * j for i, j in zip(x, y, strict=True))

        keep = 2.0 * gap / (1.0 + gap)
        # 1 + kappa theta, a sum of two nonnegative terms for theta < 0 too.
        lift = 1.0 + kappa * theta if theta >= 0.0 else (1.0 + theta) - theta * keep
        a1, rc, kt = 1.0 + R * c, R * c, kappa * theta
        e1, e2 = math.exp(-gap * b), math.exp(-(1.0 + gap) * b)
        a, a_p = u_(1.0 + theta, 1.0 + c), v_(2.0 * theta, 2.0 + c)
        d, d_p = u_(theta, 1.0 + 2.0 * c), v_(2.0 * theta, 2.0 + 2.0 * c)
        r0, r1 = u_(lift, a1), v_(-2.0 * kt, 2.0 + rc)
        # 1 - g U0 = (a1 - g) / a1 or (a1^2 - g) / a1^2, free of cancellation.
        if not R:
            # No tilt and no control: U0 is 0, and f is H+ / p, that is r0.
            lead, exact = r0, 1.0
        elif erlang:
            lead = (kt / a1 / a1, (lift * rc + kt) / a1 / a1)
            exact = (rc * (2.0 + rc) - math.expm1(-R * b)) / a1 / a1
        else:
            lead, exact = (kt / a1,), (rc - math.expm1(-R * b)) / a1
        fc, q, fw, rho2 = _whole_line(c, theta, erlang)
        return _Stopping(
            b, b * (1.0 / c + R) > 700.0, fc * q, keep, theta * (fc * fw) * rho2,
            add(r0, add(d, a, keep * e2, -e1)), add(r1, add(a_p, d_p, e1, -keep * e2)),
            add(lead, d, 1.0, -kappa * e2), add(r1, d_p, 1.0, kappa * e2), exact)

    def corrections(self, s: np.ndarray, stop: _Stopping, spare) -> np.ndarray:
        """D / (1 - R) = f / d of each path from its logged s, returned in ``spare[0]``.

        Computed in place over ``s`` and the first four arrays of
        ``spare`` (Erlang(2) times use a fifth), with one division per
        path.
        """
        f, d, t, w, x = spare[:5]
        c = self.model.c
        np.subtract(stop.b, s, out=w)
        w *= 1.0 / c
        # t = e^{w* - s + R b} and t q = e^{w* - 2s + R b}, in t and s.
        np.subtract(w, s, out=t)
        t += self.R * stop.b
        if stop.clip:
            np.minimum(t, 700.0, out=t)
        np.subtract(t, s, out=s)
        np.exp(t, out=t)
        np.exp(s, out=s)
        # p, in f until the p terms are taken.
        np.negative(w, out=f)
        np.exp(f, out=f)
        np.multiply(f, _poly(stop.m1, w, x), out=d)
        f *= _poly(stop.f1, w, x)
        d += _poly(stop.m0, w, x)
        f += _poly(stop.f0, w, x)
        t *= stop.a_inf
        d += t
        s *= stop.d0
        np.multiply(s, stop.keep, out=t)
        d += t
        s *= -self.kappa
        f += s
        f /= d
        return f

    def first_mass(self, s: float, stop: _Stopping) -> float:
        """e^{R s} M(s), the mass with which the tilted step from s stops a path.

        From d = M / (k1 g p), with t g p = e^{-s}: k1 times
        e^{-(1 - R) s} (a_inf + keep d0 e^{-s}) + e^{-R (b - s) - w*}
        (m0(w*) + p m1(w*)), each exponential at most 1.
        """
        w = (stop.b - s) / self.model.c
        near = math.exp(-self.R * (stop.b - s) - w)
        if near:  # w* below about 745, so its powers stay finite
            p = math.exp(-w)
            near *= (sum(a * w**i for i, a in enumerate(stop.m0))
                     + p * sum(a * w**i for i, a in enumerate(stop.m1)))
        return (math.exp(-self.gap * s) * (stop.a_inf + stop.keep * stop.d0 * math.exp(-s))
                + near) / self.gap


class _ReachLog(_Pairs):
    """Buffers a reach request draws its rounds into and logs its stopping steps into.

    A round of ``live`` paths draws live * k < live + _ROUND_STEPS pairs,
    so ``_Pairs``'s buffers, and the round's ``reach`` and ``event``
    masks, take the pool's width plus _ROUND_STEPS entries, as
    ``_Workspace``'s do; a round uses the first live * k of each.
    ``surplus`` holds the live paths' surplus, in pool order.  ``before``
    holds the walk s = S_{N-1} of each stopped path before the step at
    which it stopped, in stopping order, until the next round could
    overflow it, and ``spare`` is room for ``_Martingale.corrections``.
    The spares are five arrays, not one (5, width) block: freeing a 768 KB
    block raised glibc's mmap threshold for the rest of the process, after
    which every numpy temporary of a pool's width measured faster.  No
    buffer here is larger than a (width + _ROUND_STEPS) float array, the
    size of ``_Workspace``'s, which survival requests free as well.
    """

    def __init__(self, width: int, cuts: int):
        size = width + _ROUND_STEPS
        super().__init__(size, cuts)
        self.reach = np.empty(size, dtype=bool)
        self.event = np.empty(size, dtype=bool)
        self.surplus = np.empty(width)
        self.before = np.empty(width)
        self.spare = tuple(np.empty(width) for _ in range(5))


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    """sum a b, without BLAS: OpenBLAS runs a dot of a pool's length on every core."""
    return float(np.einsum("i,i->", a, b))


def _run_reach(walk: _Martingale, u: float, stop: _Stopping, n: int, seed: int,
               split: bool = False) -> np.ndarray:
    """Sums of the conditioned correction D / (1 - R) over n paths, and their first-claim count.

    u and the level ``stop.b`` are in claim units, and the paths walk
    ``walk.model`` from u under the tilt ``walk.pairs`` (``_walk_pool``).
    Each chunk of the log of the stopped paths' S_{N-1} is turned into
    corrections e, and the chunks' centred sums are pooled by Chan, Golub
    and LeVeque's pairwise update into [sum e, sum (e - mean e)^2, m].
    With ``split`` the m paths that stop at their first claim are counted
    and left out of both sums; without it m is 0.
    """
    log = _ReachLog(min(n, _BLOCK_SIZE), walk.pairs.cuts.size)
    model, b = walk.model, stop.b
    chunks = []  # (size, sum e, sum (e - mean e)^2) per chunk of the log

    def round_(rng, surplus, k, *_):
        live = surplus.size
        w, x = sample_pairs(model, rng, live * k, walk.pairs, work=log)
        post = w
        post *= model.c
        post -= x
        # post[i, j]: surplus of path i just after its j-th claim this round.
        post = post.reshape(live, k)
        _walk(post, surplus)
        # The surplus rises linearly between claims, so it crosses b before
        # a claim if and only if the pre-claim surplus post + x reaches b;
        # the path then stops at that claim, whether or not it ruins.
        top = x.reshape(live, k)
        top += post
        event = np.less(post, 0.0, out=log.event[:live * k].reshape(live, k))
        event |= np.greater_equal(top, b, out=log.reach[:live * k].reshape(live, k))
        return post, event

    def flush(s: np.ndarray) -> None:
        if not s.size:
            return
        e = walk.corrections(s, stop, [a[:s.size] for a in log.spare])
        total = e.sum()
        e -= total / s.size
        chunks.append((s.size, total, _dot(e, e)))

    firsts = _walk_pool(n, seed, log.surplus, log.before, u, round_, flush, split=split)
    if not chunks:
        return np.array([0.0, 0.0, firsts])
    size, total, sq = np.array(chunks).T
    shift = total / size - total.sum() / (n - firsts)
    return np.array([total.sum(), float(sq.sum()) + _dot(size * shift, shift), firsts])


def estimate_reach_prob(
    model: ModelSpec,
    u: float,
    b: float,
    n: int,
    seed: int = 0,
    workers: int = 1,
) -> SimEstimate:
    """Simulated probability of reaching b before ruin from surplus u.

    Each path walks at unit rates from alpha u, drawing its pairs from
    Siegmund's tilted law as survival does, until its pre-claim surplus
    reaches alpha b or a claim ruins it; under the tilt most paths are
    ruined within a few claims.  Each path contributes D, its conditioned
    ruin and reach weights given the walk before its stopping step,
    combined through the known mean of the likelihood ratio (a control
    variate with the slope of the theta = 0 identity; ``_Martingale``), a
    closed form in that walk alone.  With R the unit-rate adjustment
    coefficient and g = e^{-R alpha b},

        chi = (1 - e^{-R alpha u} (1 - R - D-bar)) / (1 - g U0),

    clipped to [0, 1].  D-bar is post-stratified on the first claim: a path
    stops there with the known mass q = e^{R s} M(s) at s = alpha u
    (``_Martingale.first_mass``), where its correction is the constant
    D(s), so D-bar = q D(s) + (1 - q) times the mean of the other N_rest
    paths, and the standard error is e^{-R alpha u} / (1 - g U0) times
    (1 - q) s_rest / sqrt(N_rest), s_rest their sample standard deviation
    (N_rest - 1 in the variance), the moments combined from the centred
    sums of chunks of the paths (``_run_reach``).  The same paths give
    the plain mean with q replaced by N_first / n.  At the benchmark's two
    cells q is 0.598 and 0.608 and the plain variance is 2.5 and 3.0 times
    the stratified one.  Where (1 - q) n < 1000 (``_MIN_REST``), as near
    the level or past the tilt bound, where almost every path stops at
    once, the estimate is the plain mean of D and its sample standard
    error, as if q were 0.  Above relative loading
    1e6 (``_REACH_TILT_MAX``), or where ``_lundberg_root`` refuses, R is 0,
    the walk is the model's own and the estimate is the mean of the reach
    probability of each path's stopping step.  README "Monte Carlo"
    tabulates where the tilt shortens the walk and where it does not.

    The standard error is floored at the rounding error of the value
    itself: 4 ulps of the value plus the scaled |D-bar|.  D is computed to
    a few ulps of itself (the closed forms agree with 30-digit quadrature
    to 2e-15 relative), and so are its sums.  The floor binds where D is
    constant, as at theta = 0 with Poisson times, where it is 0 and the
    estimate is exact: the sample standard error there is 0, against
    which an estimate 1 ulp off would read |z| near 100.  Known defect
    (ROADMAP item 31): it binds, or the sample term sits near it, also
    where the paths that carry the mean are too rare to be drawn, and
    there the error is far larger than the stderr: against ``solve_chi``
    the estimate reads |z| 1.3e4 near the level (c = 1.5, theta = 0.5,
    u = 19.999999, b = 20, n = 2e4, seed 1) and |z| 158 at loading 1e5
    (theta = -1, u = 0, b = 1, n = 2e5, seed 1).  Both cells expect
    (1 - q) n = 0.02 and 0.26 paths past the first claim, so they take
    the plain estimate, as before the strata.

    The estimate is a deterministic function of (seed, n); n must be a
    positive integer and the seed a nonnegative one.  ``workers`` is kept
    for compatibility: it must be a positive integer, and changes nothing.

    Raises:
        InputError: If u, b, n, seed or workers is out of its domain; u
            and b must be numbers, not bools, grids or one-element arrays.
        ConditioningError: If ``model.unit_rates`` refuses the premium at
            unit rates (c' overflowing, or a loading that rounds to 0), or
            a path would draw more than 1e6 claims (``_MAX_CLAIMS``).
    """
    levels, n, seed = _check_inputs(u, n, seed, workers)
    if levels.ndim:
        raise InputError(f"initial surplus must be a number, got {u!r}")
    u = float(levels)
    try:
        if isinstance(b, bool) or getattr(b, "dtype", None) == bool:
            raise TypeError
        b = float(b)
    except (TypeError, ValueError):
        raise InputError(f"target level must be a number, got {b!r}") from None
    if not math.isfinite(b) or b < u:
        raise InputError("target level must be finite and at least u")
    if b == u:
        return SimEstimate(1.0, 0.0, n, seed)
    walk = _Martingale.of(model)
    start, stop = walk.alpha * u, walk.stopping(walk.alpha * b)
    q = walk.first_mass(start, stop)
    split = (1.0 - q) * n >= _MIN_REST
    # A surplus past the largest float (premiums near 1e308) overflows to
    # inf, which reaches b: the right outcome, so numpy need not warn.
    with np.errstate(over="ignore"):
        total, sq, first = _run_reach(walk, start, stop, n, seed, split)
    # Post-stratified on the first claim, of mass q and correction e(u);
    # unsplit, q = 0 takes the plain mean and its stderr, to the bit.
    atom = 0.0
    if split:
        atom = float(walk.corrections(np.array([start]), stop, np.empty((5, 1)))[0])
    else:
        q = 0.0
    rest = max(n - int(first), 1)
    mean = q * atom + (1.0 - q) * (float(total) / rest)
    spread = (1.0 - q) * math.sqrt(sq / (rest * max(rest - 1, 1)))
    value = walk.chi(start, stop, mean)
    # The value's own rounding and that of the scaled mean of the corrections.
    unit = math.exp(-walk.R * start) * walk.gap / stop.exact
    rounding = 4.0 * float(np.finfo(float).eps) * (abs(value) + unit * abs(mean))
    return SimEstimate(min(max(value, 0.0), 1.0), max(unit * spread, rounding), n, seed)


# Largest |log E[e^{R(X - cW)}]| the adjustment coefficient may leave.
_LUNDBERG_TOL = 1e-12

# Most claims a tilted path may be predicted to need, its mean claims plus
# the diffusion scale of their spread (see ``_tilt``).  Every cell of the
# measured table in README "Errors" at loading 0.01 passes (up to 1.3e4),
# and every cell at 3e-3 fails (from 6.3e4), the two that hit the claim cap
# among them.
_CLAIM_BUDGET = 3e4

# Largest relative loading the tilt is solved at.  The transforms in
# ``_arrival_parts`` overflow from a loading of about 2.3e77 (Erlang,
# (2 + c'R)^4) or 1.3e154 (Poisson, (2 + c'R)^2), and the claim phase
# 1 / (1 - R) grows like loading^4 (Erlang, theta = 1: 1e298 at 1e75).  Up
# to the bound the conditioned weights stay in (0, 1]: on the decades of
# the loading from 1e-2 to 1e74 every survival estimate solves
# (tests/test_units.py).
_MAX_LOADING = 1e75


def _loading(c: float, erlang: bool) -> float:
    """The relative loading c' E[W] - 1 at unit rates, E[W] = 2 for Erlang(2)."""
    return (2.0 * c if erlang else c) - 1.0


def _lundberg_root(c: float, theta: float, erlang: bool) -> tuple[float, float]:
    """The adjustment coefficient R at unit rates and 1 - R, each to full precision.

    R is the root in (0, 1) of the Lundberg equation E[e^{R(X - c W)}] = 1,
    solved in closed form from the unit-rate transforms of ``_cgf``; the
    survival solvers are not consulted.  The model's coefficient is alpha R.

    The steps solve log M(r) = 0.  log M is a cumulant generating function,
    hence convex, with log M(0) = 0, a negative slope at 0 (positive
    loading) and log M -> inf as r -> 1, so Newton steps started to the
    right of R descend to it monotonically.  The start is r = 1 - 1/2^k for
    the smallest k that makes log M positive.  The steps move r itself when
    R < 1/2 and the gap 1 - r otherwise, whichever is the smaller.  R is
    then accurate to about 1e-16 / loading relative, the conditioning of
    the loading itself.

    Raises:
        ConditioningError: If the relative loading exceeds 1e75
            (``_MAX_LOADING``), or |log E[e^{R(X - cW)}]| exceeds 1e-12.
    """
    loading = _loading(c, erlang)
    if loading > _MAX_LOADING:
        raise ConditioningError(
            f"survival at relative loading {loading:.3g} cannot be simulated: "
            f"above loading {_MAX_LOADING:g} the tilt nears the float range"
        )
    gap = 0.5
    while _cgf(c, theta, erlang, 1.0 - gap, gap)[0] <= 0.0:
        gap *= 0.5
    on_r = gap == 0.5
    x, sign = gap, (1.0 if on_r else -1.0)
    for _ in range(100):
        r, t = (x, 1.0 - x) if on_r else (1.0 - x, x)
        value, slope = _cgf(c, theta, erlang, r, t)
        step = sign * value / slope
        x -= step
        if abs(step) <= 4.0 * np.finfo(float).eps * x:
            break
    r, t = (x, 1.0 - x) if on_r else (1.0 - x, x)
    resid = abs(_cgf(c, theta, erlang, r, t)[0])
    if not resid <= _LUNDBERG_TOL:
        raise ConditioningError(
            f"Lundberg equation residual {resid:.3e} exceeds {_LUNDBERG_TOL:g} "
            f"at relative loading {loading:.3g} and theta {theta:g}"
        )
    return r, t


def _mixture(c: float, theta: float, erlang: bool, R: float,
             gap: float) -> tuple[np.ndarray, np.ndarray]:
    """Category masses and (J, categories) coefficients of the tilted step c W - X.

    At unit rates, with c the premium c', R the unit-rate coefficient and
    gap = 1 - R.  The tilted pair law mixes the categories of
    ``model._pair_categories``, whose step is c times a sum of arrival
    phases minus a sum of claim phases.  The two sides race, one phase each
    at a time: by memorylessness c Exp(r_w) - Exp(r_x) is c / r_w times a
    standard exponential with probability c r_x / (c r_x + r_w), and
    -1 / r_x times one otherwise, so the claim phase ends first and the
    time phase's rest races the next claim phase, or the other way round.
    Once one side has no phase left the step is the other side's rest:
    plus the time phases from the racing one on, or minus the claim phases.
    Each race's outcome is a category whose step is its J coefficients, of
    one sign (padded with zeros), times J standard exponentials; identical
    categories merge, and they come in ascending order of J, so the users
    of each coefficient row are a suffix of the categories.  The masses sum
    to M(R) = 1.
    """
    rows: dict[tuple, float] = {}
    for mass, x_rates, w_rates in _pair_categories(c, theta, erlang, R, gap):
        races = [(0, 0, mass)]  # (claim phases ended, time phases ended, mass)
        while races:
            i, j, p = races.pop()
            if i < len(x_rates) and j < len(w_rates):
                rx, rw = x_rates[i], w_rates[j]
                races += [(i + 1, j, p * (c * rx / (c * rx + rw))),
                          (i, j + 1, p * (rw / (c * rx + rw)))]
                continue
            row = tuple(sorted([c / r for r in w_rates[j:]] + [-1.0 / r for r in x_rates[i:]]))
            rows[row] = rows.get(row, 0.0) + p
    order = sorted(rows, key=len)
    width = len(order[-1])
    coef = np.array([row + (0.0,) * (width - len(row)) for row in order]).T.copy()
    return np.array([rows[row] for row in order]), coef


class _Workspace(_Draws):
    """Buffers the tilted rounds of one request draw into.

    A round of ``live`` paths draws live * k < live + _ROUND_STEPS steps,
    so a workspace of the pool's width plus _ROUND_STEPS holds every round;
    a round uses the first live * k entries of each buffer.  Besides
    ``_draw_phases``'s buffers, whose boolean block is (cuts, size),
    ``cuts`` being the tilt's cut count (at most 12), ``steps`` takes each
    round's steps and ``walk`` the live paths' walk, and ``before`` logs
    the walk before passages of the top level, one per path, for
    ``_RuinWeight.weights``.
    """

    def __init__(self, size: int, cuts: int):
        super().__init__(size, cuts)
        self.steps = np.empty(size)
        self.walk = np.empty(size)
        self.before = np.empty(size)


def _whole_line(c: float, theta: float, erlang: bool) -> tuple[float, float, float, float]:
    """f~_W(c), q = 1 - theta rho(c), f~_W(2c) / f~_W(c) and rho(2c) at unit rate, c the premium c'.

    A ruinous step's mass over the whole line of W is a multiple of
    f~_W(c) q plus one of theta f~_W(2c) rho(2c) e^{-v} (``_RuinWeight``'s
    A1 and A2; ``_Stopping.a_inf`` and ``d0``).  rho is
    ``model._arrival_parts``'s, free of cancellation, but overflows nowhere
    a reach walk at R = 0 takes c (up to 1.8e308): the Poisson rho(2c) is
    c / (1 + c), the same bits, and the Erlang(2) cubes stay powers, whose
    bits the survival weights keep (a product of three moved about a
    quarter of them by an ulp), below c = 1e100, above which rho is 1 and
    1 - rho below 1e-199.  f~_W(2c) / f~_W(c) = (1 + c) / (1 + 2c), squared
    for Erlang(2), is taken directly: the difference of the logarithms
    loses log c ulps.
    """
    fw = (1.0 + c) / (1.0 + 2.0 * c)
    if not erlang:
        return 1.0 / (1.0 + c), (1.0 - theta) + theta * (2.0 / (2.0 + c)), fw, c / (1.0 + c)
    one_minus_rho, rho2 = 0.0, 1.0
    if c < 1e100:
        one_minus_rho = 2.0 * (3.0 * c + 4.0) / (2.0 + c)**3
        rho2 = 2.0 * c * (4.0 * c * c + 12.0 * c + 6.0) / (2.0 + 2.0 * c)**3
    return 1.0 / (1.0 + c) / (1.0 + c), (1.0 - theta) + theta * one_minus_rho, fw * fw, rho2


class _RuinWeight(NamedTuple):
    """The conditioned weight W'(v) = E[e^{-R D} | the walk before the ruinous step].

    At unit rates the tilted pair law is e^{R(x - c w)} e^{-x} f_W(w)
    [1 + theta (2 e^{-x} - 1) b(w)], b = 1 - 2 F_W(w), with c the premium
    c' and gap = 1 - R.  From v = V + u_j >= 0, the walk before the step
    plus u_j, the step ruins when its claim passes t = v + c w.  The law's
    mass there is h(v) and g(v) its mean of e^{-R D}, D = x - t.  Over
    x > t the law integrates to e^{-R c w} f_W(w) [(1 - theta b)
    e^{-gap t} s1 + 2 theta b e^{-(1 + gap) t} s2], s1 = 1 / gap and
    s2 = 1 / (1 + gap), and gap + R = 1, 1 + gap + R = 2, so over w, with
    rho = k~_W / f~_W (``_arrival_parts``) and q = e^{-v},

        h = e^{-gap v} (A1 + A2 q),  A1 = s1 f~_W(c) (1 - theta rho(c)),
                                     A2 = 2 theta s2 f~_W(2c) rho(2c),
        g = e^{-gap v} (k1 A1 + k2 A2 q),  k1 = 1 - R,  k2 = 1 - R / 2,

    as the overshoot of each claim phase is memoryless and weighs
    k_i = 1 / (1 + R s_i).  So

        W'(v) = g / h = center + scale / (e^v + a),

    center = k1, a = A2 / A1 and scale = (k2 - k1) a = R a / 2.  For
    theta < 0 the factor 1 - theta rho(c) of A1 is at least 1, and
    s2 / s1 and f~_W(2c) rho(2c) / f~_W(c) (c / (1 + 2c) for Poisson
    times) are below 1/2, so a > -1/2 and no digit cancels; at theta = 0,
    a = 0 and every weight is 1 - R.  W' is monotone in v; ``spread`` is
    |W'(0) - center|.  Summed over the ruinous step n, 1{tau = n} g / h is
    unbiased by the tower property, E[1{tau = n} g / h] =
    E[1{tau > n - 1} g] = E[1{tau = n} e^{-R D}], and it conditions on
    less than the step's category and threshold, so its variance is no
    larger than theirs.
    """

    center: float  # k1 = 1 - R, the weight as v grows
    a: float  # A2 / A1
    scale: float  # (k2 - k1) a = R a / 2
    a1: float  # A1

    @classmethod
    def of(cls, c: float, theta: float, erlang: bool, R: float, gap: float) -> _RuinWeight:
        fc, q, fw, rho2 = _whole_line(c, theta, erlang)
        a = 2.0 * theta * (gap / (1.0 + gap)) * fw * rho2 / q
        return cls(gap, a, 0.5 * R * a, fc * q / gap)

    def mass(self, v: np.ndarray) -> np.ndarray:
        """h(v) = e^{-gap v} A1 (1 + a e^{-v}), the mass with which a tilted step from v ruins."""
        return self.a1 * np.exp(-self.center * v) * (1.0 + self.a * np.exp(-v))

    @property
    def spread(self) -> float:
        """|W'(0) - center|: one path moves the mean weight of n paths by at most spread / n."""
        return abs(self.scale) / (1.0 + self.a)

    def weights(self, v: np.ndarray) -> np.ndarray:
        """Centred weights W'(v) - center at v >= 0, computed in place over v.

        e^v is taken at v <= 700, which moves a weight by less than
        scale e^{-700}.
        """
        np.minimum(v, 700.0, out=v)
        np.exp(v, out=v)
        v += self.a
        return np.divide(self.scale, v, out=v)


@dataclass(frozen=True)
class _Tilt:
    """Exact sampler of the tilted step c' W - X at unit rates, over ``_mixture``'s categories.

    Each category is a same-sign sum of one to four exponential phases, and
    the categories ascend in phase count, so ``phases`` draws each row only
    for the categories from its first user on where they carry under half
    the mass.
    """

    R: float  # adjustment coefficient at unit rates; steps are in claim units
    cuts: np.ndarray  # cumulative category probabilities, the last one dropped
    phases: _Phases  # (J, categories): coefficient j of every category, and the rows' first users
    claims: float  # predicted mean claims of a path to ruin from the largest u
    alpha: float  # claim rate: a model level u is alpha u in claim units
    ruin: _RuinWeight  # conditioned weight of a ruinous step

    def steps(self, rng: np.random.Generator, n: int, work: _Workspace) -> np.ndarray:
        """n tilted steps c w - x, drawn by ``model._draw_phases`` into ``work``.

        Returns a view of ``work``'s first n step entries.
        """
        step = work.steps[:n]
        _draw_phases(rng, self.cuts, (self.phases,), (step,), work)
        return step


def _tilt(model: ModelSpec, u: float) -> _Tilt:
    """The tilted sampler at unit rates, after checking the predicted claims per path.

    The walk is in claim units (money in mean claims 1/alpha), where the
    tilt depends on c' and theta alone (``model.unit_rates``) and u is
    alpha u.  A path from u is predicted to need (alpha u + 1/(1 - R)) / mu_R
    claims, where mu_R = M'(R) is the tilted drift of X - c'W at unit rates:
    by Wald's identity the claims to ruin average (alpha u + mean deficit) /
    mu_R, and the deficit at ruin is a tilted claim phase's overshoot, whose
    slowest phase has mean 1 / (1 - R) (exactly the deficit's mean at
    theta = 0).  A request runs until its slowest path is ruined, and that
    path runs past the mean by a few times the diffusion scale
    sigma_R^2 / (2 mu_R^2) of the claims' spread, which equals 1 / (R mu_R)
    within 1 % at loading 0.01 and below.  The budget bounds the mean plus
    that scale; it grows like 1 / loading^2 as the loading goes to zero.
    Claim counts are free of units, so none of this depends on alpha; an
    alpha u past the float range is inf claims away and fails the budget.

    Raises:
        ConditioningError: If the loading or the Lundberg solve fails
            ``_lundberg_root``, or if the predicted claims per path and
            their spread exceed the budget (alpha u overflowing included).
    """
    c, alpha = unit_rates(model, type(model.arrival))
    erlang = isinstance(model.arrival, Erlang2)
    R, gap = _lundberg_root(c, model.theta, erlang)
    # mu_R = M'(R) = M(R) (log M)'(R), and M(R) = 1.
    mu = _cgf(c, model.theta, erlang, R, gap)[1]
    claims = (alpha * u + 1.0 / gap) / mu
    spread = 1.0 / (R * mu)
    if claims + spread > _CLAIM_BUDGET:
        raise ConditioningError(
            f"survival at relative loading {_loading(c, erlang):.3g} cannot be "
            f"simulated from u = {u:g}: a tilted path needs about {claims:.3g} "
            f"claims plus a spread of about {spread:.3g}, over the budget of "
            f"{_CLAIM_BUDGET:g}"
        )
    masses, coef = _mixture(c, model.theta, erlang, R, gap)
    cum = np.cumsum(masses)
    cuts = cum[:-1] / cum[-1]
    return _Tilt(R, cuts, _Phases.of(cuts, coef), claims, alpha,
                 _RuinWeight.of(c, model.theta, erlang, R, gap))


def _lower_passages(steps: np.ndarray, levels: np.ndarray, pending: np.ndarray):
    """First passages below -u_j, j < top, within one round's walk.

    ``steps`` holds each live path's walk over the round and ``pending``
    the index of the next level it has not yet passed, which is updated in
    place.  Only the rows whose round minimum drops below their pending
    level pass any level, so only those are searched.  Returns, row by row
    and level by level, the level of each passage and the flat index of its
    step in the round.  A path first passes a level where the walk drops
    below it, and there the walk equals its running minimum over the round.
    """
    top = levels.size - 1
    # -min V over the round: with one claim per round, the one column.
    depth = -(steps.min(axis=1) if steps.shape[1] > 1 else steps[:, 0])
    rows = np.flatnonzero(levels[pending] < depth)
    # Lower levels those rows passed by the end of the round: u_j < -min V.
    # Every level up to a row's pending one is among them, unless that is
    # the top, whose passages are found separately: the count is then 0.
    new = np.searchsorted(levels[:top], depth[rows])
    start = pending[rows]
    count = new - start
    pending[rows] = new
    # One (row, level) pair per passage, from the row's pending level up.
    pair = np.repeat(np.arange(rows.size), count)
    level = np.arange(pair.size) + np.repeat(start - (np.cumsum(count) - count), count)
    low = steps[rows]
    if low.shape[1] > 1:
        np.minimum.accumulate(low, axis=1, out=low)
    first = (low[pair] >= -levels[level, None]).sum(axis=1)
    return level, rows[pair] * steps.shape[1] + first


def _run_survival(tilt: _Tilt, levels: np.ndarray, n: int, seed: int,
                  split: np.ndarray | None = None) -> np.ndarray:
    """Per level, sums over n tilted paths of the conditioned weights, and their first-claim counts.

    ``levels`` are the initial surpluses u_j in claim units, in ascending
    order.  Every path walks V, the surplus gained from zero
    (``_walk_pool``), and its first passage below -u_j is ruin from u_j; it
    stops once it passes the largest level, and on a grid carries the index
    of the next level it has not passed.  Returns a (3, levels) array: the
    sum and sum of squares of the centred conditioned weights
    (``_RuinWeight.weights``) at v = u_j + the walk before the passage, and
    the count m_j of passages at a path's first claim.  Where ``split`` is
    true (no level by default) those m_j passages are left out of the sums;
    elsewhere m_j is 0.  The lower levels' weights are conditioned round by
    round, the top level's over the chunks of the log.
    """
    work = _Workspace(min(n, _BLOCK_SIZE) + _ROUND_STEPS, tilt.cuts.size)
    top = levels.size - 1
    sums = np.zeros((3, levels.size))
    split = np.zeros(levels.size, dtype=bool) if split is None else split

    def round_(rng, walk, k, pending, new):
        live = walk.size
        steps = tilt.steps(rng, live * k, work).reshape(live, k)
        _walk(steps, walk)
        if top:
            level, at = _lower_passages(steps, levels, pending)
            if new < live and split[:top].any():
                # Passages at a fresh row's first column, at the split levels.
                first = (at >= new * k) & (at % k == 0) & split[level]
                sums[2, :top] += np.bincount(level[first], minlength=top)
                level, at = level[~first], at[~first]
            y = _before(steps, walk, at, np.empty(at.size))
            y += levels[level]
            y = tilt.ruin.weights(y)
            sums[0, :top] += np.bincount(level, weights=y, minlength=top)
            sums[1, :top] += np.bincount(level, weights=y * y, minlength=top)
        # The top level's passages stop the paths.
        return steps, steps < -levels[top]

    def flush(y: np.ndarray) -> None:
        y += levels[top]
        y = tilt.ruin.weights(y)
        sums[0, top] += y.sum()
        sums[1, top] += _dot(y, y)

    sums[2, top] = _walk_pool(n, seed, work.walk, work.before, 0.0, round_, flush,
                              pending=top > 0, split=bool(split[top]))
    return sums


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

        psi(u) = e^{-R u} E_R[e^{-R D}],

    where the deficit D is the depth of the surplus below zero at ruin.
    Each of the n tilted paths runs to ruin, and e^{-R D} is replaced by
    its conditional mean given the walk before the ruinous step
    (``_RuinWeight``), one exp per path: unbiased by the tower property,
    from the same draws, with 243 to 3705 times less variance than
    e^{-R D} in the measured cells, and 21 to 216 times less than the
    weight given the ruinous step's category and threshold (README "Monte
    Carlo").  The estimate is 1 minus e^{-R u} times the mean conditioned
    weight.  The weights lie in (0, 1], so the variance never exceeds the
    binomial psi(1 - psi) / n; at theta = 0 they are all 1 - R, the
    estimate is exact and no path is walked.

    The mean is post-stratified on the first claim: a tilted step from u
    ruins with the known mass h(u) = e^{-(1 - R) u} (A1 + A2 e^{-u})
    (``_RuinWeight.mass``), and a path ruined by its first claim weighs
    the constant W'(u).  So the mean centred weight is
    h(u) (W'(u) - center) + (1 - h(u)) times the mean of the other N_rest
    paths, and the standard error e^{-R u} (1 - h(u)) s_rest /
    sqrt(N_rest), s_rest their sample standard deviation.  The same paths
    give the plain mean with h replaced by N_first / n.  At the
    benchmark's u = 0 requests h is 0.56 - 0.61 and the plain variance is
    2.5 - 3.5 times the stratified one; at u = 5, h is 0.02 - 0.04 and the
    ratio 1.02 - 1.04.  A level where (1 - h) n < 1000 (``_MIN_REST``),
    as at u = 0 from loading 100 at n = 2e4, takes the plain mean and its
    sample standard error, as if h were 0.  The standard error is
    floored twice (README "Errors"):

    * at e^{-R u} times the spread of the weights a ruin can give, over n:
      how far one path can move the mean.  This floor keeps z honest where
      rare paths dominate, as where a first step lands within u of ruin
      and weighs thousands of times the typical path, which most runs
      never draw; it overstates the error about 100 times at loading 1e4
      and above.
    * at the rounding error of the value itself, 4 ulps of the value plus
      the scaled mean weight: 1 - psi rounds psi at about 1e-16, which
      the sample stderr of a tiny psi, or of the exact estimate at
      theta = 0, would not cover.

    The estimate has no truncation bias and its relative error stays flat
    as u grows.  It is a deterministic function of (seed, n).  ``workers``
    is kept for compatibility: it must be a positive integer, and changes
    nothing.

    ``u`` may be a number, giving one ``SimEstimate``, or a 1-D grid in any
    order, giving a list with one ``SimEstimate`` per level in input order.
    A grid is estimated from one set of n paths, each walked from zero
    until it is ruined from the largest u, so every level is unbiased with
    its own standard error but the estimates are correlated across u.

    The tilt is solved and walked at unit rates, with the levels alpha u
    (see ``_tilt``), so the estimate depends on c', theta and alpha u
    alone, not on the model's units.

    Raises:
        InputError: If u, n, seed or workers is out of its domain; u must
            not be a bool, n and workers must be positive integers, the
            seed a nonnegative one.
        ConditioningError: If the relative loading exceeds 1e75
            (``_MAX_LOADING``), if a tilted path from the largest u is
            predicted to need more claims than the budget (loading near
            zero, or alpha u overflowing), if the Lundberg equation is not
            solved to 1e-12, or if a path would draw more than 1e6 claims
            (``_MAX_CLAIMS``).
    """
    levels, n, seed = _check_inputs(u, n, seed, workers)
    order = np.argsort(levels.ravel(), kind="stable")
    ascending = levels.ravel()[order]
    tilt = _tilt(model, float(ascending[-1]))
    # Claim units; the largest level passed _tilt's budget, so none is inf.
    scaled = tilt.alpha * ascending
    h = tilt.ruin.mass(scaled)
    split = (1.0 - h) * n >= _MIN_REST
    if tilt.ruin.a == 0.0:
        # theta = 0: every centred weight is 0, the sums the walk would give.
        total = total_sq = first = np.zeros(scaled.size)
    else:
        total, total_sq, first = _run_survival(tilt, scaled, n, seed, split)
    # Post-stratified on the first claim, of mass h and weight W'(u_j);
    # unsplit, h = 0 takes the plain mean and its stderr, to the bit.
    h = np.where(split, h, 0.0)
    rest = np.maximum(n - first, 1.0)
    mean_rest = total / rest
    var = np.maximum(total_sq / rest - mean_rest * mean_rest, 0.0) * rest / np.maximum(
        rest - 1.0, 1.0)
    mean = h * tilt.ruin.weights(scaled.copy()) + (1.0 - h) * mean_rest
    scale = np.exp(-tilt.R * scaled)
    value = 1.0 - scale * (tilt.ruin.center + mean)
    # One path moves the mean by at most spread / n, and the value rounds
    # psi: the two floors of the sample stderr (README "Errors").
    stderr = scale * np.maximum((1.0 - h) * np.sqrt(var / rest), tilt.ruin.spread / n)
    rounding = 4.0 * float(np.finfo(float).eps) * (
        np.abs(value) + scale * (tilt.ruin.center + np.abs(mean)))
    stderr = np.maximum(stderr, rounding)
    estimates = [None] * ascending.size
    for i, j in enumerate(order.tolist()):
        estimates[j] = SimEstimate(float(value[i]), float(stderr[i]), n, seed)
    return estimates[0] if levels.ndim == 0 else estimates
