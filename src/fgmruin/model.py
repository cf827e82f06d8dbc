"""Risk-model primitives: claims, inter-arrival laws, and FGM dependence.

The surplus process is U(t) = u + c t - sum of claims up to t.  Claim
amounts X are exponential with rate alpha.  Inter-claim times W are either
exponential (classical compound Poisson) or Erlang(2, beta).  Each claim
amount depends on the inter-claim time that precedes it through a
Farlie-Gumbel-Morgenstern (FGM) copula with parameter theta in [-1, 1]:

    C(u, v) = u v + theta * u v (1 - u)(1 - v)

so the joint density of (X, W) factorizes into the independent part plus a
theta correction built from the auxiliary densities

    h(x) = f_X(x) (1 - 2 F_X(x)),    k(t) = f_W(t) (1 - 2 F_W(t)).

Laplace transforms of f_X and h are exposed as point evaluations; the
solvers clear them into polynomial coefficient arrays of their own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import ConditioningError, InputError, LoadingError

__all__ = [
    "FgmParam",
    "ExpClaim",
    "ExpPoisson",
    "Erlang2",
    "InterArrival",
    "ModelSpec",
    "fgm_cdf",
    "fgm_density",
    "joint_density",
    "h_aux",
    "k_aux",
    "f_tilde",
    "h_tilde",
    "conditional_grade",
    "sample_pairs",
]


@dataclass(frozen=True)
class FgmParam:
    """FGM copula parameter, valid on [-1, 1]."""

    theta: float

    def __post_init__(self):
        if not (-1.0 <= self.theta <= 1.0) or not math.isfinite(self.theta):
            raise InputError(f"FGM parameter must lie in [-1, 1], got {self.theta!r}")


def _theta_of(theta: Union[float, FgmParam]) -> float:
    if isinstance(theta, FgmParam):
        return theta.theta
    return FgmParam(float(theta)).theta


@dataclass(frozen=True)
class ExpClaim:
    """Exponential claim size with rate alpha (mean 1/alpha)."""

    alpha: float

    def __post_init__(self):
        if not (self.alpha > 0.0) or not math.isfinite(self.alpha):
            raise InputError(f"claim rate alpha must be positive, got {self.alpha!r}")

    @property
    def mean(self) -> float:
        return 1.0 / self.alpha

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        out = np.where(x >= 0.0, self.alpha * np.exp(-self.alpha * x), 0.0)
        return float(out) if out.ndim == 0 else out

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        out = np.where(x >= 0.0, -np.expm1(-self.alpha * x), 0.0)
        return float(out) if out.ndim == 0 else out

    def ppf(self, q):
        q = np.asarray(q, dtype=float)
        if not np.all((q >= 0.0) & (q < 1.0)):
            raise InputError("claim quantile needs q in [0, 1)")
        out = -np.log1p(-q) / self.alpha
        return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class ExpPoisson:
    """Exponential inter-arrival times with rate lam (Poisson claim counts)."""

    lam: float

    def __post_init__(self):
        if not (self.lam > 0.0) or not math.isfinite(self.lam):
            raise InputError(f"arrival rate lam must be positive, got {self.lam!r}")

    @property
    def mean(self) -> float:
        return 1.0 / self.lam

    def pdf(self, t):
        t = np.asarray(t, dtype=float)
        out = np.where(t >= 0.0, self.lam * np.exp(-self.lam * t), 0.0)
        return float(out) if out.ndim == 0 else out

    def cdf(self, t):
        t = np.asarray(t, dtype=float)
        out = np.where(t >= 0.0, -np.expm1(-self.lam * t), 0.0)
        return float(out) if out.ndim == 0 else out

    def ppf(self, v):
        v = np.asarray(v, dtype=float)
        if not np.all((v >= 0.0) & (v < 1.0)):
            raise InputError("arrival quantile needs v in [0, 1)")
        out = -np.log1p(-v) / self.lam
        return float(out) if out.ndim == 0 else out


# Largest |F(t) - v| an Erlang(2) quantile may leave; the Newton solve in
# _erlang2_z_from_y stays within about 3e-16 of v over [0, 1).
_ERLANG_PPF_TOL = 1e-12


def _erlang2_z_from_y(y):
    """Solve z - log(1 + z) = y for z >= 0, vectorized.

    Seeds with the series sqrt(2y)(1 + sqrt(2y)/3) near zero and the
    iterated fixed point y + log(1 + .) elsewhere, then applies Newton
    steps; the residual after four steps is far below 1e-12 relative.
    """
    y = np.asarray(y, dtype=float)
    w = np.sqrt(2.0 * y)
    z_small = w + w * w / 3.0
    z_big = y + np.log1p(y + np.log1p(y))
    z = np.where(y < 0.5, z_small, z_big)
    for _ in range(4):
        g = z - np.log1p(z) - y
        # g'(z) = z / (1 + z); guard the removable z = 0 point.
        denom = np.where(z > 0.0, z, 1.0)
        z = np.maximum(z - g * (1.0 + z) / denom, 0.0)
    return z


@dataclass(frozen=True)
class Erlang2:
    """Erlang(2, beta) inter-arrival times: density beta^2 t exp(-beta t)."""

    beta: float

    def __post_init__(self):
        if not (self.beta > 0.0) or not math.isfinite(self.beta):
            raise InputError(f"arrival rate beta must be positive, got {self.beta!r}")

    @property
    def mean(self) -> float:
        return 2.0 / self.beta

    def pdf(self, t):
        t = np.asarray(t, dtype=float)
        out = np.where(t >= 0.0, self.beta**2 * t * np.exp(-self.beta * t), 0.0)
        return float(out) if out.ndim == 0 else out

    def cdf(self, t):
        t = np.asarray(t, dtype=float)
        bt = self.beta * np.maximum(t, 0.0)
        out = np.where(t >= 0.0, 1.0 - np.exp(-bt) * (1.0 + bt), 0.0)
        return float(out) if out.ndim == 0 else out

    def ppf(self, v):
        """Quantile t = z / beta, where z - log(1 + z) = -log(1 - v).

        The public Erlang(2) quantile.  ``sample_pairs`` does not call it: it
        draws Erlang inter-claim times directly and takes their grade from
        ``cdf``.

        Raises:
            InputError: If v lies outside [0, 1) or is NaN.
            ConditioningError: If F(t) misses v by more than 1e-12.
        """
        scalar = np.isscalar(v) or np.asarray(v).ndim == 0
        v = np.atleast_1d(np.asarray(v, dtype=float))
        if not np.all((v >= 0.0) & (v < 1.0)):
            raise InputError("arrival quantile needs v in [0, 1)")
        t = _erlang2_z_from_y(-np.log1p(-v)) / self.beta
        resid = float(np.max(np.abs(self.cdf(t) - v), initial=0.0))
        if not resid <= _ERLANG_PPF_TOL:
            raise ConditioningError(f"Erlang(2) quantile misses its cdf by {resid:.3e}")
        return float(t[0]) if scalar else t


InterArrival = Union[ExpPoisson, Erlang2]


@dataclass(frozen=True)
class ModelSpec:
    """Full model: premium rate, claim law, arrival law, FGM dependence.

    Construction enforces the positive loading (net profit) condition
    c * E[W] > E[X]; without it ruin is certain and the solvers'
    assumptions fail.
    """

    c: float
    claim: ExpClaim
    arrival: InterArrival
    copula: FgmParam

    def __post_init__(self):
        if not (self.c > 0.0) or not math.isfinite(self.c):
            raise InputError(f"premium rate c must be positive, got {self.c!r}")
        if self.c * self.arrival.mean <= self.claim.mean:
            raise LoadingError(
                "positive loading violated: c * E[W] = "
                f"{self.c * self.arrival.mean:.6g} <= E[X] = {self.claim.mean:.6g}"
            )

    @property
    def theta(self) -> float:
        return self.copula.theta

    @property
    def m1(self) -> float:
        return self.claim.mean


def fgm_cdf(u, v, theta: Union[float, FgmParam]):
    """FGM copula C(u, v) = u v + theta u v (1-u)(1-v) on [0, 1]^2."""
    th = _theta_of(theta)
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if not (np.all((u >= 0.0) & (u <= 1.0)) and np.all((v >= 0.0) & (v <= 1.0))):
        raise InputError("copula arguments must lie in [0, 1]")
    out = u * v * (1.0 + th * (1.0 - u) * (1.0 - v))
    return float(out) if out.ndim == 0 else out


def fgm_density(u, v, theta: Union[float, FgmParam]):
    """FGM copula density 1 + theta (1-2u)(1-2v); nonnegative for |theta|<=1."""
    th = _theta_of(theta)
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if not (np.all((u >= 0.0) & (u <= 1.0)) and np.all((v >= 0.0) & (v <= 1.0))):
        raise InputError("copula arguments must lie in [0, 1]")
    out = 1.0 + th * (1.0 - 2.0 * u) * (1.0 - 2.0 * v)
    return float(out) if out.ndim == 0 else out


def joint_density(x, t, model: ModelSpec):
    """Joint density of (claim amount, preceding inter-claim time).

    f(x, t) = f_X(x) f_W(t) [1 + theta (1 - 2 F_X(x)) (1 - 2 F_W(t))]
    on the nonnegative quadrant.
    """
    x = np.asarray(x, dtype=float)
    t = np.asarray(t, dtype=float)
    if not (np.all(x >= 0.0) and np.all(t >= 0.0)):
        raise InputError("joint density arguments must be nonnegative")
    fx = model.claim.pdf(x)
    fw = model.arrival.pdf(t)
    corr = 1.0 + model.theta * (1.0 - 2.0 * model.claim.cdf(x)) * (
        1.0 - 2.0 * model.arrival.cdf(t)
    )
    out = np.asarray(fx * fw * corr)
    return float(out) if out.ndim == 0 else out


def h_aux(x, claim: ExpClaim):
    """Auxiliary claim density h(x) = f_X(x)(1 - 2 F_X(x)).

    For the exponential claim this is 2 alpha e^{-2 alpha x} - alpha
    e^{-alpha x}: a signed combination of two exponentials that integrates
    to zero and changes sign at the claim median.
    """
    a = claim.alpha
    x = np.asarray(x, dtype=float)
    out = np.where(
        x >= 0.0, 2.0 * a * np.exp(-2.0 * a * x) - a * np.exp(-a * x), 0.0
    )
    return float(out) if out.ndim == 0 else out


def k_aux(t, arrival: InterArrival):
    """Auxiliary arrival density k(t) = f_W(t)(1 - 2 F_W(t))."""
    t = np.asarray(t, dtype=float)
    out = np.asarray(arrival.pdf(t) * (1.0 - 2.0 * arrival.cdf(t)))
    return float(out) if out.ndim == 0 else out


def f_tilde(s, claim: ExpClaim):
    """Laplace transform of f_X at s: alpha / (alpha + s)."""
    a = claim.alpha
    s = np.asarray(s)
    if np.any(np.abs(s + a) < 1e-12 * max(1.0, a)):
        raise InputError("transform pole: s = -alpha")
    out = a / (a + s)
    return complex(out) if out.ndim == 0 else out


def h_tilde(s, claim: ExpClaim):
    """Laplace transform of h at s: 2a/(2a+s) - a/(a+s) = a s / ((a+s)(2a+s))."""
    a = claim.alpha
    s = np.asarray(s)
    if np.any(np.abs(s + a) < 1e-12 * max(1.0, a)) or np.any(
        np.abs(s + 2.0 * a) < 1e-12 * max(1.0, a)
    ):
        raise InputError("transform pole: s in {-alpha, -2 alpha}")
    out = 2.0 * a / (2.0 * a + s) - a / (a + s)
    return complex(out) if out.ndim == 0 else out


def conditional_grade(p, a):
    """Solve g + a g(1 - g) = p for the grade g in [0, 1].

    This inverts the conditional copula CDF of the claim grade given the
    arrival grade, where a = theta (1 - 2 v).  The quadratic is solved in
    the subtraction-free branch g = 2p / (1 + a + sqrt((1+a)^2 - 4 a p)),
    which stays stable as a -> 0; |a| < 1e-12 short-circuits to g = p.
    """
    p = np.asarray(p, dtype=float)
    a = np.asarray(a, dtype=float)
    disc = np.sqrt(np.maximum((1.0 + a) ** 2 - 4.0 * a * p, 0.0))
    denom = 1.0 + a + disc
    small = np.abs(a) < 1e-12
    out = np.where(small, p, 2.0 * p / np.where(denom != 0.0, denom, 1.0))
    return float(out) if out.ndim == 0 else out


def sample_pairs(model: ModelSpec, rng: np.random.Generator, n: int):
    """Draw n dependent (w, x) pairs by conditional inversion.

    Steps: the inter-claim time w and its grade v = F_W(w) come first;
    p ~ U(0,1) then gives the claim grade from the conditional copula
    given v, and x = F_X^{-1}(grade).  Exponential arrivals draw
    v ~ U(0,1) and set w = F_W^{-1}(v).  Erlang(2) arrivals draw
    w ~ Gamma(2, 1/beta) and set v = F_W(w) in closed form, which has the
    same joint law (v is U(0,1) and w = F_W^{-1}(v) almost surely) without
    a numeric quantile.

    Every step runs in place on a few length-n arrays, with the operations
    of ``ppf``/``cdf``, ``conditional_grade`` and ``ExpClaim.ppf`` in their
    order, so the pairs equal theirs bit for bit; -log1p(-q) / r is
    written log1p(-q) / (-r), which rounds the same.
    """
    if n < 0:
        raise InputError("sample count must be nonnegative")
    if isinstance(model.arrival, Erlang2):
        w = rng.gamma(2.0, 1.0 / model.arrival.beta, n)
        # v = 1 - e^{-beta w} (1 + beta w); w >= 0, so the cdf's clip is idle.
        v = np.multiply(w, model.arrival.beta)
        t = np.negative(v)
        np.exp(t, out=t)
        v += 1.0
        v *= t
        np.subtract(1.0, v, out=v)
    else:
        v = rng.random(n)
        w = np.negative(v)
        np.log1p(w, out=w)
        w /= -model.arrival.lam
        t = np.empty(n)
    p = rng.random(n)
    # a = theta (1 - 2 v), in v.
    v *= 2.0
    np.subtract(1.0, v, out=v)
    v *= model.theta
    a = v
    # The grade 2 p / (1 + a + sqrt(max((1 + a)^2 - 4 a p, 0))), or p where |a| < 1e-12.
    g = np.add(a, 1.0)
    g *= g
    np.multiply(a, 4.0, out=t)
    t *= p
    g -= t
    np.maximum(g, 0.0, out=g)
    np.sqrt(g, out=g)
    np.add(a, 1.0, out=t)
    t += g
    np.copyto(t, 1.0, where=t == 0.0)
    np.multiply(p, 2.0, out=g)
    g /= t
    np.abs(a, out=t)
    np.copyto(g, p, where=t < 1e-12)
    # x = -log1p(-g) / alpha, in g.
    np.negative(g, out=g)
    np.log1p(g, out=g)
    g /= -model.claim.alpha
    return w, g

