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
import numbers
from dataclasses import dataclass
from typing import NamedTuple, Union

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
    "PairTilt",
    "sample_pairs",
    "unit_rates",
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
            raise InputError(f"claim rate alpha must be positive and finite, got {self.alpha!r}")

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
            raise InputError(f"arrival rate lam must be positive and finite, got {self.lam!r}")

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
            raise InputError(f"arrival rate beta must be positive and finite, got {self.beta!r}")

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
        draws Erlang inter-claim times as sums of exponential phases.

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
            raise InputError(f"premium rate c must be positive and finite, got {self.c!r}")
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


def unit_rates(model: ModelSpec, law: type) -> tuple[float, float]:
    """(c', alpha): the premium at unit rates, c alpha / lam (or / beta), and alpha.

    Money in mean claims 1/alpha and time in 1/lam (or 1/beta) make both rates
    1; the closed forms then depend on c' and theta alone, evaluated at alpha u.
    Raises InputError unless the arrivals follow ``law``, ConditioningError
    unless the loading c' - 1 (or 2 c' - 1) is a positive finite float.
    """
    if not isinstance(model.arrival, law):
        raise InputError(f"the solver needs {law.__name__} inter-claim times")
    poisson = law is ExpPoisson
    c = model.c / (model.arrival.lam if poisson else model.arrival.beta) * model.claim.alpha
    loading = (c if poisson else 2.0 * c) - 1.0
    if not 0.0 < loading < math.inf:
        raise ConditioningError(f"loading {loading!r} at unit rates (c' = {c!r}) "
                                "is not a positive finite float")
    return c, model.claim.alpha


def _surplus_levels(u, what: str, b: float = math.inf) -> np.ndarray:
    """``u`` as a float array of levels in [0, b].

    Raises InputError ``what``, naming ``u``, for a bool or bool array
    (float() reads one as 0 or 1), for what does not convert to floats
    (None, "x"), for NaN and for a level outside [0, b].  A list mixing
    a bool with floats is a float array, as for the estimators.
    """
    try:
        if np.asarray(u).dtype == bool:
            raise TypeError
        levels = np.asarray(u, dtype=float)
    except (TypeError, ValueError):
        levels = np.array(np.nan)
    if not ((levels >= 0.0) & (levels <= b)).all():
        raise InputError(f"{what}, got {u!r}")
    return levels


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


def _arrival_parts(erlang: bool, s: float):
    """log f~_W(s), its s-derivative, rho(s), 1 - rho(s) and rho'(s), at unit rate.

    rho = k~_W / f~_W lies in [0, 1).  Poisson: f~_W = 1 / (1 + s),
    rho = s / (2 + s).  Erlang(2): f~_W = 1 / (1 + s)^2,
    rho = s (s^2 + 6 s + 6) / (2 + s)^3.  Each part is computed without
    cancellation.
    """
    d = 2.0 + s
    if erlang:
        return (-2.0 * math.log1p(s), -2.0 / (1.0 + s),
                s * (s * s + 6.0 * s + 6.0) / d**3,
                2.0 * (3.0 * s + 4.0) / d**3, 12.0 * (1.0 + s) / d**4)
    return -math.log1p(s), -1.0 / (1.0 + s), s / d, 2.0 / d, 2.0 / d**2


def _cgf(c: float, theta: float, erlang: bool, r: float,
         gap: float) -> tuple[float, float]:
    """log M(r) and its r-derivative at unit rates, M(r) = E[e^{r(X - c W)}].

    Claims are Exp(1), inter-claim times Exp(1) or Erlang(2, 1) (``erlang``),
    c is the unit-rate premium c' and gap = 1 - r.  M(r) = f~_X(-r) f~_W(c r)
    + theta h~(-r) k~_W(c r).  With the claim transforms 1 / (1 - r) and
    h~(-r) = -r / ((1 - r)(2 - r)) this is the product

        M(r) = 1 / gap * f~_W(c r) * (2 gap + r q) / (1 + gap),
        q = 1 - theta rho(c r) = (1 - theta) + theta (1 - rho(c r)),

    whose last factor is 1 + x with x = -theta r rho / (1 + gap).  The
    logarithm of each factor keeps full relative precision, at small r
    (where M - 1 would cancel) and where R crowds 1 at large loading.
    """
    log_fw, log_fw_slope, rho, one_minus_rho, rho_slope = _arrival_parts(erlang, c * r)
    q = (1.0 - theta) + theta * one_minus_rho
    num = 2.0 * gap + r * q
    x = -theta * r * rho / (1.0 + gap)
    last = math.log1p(x) if abs(x) < 0.5 else math.log(num / (1.0 + gap))
    value = math.log1p(r / gap) + log_fw + last
    num_slope = q - 2.0 - theta * r * c * rho_slope
    slope = 1.0 / gap + c * log_fw_slope + num_slope / num + 1.0 / (1.0 + gap)
    return value, slope


def _exp_pieces(mu: float, B: float):
    """e^{-t y} g(y), then times 1 + b and 1 - b, as lists of (mass, phase rates).

    g(y) = e^{-y} is the unit exponential density, b = 1 - 2 G(y) = 2 e^{-y} - 1,
    mu = 1 + t and B = 2 + t: the whole is 1 / mu times Exp(mu), the 1 + b
    piece 2 / B times Exp(B), the 1 - b piece 2 / (mu B) times
    Exp(mu) + Exp(B).  This is the tilted claim (t = -R, so mu = 1 - R) and
    the Poisson time (t = c R).
    """
    return ([(1.0 / mu, (mu,))],
            [(2.0 / B, (B,))],
            [(2.0 * (1.0 / (mu * B)), (mu, B))])


def _arrival_pieces(erlang: bool, s: float):
    """e^{-sw} f_W(w), then times 1 + b and 1 - b, at unit rate.

    b = 1 - 2 F_W(w).  Poisson: ``_exp_pieces`` at t = s.  Erlang(2),
    nu = 1 + s and k = 2 + s: the whole is nu^-2 times Gamma(2, nu);
    1 + b = 2 e^{-w}(1 + w) gives Gamma(2, k) and Gamma(3, k); 1 - b =
    2 F_W(w), with W the sum of two Exp(1), gives Gamma(3, k) + Exp(nu) and
    Gamma(2, k) + Gamma(2, nu).
    """
    if not erlang:
        return _exp_pieces(1.0 + s, 2.0 + s)
    nu, k = 1.0 + s, 2.0 + s
    return ([((1.0 / nu) ** 2, (nu, nu))],
            [(2.0 * (1.0 / k) ** 2, (k, k)), (4.0 * (1.0 / k) ** 3, (k, k, k))],
            [(4.0 * (1.0 / k) ** 3 * (1.0 / nu), (k, k, k, nu)),
             (2.0 * (1.0 / k) ** 2 * (1.0 / nu) ** 2, (k, k, nu, nu))])


def _pair_categories(c: float, theta: float, erlang: bool, R: float, gap: float) -> list:
    """(mass, claim phase rates, time phase rates) of each category of the tilted pair law.

    At unit rates, with c the premium c', R in [0, 1) and gap = 1 - R.
    With a = 1 - 2 F_X(x), b = 1 - 2 F_W(w) and s = sgn theta,

        1 + theta a b = (1 - |theta|) + |theta|/2 [(1 + a)(1 + s b) + (1 - a)(1 - s b)],

    and every term is nonnegative, so the tilted law e^{R(x - cw)} f(x, w)
    mixes products of the claim pieces e^{R x} f_X (1, 1 + a, 1 - a)
    (``_exp_pieces`` at t = -R) and the arrival pieces e^{-R c w} f_W
    (``_arrival_pieces`` at s = R c).  A category's claim is the sum of
    exponentials at its claim rates and its time the sum at its time rates,
    independently.  The masses sum to M(R), which is 1 at the adjustment
    coefficient and at R = 0.
    """
    x_whole, x_plus, x_minus = _exp_pieces(gap, 1.0 + gap)
    w_whole, w_plus, w_minus = _arrival_pieces(erlang, R * c)
    if theta < 0.0:
        w_plus, w_minus = w_minus, w_plus
    half = 0.5 * abs(theta)
    rows = []
    for weight, xs, ws in ((1.0 - abs(theta), x_whole, w_whole),
                           (half, x_plus, w_plus), (half, x_minus, w_minus)):
        if weight == 0.0:
            continue
        for mx, x_rates in xs:
            for mw, w_rates in ws:
                rows.append((weight * mx * mw, x_rates, w_rates))
    return rows


class _Phases(NamedTuple):
    """One output's table for ``_draw_phases``: its coefficients, and the rows it draws sparsely."""

    coef: np.ndarray  # (phases, categories): each category's coefficient of each phase
    first: tuple  # per row, its first user where the row is drawn sparsely, else 0

    @classmethod
    def of(cls, cuts: np.ndarray, coef: np.ndarray) -> _Phases:
        """``coef``, with each row's first user kept where its users carry under half the mass.

        A row is drawn for the categories from its first nonzero
        coefficient, f, on, which carry the mass 1 - cuts[f - 1]; one among
        them with a zero coefficient there adds 0.  A sparse draw costs an
        index, a gather and a scatter more than a full one: drawing every
        row sparsely measured about 5 % slower on the Poisson step table at
        theta = -1, whose second row's users carry two thirds of the mass.
        """
        firsts = (int(np.flatnonzero(row)[0]) for row in coef)
        return cls(coef, tuple(f if f and cuts[f - 1] > 0.5 else 0 for f in firsts))


class PairTilt(NamedTuple):
    """The tilted pair law e^{alpha R(x - c w)} f(x, w), as ``sample_pairs`` draws it.

    Each (w, x) pair is one category of ``_pair_categories``, picked by one
    uniform, and its time and claim are sums of standard exponentials times
    the category's phase means (rows padded with zeros, each drawn for the
    pairs from its first user on where those carry under half the mass,
    ``_Phases``).  At R = 0 the law is the model's own.  ``of`` builds the
    table once per request.
    """

    cuts: np.ndarray  # cumulative category probabilities, the last one dropped
    w: _Phases  # the mean of each time phase of each category
    x: _Phases  # the mean of each claim phase of each category

    @classmethod
    def of(cls, model: ModelSpec, R: float, gap: float) -> PairTilt:
        """The table of ``model`` tilted by alpha R, R in [0, 1) at unit rates and gap = 1 - R.

        The phases are the unit-rate ones in model units: the time's means
        over lam or beta and the claim's over alpha (by 1.0 at unit rates).
        At R = 0 the premium does not enter the law (R c' = 0), so the
        table is built without ``unit_rates``, whose c' need not be a float.
        """
        erlang = isinstance(model.arrival, Erlang2)
        c = unit_rates(model, type(model.arrival))[0] if R else 0.0
        rows = _pair_categories(c, model.theta, erlang, R, gap)
        cum = np.cumsum([row[0] for row in rows])
        cuts = cum[:-1] / cum[-1]

        def means(k, unit):
            width = max(len(row[k]) for row in rows)
            return _Phases.of(cuts, np.array([[unit / r for r in row[k]]
                                              + [0.0] * (width - len(row[k]))
                                              for row in rows]).T.copy())

        rate = model.arrival.beta if erlang else model.arrival.lam
        return cls(cuts, means(2, 1.0 / rate), means(1, 1.0 / model.claim.alpha))


class _Draws:
    """Buffers for up to ``size`` draws of ``_draw_phases`` from a table of ``cuts`` cuts."""

    def __init__(self, size: int, cuts: int):
        self.uniform = np.empty(size)
        self.expo = np.empty(size)
        self.mask = np.empty((cuts, size), dtype=bool)
        self.cat = np.empty(size, dtype=np.intp)


class _Pairs(_Draws):
    """``_Draws`` buffers plus the time ``w`` and claim ``x`` of up to ``size`` pairs."""

    def __init__(self, size: int, cuts: int):
        super().__init__(size, cuts)
        self.w = np.empty(size)
        self.x = np.empty(size)


def _draw_phases(rng: np.random.Generator, cuts: np.ndarray, tables: tuple,
                 outs: tuple, work: _Draws) -> None:
    """Draw from a mixture of sums of exponential phases into each array of ``outs``.

    ``cuts`` are the cumulative category probabilities, the last one
    dropped, and ``tables[i]`` the ``_Phases`` of ``outs[i]``.  A draw's
    category is the number of cuts at or below its uniform, counted for all
    n = outs[0].size draws at once: one comparison of the uniforms against
    every cut into ``work``'s boolean block, then one sum along the cut
    axis.  Each output is then, phase by phase, the category's coefficient
    times a standard exponential.  A row drawn sparsely (first user f > 0)
    takes exponentials only for the draws of category f or later, which the
    comparison against cut f - 1 has marked already; every other row takes
    one for every draw, and a category it does not use adds 0 times it.
    The n-prefixes of ``work``'s buffers are overwritten.
    """
    n = outs[0].size
    u = rng.random(out=work.uniform[:n])
    # The comparison block beats np.searchsorted on a handful of cuts and a
    # loop of one comparison per cut (17 against 40 us for 4096 draws of
    # the Erlang step table on numpy 2.4), and a uint8 sum beats an intp one
    # (there are at most 13 categories); np.take then gathers fastest
    # through intp indices.
    mask = work.mask[:, :n]
    np.greater_equal(u, cuts[:, None], out=mask)
    cat = work.cat[:n]
    np.copyto(cat, np.add.reduce(mask, axis=0, dtype=np.uint8))
    # Row by row: one (phases, n) draw and gather measured 1.5-1.9x slower
    # for the Erlang step table.  The uniforms are spent, so their buffer
    # takes each gathered row.  A category is always in range, so
    # mode="clip" moves none, and it spares the buffered copy that np.take
    # makes of ``out`` in its default mode (38 against 66 us for 32768
    # gathers).
    e = work.expo[:n]
    for (coef, first), out in zip(tables, outs, strict=True):
        np.take(coef[0], cat, out=out, mode="clip")
        out *= rng.standard_exponential(out=e)
        for row, f in zip(coef[1:], first[1:]):
            if f:
                at = np.flatnonzero(mask[f - 1])
                x = rng.standard_exponential(out=e[:at.size])
                x *= np.take(row, cat.take(at), out=u[:at.size], mode="clip")
                out[at] += x
            else:
                rng.standard_exponential(out=e)
                e *= np.take(row, cat, out=u, mode="clip")
                out += e


def _is_int(x) -> bool:
    """Whether x is an integer: Python's or numpy's, but not a bool."""
    return isinstance(x, numbers.Integral) and not isinstance(x, bool)


def sample_pairs(model: ModelSpec, rng: np.random.Generator, n: int,
                 tilt: PairTilt | None = None, *, work: _Pairs | None = None):
    """Draw n dependent (w, x) pairs of ``model``, or of a tilted law of it.

    Without a ``tilt`` the pairs follow the model's joint law f(x, w); with
    one (``PairTilt.of`` the same model) they follow the tilted law
    e^{alpha R(x - c w)} f(x, w).  Both are drawn exactly from a
    ``PairTilt`` table, the model's own law being its R = 0 table: one
    uniform picks each pair's category, and its time and claim are sums of
    standard exponentials times the category's phase means
    (``_draw_phases``).  The pairs are fresh arrays, or, with ``work``
    (``_Pairs`` built for the table's cut count), views of the first n
    entries of its ``w`` and ``x``, drawn with the same bits.

    Raises:
        InputError: If n is not a nonnegative integer, or ``work`` holds
            fewer than n pairs or was built for another cut count.
    """
    if not _is_int(n) or n < 0:
        raise InputError(f"sample count must be a nonnegative integer, got {n!r}")
    if tilt is None:
        tilt = PairTilt.of(model, 0.0, 1.0)
    cuts = tilt.cuts.size
    if work is None:
        work = _Pairs(n, cuts)
    elif work.w.size < n or work.mask.shape[0] != cuts:
        raise InputError(f"pair buffers for {work.w.size} pairs at {work.mask.shape[0]} cuts "
                         f"cannot take {n} pairs at {cuts} cuts")
    w, x = work.w[:n], work.x[:n]
    _draw_phases(rng, tilt.cuts, (tilt.w, tilt.x), (w, x), work)
    return w, x
