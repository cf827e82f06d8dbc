"""60-digit references for the Erlang(2) survival solution, shared by the tests.

The Erlang solver's cleared septic D and its five numerator basis columns
(delta(0), w, k0, k1, k2) are rebuilt from the formulas in
``fgmruin.erlang`` in ``mpmath`` at 60 digits, and the unknown weights are
solved from N = 0 at the four growing roots of D / s together with
N(0) = D'(0), the unit zero-pole residue.  The derivation is the solver's,
but none of its float code is: the roots come from ``mpmath.polyroots`` and
the weights from ``mpmath.lu_solve``.  The survival transform is N / D, so
the ruin probability is minus the sum of the residues at the decaying roots,
psi(u) = -sum N(r) / D'(r) e^{r u}.
"""

import functools

import mpmath


def _mp_mul(*ps):
    out = [mpmath.mpf(1)]
    for p in ps:
        prod = [mpmath.mpf(0)] * (len(out) + len(p) - 1)
        for i, x in enumerate(out):
            for j, y in enumerate(p):
                prod[i + j] += x * y
        out = prod
    return out


def _mp_add(*ps):
    out = [mpmath.mpf(0)] * max(len(p) for p in ps)
    for p in ps:
        for i, x in enumerate(p):
            out[i] += x
    return out


def _mp_scale(k, p):
    return [k * x for x in p]


@functools.lru_cache(maxsize=None)
def _erlang_solution(c, alpha, beta, theta):
    """(D, N, roots of D / s, delta(0)) of INDIVIDUAL elimination under PLUS, at 60 digits.

    D and N are coefficient lists, low degree first.
    """
    with mpmath.workdps(60):
        c, a, b, th = (mpmath.mpf(v) for v in (c, alpha, beta, theta))
        s = [0, 1]
        q = _mp_mul([a, 1], [2 * a, 1])
        ker = [2 * b, -c]
        ker3 = _mp_mul(ker, ker, ker)
        cof = _mp_mul(ker3, q)
        bracket = _mp_add(_mp_scale(b**2, ker3), [4 * b**5], _mp_scale(-6 * b**4, ker))
        den = _mp_add(
            _mp_mul([b**2, -2 * b * c, c**2], cof),
            _mp_scale(-(b**2) * a, _mp_mul([2 * a, 1], ker3)),
            _mp_scale(-th * a, _mp_mul(s, bracket)),
        )
        assert abs(den[0]) <= mpmath.mpf(10) ** -50 * max(abs(d) for d in den)
        basis = [
            _mp_scale(c**2, _mp_mul(s, cof)),
            cof,
            _mp_scale(th, q),
            _mp_scale(th, _mp_mul(q, ker)),
            _mp_scale(th, _mp_mul(q, ker, ker)),
        ]
        roots = mpmath.polyroots(den[:0:-1], maxsteps=400, extraprec=400)
        growing = [r for r in roots if mpmath.re(r) > 0]
        assert len(growing) == 4
        rows = [[mpmath.polyval(p[::-1], g) for p in basis] for g in growing]
        rows.append([p[0] for p in basis])
        x = mpmath.lu_solve(mpmath.matrix(rows), mpmath.matrix([0, 0, 0, 0, den[1]]))
        num = _mp_add(*(_mp_scale(w, p) for w, p in zip(x, basis)))
        return den, num, roots, mpmath.re(x[0])


def reference_delta0(c, alpha, beta, theta):
    """delta(0) of INDIVIDUAL elimination under PLUS, at 60 digits."""
    return _erlang_solution(c, alpha, beta, theta)[3]


def reference_psi(c, alpha, beta, theta, u):
    """psi(u) = -sum N(r) / D'(r) e^{r u} over the decaying roots r of D, at 60 digits."""
    den, num, roots, _ = _erlang_solution(c, alpha, beta, theta)
    with mpmath.workdps(60):
        slope = [k * d for k, d in enumerate(den)][1:]
        psi = -sum(mpmath.polyval(num[::-1], r) / mpmath.polyval(slope[::-1], r)
                   * mpmath.exp(r * u) for r in roots if mpmath.re(r) < 0)
        return float(mpmath.re(psi))
