"""Independent reference implementations used only by the test suite.

These deliberately avoid the library's own integration machinery: the point
is to cross-check the densities and moments against closed forms and
integrals built a different way.
"""

from itertools import product
from math import exp, factorial, log, prod

import mpmath as mp
import numpy as np
from scipy.integrate import quad, simpson
from scipy.special import (betainc, betaincc, betainccinv, betaincinv,
                           expit, logit)

from logistic_kle import primitive_h


def boxspline_pdf(x, c):
    """Exact density of sum_j c_j U_j with U_j ~ U(-1, 1) i.i.d., c_j > 0.

    Inclusion-exclusion over the 2^N orthant shifts:
        f(x) = (2^N (N-1)! prod c)^{-1} sum_eps (-1)^{|eps|} (x + eps.c)_+^{N-1}
    with eps ranging over {+1, -1}^N.  For N = 1 the power-0 convention gives
    the uniform indicator.
    """
    c = np.asarray(c, dtype=float)
    N = c.size
    x = np.atleast_1d(np.asarray(x, dtype=float))
    total = np.zeros(x.shape)
    for mask in range(2 ** N):
        sgn = np.array([-1.0 if (mask >> j) & 1 else 1.0 for j in range(N)])
        parity = -1.0 if bin(mask).count("1") % 2 else 1.0
        arg = x + sgn @ c
        pos = np.where(arg > 0.0, arg, 0.0)
        # mask again after the power: for N = 1, pos**0 is 1 even where masked
        total += parity * np.where(arg > 0.0, pos ** (N - 1), 0.0)
    return total / (2.0 ** N * factorial(N - 1) * np.prod(c))


def boxspline_pdf_mp(x, c, dps=60):
    """``boxspline_pdf`` in mpmath at ``dps`` digits, where the alternating
    corner sum no longer cancels in double precision (N >= 5)."""
    with mp.workdps(dps):
        cs = [mp.mpf(float(ci)) for ci in c]
        den = mp.mpf(2) ** len(cs) * mp.factorial(len(cs) - 1) * mp.fprod(cs)
        out = []
        for xi in np.atleast_1d(x):
            total = mp.mpf(0)
            for signs in product((1, -1), repeat=len(cs)):
                arg = mp.mpf(float(xi)) + mp.fsum(s * ci for s, ci in zip(signs, cs))
                if arg > 0:
                    total += (-1) ** signs.count(-1) * arg ** (len(cs) - 1)
            out.append(float(total / den))
    return np.array(out)


def f1_uniform_exact(p, t, process, initial, N, order=40):
    """Density of the order-N solution for uniform KLE coordinates, via the
    exact box-spline law of K_N and Gauss-Legendre panels split at its kinks.

    Writing u = logit(initial point), the density at p is

        (p(1-p))^{-1} int f0(expit u) expit'(u) rho_K(logit p - u) du

    over the initial support, where rho_K is the box-spline density above.
    The integrand is piecewise smooth with kinks where rho_K's polynomial
    pieces meet, so each smooth piece gets its own panel.
    """
    c = np.sqrt(3.0) * np.abs(primitive_h(process, t, N))
    v = float(logit(p))
    ssum = float(c.sum())
    lo = max(float(logit(initial.p01)), v - ssum)
    hi = min(float(logit(initial.p02)), v + ssum)
    if hi <= lo:
        return 0.0
    kinks = {float(np.array([1.0 if (m >> j) & 1 else -1.0 for j in range(N)]) @ c)
             for m in range(2 ** N)}
    pts = sorted({lo, hi, *[v - s for s in kinks if lo < v - s < hi]})
    gx, gw = np.polynomial.legendre.leggauss(order)
    total = 0.0
    for a, b in zip(pts[:-1], pts[1:]):
        u = 0.5 * (a + b) + 0.5 * (b - a) * gx
        q = expit(u)
        vals = initial.pdf(q) * q * (1.0 - q) * boxspline_pdf(v - u, c)
        total += 0.5 * (b - a) * float(gw @ vals)
    return total / (p * (1.0 - p))


def boxspline_law(c, mean=0.0):
    """Scalar pdf of mean + sum_j c_j U_j (U_j ~ U(-1, 1), c_j > 0) in plain
    floats, by the corner sum of ``boxspline_pdf``, and its sorted kinks."""
    N = len(c)
    corners = [(sum(s * ci for s, ci in zip(signs, c)), (-1) ** signs.count(-1))
               for signs in product((1, -1), repeat=N)]
    den = 2 ** N * factorial(N - 1) * prod(c)

    def pdf(k):
        return sum(sign * (k - mean + shift) ** (N - 1)
                   for shift, sign in corners if k - mean + shift > 0) / den
    return pdf, sorted({mean - shift for shift, _ in corners})


def moments_nested_quad(k_pdf, kinks, initial):
    """(mean, variance) of P = expit(logit P0 + K) as a double integral by
    nested ``scipy.integrate.quad``: over K from kinks[0] to kinks[-1], split
    at the inner kinks, then over the initial support."""
    opts = dict(epsabs=1e-15, epsrel=1e-13, limit=200)

    def raw(power):
        def e_k(q):
            u = log(q / (1.0 - q))
            return quad(lambda k: k_pdf(k) / (1.0 + exp(-u - k)) ** power,
                        kinks[0], kinks[-1], points=kinks[1:-1], **opts)[0]
        return quad(lambda q: float(initial.pdf(q)) * e_k(q),
                    initial.p01, initial.p02, **opts)[0]

    m1, m2 = raw(1), raw(2)
    return m1, m2 - m1 * m1


def cdf_quad(law, p):
    """Scalar CDF of an ``InitialLaw`` by adaptive quadrature of its density:
    the reference for the closed-form ``InitialLaw.cdf``."""
    p = float(p)
    if p <= law.p01:
        return 0.0
    if p >= law.p02:
        return 1.0
    val, _ = quad(law.pdf, law.p01, p, epsabs=1e-14, epsrel=1e-13)
    return min(max(val, 0.0), 1.0)


def beta_ppf_exact(law, u):
    """Inverse CDF of a truncated Beta ``InitialLaw`` by scipy's
    ``betaincinv`` and ``betainccinv``, in the law's own variable (1 - p
    where the law mirrors its support, since I(p01) and I(p02) would both
    round near 1 in p).  The target I(y01) + u (I(y02) - I(y01)) is formed
    from the nearer end of the support, where 1 - u is exact, and a target
    above 1/2 is inverted through its complement, formed from the direct
    complements 1 - I: the lossy form 1 - (I(y01) + u (...)) keeps only a
    few digits of the upper tail as u -> 1."""
    a, b = law.params
    y01, y02 = law.p01, law.p02
    if law._frame.mirrored:
        a, b, y01, y02 = b, a, 1.0 - y01, 1.0 - y02
    i01, i02 = betainc(a, b, y01), betainc(a, b, y02)
    j01, j02 = betaincc(a, b, y01), betaincc(a, b, y02)
    m = i02 - i01
    u = np.asarray(u, dtype=float)
    high = u > 0.5
    v = np.where(high, 1.0 - u, u)
    target = np.where(high, i02 - v * m, i01 + v * m)
    rest = np.where(high, j02 + v * m, j01 - v * m)
    y = np.where(target > 0.5, betainccinv(a, b, rest),
                 betaincinv(a, b, target))
    return np.clip(1.0 - y if law._frame.mirrored else y, law.p01, law.p02)


def simpson_moments(density, n_points=2001):
    """(mean, variance) of a density, given as a callable p_array -> values,
    by composite Simpson on (0.001, 0.999): the regression oracle for
    ``stats.law_moments``.  Within 3e-10 of the exact moments at the presets'
    interior times; 3e-5 off at example 2's t0, where the density jumps."""
    p = np.linspace(0.001, 0.999, n_points)
    f = density(p)
    mean = float(simpson(p * f, x=p))
    return mean, max(float(simpson(p * p * f, x=p)) - mean * mean, 0.0)
