"""Independent reference values for the benchmark's correctness checks.

Nothing here imports ``logistic_kle``.  The model is rebuilt from the same
config dicts the program receives, from the closed forms of the paper:

* the primitives H_j(t) of each covariance model (the exponential kernel's
  frequencies come from ``scipy.optimize.brentq``);
* the initial laws, normalised with the incomplete beta function or the
  exponential closed form;
* the law of K_N(t) = sum_j H_j(t) xi_j: normal N(0, sigma^2) for Gaussian
  coordinates (sigma^2 = t^3/3 for the untruncated Wiener model), and the box
  spline of half-widths c_j = sqrt(3)|H_j| for uniform coordinates.

A density is an integral over the law of K between the two values of K
that map the initial support edges onto p: ``density_quad`` uses
``scipy.integrate.quad`` with a breakpoint at each kink, ``density_row``
vectorises over p with Gauss-Legendre panels split at the kinks.  Moments
and CDFs use an inner rule over K (Hermite
for the normal law, Gauss-Legendre between kinks for the box spline) and
``quad_vec`` over the initial law.
"""

from __future__ import annotations

import math
from math import factorial

import numpy as np
from numpy.polynomial.hermite_e import hermegauss
from scipy.integrate import quad, quad_vec, simpson
from scipy.optimize import brentq
from scipy.special import betainc, beta as beta_fn, expit, logit

_SQRT3 = np.sqrt(3.0)
_HZ, _HW = hermegauss(96)
_HW = _HW / _HW.sum()
_GX, _GW = np.polynomial.legendre.leggauss(32)


# ---------------------------------------------------------------------------
# model pieces


class Initial:
    """Truncated Beta or exponential law of P0 on [p01, p02]."""

    def __init__(self, cfg):
        self.kind = cfg["kind"]
        self.p01, self.p02 = float(cfg.get("p01", 0.1)), float(cfg.get("p02", 0.9))
        if self.kind == "beta":
            self.a, self.b = float(cfg["alpha"]), float(cfg["beta"])
            self.i01 = betainc(self.a, self.b, self.p01)
            self.z = beta_fn(self.a, self.b) * (
                betainc(self.a, self.b, self.p02) - self.i01)
        else:
            self.lam = float(cfg["rate"])
            self.z = np.exp(-self.lam * self.p01) - np.exp(-self.lam * self.p02)

    def pdf(self, q):
        if isinstance(q, float):        # one point, from a scalar integrand
            if not self.p01 <= q <= self.p02:
                return 0.0
            if self.kind == "beta":
                return q ** (self.a - 1.0) * (1.0 - q) ** (self.b - 1.0) / self.z
            return self.lam * math.exp(-self.lam * q) / self.z
        q = np.asarray(q, dtype=float)
        inside = (q >= self.p01) & (q <= self.p02)
        qs = np.where(inside, q, 0.5)
        if self.kind == "beta":
            k = qs ** (self.a - 1.0) * (1.0 - qs) ** (self.b - 1.0)
        else:
            k = self.lam * np.exp(-self.lam * qs)
        return np.where(inside, k / self.z, 0.0)

    def cdf(self, q):
        x = np.clip(np.asarray(q, dtype=float), self.p01, self.p02)
        if self.kind == "beta":
            return (betainc(self.a, self.b, x) - self.i01) * beta_fn(self.a, self.b) / self.z
        return (np.exp(-self.lam * self.p01) - np.exp(-self.lam * x)) / self.z


def _expcov_frequencies(c, a, count):
    """Interleaved (shape, w) roots: odd branch c = w tan(wa) (cosine
    eigenfunction), even branch w = -c tan(wa) (sine eigenfunction)."""
    out, eps = [], 1e-12
    for k in range(1, count + 1):
        w = brentq(lambda w: c - w * np.tan(w * a),
                   (k - 1) * np.pi / a + eps, (2 * k - 1) * np.pi / (2 * a) - eps,
                   xtol=1e-15)
        ws = brentq(lambda w: w + c * np.tan(w * a),
                    (2 * k - 1) * np.pi / (2 * a) + eps, k * np.pi / a - eps,
                    xtol=1e-15)
        out += [("cos", w), ("sin", ws)]
    return out


def h_vector(proc, t, N):
    """H_j(t) = sqrt(nu_j) * int_{t0}^t phi_j, j = 1..N, for a process config."""
    kind = proc["kind"]
    j = np.arange(1, N + 1, dtype=float)
    if kind == "wiener":
        T = float(proc.get("T", 1.5))
        w = (2 * j - 1) * np.pi / (2 * T)
        return (1.0 - np.cos(w * t)) / (w * w * np.sqrt(T / 2.0))
    if kind == "bridge":
        w = j * np.pi
        return np.sqrt(2.0) * (1.0 - np.cos(w * t)) / (w * w)
    c, a = float(proc.get("c", 1.0)), float(proc.get("a", 0.5))
    out = []
    for shape, w in _expcov_frequencies(c, a, (N + 1) // 2)[:N]:
        nu = 2.0 * c / (w * w + c * c)
        if shape == "cos":
            prim = (np.sin(w * t) + np.sin(w * a)) / w
            norm = np.sqrt(a + np.sin(2 * w * a) / (2 * w))
        else:
            prim = (np.cos(w * a) - np.cos(w * t)) / w
            norm = np.sqrt(a - np.sin(2 * w * a) / (2 * w))
        out.append(np.sqrt(nu) * prim / norm)
    return np.array(out)


def eigenvalues(proc, count):
    """First ``count`` KLE eigenvalues (interleaved for the exponential kernel)."""
    j = np.arange(1, count + 1, dtype=float)
    if proc["kind"] == "wiener":
        T = float(proc.get("T", 1.5))
        return 4.0 * T * T / ((2 * j - 1) ** 2 * np.pi ** 2)
    if proc["kind"] == "bridge":
        return 1.0 / (np.pi * j) ** 2
    c, a = float(proc.get("c", 1.0)), float(proc.get("a", 0.5))
    ws = np.array([w for _, w in _expcov_frequencies(c, a, (count + 1) // 2)[:count]])
    return 2.0 * c / (ws * ws + c * c)


# ---------------------------------------------------------------------------
# the law of K


class KLaw:
    """Law of K: ``("gauss", sigma)`` or ``("box", half_widths)``."""

    def __init__(self, kind, scale):
        self.kind = kind
        if kind == "gauss":
            self.sigma = float(scale)
        else:
            c = np.abs(np.asarray(scale, dtype=float))
            self.c = c[c > 0]
            signs = np.array([[1.0 if (m >> i) & 1 else -1.0
                               for i in range(self.c.size)]
                              for m in range(2 ** self.c.size)])
            self.kinks = np.unique(signs @ self.c)
            self._signs = signs

    @classmethod
    def for_model(cls, proc, t, N, exact=False):
        if exact:
            return cls("gauss", np.sqrt(t ** 3 / 3.0))
        h = h_vector(proc, t, N)
        if proc["kind"] == "expcov":
            return cls("box", _SQRT3 * h)
        return cls("gauss", np.sqrt(np.sum(h * h)))

    @property
    def degenerate(self):
        return self.sigma == 0.0 if self.kind == "gauss" else self.c.size == 0

    def support(self):
        if self.kind == "gauss":
            return -12.0 * self.sigma, 12.0 * self.sigma
        return -self.c.sum(), self.c.sum()

    def breakpoints(self):
        return [0.0] if self.kind == "gauss" else list(self.kinks)

    def pdf(self, k):
        k = np.asarray(k, dtype=float)
        if self.kind == "gauss":
            z = k / self.sigma
            return np.exp(-0.5 * z * z) / (self.sigma * np.sqrt(2.0 * np.pi))
        # inclusion-exclusion over the 2^N corner shifts (de Boor et al.)
        n = self.c.size
        total = np.zeros(k.shape)
        for s in self._signs:
            arg = k + s @ self.c
            # np.prod(s) = (-1)^(number of minus signs)
            total += np.prod(s) * np.where(arg > 0.0, np.maximum(arg, 0.0) ** (n - 1), 0.0)
        return total / (2.0 ** n * factorial(n - 1) * np.prod(self.c))

    def rule(self):
        """Nodes and probability weights of an inner rule over K."""
        if self.kind == "gauss":
            return self.sigma * _HZ, _HW
        edges = self.kinks
        mid = 0.5 * (edges[1:] + edges[:-1])
        half = 0.5 * np.diff(edges)
        nodes = (mid[:, None] + half[:, None] * _GX[None, :]).ravel()
        wts = (half[:, None] * _GW[None, :]).ravel()
        return nodes, wts * self.pdf(nodes)


# ---------------------------------------------------------------------------
# reference quantities


def _edges(law: KLaw, f0: Initial, v):
    """Integration limits in K for logit(p) = v: where rho_K lives and
    expit(v - k) stays inside the initial support."""
    lo_k, hi_k = law.support()
    return (np.maximum(lo_k, v - logit(f0.p02)),
            np.minimum(hi_k, v - logit(f0.p01)))


def _integrand(law: KLaw, f0: Initial, v, k):
    q = expit(v - k)
    return law.pdf(k) * f0.pdf(q) * q * (1.0 - q)


def density_quad(law: KLaw, f0: Initial, p):
    """f(p) = int rho_K(k) f0(arg) d(arg)/dp dk, arg = expit(logit p - k),
    by adaptive quadrature at one point."""
    p = float(p)
    if law.degenerate:
        return float(f0.pdf(p))
    v = float(logit(p))
    lo, hi = _edges(law, f0, v)
    if hi <= lo:
        return 0.0
    pts = [b for b in law.breakpoints() if lo < b < hi]
    if law.kind == "gauss":
        # the same integrand in plain floats: quad calls it point by point
        sigma, norm = law.sigma, 1.0 / (law.sigma * math.sqrt(2.0 * math.pi))

        def integrand(k):
            q = 1.0 / (1.0 + math.exp(k - v))
            return math.exp(-0.5 * (k / sigma) ** 2) * norm * f0.pdf(q) * q * (1.0 - q)
    else:
        def integrand(k):
            return float(_integrand(law, f0, v, k))
    val, _ = quad(integrand, lo, hi,
                  points=pts or None, limit=400, epsabs=1e-14, epsrel=1e-12)
    return val / (p * (1.0 - p))


def density_row(law: KLaw, f0: Initial, p):
    """The same integral for a vector of p, by Gauss-Legendre panels whose
    edges are the box-spline kinks (or sigma-wide steps of the normal law)
    and the two support-edge values of K."""
    p = np.asarray(p, dtype=float)
    if law.degenerate:
        return f0.pdf(p)
    v = logit(p)
    lo, hi = _edges(law, f0, v)
    if law.kind == "gauss":
        inner = np.linspace(-12.0, 12.0, 25) * law.sigma
    else:
        inner = law.kinks
    cuts = np.sort(np.concatenate(
        [np.broadcast_to(inner, (p.size, inner.size)), lo[:, None], hi[:, None]],
        axis=1), axis=1)
    cuts = np.clip(cuts, lo[:, None], np.maximum(lo, hi)[:, None])
    mid = 0.5 * (cuts[:, 1:] + cuts[:, :-1])
    half = 0.5 * np.diff(cuts, axis=1)
    k = mid[..., None] + half[..., None] * _GX
    vals = _integrand(law, f0, v[:, None, None], k)
    return np.einsum("ijk,k,ij->i", vals, _GW, half) / (p * (1.0 - p))


def moments(law: KLaw, f0: Initial):
    """(mean, variance) of P = expit(logit P0 + K)."""
    if law.degenerate:
        nodes, wts = np.zeros(1), np.ones(1)
    else:
        nodes, wts = law.rule()

    def integrand(q):
        x = expit(logit(q) + nodes)
        return f0.pdf(q) * np.array([wts @ x, wts @ (x * x)])

    (m1, m2), _ = quad_vec(integrand, f0.p01, f0.p02, epsabs=1e-14, epsrel=1e-12)
    return m1, m2 - m1 * m1


def cdf(law: KLaw, f0: Initial, x):
    """P[P <= x] = E_K[F0(expit(logit x - K))], vectorised over x."""
    x = np.asarray(x, dtype=float)
    if law.degenerate:
        return f0.cdf(x)
    nodes, wts = law.rule()
    return f0.cdf(expit(logit(x)[:, None] - nodes[None, :])) @ wts


def l1_row_distance(law_a: KLaw, law_b: KLaw, f0: Initial, p):
    """Composite-Simpson integral of |f_a - f_b| over the p grid, whose end
    points (0 and 1) contribute zero."""
    diff = np.zeros(p.size)
    diff[1:-1] = np.abs(density_row(law_a, f0, p[1:-1]) - density_row(law_b, f0, p[1:-1]))
    return float(simpson(diff, x=p))
