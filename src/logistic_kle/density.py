"""First probability density of the truncated logistic solution.

The solution of P' = A(t)(1-P)P with P(t0) = P0 satisfies

    logit(P_t) = logit(P0) + K_N(t, xi),      K_N = m(t) + sum_j H_j(t) xi_j

once A is replaced by its N-term KLE, so the density of P_t is a 1-D
convolution of the initial logit-density with the law of K_N(t) (``k_law``):
N(m, sigma_N^2) for Gaussian coordinates (``NormalLaw``) and, for uniform
ones, the box spline of sum_j U(-c_j, c_j) with c_j = sqrt(3)|H_j(t)|
(``BoxSplineLaw``).  ``f1n_collapsed`` evaluates it with Gauss-Legendre
panels in the law's own variable k, split at its breaks, to machine
precision at every t down to t0, where the law is a point mass and the row
is the initial density.  Each panel is integrated only for the p values
whose window meets it, with the law's density on that panel alone
(``piece_pdf``: one polynomial piece of a box spline).
``f1_exact_wiener`` is the same integral against the non-truncated Wiener
law N(0, t^3/3) (``wiener_law``).
``law_rule`` turns a law into the nodes and weights of ``stats.law_moments``.

``f1n_eval`` integrates the literal N-dimensional formula
f1n = int f_P0(arg(p, K)) jac(p, K) f_xi(xi) dxi (``rvt_kernel``) by tensor
Gauss quadrature.  No row goes through it: it is the tests' independent
reference for the 1-D engine.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.special import expit, logit

from .distributions import InitialLaw, _horner
from .kle import KleProcess, kn_sigma, primitive_h
from .quadrature import (QuadratureRule, default_order, rule_for_law,
                         tensor_nodes_chunks)

__all__ = [
    "Problem",
    "NormalLaw",
    "BoxSplineLaw",
    "k_law",
    "law_rule",
    "wiener_law",
    "rvt_kernel",
    "f1n_eval",
    "f1n_collapsed",
    "f1_exact_wiener",
]

# A box spline of N widths has up to 2^N pieces, one Gauss panel each: at
# N = 10 a 2001-point density row of the exponential-covariance model takes
# about 0.8 s on a 2-core host.
MAX_BOX_N = 10

_SQRT2PI = np.sqrt(2.0 * np.pi)
_GL_X, _GL_W = np.polynomial.legendre.leggauss(24)


@dataclass(frozen=True)
class Problem:
    """A truncated random logistic IVP: process model + initial law + order.

    ``rule`` is the Gauss rule of the tensor reference ``f1n_eval``.
    """

    process: KleProcess
    initial: InitialLaw
    N: int

    def __post_init__(self):
        if self.N < 1:
            raise ValueError("truncation order N must be >= 1")

    @cached_property
    def rule(self) -> QuadratureRule:
        return rule_for_law(self.process.xi_law, default_order(self.N))


def rvt_kernel(p, K):
    """Inverse-flow point and Jacobian of the logistic transport map.

    Given logit(P_t) = logit(P0) + K, the initial point mapping to p is
    arg = sigmoid(logit(p) - K) and the density picks up jac = d(arg)/dp.
    Evaluated branch-wise in e^{-|K|} so nothing overflows for any real K:

        K >= 0:  E = e^{-K},  arg = pE / ((1-p) + pE),   jac = E / ((1-p) + pE)^2
        K <  0:  F = e^{K},   arg = p / ((1-p)F + p),    jac = F / ((1-p)F + p)^2

    Returns (arg, jac), broadcasting over both inputs.
    """
    p = np.asarray(p, dtype=float)
    K = np.asarray(K, dtype=float)
    scalar = p.ndim == 0 and K.ndim == 0
    p, K = np.broadcast_arrays(p, K)
    arg = np.empty(p.shape)
    jac = np.empty(p.shape)

    pos = K >= 0
    if np.any(pos):
        E = np.exp(-K[pos])
        den = (1.0 - p[pos]) + p[pos] * E
        arg[pos] = p[pos] * E / den
        jac[pos] = E / (den * den)
    neg = ~pos
    if np.any(neg):
        F = np.exp(K[neg])
        den = (1.0 - p[neg]) * F + p[neg]
        arg[neg] = p[neg] / den
        jac[neg] = F / (den * den)

    if scalar:
        return float(arg), float(jac)
    return arg, jac


def _p_array(p):
    p = np.atleast_1d(np.asarray(p, dtype=float))
    if np.any((p <= 0) | (p >= 1)):
        raise ValueError("p must lie in (0, 1)")
    return p


# ---------------------------------------------------------------------------
# tensor reference


def _f1n_tensor_many(problem: Problem, p, t):
    """Tensor-quadrature density at a vector of p values, one time t."""
    p = _p_array(p)
    problem.process.domain.require(t)
    h = primitive_h(problem.process, t, problem.N)
    m_t = problem.process.mean_primitive(t)
    f0 = problem.initial.pdf
    out = np.zeros(p.size)
    for pts, wts in tensor_nodes_chunks(problem.rule, problem.N):
        K = pts @ h + m_t
        for i in range(p.size):
            arg, jac = rvt_kernel(p[i], K)
            out[i] += float(np.dot(wts, f0(arg) * jac))
    return out


def f1n_eval(problem: Problem, p, t):
    """Density of the order-N solution at (p, t) by tensor quadrature.

    At t = t0 every node has K = 0, so this is the initial density up to
    rounding.
    """
    return float(_f1n_tensor_many(problem, p, t)[0])


# ---------------------------------------------------------------------------
# the law of K_N(t) and the 1-D engine


@dataclass(frozen=True)
class NormalLaw:
    """K ~ N(mean, sigma^2), broken into seven panels over +/- 10 sigma."""

    mean: float
    sigma: float

    def pdf(self, k):
        z = (k - self.mean) / self.sigma
        return np.exp(-0.5 * z * z) / (self.sigma * _SQRT2PI)

    def piece_pdf(self, i, k):
        """Density at k between breaks i and i + 1: one formula for all."""
        return self.pdf(k)

    def breaks(self):
        return self.mean + self.sigma * np.linspace(-10.0, 10.0, 8)


@dataclass(frozen=True, eq=False)
class BoxSplineLaw:
    """K = mean + sum_j U(-c_j, c_j), a box spline (de Boor, Hoellig &
    Riemenschneider, *Box Splines*, 1993).  ``coefs[i]`` holds, lowest
    degree first, its polynomial on [knots[i], knots[i+1]] in k - knots[i].
    With no nonzero width it is the point mass at ``mean``: one empty piece."""

    knots: np.ndarray
    coefs: np.ndarray

    @classmethod
    def from_widths(cls, c, mean=0.0):
        """Convolve one box at a time, narrowest first.  No piece is then
        longer than the next box, so each step adds whole nonnegative piece
        masses and stays within a few ulps of the peak, where the closed
        inclusion-exclusion sum over the 2^N corners cancels (1e-2 of the
        peak for the exponential-covariance model at N = 7, t = 0.49)."""
        c = np.sort(np.abs(np.asarray(c, dtype=float)))
        if c.size > MAX_BOX_N:
            raise ValueError(f"box-spline law of {c.size} widths refused: "
                             f"at most {MAX_BOX_N} are supported")
        c = c[c > 0.0]
        if c.size == 0:
            return cls(np.full(2, float(mean)), np.zeros((1, 1)))
        knots, coefs = np.array([-c[0], c[0]]), np.array([[0.5 / c[0]]])
        for cj in c[1:]:
            knots, coefs = _convolve_box(knots, coefs, cj)
        return cls(knots + mean, coefs)

    def pdf(self, k):
        i = np.searchsorted(self.knots, k, side="right") - 1
        inside = (i >= 0) & (i < len(self.coefs))
        i = np.where(inside, i, 0)
        return np.where(inside, self.piece_pdf(i, k), 0.0)

    def piece_pdf(self, i, k):
        """Piece i's polynomial at k by Horner's rule; an integer i (one
        panel) takes scalar coefficients, an array i one per point."""
        return _horner(self.coefs.T, i, k - self.knots[i])

    def breaks(self):
        return self.knots


def _taylor_shift(a, delta):
    """Rows of coefficients (lowest degree first) of a_r(s + delta_r)."""
    b = a.copy()
    for i in range(b.shape[1] - 1):
        for j in range(b.shape[1] - 2, i - 1, -1):
            b[:, j] += delta * b[:, j + 1]
    return b


def _convolve_box(knots, coefs, c):
    """Pieces of h = g * U(-c, c) from those of g.  On a new piece [a, b],
    2c h(x) is the mass of g's pieces between x - c and x + c plus partial
    integrals over the two holding x +/- c, found from the new piece's
    midpoint because a +/- c can round below the old knot it equals."""
    M, d1 = coefs.shape
    anti = np.zeros((M, d1 + 1))          # integrals from each left knot
    anti[:, 1:] = coefs / np.arange(1, d1 + 1)
    mass = _horner(anti.T, np.arange(M), np.diff(knots))
    cum = np.concatenate([[0.0], np.cumsum(mass)])

    new = np.unique(np.concatenate([knots - c, knots + c]))
    a, mid = new[:-1], 0.5 * (new[:-1] + new[1:])
    j = np.searchsorted(knots, mid + c, side="right") - 1
    k = np.searchsorted(knots, mid - c, side="right") - 1
    out = np.zeros((a.size, d1 + 1))
    out[:, 0] = cum[np.clip(j, 0, M)] - cum[np.clip(k + 1, 0, M)]
    r, l = (j >= 0) & (j < M), (k >= 0) & (k < M)
    out[r] += _taylor_shift(anti[j[r]], a[r] + c - knots[j[r]])
    out[l, 0] += mass[k[l]]
    out[l] -= _taylor_shift(anti[k[l]], a[l] - c - knots[k[l]])
    return new, out / (2.0 * c)


def k_law(problem: Problem, t):
    """The law of K_N(t) for the problem's coordinate law."""
    process = problem.process
    if process.xi_law.kind == "gaussian":
        return NormalLaw(*kn_sigma(process, t, problem.N))
    h = primitive_h(process, t, problem.N)
    return BoxSplineLaw.from_widths(np.sqrt(3.0) * np.abs(h),
                                    process.mean_primitive(t))


def law_rule(law):
    """Nodes and probability weights over K ~ ``law``: one 24-point
    Gauss-Legendre panel between consecutive breaks, weighted by the pdf.
    A point mass (all breaks equal) is one node of weight 1."""
    brk = law.breaks()
    if brk[0] == brk[-1]:
        return brk[:1], np.ones(1)
    a, half = brk[:-1, None], np.diff(brk)[:, None] / 2.0
    nodes = a + half * (_GL_X + 1.0)
    piece = np.broadcast_to(np.arange(len(a))[:, None], nodes.shape)
    return nodes.ravel(), (half * _GL_W * law.piece_pdf(piece, nodes)).ravel()


def wiener_law(t, T=1.5):
    """Law N(0, t^3/3) of the full Wiener time-integral at t in [0, T]."""
    if not 0.0 <= t <= T + 1e-12:
        raise ValueError(f"time {t} outside [0, {T}]")
    return NormalLaw(0.0, float(np.sqrt(t ** 3 / 3.0)))


def _logit_convolution(p, law, initial: InitialLaw):
    """Density of P with logit(P) = logit(P0) + K, K ~ ``law``:

        f(p) = 1/(p(1-p)) * int f0(q) q(1-q) pdf_K(k) dk,   q = expit(v - k),

    with v = logit(p), over k in [v - logit(p02), v - logit(p01)], where q
    lies in the initial support.  The k-interval between two breaks of the
    law, clipped to that range, is one 24-point Gauss-Legendre panel, so no
    panel straddles a kink; it is evaluated only for the p whose clipped
    width is positive (a p that meets no panel reads 0), with the law's
    density on that panel (``piece_pdf``).  The nodes sit in k, not in
    logit(q) = v - k, so a law narrower than an ulp of v keeps its width.
    The point mass (as at t0) leaves the initial density.
    """
    p = _p_array(p)
    brk = law.breaks()
    if brk[0] == brk[-1]:
        return initial.pdf(p)
    v = logit(p)
    k_min, k_max = v - logit(initial.p02), v - logit(initial.p01)
    total = np.zeros(p.size)
    for i, (k_lo, k_hi) in enumerate(zip(brk[:-1], brk[1:])):
        lo = np.maximum(k_lo, k_min)
        width = np.minimum(k_hi, k_max) - lo
        on = np.flatnonzero(width > 0.0)
        lo, width = lo[on], width[on]
        k = lo[:, None] + width[:, None] * (_GL_X + 1.0) / 2.0
        q = expit(v[on, None] - k)
        vals = initial.pdf(q) * q * (1.0 - q) * law.piece_pdf(i, k)
        total[on] += (vals @ _GL_W) * width / 2.0
    return total / (p * (1.0 - p))


def _scalar_or_row(p, out):
    return float(out[0]) if np.ndim(p) == 0 else out


def f1n_collapsed(problem: Problem, p, t):
    """Density of the order-N solution at (p, t), for every coordinate law:
    the N-dimensional integral reduced to one integral over the law of
    K_N(t) (``k_law``)."""
    return _scalar_or_row(p, _logit_convolution(p, k_law(problem, t),
                                                 problem.initial))


def f1_exact_wiener(initial: InitialLaw, p, t, T=1.5):
    """Non-truncated density for the Wiener growth model.

    The full time-integral of the Wiener process is N(0, t^3/3)
    (``wiener_law``), so the exact density has the same 1-D form as
    ``f1n_collapsed``; at t = 0 it is the initial density by continuity.
    """
    return _scalar_or_row(p, _logit_convolution(p, wiener_law(t, T), initial))
