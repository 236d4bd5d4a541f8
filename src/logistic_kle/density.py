"""First probability density of the truncated logistic solution.

The solution of P' = A(t)(1-P)P with P(t0) = P0 satisfies

    logit(P_t) = logit(P0) + K_N(t, xi),      K_N = m(t) + sum_j H_j(t) xi_j

once A is replaced by its N-term KLE.  Transforming P0 -> P_t pointwise gives
the density of P_t at p as an N-dimensional integral over the coordinate law:

    f1n(p, t) = int f_P0(arg(p, K)) * jac(p, K) f_xi(xi) dxi,

with arg/jac the stable closed forms in ``rvt_kernel``.  Three evaluation
paths are provided:

* ``f1n_eval``      -- tensor-product Gaussian quadrature in N dimensions
                       (works for every coordinate law; the literal formula);
* ``f1n_collapsed`` -- Gaussian coordinates only: K_N(t) is exactly
                       N(m(t), sigma_N(t)^2), so the N-D integral collapses to
                       one dimension;
* ``f1_exact_wiener`` -- the non-truncated reference for the Wiener model,
                       where the time-integral is N(0, t^3/3) exactly.

The collapsed/exact paths evaluate a convolution in logit space (panelled
Gauss-Legendre over the initial support) that resolves the integrand's
support kinks and is accurate to machine precision.  ``density_row`` is the
one place that picks the path of an order-N density row.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.special import expit, logit

from .distributions import InitialLaw
from .kle import KleProcess, kn_sigma, primitive_h
from .quadrature import (QuadratureRule, default_order, rule_for_law,
                         tensor_nodes_chunks)

__all__ = [
    "Problem",
    "DensityGrid",
    "rvt_kernel",
    "f1n_eval",
    "f1n_collapsed",
    "f1_exact_wiener",
    "density_row",
    "density_grid",
    "DEFAULT_P_GRID",
]

DEFAULT_P_GRID = np.linspace(0.005, 0.995, 201)

_SQRT2PI = np.sqrt(2.0 * np.pi)
_T0_TOL = 1e-12


@dataclass(frozen=True)
class Problem:
    """A truncated random logistic IVP: process model + initial law + order.

    ``quad_orders`` is the per-dimension quadrature order of the tensor path;
    ``None`` picks the dimension-dependent default.
    """

    process: KleProcess
    initial: InitialLaw
    N: int
    quad_orders: int | None = None

    def __post_init__(self):
        if self.N < 1:
            raise ValueError("truncation order N must be >= 1")

    @cached_property
    def rule(self) -> QuadratureRule:
        order = self.quad_orders if self.quad_orders else default_order(self.N)
        return rule_for_law(self.process.xi_law, order)

    def h_vector(self, t):
        return np.array([primitive_h(self.process, j, t)
                         for j in range(1, self.N + 1)])


@dataclass(frozen=True)
class DensityGrid:
    """Density values on a (t, p) product grid; values[i, j] = f(p_grid[j],
    t_grid[i])."""

    p_grid: np.ndarray
    t_grid: np.ndarray
    values: np.ndarray
    meta: dict = field(default_factory=dict)


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
# tensor path


def _f1n_tensor_many(problem: Problem, p, t):
    """Tensor-quadrature density at a vector of p values, one time t."""
    p = _p_array(p)
    problem.process.domain.require(t)
    h = problem.h_vector(t)
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
# collapsed 1-D paths (Gaussian K)


def _gauss_logit_convolution(p, mean, sigma, law: InitialLaw,
                             nsig=10.0, panel_sig=3.0):
    """Density of P with logit(P) = logit(P0) + K, K ~ N(mean, sigma^2).

    In u = logit(q) the integral is a convolution of the initial logit-density
    with the normal kernel:

        f(p) = 1/(p(1-p)) * int f0(q) q(1-q) phi((v - mean - u)/sigma)/sigma du,

    v = logit(p), over u in [logit(p01), logit(p02)] intersected with the
    +/- nsig*sigma kernel window.  Each (per-p) window is split into
    ceil(2 nsig / panel_sig) equal panels with 24-point Gauss-Legendre, which
    resolves the kernel to machine precision; the initial-support endpoints
    are window endpoints, so the kink there is never straddled.
    """
    p = _p_array(p)
    if sigma == 0.0:
        return law.pdf(p)

    v = logit(p)
    u_lo = np.maximum(logit(law.p01), v - mean - nsig * sigma)
    u_hi = np.minimum(logit(law.p02), v - mean + nsig * sigma)
    width = u_hi - u_lo
    alive = width > 0

    npanels = int(np.ceil(2.0 * nsig / panel_sig))
    gx, gw = np.polynomial.legendre.leggauss(24)
    # panel offsets in [0, 1]: npanels panels x 24 nodes, flattened
    edges = np.linspace(0.0, 1.0, npanels + 1)
    offs = (edges[:-1, None] + np.diff(edges)[:, None] * (gx[None, :] + 1.0) / 2.0).ravel()
    wts = (np.diff(edges)[:, None] * gw[None, :] / 2.0).ravel()

    out = np.zeros(p.size)
    if np.any(alive):
        lo = u_lo[alive, None]
        wd = width[alive, None]
        u = lo + wd * offs[None, :]
        q = expit(u)
        z = (v[alive, None] - mean - u) / sigma
        kern = np.exp(-0.5 * z * z) / (sigma * _SQRT2PI)
        vals = law.pdf(q) * q * (1.0 - q) * kern
        out[alive] = (vals @ wts) * wd.ravel()
    return out / (p * (1.0 - p))


def _scalar_or_row(p, out):
    return float(out[0]) if np.ndim(p) == 0 else out


def f1n_collapsed(problem: Problem, p, t):
    """Density of the order-N solution via the exact 1-D Gaussian reduction.

    Requires Gaussian coordinates: K_N(t) is then N(m(t), sigma_N(t)^2) with
    sigma_N from the closed-form primitives, and the N-dimensional integral
    equals a single integral over that law.
    """
    if problem.process.xi_law.kind != "gaussian":
        raise ValueError("collapsed path requires Gaussian KLE coordinates")
    problem.process.domain.require(t)
    mean, sigma = kn_sigma(problem.process, t, problem.N)
    return _scalar_or_row(p, _gauss_logit_convolution(p, mean, sigma,
                                                      problem.initial))


def f1_exact_wiener(initial: InitialLaw, p, t, T=1.5):
    """Non-truncated density for the Wiener growth model.

    The full time-integral of the Wiener process is N(0, t^3/3), so the exact
    density has the same 1-D form as the collapsed path with
    sigma = sqrt(t^3/3); at t = 0 it is the initial density by continuity.
    """
    if not 0.0 <= t <= T + _T0_TOL:
        raise ValueError(f"time {t} outside [0, {T}]")
    sigma = np.sqrt(t ** 3 / 3.0)
    return _scalar_or_row(p, _gauss_logit_convolution(p, 0.0, sigma, initial))


def _path(problem: Problem):
    return "collapsed" if problem.process.xi_law.kind == "gaussian" else "tensor"


def density_row(problem: Problem, p, t):
    """Order-N density f1n at an array of p values and one time t.

    The initial density at t0; otherwise the collapsed 1-D path for Gaussian
    coordinates and the tensor path for every other coordinate law.
    """
    p = _p_array(p)
    if abs(t - problem.process.domain.t0) <= _T0_TOL:
        return problem.initial.pdf(p)
    if _path(problem) == "collapsed":
        return f1n_collapsed(problem, p, t)
    return _f1n_tensor_many(problem, p, t)


# ---------------------------------------------------------------------------
# grids


def density_grid(problem: Problem, p_grid=None, t_grid=None):
    """Fill a DensityGrid over sorted p and t grids, one ``density_row`` per
    time; ``meta["path"]`` names the path those rows take away from t0."""
    p_grid = DEFAULT_P_GRID.copy() if p_grid is None else np.asarray(p_grid, dtype=float)
    if t_grid is None:
        dom = problem.process.domain
        t_grid = np.linspace(dom.t0, dom.T, 4)
    t_grid = np.asarray(t_grid, dtype=float)
    if np.any(np.diff(p_grid) <= 0) or np.any(np.diff(t_grid) < 0):
        raise ValueError("grids must be sorted ascending")

    values = np.empty((t_grid.size, p_grid.size))
    for i, t in enumerate(t_grid):
        values[i] = density_row(problem, p_grid, t)
    path = _path(problem)
    meta = {
        "N": problem.N,
        "quad_order": problem.rule.order if path == "tensor" else None,
        "process": problem.process.kind,
        "initial": problem.initial.kind,
        "path": path,
    }
    return DensityGrid(p_grid, t_grid, values, meta)
