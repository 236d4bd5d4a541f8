"""Moments of the truncated solution and the convergence error measures.

Moments are Gauss product-rule integrals against the initial law and the
law of K_N(t) (``law_moments``), with no density grid.  Only the L1 and time
integrals use composite Simpson, on fixed grids (2001 p-points, 151
t-points), chosen for reproducibility of tabulated comparisons rather than
adaptivity:

* ``moments_n``            -- mean/variance of P_N at one time;
* ``e_pdf_exact``          -- int_0^1 |f1 - f1n| dp against a reference
                              density (Wiener model has one in closed form);
* ``e_pdf_consecutive``    -- same with orders N and N-1 in place of the
                              reference, usable for any model;
* ``e_moment_exact``       -- time-integrated |moment difference| against the
                              reference;
* ``e_moment_consecutive`` -- time-integrated difference of consecutive
                              truncation orders.

The time-integrated measures need whole moment curves, so those are memoized
per (model, order, grid) fingerprint.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
from scipy.special import expit, logit

from .density import (Problem, f1_exact_wiener, f1n_collapsed, k_law,
                      law_rule, wiener_law)

__all__ = [
    "law_moments",
    "moments_n",
    "e_pdf_exact",
    "e_pdf_consecutive",
    "e_moment_exact",
    "e_moment_consecutive",
    "ERROR_P_POINTS",
    "ERROR_T_POINTS",
]

ERROR_P_POINTS = 2001    # Simpson grid on [0, 1] for density-error integrals
ERROR_T_POINTS = 151     # Simpson grid on [t0, T] for moment-error integrals
_Q_X, _Q_W = np.polynomial.legendre.leggauss(64)


def _simpson(y, x):
    """Composite Simpson rule over an odd count of equally spaced points."""
    w = np.ones(len(x))
    w[1:-1:2], w[2:-1:2] = 4.0, 2.0
    return float((x[-1] - x[0]) / (3.0 * (len(x) - 1)) * (w @ y))


def law_moments(law, initial):
    """(mean, variance) of P = expit(logit(P0) + K), P0 ~ ``initial`` and
    K ~ ``law``: E[P^k] = int f0(q) E_K[expit(logit q + K)^k] dq by 64
    Gauss-Legendre nodes in q over [p01, p02] times ``law_rule``."""
    a, b = initial.p01, initial.p02
    q = a + (b - a) * (_Q_X + 1.0) / 2.0
    k, wk = law_rule(law)
    x = expit(logit(q)[:, None] + k)
    wq = initial.pdf(q) * _Q_W * (b - a) / 2.0
    mean = float(wq @ x @ wk)
    return mean, max(float(wq @ (x * x) @ wk) - mean * mean, 0.0)


def moments_n(problem: Problem, t):
    """(mean, variance) of the order-N solution at time t."""
    return law_moments(k_law(problem, t), problem.initial)


# ---------------------------------------------------------------------------
# density error measures (functions of t)


def _pdf_error(problem: Problem, t, other):
    """Simpson integral over [0,1] of |other - f1n|, endpoint densities 0."""
    p_full = np.linspace(0.0, 1.0, ERROR_P_POINTS)
    inner = p_full[1:-1]
    f_n = f1n_collapsed(problem, inner, t)
    f_ref = other(inner, t)
    diff = np.zeros(ERROR_P_POINTS)
    diff[1:-1] = np.abs(f_ref - f_n)
    return _simpson(diff, p_full)


def _exact_reference(problem: Problem, exact):
    if exact is not None:
        return exact
    if problem.process.kind != "wiener":
        raise ValueError(
            "no exact reference density for this model; pass one explicitly")
    T = problem.process.params["T"]
    initial = problem.initial
    return lambda p, t: f1_exact_wiener(initial, p, t, T)


def e_pdf_exact(problem: Problem, t, exact=None):
    """L1 distance in p between the order-N density and a reference density
    at time t.  ``exact`` is a callable (p_array, t) -> densities; by default
    the closed-form Wiener reference is used (other models have none)."""
    return _pdf_error(problem, t, _exact_reference(problem, exact))


def e_pdf_consecutive(problem: Problem, t, N=None):
    """L1 distance in p between orders N and N-1 at time t (N defaults to
    the problem's own order; must be >= 2)."""
    N = problem.N if N is None else int(N)
    if N < 2:
        raise ValueError("consecutive error needs N >= 2")
    prob_hi = replace(problem, N=N)
    prob_lo = replace(problem, N=N - 1)
    return _pdf_error(prob_hi, t,
                      lambda p, tt: f1n_collapsed(prob_lo, p, tt))


# ---------------------------------------------------------------------------
# moment error measures (integrated over the whole time domain)

_CURVE_CACHE: dict = {}


def _fingerprint(problem: Problem, t_grid):
    ini = problem.initial
    return (
        problem.process.kind,
        tuple(sorted(problem.process.params.items())),
        problem.process.xi_law.kind,
        ini.kind, ini.params, ini.p01, ini.p02,
        problem.N, t_grid.tobytes(),
    )


def _curves(key, moments, t_grid):
    """Mean and variance curves of ``moments(t)`` along t_grid, memoized."""
    if key not in _CURVE_CACHE:
        _CURVE_CACHE[key] = tuple(np.array([moments(t) for t in t_grid]).T)
    return _CURVE_CACHE[key]


def _moment_curves(problem: Problem, t_grid):
    """Mean and variance of P_N along t_grid."""
    return _curves(_fingerprint(problem, t_grid),
                   lambda t: moments_n(problem, t), t_grid)


def _exact_moment_curves(problem: Problem, t_grid):
    """Mean and variance of the non-truncated Wiener solution along t_grid."""
    T = problem.process.params["T"]
    key = ("exact",) + _fingerprint(problem, t_grid)[:7] + (t_grid.tobytes(),)
    return _curves(key, lambda t: law_moments(wiener_law(t, T), problem.initial),
                   t_grid)


def _time_grid(problem: Problem):
    dom = problem.process.domain
    return np.linspace(dom.t0, dom.T, ERROR_T_POINTS)


def _pick(curves, kind):
    try:
        return curves[{"mean": 0, "variance": 1}[kind]]
    except KeyError:
        raise ValueError(f"kind must be 'mean' or 'variance', got {kind!r}") from None


def e_moment_exact(problem: Problem, kind):
    """Time-integral over the whole domain of |exact moment - order-N moment|
    (kind: 'mean' or 'variance'); needs the Wiener reference density."""
    if problem.process.kind != "wiener":
        raise ValueError(
            "no exact moment reference for this model; use the consecutive measure")
    t_grid = _time_grid(problem)
    approx = _pick(_moment_curves(problem, t_grid), kind)
    ref = _pick(_exact_moment_curves(problem, t_grid), kind)
    return _simpson(np.abs(ref - approx), t_grid)


def e_moment_consecutive(problem: Problem, kind, N=None):
    """Time-integral of the |difference| between the order-N and order-(N-1)
    moment curves (kind: 'mean' or 'variance'); N defaults to the problem's
    order and must be >= 2.  The integration range is the model's own time
    domain."""
    N = problem.N if N is None else int(N)
    if N < 2:
        raise ValueError("consecutive error needs N >= 2")
    t_grid = _time_grid(problem)
    hi = _pick(_moment_curves(replace(problem, N=N), t_grid), kind)
    lo = _pick(_moment_curves(replace(problem, N=N - 1), t_grid), kind)
    return _simpson(np.abs(hi - lo), t_grid)
