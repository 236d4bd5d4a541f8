"""Moments of the truncated solution and the convergence error measures.

Everything here reduces to 1-D quadrature of density evaluations on fixed
composite-Simpson grids (2001 p-points, 151 t-points by default), chosen for
reproducibility of tabulated comparisons rather than adaptivity:

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

from dataclasses import dataclass, replace

import numpy as np
from scipy.integrate import simpson

from .density import Problem, density_row, f1_exact_wiener

__all__ = [
    "ErrorReport",
    "moments_n",
    "density_moments",
    "e_pdf_exact",
    "e_pdf_consecutive",
    "e_moment_exact",
    "e_moment_consecutive",
    "MOMENT_P_POINTS",
    "ERROR_P_POINTS",
    "ERROR_T_POINTS",
]

MOMENT_P_POINTS = 2001   # Simpson grid on (0.001, 0.999) for moments
ERROR_P_POINTS = 2001    # Simpson grid on [0, 1] for density-error integrals
ERROR_T_POINTS = 151     # Simpson grid on [t0, T] for moment-error integrals


@dataclass(frozen=True)
class ErrorReport:
    """One error-measure value: which measure, at what time (None for
    time-integrated kinds), at what truncation order."""

    kind: str
    t: float | None
    N: int
    value: float

    def __post_init__(self):
        if self.value < 0:
            raise ValueError("error measures are nonnegative")


def density_moments(density, n_points=MOMENT_P_POINTS):
    """(mean, variance) of a density, given as a callable p_array -> values,
    by composite Simpson on (0.001, 0.999)."""
    p = np.linspace(0.001, 0.999, n_points)
    f = density(p)
    mean = float(simpson(p * f, x=p))
    var = max(float(simpson(p * p * f, x=p)) - mean * mean, 0.0)
    return mean, var


def moments_n(problem: Problem, t, n_points=MOMENT_P_POINTS):
    """(mean, variance) of the order-N solution at time t."""
    return density_moments(lambda p: density_row(problem, p, t), n_points)


# ---------------------------------------------------------------------------
# density error measures (functions of t)


def _pdf_error(problem: Problem, t, other, n_points):
    """Simpson integral over [0,1] of |other - f1n|, endpoint densities 0."""
    p_full = np.linspace(0.0, 1.0, n_points)
    inner = p_full[1:-1]
    f_n = density_row(problem, inner, t)
    f_ref = other(inner, t)
    diff = np.zeros(n_points)
    diff[1:-1] = np.abs(f_ref - f_n)
    return float(simpson(diff, x=p_full))


def _exact_reference(problem: Problem, exact):
    if exact is not None:
        return exact
    if problem.process.kind != "wiener":
        raise ValueError(
            "no exact reference density for this model; pass one explicitly")
    T = problem.process.params["T"]
    initial = problem.initial
    return lambda p, t: f1_exact_wiener(initial, p, t, T)


def e_pdf_exact(problem: Problem, t, exact=None, n_points=ERROR_P_POINTS):
    """L1 distance in p between the order-N density and a reference density
    at time t.  ``exact`` is a callable (p_array, t) -> densities; by default
    the closed-form Wiener reference is used (other models have none)."""
    return _pdf_error(problem, t, _exact_reference(problem, exact), n_points)


def e_pdf_consecutive(problem: Problem, t, N=None, n_points=ERROR_P_POINTS):
    """L1 distance in p between orders N and N-1 at time t (N defaults to
    the problem's own order; must be >= 2)."""
    N = problem.N if N is None else int(N)
    if N < 2:
        raise ValueError("consecutive error needs N >= 2")
    prob_hi = replace(problem, N=N)
    prob_lo = replace(problem, N=N - 1)
    return _pdf_error(prob_hi, t,
                      lambda p, tt: density_row(prob_lo, p, tt), n_points)


# ---------------------------------------------------------------------------
# moment error measures (integrated over the whole time domain)

_CURVE_CACHE: dict = {}


def _fingerprint(problem: Problem, t_grid, n_points):
    ini = problem.initial
    return (
        problem.process.kind,
        tuple(sorted(problem.process.params.items())),
        problem.process.xi_law.kind,
        ini.kind, ini.params, ini.p01, ini.p02,
        problem.N, problem.rule.order,
        n_points, t_grid.tobytes(),
    )


def _moment_curves(problem: Problem, t_grid, n_points=MOMENT_P_POINTS):
    """Mean and variance of P_N along t_grid, memoized."""
    key = _fingerprint(problem, t_grid, n_points)
    hit = _CURVE_CACHE.get(key)
    if hit is not None:
        return hit
    means = np.empty(t_grid.size)
    varis = np.empty(t_grid.size)
    for i, t in enumerate(t_grid):
        means[i], varis[i] = moments_n(problem, t, n_points)
    _CURVE_CACHE[key] = (means, varis)
    return means, varis


def _exact_moment_curves(problem: Problem, t_grid, n_points=MOMENT_P_POINTS):
    key = ("exact",) + _fingerprint(problem, t_grid, n_points)[:7] + (
        n_points, t_grid.tobytes())
    hit = _CURVE_CACHE.get(key)
    if hit is not None:
        return hit
    T = problem.process.params["T"]
    means = np.empty(t_grid.size)
    varis = np.empty(t_grid.size)
    for i, t in enumerate(t_grid):
        means[i], varis[i] = density_moments(
            lambda p: f1_exact_wiener(problem.initial, p, t, T), n_points)
    _CURVE_CACHE[key] = (means, varis)
    return means, varis


def _time_grid(problem: Problem, n_points=ERROR_T_POINTS):
    dom = problem.process.domain
    return np.linspace(dom.t0, dom.T, n_points)


def _pick(curves, kind):
    try:
        return curves[{"mean": 0, "variance": 1}[kind]]
    except KeyError:
        raise ValueError(f"kind must be 'mean' or 'variance', got {kind!r}") from None


def e_moment_exact(problem: Problem, kind, n_t=ERROR_T_POINTS):
    """Time-integral over the whole domain of |exact moment - order-N moment|
    (kind: 'mean' or 'variance'); needs the Wiener reference density."""
    if problem.process.kind != "wiener":
        raise ValueError(
            "no exact moment reference for this model; use the consecutive measure")
    t_grid = _time_grid(problem, n_t)
    approx = _pick(_moment_curves(problem, t_grid), kind)
    ref = _pick(_exact_moment_curves(problem, t_grid), kind)
    return float(simpson(np.abs(ref - approx), x=t_grid))


def e_moment_consecutive(problem: Problem, kind, N=None, n_t=ERROR_T_POINTS):
    """Time-integral of the |difference| between the order-N and order-(N-1)
    moment curves (kind: 'mean' or 'variance'); N defaults to the problem's
    order and must be >= 2.  The integration range is the model's own time
    domain."""
    N = problem.N if N is None else int(N)
    if N < 2:
        raise ValueError("consecutive error needs N >= 2")
    t_grid = _time_grid(problem, n_t)
    hi = _pick(_moment_curves(replace(problem, N=N), t_grid), kind)
    lo = _pick(_moment_curves(replace(problem, N=N - 1), t_grid), kind)
    return float(simpson(np.abs(hi - lo), x=t_grid))
