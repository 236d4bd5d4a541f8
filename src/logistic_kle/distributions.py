"""Initial-condition laws and coordinate laws.

The initial proportion P0 lives on a truncated support [p01, p02] inside
(0,1); two families are supported, a truncated Beta and a truncated
exponential.  The Karhunen-Loeve coordinates xi_j follow either a standard
Gaussian or the symmetric uniform on (-sqrt(3), sqrt(3)) -- both mean 0,
variance 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np
from scipy.special import beta as beta_fn, betainc, betaincc, betaln, ndtri

__all__ = [
    "InitialLaw",
    "XiLaw",
    "truncated_beta",
    "truncated_exponential",
    "STANDARD_GAUSSIAN",
    "UNIFORM_SYM",
]

_SQRT3 = np.sqrt(3.0)
_TINY = np.finfo(float).tiny

# Beta inverse CDF: a table of the CDF at _PPF_TABLE points of the support,
# a guide of _PPF_GUIDE equal cells of u into it (a power of 2, so u times
# it is exact), and on each interval a quintic Hermite polynomial of y(u).
# An interval is certified when one Halley step from its polynomial moves y
# by at most _PPF_CERTIFIED relative at each of _PPF_CHECKS; its draws take
# the polynomial.  The other draws take Halley steps from it: a draw whose
# step had |delta * dlog| (Newton step times the kernel's log-derivative)
# of at least _PPF_SETTLED steps again, at most _PPF_MORE_STEPS more times;
# below that bound the cubic convergence leaves an error under 1e-10 of the
# step.
_PPF_TABLE = 2049
_PPF_GUIDE = 1 << 14
_PPF_CERTIFIED = 1e-14
_PPF_CHECKS = (0.25, 0.5, 0.75)
_PPF_SETTLED = 1e-5
_PPF_MORE_STEPS = 3

# A Beta support whose untruncated upper-tail mass 1 - I(p01) is below this
# is handled in the mirrored variable y = 1 - p: in p, I(p02) - I(p01)
# would lose more than three digits to cancellation.
_MIRROR_TAIL = 1e-3


class _BetaFrame(NamedTuple):
    """A truncated Beta(a, b) law in the variable y = p, or y = 1 - p when
    the support lies in the far upper tail (``_MIRROR_TAIL``): y then
    follows Beta(b, a) on [1 - p02, 1 - p01].  ``i01`` and ``i02`` are the
    frame's regularized incomplete beta function I_{a,b} at the images y01,
    y02 of p01, p02, so no difference of two values near 1 is taken;
    ``j01`` and ``j02`` are their complements I_{b,a}(1 - y), evaluated
    directly, not as 1 - i."""

    a: float
    b: float
    y01: float
    y02: float
    i01: float
    i02: float
    j01: float
    j02: float
    mirrored: bool

    def levels(self, u):
        """The equation y solves for each u: I_{a,b}(y) = level, or
        I_{b,a}(1 - y) = level where ``upper`` (target above 1/2), so that
        the upper tail keeps its digits.  The target is formed from the
        nearer end of the support, i01 + u m below u = 1/2 and
        i02 - (1 - u) m above it, where 1 - u is exact, with m = i02 - i01;
        its complement likewise from j01 or j02."""
        m = self.i02 - self.i01
        high = u > 0.5
        v = np.where(high, 1.0 - u, u)
        target = np.where(high, self.i02 - v * m, self.i01 + v * m)
        upper = target > 0.5
        rest = np.where(high, self.j02 + v * m, self.j01 - v * m)
        return np.where(upper, rest, target), upper


def _beta_frame(a, b, p01, p02):
    mirrored = betainc(a, b, p01) > 1.0 - _MIRROR_TAIL
    if mirrored:
        a, b, p01, p02 = b, a, 1.0 - p01, 1.0 - p02
    return _BetaFrame(a, b, p01, p02, betainc(a, b, p01), betainc(a, b, p02),
                      betaincc(a, b, p01), betaincc(a, b, p02), mirrored)


def _halley(y, level, upper, a, b, scale):
    """One Halley step on I_{a,b}(y) = level, or on the complement
    I_{b,a}(1 - y) = level where ``upper``, so that the upper tail keeps its
    digits.  The derivative is the kernel over ``scale`` = B(a, b).  Returns
    the new y and |delta * dlog| of the step.

    Where the kernel is not a positive normal float (it underflows in the
    far tails of a Beta law with large a and b) the step is taken on
    log I = log level instead, with the kernel in logs; such a step that is
    not finite (I or level 0) leaves y where it is."""
    w = 1.0 - y
    i = betainc(np.where(upper, b, a), np.where(upper, a, b),
                np.where(upper, w, y))
    resid = np.where(upper, level - i, i - level)
    kernel = y ** (a - 1.0) * w ** (b - 1.0)
    dlog = (a - 1.0) / y - (b - 1.0) / w
    odd = np.flatnonzero(~((kernel >= _TINY) & (kernel < np.inf)))
    kernel[odd] = 1.0
    delta = resid * scale / kernel
    h = delta * dlog
    step = delta / (1.0 - 0.5 * h)
    if odd.size:
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            io = i[odd]
            gap = np.log(io) - np.log(level[odd])
            # d is the Newton step on the log, gap over
            # d(log I)/dy = kernel / (B I); h is its Halley correction
            log_b_over_kernel = (betaln(a, b) - (a - 1.0) * np.log(y[odd])
                                 - (b - 1.0) * np.log(w[odd]))
            d = (np.where(upper[odd], -gap, gap)
                 * np.exp(np.log(io) + log_b_over_kernel))
            h[odd] = d * dlog[odd] - gap
            step[odd] = d / (1.0 - 0.5 * h[odd])
        stuck = odd[~(np.isfinite(step[odd]) & np.isfinite(h[odd]))]
        step[stuck] = 0.0
        h[stuck] = 0.0
    return y - step, np.abs(h)


def _quintic(y0, y1, d0, d1, e0, e1):
    """Coefficients, constant term first, of the quintic in s on [0, 1]
    with values y, first derivatives d and second derivatives e at s = 0
    and s = 1: one column per interval."""
    r0 = y1 - y0 - d0 - 0.5 * e0
    r1 = d1 - d0 - e0
    r2 = e1 - e0
    return np.array([y0, d0, 0.5 * e0, 10.0 * r0 - 4.0 * r1 + 0.5 * r2,
                     -15.0 * r0 + 7.0 * r1 - r2, 6.0 * r0 - 3.0 * r1 + 0.5 * r2])


def _horner(coef, j, s):
    """The polynomial of interval j at local s, pointwise, by Horner's rule;
    one row of coefficients is gathered at a time, so the temporaries stay
    the size of s."""
    y = coef[-1][j]
    for row in coef[-2::-1]:
        y *= s
        y += row[j]
    return y


class _PpfTables(NamedTuple):
    """Points ``y`` of the frame's support with the CDF ``c`` at each; for
    each interval the reciprocal ``inv`` of its CDF step (0 where the CDF
    is flat in double precision), the coefficients ``coef`` of its
    polynomial of y(u) (one row per power of the local variable s, constant
    first) and whether it is ``certified``; and for each cell of u the
    interval holding its left end (``guide``) and whether its right end
    lies two or more intervals further (``crowded``)."""

    y: np.ndarray
    c: np.ndarray
    inv: np.ndarray
    coef: np.ndarray
    certified: np.ndarray
    guide: np.ndarray
    crowded: np.ndarray


@dataclass(frozen=True)
class InitialLaw:
    """Absolutely continuous law of P0, truncated and renormalized to
    [p01, p02] with 0 < p01 < p02 < 1.

    ``kind`` is ``"beta"`` (params = (alpha, beta)) or ``"exponential"``
    (params = (lam,)).  ``norm_const`` is the integral of the un-normalized
    kernel over the truncated support.
    """

    kind: str
    params: tuple
    p01: float
    p02: float
    norm_const: float = field(repr=False)

    def _kernel(self, p):
        if self.kind == "beta":
            a, b = self.params
            return p ** (a - 1.0) * (1.0 - p) ** (b - 1.0)
        lam, = self.params
        return lam * np.exp(-lam * p)

    @cached_property
    def _frame(self):
        return _beta_frame(*self.params, self.p01, self.p02)

    def pdf(self, p):
        """Density at ``p`` (scalar or array); zero outside [p01, p02]."""
        p = np.asarray(p, dtype=float)
        inside = (p >= self.p01) & (p <= self.p02)
        safe = np.where(inside, p, 0.5 * (self.p01 + self.p02))
        vals = self._kernel(safe) / self.norm_const
        out = np.where(inside, vals, 0.0)
        return out if out.ndim else float(out)

    def cdf(self, p):
        """P[P0 <= p], vectorized; both kinds have closed forms (the Beta
        one through the regularized incomplete beta function, taken in the
        mirrored variable 1 - p for a support in the far upper tail)."""
        p = np.asarray(p, dtype=float)
        x = np.clip(p, self.p01, self.p02)
        if self.kind == "exponential":
            lam, = self.params
            c = (np.exp(-lam * self.p01) - np.exp(-lam * x)) / self.norm_const
        else:
            f = self._frame
            y = 1.0 - x if f.mirrored else x
            c = (betainc(f.a, f.b, y) - f.i01) / (f.i02 - f.i01)
        c = np.clip(c, 0.0, 1.0)
        return c if c.ndim else float(c)

    def ppf(self, u):
        """Inverse CDF, vectorized over ``u``.

        The exponential kind has a closed form.  The Beta kind solves
        I(y) = I(y01) + u (I(y02) - I(y01)) for the regularized incomplete
        beta function I, in the law's variable y (p, or 1 - p for a support
        in the far upper tail).  A guide of equal cells of u finds each
        draw's interval of a CDF table over the support in O(1), and the
        interval's quintic polynomial of y(u) gives the draw.  A draw in an
        interval whose polynomial was certified against I when the tables
        were built (99.8 % of the presets' law) evaluates no I at all.  A
        draw in any other interval takes Halley steps from the polynomial,
        clipped to its interval: one, and a few more only while the step is
        still large.  Where the target exceeds 1/2 the steps solve the
        complement I_{b,a}(1 - y) = 1 - target instead, so that the upper
        tail keeps its digits; both are formed from the nearer end of the
        support (``_BetaFrame.levels``).  The tables are built on the first
        Beta call, once per law."""
        u = np.asarray(u, dtype=float)
        scalar = u.ndim == 0
        if np.any((u <= 0.0) | (u >= 1.0)):
            raise ValueError("u must lie strictly inside (0, 1)")
        if self.kind == "exponential":
            lam, = self.params
            out = -np.log(np.exp(-lam * self.p01) - u * self.norm_const) / lam
        else:
            out = self._beta_ppf(np.atleast_1d(u)).reshape(u.shape)
        out = np.clip(out, self.p01, self.p02)
        return float(out) if scalar else out

    @cached_property
    def _ppf_tables(self):
        """The Beta inverse CDF's tables.  Each interval's polynomial is
        the quintic Hermite interpolant of y at its ends, with
        dy/du = (i02 - i01) B(a, b) / kernel(y) and
        d2y/du2 = -dlog (dy/du)^2 in closed form (the linear interpolant
        where those overflow); an interval is certified only where its CDF
        step is positive."""
        f = self._frame
        y = np.linspace(f.y01, f.y02, _PPF_TABLE)
        c = (betainc(f.a, f.b, y) - f.i01) / (f.i02 - f.i01)
        dc = np.diff(c)
        scale = beta_fn(f.a, f.b)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            inv = 1.0 / dc
            d = (f.i02 - f.i01) * scale / (y ** (f.a - 1.0)
                                           * (1.0 - y) ** (f.b - 1.0))
            e = -((f.a - 1.0) / y - (f.b - 1.0) / (1.0 - y)) * d * d
            coef = _quintic(y[:-1], y[1:], d[:-1] * dc, d[1:] * dc,
                            e[:-1] * dc * dc, e[1:] * dc * dc)
            bad = ~np.isfinite(coef).all(axis=0)
            coef[:, bad] = 0.0
            coef[0, bad], coef[1, bad] = y[:-1][bad], np.diff(y)[bad]
            usable = (dc > 0.0) & np.isfinite(inv)
            inv[~usable] = 0.0
            ok = np.flatnonzero(usable)

            j = np.tile(ok, len(_PPF_CHECKS))
            s = np.repeat(_PPF_CHECKS, ok.size)
            y_s = _horner(coef, j, s)
            step = _halley(y_s, *f.levels(c[j] + s * dc[j]), f.a, f.b,
                           scale)[0] - y_s
        passed = np.abs(step) <= _PPF_CERTIFIED * np.abs(y_s)
        certified = np.zeros(dc.size, dtype=bool)
        certified[ok] = passed.reshape(len(_PPF_CHECKS), -1).all(axis=0)

        cells = np.arange(_PPF_GUIDE + 1) / _PPF_GUIDE
        ends = np.clip(np.searchsorted(c, cells, side="right") - 1,
                       0, _PPF_TABLE - 2)
        return _PpfTables(y, c, inv, coef, certified, ends[:-1],
                          np.diff(ends) > 1)

    def _beta_ppf(self, u):
        f = self._frame
        t = self._ppf_tables
        cell = (u * _PPF_GUIDE).astype(np.intp)
        j = t.guide[cell]
        j += u >= t.c[j + 1]
        far = t.crowded[cell]
        if far.any():
            j[far] = np.searchsorted(t.c, u[far], side="right") - 1
        y = _horner(t.coef, j, (u - t.c[j]) * t.inv[j])

        slow = np.flatnonzero(~t.certified[j])
        if slow.size:
            y[slow] = self._beta_solve(y[slow], u[slow], j[slow])
        return 1.0 - y if f.mirrored else y

    def _beta_solve(self, y, u, j):
        """Halley steps for draws in uncertified intervals, from their
        polynomial clipped to the interval."""
        f = self._frame
        grid = self._ppf_tables.y
        y = np.clip(y, np.minimum(grid[j], grid[j + 1]),
                    np.maximum(grid[j], grid[j + 1]))
        level, upper = f.levels(u)
        lo, hi = sorted((f.y01, f.y02))
        # a target rounded to 0 or 1 has its root at 0 or 1, beyond the
        # support, where a flat table gives no start that converges
        zero = np.flatnonzero(level == 0.0)
        y[zero] = np.where(upper[zero], hi, lo)
        # the kernel, not self.pdf: ppf evaluates no density points
        shape = (f.a, f.b, beta_fn(f.a, f.b))
        y, h = _halley(y, level, upper, *shape)
        np.clip(y, lo, hi, out=y)
        todo = np.flatnonzero(h >= _PPF_SETTLED)
        for _ in range(_PPF_MORE_STEPS):
            if not todo.size:
                break
            y_todo, h = _halley(y[todo], level[todo], upper[todo], *shape)
            y[todo] = np.clip(y_todo, lo, hi)
            todo = todo[h >= _PPF_SETTLED]
        return y

    def moments(self):
        """(mean, variance) in closed form: incomplete-beta ratios for the
        Beta kind, integration by parts for the exponential one."""
        if self.kind == "exponential":
            lam, = self.params
            e01, e02 = np.exp(-lam * self.p01), np.exp(-lam * self.p02)
            edge = lambda k: ((self.p01 ** k * e01 - self.p02 ** k * e02)
                              / self.norm_const)
            m1 = edge(1) + 1.0 / lam
            m2 = edge(2) + 2.0 * m1 / lam
        else:
            f = self._frame
            a, b = f.a, f.b
            mass = lambda s: betainc(s, b, f.y02) - betainc(s, b, f.y01)
            m1 = a / (a + b) * mass(a + 1.0) / mass(a)
            m2 = m1 * (a + 1.0) / (a + b + 1.0) * mass(a + 2.0) / mass(a + 1.0)
            # moments of y: the mean of p is 1 - m1 where y = 1 - p, the
            # variance is the same
            return float(1.0 - m1 if f.mirrored else m1), float(m2 - m1 * m1)
        return float(m1), float(m2 - m1 * m1)


def _check_support(p01, p02):
    if not (0.0 < p01 < p02 < 1.0):
        raise ValueError(f"support [{p01}, {p02}] must satisfy 0 < p01 < p02 < 1")


def truncated_beta(alpha, beta, p01=0.1, p02=0.9):
    """Beta(alpha, beta) kernel truncated and renormalized to [p01, p02].

    The normalization constant, the integral of the un-normalized kernel
    over [p01, p02], is B(alpha, beta) times the difference of the
    regularized incomplete beta function at the two ends, taken in the
    mirrored variable 1 - p for a support in the far upper tail.
    """
    if not (0.0 < alpha < np.inf and 0.0 < beta < np.inf):
        raise ValueError("alpha and beta must be positive and finite")
    _check_support(p01, p02)
    f = _beta_frame(alpha, beta, p01, p02)
    norm = float(beta_fn(alpha, beta) * abs(f.i02 - f.i01))
    return InitialLaw("beta", (float(alpha), float(beta)), float(p01), float(p02), norm)


def truncated_exponential(lam, p01=0.1, p02=0.9):
    """Exponential(rate lam) truncated and renormalized to [p01, p02]."""
    if not 0.0 < lam < np.inf:
        raise ValueError("rate lam must be positive and finite")
    _check_support(p01, p02)
    norm = np.exp(-lam * p01) - np.exp(-lam * p02)
    return InitialLaw("exponential", (float(lam),), float(p01), float(p02), norm)


@dataclass(frozen=True)
class XiLaw:
    """Law of one KLE coordinate: 'gaussian' (standard normal) or 'uniform'
    (uniform on (-sqrt(3), sqrt(3)))."""

    kind: str

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        if self.kind == "gaussian":
            out = np.exp(-0.5 * x * x) / np.sqrt(2.0 * np.pi)
        else:
            out = np.where(np.abs(x) < _SQRT3, 1.0 / (2.0 * _SQRT3), 0.0)
        return out if out.ndim else float(out)

    def from_uniform(self, u):
        """Map U(0,1) deviates to this law (deterministic transform)."""
        if self.kind == "gaussian":
            return ndtri(u)
        return _SQRT3 * (2.0 * np.asarray(u) - 1.0)


STANDARD_GAUSSIAN = XiLaw("gaussian")
UNIFORM_SYM = XiLaw("uniform")

