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
from scipy.special import (beta as beta_fn, betainc, betaincc, betainccinv,
                           betaincinv, betaln, ndtri)

__all__ = [
    "InitialLaw",
    "XiLaw",
    "truncated_beta",
    "truncated_exponential",
    "STANDARD_GAUSSIAN",
    "UNIFORM_SYM",
]

_SQRT3 = np.sqrt(3.0)

# Beta inverse CDF: a table of the CDF at _PPF_TABLE points of the support,
# a guide of _PPF_GUIDE equal cells of u into it (a power of 2, so u times
# it is exact), and on each interval a quintic Hermite polynomial of y(u).
# An interval is certified when the Newton step from its polynomial,
# |I(y) - level| B(a, b) / kernel(y), is at most _PPF_CERTIFIED relative to
# y at each of _PPF_CHECKS; its draws take the polynomial.  The other draws
# take scipy's inverse of I (``_BetaFrame.inverse``).
_PPF_TABLE = 4097
_PPF_GUIDE = 1 << 14
_PPF_CERTIFIED = 1e-14
_PPF_CHECKS = (0.25, 0.5, 0.75)

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

    def inverse(self, u):
        """The root y of ``levels`` at each u, by scipy's ``betaincinv``,
        or ``betainccinv`` where the level is an upper-tail mass."""
        level, upper = self.levels(u)
        y = np.empty_like(level)
        y[~upper] = betaincinv(self.a, self.b, level[~upper])
        y[upper] = betainccinv(self.a, self.b, level[upper])
        return y


def _beta_frame(a, b, p01, p02):
    mirrored = betainc(a, b, p01) > 1.0 - _MIRROR_TAIL
    if mirrored:
        a, b, p01, p02 = b, a, 1.0 - p01, 1.0 - p02
    return _BetaFrame(a, b, p01, p02, betainc(a, b, p01), betainc(a, b, p02),
                      betaincc(a, b, p01), betaincc(a, b, p02), mirrored)


def _log_b_over_kernel(a, b, y):
    """log(B(a, b) / kernel(y)) for the Beta kernel y^(a-1) (1-y)^(b-1):
    finite where the kernel and B(a, b) underflow."""
    return betaln(a, b) - (a - 1.0) * np.log(y) - (b - 1.0) * np.log1p(-y)


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
    """The CDF ``c`` at equally spaced points of the frame's support; for
    each interval the reciprocal ``inv`` of its CDF step (0 where the CDF
    is flat in double precision), the coefficients ``coef`` of its
    polynomial of y(u) (one row per power of the local variable s, constant
    first) and whether it is ``certified``; and for each cell of u the
    interval holding its left end (``guide``) and whether its right end
    lies two or more intervals further (``crowded``)."""

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
    kernel over the truncated support; a law whose ``norm_const`` is not a
    positive normal double is refused, since its density would be NaN or
    carry few digits.
    """

    kind: str
    params: tuple
    p01: float
    p02: float
    norm_const: float = field(repr=False)

    def __post_init__(self):
        if not np.finfo(float).tiny <= self.norm_const < np.inf:
            raise ValueError(
                f"{self.kind} law on [{self.p01}, {self.p02}] has normalization "
                f"constant {self.norm_const:.3g}, not a positive normal double")

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
        were built (99.98 % of the presets' law) evaluates no I at all.
        Every other draw is scipy's ``betaincinv``, or ``betainccinv`` where
        the target exceeds 1/2, so that the upper tail keeps its digits;
        both targets are formed from the nearer end of the support
        (``_BetaFrame.levels``).  The tables are built on the first Beta
        call, once per law."""
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
        dy/du = (i02 - i01) B(a, b) / kernel(y) (the ratio taken in logs)
        and d2y/du2 = -dlog (dy/du)^2 in closed form.  An interval is
        certified only where its CDF step is positive; the others keep a
        zero polynomial, since their draws take ``_BetaFrame.inverse``."""
        f = self._frame
        a, b = f.a, f.b
        y = np.linspace(f.y01, f.y02, _PPF_TABLE)
        c = (betainc(a, b, y) - f.i01) / (f.i02 - f.i01)
        dc = np.diff(c)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            inv = 1.0 / dc
            d = (f.i02 - f.i01) * np.exp(_log_b_over_kernel(a, b, y))
            e = -((a - 1.0) / y - (b - 1.0) / (1.0 - y)) * d * d
            coef = _quintic(y[:-1], y[1:], d[:-1] * dc, d[1:] * dc,
                            e[:-1] * dc * dc, e[1:] * dc * dc)
            usable = (dc > 0.0) & np.isfinite(inv)
            inv[~usable] = 0.0
            ok = np.flatnonzero(usable)

            j = np.tile(ok, len(_PPF_CHECKS))
            s = np.repeat(_PPF_CHECKS, ok.size)
            y_s = _horner(coef, j, s)
            level, upper = f.levels(c[j] + s * dc[j])
            # the complement I_{b,a}(1 - y) where the level is an upper-tail
            # mass: betainc with swapped arguments, much faster than betaincc
            i = betainc(np.where(upper, b, a), np.where(upper, a, b),
                        np.where(upper, 1.0 - y_s, y_s))
            step = np.abs(i - level) * np.exp(_log_b_over_kernel(a, b, y_s))
            passed = step <= _PPF_CERTIFIED * np.abs(y_s)
        certified = np.zeros(dc.size, dtype=bool)
        certified[ok] = passed.reshape(len(_PPF_CHECKS), -1).all(axis=0)
        coef[:, ~certified] = 0.0

        cells = np.arange(_PPF_GUIDE + 1) / _PPF_GUIDE
        ends = np.clip(np.searchsorted(c, cells, side="right") - 1,
                       0, _PPF_TABLE - 2)
        return _PpfTables(c, inv, coef, certified, ends[:-1],
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

        slow = ~t.certified[j]
        y[slow] = f.inverse(u[slow])
        return 1.0 - y if f.mirrored else y

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

