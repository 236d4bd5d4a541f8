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
from scipy.special import beta as beta_fn, betainc, ndtri

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
# it is exact), then Halley steps.  A draw whose step had |delta * dlog|
# (Newton step times the kernel's log-derivative) of at least _PPF_SETTLED
# steps again, at most _PPF_MORE_STEPS more times; below that bound the
# cubic convergence leaves an error under 1e-10 of the step.
_PPF_TABLE = 2049
_PPF_GUIDE = 1 << 14
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
    y02 of p01, p02, so no difference of two values near 1 is taken."""

    a: float
    b: float
    y01: float
    y02: float
    i01: float
    i02: float
    mirrored: bool


def _beta_frame(a, b, p01, p02):
    i01 = betainc(a, b, p01)
    if i01 <= 1.0 - _MIRROR_TAIL:
        return _BetaFrame(a, b, p01, p02, i01, betainc(a, b, p02), False)
    y01, y02 = 1.0 - p01, 1.0 - p02
    return _BetaFrame(b, a, y01, y02, betainc(b, a, y01), betainc(b, a, y02),
                      True)


def _halley(y, level, upper, a, b, scale):
    """One Halley step on I_{a,b}(y) = level, or on the complement
    I_{b,a}(1 - y) = level where ``upper``, so that the upper tail keeps its
    digits.  The derivative is the kernel over ``scale`` = B(a, b).  Returns
    the new y and |delta * dlog| of the step."""
    w = 1.0 - y
    i = betainc(np.where(upper, b, a), np.where(upper, a, b),
                np.where(upper, w, y))
    resid = np.where(upper, level - i, i - level)
    delta = resid * scale / (y ** (a - 1.0) * w ** (b - 1.0))
    h = delta * ((a - 1.0) / y - (b - 1.0) / w)
    return y - delta / (1.0 - 0.5 * h), np.abs(h)


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
        draw's interval of a CDF table over the support in O(1); linear
        interpolation there starts one Halley step, and only draws whose
        step was still large step again, a few times at most.  So a draw
        costs about one evaluation of I.  Where the target exceeds 1/2 the
        steps solve the complement I_{b,a}(1 - y) = 1 - target instead, so
        that the upper tail keeps its digits.  The tables are built on the
        first Beta call, once per law."""
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
        """The frame's points y of the support with the CDF at each, the
        slope dy/du of each interval (0 where the CDF is flat in double
        precision), and for each of the guide's cells of u the interval
        holding its left end and whether its right end lies two or more
        intervals further."""
        f = self._frame
        y = np.linspace(f.y01, f.y02, _PPF_TABLE)
        c = (betainc(f.a, f.b, y) - f.i01) / (f.i02 - f.i01)
        dc = np.diff(c)
        slope = np.divide(np.diff(y), dc, out=np.zeros(dc.size), where=dc > 0)
        cells = np.arange(_PPF_GUIDE + 1) / _PPF_GUIDE
        ends = np.clip(np.searchsorted(c, cells, side="right") - 1,
                       0, _PPF_TABLE - 2)
        return y, c, slope, ends[:-1], np.diff(ends) > 1

    def _beta_ppf(self, u):
        f = self._frame
        grid, cdf, slope, guide, crowded = self._ppf_tables
        cell = (u * _PPF_GUIDE).astype(np.intp)
        j = guide[cell]
        j += u >= cdf[j + 1]
        far = crowded[cell]
        if far.any():
            j[far] = np.searchsorted(cdf, u[far], side="right") - 1
        y = grid[j] + (u - cdf[j]) * slope[j]

        target = f.i01 + u * (f.i02 - f.i01)
        upper = target > 0.5
        level = np.where(upper, 1.0 - target, target)  # exact where upper
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
    if alpha <= 0 or beta <= 0:
        raise ValueError("alpha and beta must be positive")
    _check_support(p01, p02)
    f = _beta_frame(alpha, beta, p01, p02)
    norm = float(beta_fn(alpha, beta) * abs(f.i02 - f.i01))
    return InitialLaw("beta", (float(alpha), float(beta)), float(p01), float(p02), norm)


def truncated_exponential(lam, p01=0.1, p02=0.9):
    """Exponential(rate lam) truncated and renormalized to [p01, p02]."""
    if lam <= 0:
        raise ValueError("rate lam must be positive")
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

