"""Initial-condition laws and coordinate laws.

The initial proportion P0 lives on a truncated support [p01, p02] inside
(0,1); two families are supported, a truncated Beta and a truncated
exponential.  The Karhunen-Loeve coordinates xi_j follow either a standard
Gaussian or the symmetric uniform on (-sqrt(3), sqrt(3)) -- both mean 0,
variance 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.special import beta as beta_fn, betainc, betaincinv, ndtri

__all__ = [
    "InitialLaw",
    "XiLaw",
    "truncated_beta",
    "truncated_exponential",
    "STANDARD_GAUSSIAN",
    "UNIFORM_SYM",
]

_SQRT3 = np.sqrt(3.0)


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
        one through the regularized incomplete beta function)."""
        p = np.asarray(p, dtype=float)
        x = np.clip(p, self.p01, self.p02)
        if self.kind == "exponential":
            lam, = self.params
            c = (np.exp(-lam * self.p01) - np.exp(-lam * x)) / self.norm_const
        else:
            a, b = self.params
            i01 = betainc(a, b, self.p01)
            c = (betainc(a, b, x) - i01) / (betainc(a, b, self.p02) - i01)
        c = np.clip(c, 0.0, 1.0)
        return c if c.ndim else float(c)

    def ppf(self, u):
        """Inverse CDF, vectorized over ``u`` (closed form for both kinds)."""
        u = np.asarray(u, dtype=float)
        scalar = u.ndim == 0
        if np.any((u <= 0.0) | (u >= 1.0)):
            raise ValueError("u must lie strictly inside (0, 1)")
        if self.kind == "exponential":
            lam, = self.params
            out = -np.log(np.exp(-lam * self.p01) - u * self.norm_const) / lam
        else:
            a, b = self.params
            i01 = betainc(a, b, self.p01)
            i02 = betainc(a, b, self.p02)
            out = betaincinv(a, b, i01 + u * (i02 - i01))
        out = np.clip(out, self.p01, self.p02)
        return float(out) if scalar else out

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
            a, b = self.params
            mass = lambda s: betainc(s, b, self.p02) - betainc(s, b, self.p01)
            m1 = a / (a + b) * mass(a + 1.0) / mass(a)
            m2 = m1 * (a + 1.0) / (a + b + 1.0) * mass(a + 2.0) / mass(a + 1.0)
        return float(m1), float(m2 - m1 * m1)


def _check_support(p01, p02):
    if not (0.0 < p01 < p02 < 1.0):
        raise ValueError(f"support [{p01}, {p02}] must satisfy 0 < p01 < p02 < 1")


def truncated_beta(alpha, beta, p01=0.1, p02=0.9):
    """Beta(alpha, beta) kernel truncated and renormalized to [p01, p02].

    The normalization constant, the integral of the un-normalized kernel
    over [p01, p02], is B(alpha, beta) times the difference of the
    regularized incomplete beta function at the two ends.
    """
    if alpha <= 0 or beta <= 0:
        raise ValueError("alpha and beta must be positive")
    _check_support(p01, p02)
    norm = float(beta_fn(alpha, beta)
                 * (betainc(alpha, beta, p02) - betainc(alpha, beta, p01)))
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

