"""Karhunen-Loeve ingredients for the supported growth-coefficient processes.

Three covariance models are provided: the Wiener process on [0, T], the
Brownian bridge on [0, 1], and the stationary exponential kernel
exp(-c|s-t|) on a symmetric interval [-a, a].  Each model exposes closed-form
eigenpairs (the exponential kernel goes through a transcendental root solve),
the primitive integrals

    H_j(t) = sqrt(nu_j) * int_{t0}^{t} phi_j(s) ds,

and the exact law parameters of K_N(t) = m(t) + sum_j H_j(t) xi_j, the
time-integral of the truncated coefficient.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

from .distributions import STANDARD_GAUSSIAN, UNIFORM_SYM

__all__ = [
    "TimeDomain",
    "EigenPair",
    "KleProcess",
    "wiener_eigenpair",
    "bridge_eigenpair",
    "expcov_roots",
    "expcov_eigenpair",
    "primitive_h",
    "kn_sigma",
]


@dataclass(frozen=True)
class TimeDomain:
    t0: float
    T: float

    def __post_init__(self):
        if not self.t0 < self.T:
            raise ValueError(f"empty time domain [{self.t0}, {self.T}]")

    def contains(self, t):
        return self.t0 - 1e-12 <= t <= self.T + 1e-12

    def require(self, t):
        if not self.contains(t):
            raise ValueError(f"time {t} outside domain [{self.t0}, {self.T}]")


@dataclass(frozen=True)
class EigenPair:
    """One eigenvalue/eigenfunction pair.

    The eigenfunction is trig(frequency * t) / norm_const with trig given by
    ``shape`` ('sin' or 'cos'); ``parity`` is set for the exponential kernel
    ('odd' = cosine branch, 'even' = sine branch).
    """

    index: int
    value: float
    frequency: float
    norm_const: float
    shape: str
    parity: str | None = None

    def phi(self, t):
        t = np.asarray(t, dtype=float)
        trig = np.cos if self.shape == "cos" else np.sin
        out = trig(self.frequency * t) / self.norm_const
        return out if out.ndim else float(out)


def wiener_eigenpair(j, T):
    """Eigenpair j (1-based) of the Wiener covariance min(s,t) on [0, T]."""
    if j < 1:
        raise ValueError("index j must be >= 1")
    if T <= 0:
        raise ValueError("T must be positive")
    w = (2 * j - 1) * np.pi / (2.0 * T)
    nu = 4.0 * T * T / ((2 * j - 1) ** 2 * np.pi ** 2)
    return EigenPair(j, nu, w, np.sqrt(T / 2.0), "sin")


def bridge_eigenpair(j):
    """Eigenpair j of the Brownian-bridge covariance min(s,t) - st on [0, 1]."""
    if j < 1:
        raise ValueError("index j must be >= 1")
    return EigenPair(j, 1.0 / (np.pi * j) ** 2, j * np.pi, 1.0 / np.sqrt(2.0), "sin")


# ---------------------------------------------------------------------------
# exponential covariance exp(-c|s-t|) on [-a, a]


def _odd_eq(w, c, a):
    return c - w * np.tan(w * a)


def _even_eq(w, c, a):
    return w + c * np.tan(w * a)


def expcov_roots(c, a, count):
    """First ``count`` roots of each parity branch, interleaved.

    Odd branch: c - w tan(wa) = 0, k-th root in ((k-1)pi/a, (2k-1)pi/(2a));
    even branch: w + c tan(wa) = 0, k-th root in ((2k-1)pi/(2a), k pi/a).
    Each interval between consecutive tangent poles holds exactly one root,
    which Brent's method brackets and solves to 1e-15.
    Returns [('odd', w1), ('even', w1*), ('odd', w2), ...].
    """
    if c <= 0 or a <= 0 or count < 1:
        raise ValueError("need c > 0, a > 0, count >= 1")
    eps = 1e-9
    out = []
    for k in range(1, count + 1):
        w = brentq(_odd_eq, (k - 1) * np.pi / a + eps,
                   (2 * k - 1) * np.pi / (2 * a) - eps, args=(c, a), xtol=1e-15)
        ws = brentq(_even_eq, (2 * k - 1) * np.pi / (2 * a) + eps,
                    k * np.pi / a - eps, args=(c, a), xtol=1e-15)
        out.append(("odd", w))
        out.append(("even", ws))
    return out


def expcov_eigenpair(parity_index, c, a):
    """Eigenpair at interleaved position ``parity_index`` (1-based:
    odd_1, even_1, odd_2, even_2, ...) for the kernel exp(-c|s-t|) on [-a,a]."""
    if parity_index < 1:
        raise ValueError("index must be >= 1")
    roots = expcov_roots(c, a, (parity_index + 1) // 2)
    parity, w = roots[parity_index - 1]
    nu = 2.0 * c / (w * w + c * c)
    if parity == "odd":
        norm = np.sqrt(a + np.sin(2 * w * a) / (2 * w))
        shape = "cos"
    else:
        norm = np.sqrt(a - np.sin(2 * w * a) / (2 * w))
        shape = "sin"
    return EigenPair(parity_index, nu, w, norm, shape, parity)


class KleProcess:
    """A covariance model plus the law of its KLE coordinates.

    Use the factory constructors ``wiener``, ``brownian_bridge`` and
    ``exponential_cov``.  Eigenpairs are 1-based and cached; the exponential
    model interleaves the two parity branches (odd_1, even_1, odd_2, ...).
    """

    def __init__(self, kind, domain, params, xi_law):
        self.kind = kind
        self.domain = domain
        self.params = dict(params)
        self.xi_law = xi_law
        self._pairs: dict[int, EigenPair] = {}

    @classmethod
    def wiener(cls, T=1.5):
        return cls("wiener", TimeDomain(0.0, float(T)), {"T": float(T)},
                   STANDARD_GAUSSIAN)

    @classmethod
    def brownian_bridge(cls):
        return cls("bridge", TimeDomain(0.0, 1.0), {}, STANDARD_GAUSSIAN)

    @classmethod
    def exponential_cov(cls, c=1.0, a=0.5):
        if c <= 0 or a <= 0:
            raise ValueError("need c > 0 and a > 0")
        return cls("expcov", TimeDomain(-float(a), float(a)),
                   {"c": float(c), "a": float(a)}, UNIFORM_SYM)

    def __repr__(self):
        return f"KleProcess({self.kind}, {self.params})"

    def eigenpair(self, j) -> EigenPair:
        if j not in self._pairs:
            if self.kind == "wiener":
                pair = wiener_eigenpair(j, self.params["T"])
            elif self.kind == "bridge":
                pair = bridge_eigenpair(j)
            else:
                pair = expcov_eigenpair(j, self.params["c"], self.params["a"])
                prev = self._pairs.get(j - 1)
                if prev is not None and pair.value > prev.value:
                    warnings.warn(
                        "interleaved eigenvalue sequence is not descending "
                        f"at index {j}", stacklevel=2)
            self._pairs[j] = pair
        return self._pairs[j]

    def mean_primitive(self, t):
        """m(t) = integral of the mean function from t0 to t.

        All supported models are centered, so this is identically zero; it is
        carried through so a nonzero mean would only touch this method.
        """
        self.domain.require(t)
        return 0.0


def primitive_h(process: KleProcess, j, t):
    """H_j(t) = sqrt(nu_j) * int_{t0}^{t} phi_j(s) ds, in closed form.

    For a sine eigenfunction the primitive is (cos(w t0) - cos(w t)) / w and
    for a cosine one (sin(w t) - sin(w t0)) / w, each divided by the
    normalization constant and scaled by sqrt(nu_j).
    """
    process.domain.require(t)
    pair = process.eigenpair(j)
    w, t0 = pair.frequency, process.domain.t0
    if pair.shape == "sin":
        integral = (np.cos(w * t0) - np.cos(w * t)) / w
    else:
        integral = (np.sin(w * t) - np.sin(w * t0)) / w
    return np.sqrt(pair.value) * integral / pair.norm_const


def kn_sigma(process: KleProcess, t, N):
    """Exact (mean, std) of K_N(t) = m(t) + sum_{j<=N} H_j(t) xi_j.

    Valid for any unit-variance uncorrelated coordinate law: the standard
    deviation is sqrt(sum_j H_j(t)^2).
    """
    if N < 1:
        raise ValueError("truncation order N must be >= 1")
    process.domain.require(t)
    s2 = 0.0
    for j in range(1, N + 1):
        h = primitive_h(process, j, t)
        s2 += h * h
    return process.mean_primitive(t), float(np.sqrt(s2))
