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


def expcov_roots(c, a, count):
    """First ``count`` roots of each parity branch, interleaved.

    Odd branch: c - w tan(wa) = 0, k-th root in ((k-1)pi/a, (2k-1)pi/(2a));
    even branch: w + c tan(wa) = 0, k-th root in ((2k-1)pi/(2a), k pi/a).
    Free of tangent poles, both read wa = (m-1)pi/2 + arctan(c/w) for the
    m-th root overall (m odd: odd branch).  The difference of the two sides
    is increasing and concave in w, so Newton's method started at each
    interval's left end climbs monotonically to the root; all 2*count roots
    are iterated together, each until its step is within a few ulps.
    Returns [('odd', w1), ('even', w1*), ('odd', w2), ...].
    """
    if c <= 0 or a <= 0 or count < 1:
        raise ValueError("need c > 0, a > 0, count >= 1")
    base = np.arange(2 * count) * (0.5 * np.pi)
    w, live = base / a, np.arange(base.size)
    for _ in range(100):    # quadratic convergence: a handful of steps
        if not live.size:
            break
        wl = w[live]
        step = (wl * a - base[live] - np.arctan2(c, wl)) / (a + c / (wl * wl + c * c))
        w[live] = wl - step
        live = live[np.abs(step) > 4.0 * np.finfo(float).eps * w[live]]
    return [("even" if m % 2 else "odd", float(x)) for m, x in enumerate(w)]


def _expcov_pair(parity_index, parity, w, c, a):
    sign = 1.0 if parity == "odd" else -1.0     # cosine : sine eigenfunction
    norm = np.sqrt(a + sign * np.sin(2 * w * a) / (2 * w))
    return EigenPair(parity_index, 2.0 * c / (w * w + c * c), w, norm,
                     "cos" if sign > 0 else "sin", parity)


def expcov_eigenpair(parity_index, c, a):
    """Eigenpair at interleaved position ``parity_index`` (1-based:
    odd_1, even_1, odd_2, even_2, ...) for the kernel exp(-c|s-t|) on [-a,a]."""
    if parity_index < 1:
        raise ValueError("index must be >= 1")
    parity, w = expcov_roots(c, a, (parity_index + 1) // 2)[parity_index - 1]
    return _expcov_pair(parity_index, parity, w, c, a)


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
                self._pairs[j] = wiener_eigenpair(j, self.params["T"])
            elif self.kind == "bridge":
                self._pairs[j] = bridge_eigenpair(j)
            else:
                self._fill_expcov(j)
        return self._pairs[j]

    def _fill_expcov(self, j):
        """Cache the exponential-kernel pairs up to index j from one root
        solve, at least doubling the cache so that growing N stays cheap."""
        if j < 1:
            raise ValueError("index must be >= 1")
        c, a = self.params["c"], self.params["a"]
        count = max((j + 1) // 2, len(self._pairs))
        for i, (parity, w) in enumerate(expcov_roots(c, a, count), 1):
            if i in self._pairs:
                continue
            pair = _expcov_pair(i, parity, w, c, a)
            if i > 1 and pair.value > self._pairs[i - 1].value:
                warnings.warn("interleaved eigenvalue sequence is not descending "
                              f"at index {i}", stacklevel=3)
            self._pairs[i] = pair

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
