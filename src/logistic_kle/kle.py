"""Karhunen-Loeve ingredients for the supported growth-coefficient processes.

Three covariance models are provided: the Wiener process on [0, T], the
Brownian bridge on [0, 1], and the stationary exponential kernel
exp(-c|s-t|) on a symmetric interval [-a, a].  Each model holds its
eigenpairs as one table of arrays (the exponential kernel's from one
transcendental root solve), and one array expression over it gives

    H_j(t) = sqrt(nu_j) * int_{t0}^{t} phi_j(s) ds,     j = 1..n,

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
    "expcov_roots",
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


class KleProcess:
    """A covariance model plus the law of its KLE coordinates.

    Use the factory constructors ``wiener``, ``brownian_bridge`` and
    ``exponential_cov``.  Modes are 1-based and come from one cached
    ``spectrum`` table; the exponential model interleaves the two parity
    branches (odd_1, even_1, odd_2, ...).
    """

    def __init__(self, kind, domain, params, xi_law):
        self.kind = kind
        self.domain = domain
        self.params = dict(params)
        self.xi_law = xi_law
        self._table = None

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

    def spectrum(self, n):
        """Arrays (eigenvalues, frequencies, norms, cosine) of modes 1..n:
        phi_j(t) = (cos if cosine_j else sin)(frequency_j t) / norm_j.

        Read-only views of one cached table that at least doubles when it
        grows (in whole root pairs for the exponential kernel).  Rows are
        computed independently, so a prefix does not depend on the size."""
        if n < 1:
            raise ValueError("need at least one mode")
        size = 0 if self._table is None else self._table[0].size
        if size < n:
            self._table = self._build(max(n, 2 * size))
        return tuple(a[:n] for a in self._table)

    def _build(self, n):
        if self.kind == "expcov":
            c, a = self.params["c"], self.params["a"]
            parity, w = zip(*expcov_roots(c, a, (n + 1) // 2))
            w, cosine = np.array(w), np.array(parity) == "odd"
            nu = 2.0 * c / (w * w + c * c)
            sign = np.where(cosine, 1.0, -1.0)
            norm = np.sqrt(a + sign * np.sin(2 * w * a) / (2 * w))
        else:
            k = np.arange(1, n + 1)
            if self.kind == "wiener":
                T = self.params["T"]
                w = (2 * k - 1) * np.pi / (2.0 * T)
                nu = 4.0 * T * T / ((2 * k - 1) ** 2 * np.pi ** 2)
                norm = np.full(n, np.sqrt(T / 2.0))
            else:
                w = k * np.pi
                nu = 1.0 / (np.pi * k) ** 2
                norm = np.full(n, 1.0 / np.sqrt(2.0))
            cosine = np.zeros(n, dtype=bool)
        rise = np.flatnonzero(np.diff(nu) > 0)
        if rise.size:
            warnings.warn("interleaved eigenvalue sequence is not descending "
                          f"at index {rise[0] + 2}", stacklevel=3)
        for arr in (nu, w, norm, cosine):
            arr.flags.writeable = False
        return nu, w, norm, cosine

    def eigenpair(self, j) -> EigenPair:
        """Mode j (1-based) as an ``EigenPair``: row j of ``spectrum``."""
        nu, w, norm, cosine = (arr[j - 1] for arr in self.spectrum(j))
        parity = ("odd" if cosine else "even") if self.kind == "expcov" else None
        return EigenPair(j, float(nu), float(w), float(norm),
                         "cos" if cosine else "sin", parity)

    def mean_primitive(self, t):
        """m(t) = integral of the mean function from t0 to t.

        All supported models are centered, so this is identically zero; it is
        carried through so a nonzero mean would only touch this method.
        """
        self.domain.require(t)
        return 0.0


def primitive_h(process: KleProcess, t, n):
    """H_1(t) .. H_n(t) as an array, in closed form.

    H_j(t) = sqrt(nu_j) * int_{t0}^{t} phi_j(s) ds: for a sine
    eigenfunction the integral is (cos(w t0) - cos(w t)) / w and for a cosine
    one (sin(w t) - sin(w t0)) / w, each divided by the normalization
    constant.
    """
    process.domain.require(t)
    nu, w, norm, cosine = process.spectrum(n)
    wt, wt0 = w * t, w * process.domain.t0
    integral = np.where(cosine, np.sin(wt) - np.sin(wt0),
                        np.cos(wt0) - np.cos(wt)) / w
    return np.sqrt(nu) * integral / norm


def kn_sigma(process: KleProcess, t, N):
    """Exact (mean, std) of K_N(t) = m(t) + sum_{j<=N} H_j(t) xi_j.

    Valid for any unit-variance uncorrelated coordinate law: the standard
    deviation is sqrt(sum_j H_j(t)^2).
    """
    h = primitive_h(process, t, N)
    return process.mean_primitive(t), float(np.sqrt(np.sum(h * h)))
