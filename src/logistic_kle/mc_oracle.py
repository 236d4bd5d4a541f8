"""Monte-Carlo validation of the density rows.

Samples the truncated solution directly -- P0 from the initial law, the KLE
coordinates from their law, then the closed-form solution
P_t = P0 / (P0 + (1 - P0) exp(-K_N(t, xi))) -- and compares a histogram
against expected bin frequencies, each the density at the bin midpoint times
the bin width.  Bin counts are binomial, so each bin carries an exact
z-score and no bandwidth or smoothing enters the comparison.

Determinism: the PCG64 generator seeded with cfg.seed fully determines every
draw; per sample the draw order is (P0, xi_1, ..., xi_N).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .density import Problem, f1n_collapsed, k_law
from .kle import kn_sigma, primitive_h
from .stats import moments_n

__all__ = ["McConfig", "McReport", "mc_density_check", "k_extremes"]

# rows of uniforms per sampling block: bounds the sampler's temporaries
_BLOCK_ROWS = 1 << 16


@dataclass(frozen=True)
class McConfig:
    seed: int
    samples: int = 10 ** 6
    bins: int = 100

    def __post_init__(self):
        if self.samples < 10 ** 4:
            raise ValueError("need at least 10^4 samples for binomial z-scores")
        if self.bins < 20:
            raise ValueError("need at least 20 bins")


@dataclass(frozen=True)
class McReport:
    """Histogram-vs-density comparison at one time instant."""

    t: float
    N: int
    samples: int
    bins: int
    seed: int
    bin_edges: np.ndarray
    counts: np.ndarray
    expected_freq: np.ndarray
    z_scores: np.ndarray
    max_abs_z: float
    l1_distance: float
    mc_mean: float
    mc_mean_se: float
    density_mean: float
    mc_var: float
    mc_var_se: float
    density_var: float


def _solution(p0, k, out=None):
    """The logistic solution P0 / (P0 + (1 - P0) exp(-K)) at growth
    integral K, by one exp and in-place arithmetic.  exp(-K) overflows to
    inf for K < -709, which gives exactly 0, and underflows to 0 for
    K > 745, which gives exactly 1."""
    with np.errstate(over="ignore"):
        q = np.exp(-k)
    q *= 1.0 - p0
    q += p0
    return np.divide(p0, q, out=out)


def _sample_block(problem: Problem, t, rng, n):
    """Vectorized sampler: n draws with per-sample order (P0, xi_1..xi_N).

    The uniforms come row-major in blocks of at most ``_BLOCK_ROWS`` rows of
    1+N, so sample i consumes its 1+N variates consecutively in the
    documented order, and the stream is the one a single (n, 1+N) draw
    would give.  Each block is mapped through ``_solution`` into its slice
    of the output, so no temporary grows with n."""
    h = primitive_h(problem.process, t, problem.N)
    mean = problem.process.mean_primitive(t)
    x = np.empty(n)
    for start in range(0, n, _BLOCK_ROWS):
        stop = min(start + _BLOCK_ROWS, n)
        u = rng.random((stop - start, 1 + problem.N))
        p0 = problem.initial.ppf(u[:, 0])
        xi = problem.process.xi_law.from_uniform(u[:, 1:])
        _solution(p0, mean + xi @ h, out=x[start:stop])
    return x


def k_extremes(problem: Problem, t):
    """Range of K_N(t): the support of its law cut at +/- 6 standard
    deviations, which binds only for Gaussian coordinates (the box-spline
    support +/- sqrt(3) sum_j |H_j(t)| lies inside it for N <= 12)."""
    m, sigma = kn_sigma(problem.process, t, problem.N)
    brk = k_law(problem, t).breaks()
    return max(brk[0], m - 6.0 * sigma), min(brk[-1], m + 6.0 * sigma)


def mc_density_check(problem: Problem, t, cfg: McConfig):
    """Histogram comparison of sampled P_N against ``f1n_collapsed``.

    Bins are equal-width on the image of the initial support [p01, p02]
    under the extreme-K flow (so support edges land on the outer bin edges);
    expected bin frequency is midpoint density times bin width."""
    problem.process.domain.require(t)

    k_lo, k_hi = k_extremes(problem, t)
    lo = float(_solution(problem.initial.p01, k_lo))
    hi = float(_solution(problem.initial.p02, k_hi))
    edges = np.linspace(lo, hi, cfg.bins + 1)

    x = _sample_block(problem, t, np.random.default_rng(int(cfg.seed)),
                      cfg.samples)
    counts = np.histogram(x, bins=edges)[0]

    mids = 0.5 * (edges[:-1] + edges[1:])
    width = edges[1] - edges[0]
    pe = np.clip(f1n_collapsed(problem, mids, t) * width, 0.0, 1.0)

    n_tot = cfg.samples
    freq = counts / n_tot
    with np.errstate(divide="ignore", invalid="ignore"):
        se = np.sqrt(pe * (1.0 - pe) / n_tot)
        z = np.where(se > 0, (freq - pe) / se, np.where(counts == 0, 0.0, np.inf))
    # a bin without a finite expectation fails the check: its z is NaN
    z[~np.isfinite(pe)] = np.nan
    l1 = float(np.sum(np.abs(freq - pe)))

    mc_mean = float(np.mean(x))
    c2 = x - mc_mean
    c2 *= c2
    mc_var = float(np.mean(c2) * n_tot / (n_tot - 1))
    mc_mean_se = float(np.sqrt(mc_var / n_tot))
    m4 = float(np.mean(np.square(c2, out=c2)))  # c2 now holds (x - mean)^4
    mc_var_se = float(np.sqrt(max(m4 - mc_var ** 2, 0.0) / n_tot))
    d_mean, d_var = moments_n(problem, t)

    return McReport(
        t=float(t), N=problem.N, samples=cfg.samples, bins=cfg.bins,
        seed=int(cfg.seed),
        bin_edges=edges, counts=counts, expected_freq=pe, z_scores=z,
        max_abs_z=float(np.max(np.abs(z))), l1_distance=l1,
        mc_mean=mc_mean, mc_mean_se=mc_mean_se, density_mean=d_mean,
        mc_var=mc_var, mc_var_se=mc_var_se, density_var=d_var,
    )
