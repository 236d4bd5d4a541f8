"""Monte-Carlo validation of the quadrature densities.

Samples the truncated solution directly -- P0 from the initial law, the KLE
coordinates from their law, then P_t = expit(logit(P0) + K_N(t, xi)) -- and
compares a histogram against bin-averaged density values.  Bin counts are
binomial, so each bin carries an exact z-score and no bandwidth or smoothing
enters the comparison.

Determinism: the PCG64 generator seeded with cfg.seed fully determines every
draw; per sample the draw order is (P0, xi_1, ..., xi_N).  Optional sharding
splits the sample range with per-shard seeds (seed XOR shard index), keeping
counts additive and the merged report independent of shard execution order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import expit, logit

from .density import Problem, density_row
from .kle import kn_sigma
from .stats import moments_n

__all__ = ["McConfig", "McReport", "mc_density_check", "k_extremes"]


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
    shards: int
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


def _sample_block(problem: Problem, t, rng, n):
    """Vectorized sampler: n draws with per-sample order (P0, xi_1..xi_N).

    A single (n, 1+N) uniform matrix is drawn row-major, so sample i consumes
    its 1+N variates consecutively in the documented order."""
    u = rng.random((n, 1 + problem.N))
    p0 = problem.initial.ppf(u[:, 0])
    xi = problem.process.xi_law.from_uniform(u[:, 1:])
    h = problem.h_vector(t)
    K = problem.process.mean_primitive(t) + xi @ h
    return expit(logit(p0) + K)


def k_extremes(problem: Problem, t):
    """Attainable range of K_N(t, xi) with coordinates confined to +/- 6
    standard deviations.  Uniform coordinates are bounded by sqrt(3), which
    is the binding constraint there; Gaussian ones use the 6-sigma box."""
    m, sigma = kn_sigma(problem.process, t, problem.N)
    if problem.process.xi_law.kind == "uniform":
        h = problem.h_vector(t)
        half = np.sqrt(3.0) * float(np.sum(np.abs(h)))
        half = min(half, 6.0 * sigma) if sigma > 0 else half
    else:
        half = 6.0 * sigma
    return m - half, m + half


def mc_density_check(problem: Problem, t, cfg: McConfig, shards=1):
    """Histogram comparison of sampled P_N against the quadrature density.

    Bins are equal-width on the image of the initial support [p01, p02]
    under the extreme-K flow (so support edges land on the outer bin edges);
    expected bin frequency is midpoint density times bin width."""
    if shards < 1:
        raise ValueError("shards must be >= 1")
    problem.process.domain.require(t)

    k_lo, k_hi = k_extremes(problem, t)
    lo = float(expit(logit(problem.initial.p01) + k_lo))
    hi = float(expit(logit(problem.initial.p02) + k_hi))
    edges = np.linspace(lo, hi, cfg.bins + 1)

    counts = np.zeros(cfg.bins, dtype=np.int64)
    chunks = []
    base = cfg.samples // shards
    for shard in range(shards):
        n = base + (cfg.samples - base * shards if shard == shards - 1 else 0)
        rng = np.random.default_rng(int(cfg.seed) ^ shard)
        x = _sample_block(problem, t, rng, n)
        counts += np.histogram(x, bins=edges)[0]
        chunks.append(x)
    x = np.concatenate(chunks) if len(chunks) > 1 else chunks[0]

    mids = 0.5 * (edges[:-1] + edges[1:])
    width = edges[1] - edges[0]
    pe = np.clip(density_row(problem, mids, t) * width, 0.0, 1.0)

    n_tot = cfg.samples
    freq = counts / n_tot
    with np.errstate(divide="ignore", invalid="ignore"):
        se = np.sqrt(pe * (1.0 - pe) / n_tot)
        z = np.where(se > 0, (freq - pe) / se, np.where(counts == 0, 0.0, np.inf))
    l1 = float(np.sum(np.abs(freq - pe)))

    mc_mean = float(np.mean(x))
    mc_mean_se = float(np.std(x, ddof=1) / np.sqrt(n_tot))
    centered = x - mc_mean
    mc_var = float(np.mean(centered ** 2) * n_tot / (n_tot - 1))
    m4 = float(np.mean(centered ** 4))
    mc_var_se = float(np.sqrt(max(m4 - mc_var ** 2, 0.0) / n_tot))
    d_mean, d_var = moments_n(problem, t)

    return McReport(
        t=float(t), N=problem.N, samples=cfg.samples, bins=cfg.bins,
        seed=int(cfg.seed), shards=int(shards),
        bin_edges=edges, counts=counts, expected_freq=pe, z_scores=z,
        max_abs_z=float(np.max(np.abs(z))), l1_distance=l1,
        mc_mean=mc_mean, mc_mean_se=mc_mean_se, density_mean=d_mean,
        mc_var=mc_var, mc_var_se=mc_var_se, density_var=d_var,
    )
