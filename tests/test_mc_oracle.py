import numpy as np
import pytest
from numpy.testing import assert_allclose

from logistic_kle import (KleProcess, McConfig, Problem, k_extremes,
                          mc_density_check, truncated_beta,
                          truncated_exponential)
from logistic_kle.mc_oracle import _sample_block


@pytest.fixture(scope="module")
def wiener_problem():
    return Problem(KleProcess.wiener(1.5), truncated_beta(7.0, 10.0), 2)


@pytest.fixture(scope="module")
def bridge_problem():
    return Problem(KleProcess.brownian_bridge(),
                   truncated_exponential(10.0), 2)


@pytest.fixture(scope="module")
def expcov_problem():
    return Problem(KleProcess.exponential_cov(1.0, 0.5),
                   truncated_beta(7.0, 10.0), 2)


class TestConfig:
    def test_sample_floor(self):
        with pytest.raises(ValueError):
            McConfig(seed=1, samples=9999)

    def test_bin_floor(self):
        with pytest.raises(ValueError):
            McConfig(seed=1, bins=19)


class TestSampling:
    def test_scalar_draws_stay_in_support(self, wiener_problem):
        rng = np.random.default_rng(7)
        law = wiener_problem.initial
        draws = [_sample_block(wiener_problem, 0.0, rng, 1)[0]
                 for _ in range(20)]
        assert all(law.p01 <= d <= law.p02 for d in draws)
        draws = [_sample_block(wiener_problem, 1.0, rng, 1)[0]
                 for _ in range(20)]
        assert all(0.0 < d < 1.0 for d in draws)

    def test_block_matches_scalar_stream(self, bridge_problem):
        # both consume (P0, xi_1..xi_N) per sample from the same generator,
        # so with a fresh identically-seeded generator the distributions
        # agree; check the block's first two moments against the density
        rng = np.random.default_rng(123)
        block = _sample_block(bridge_problem, 0.5, rng, 50_000)
        assert block.shape == (50_000,)
        assert np.all((block > 0.0) & (block < 1.0))
        from logistic_kle import moments_n
        mean, var = moments_n(bridge_problem, 0.5)
        assert abs(block.mean() - mean) < 4.0 * np.sqrt(var / block.size)

    def test_k_extremes_at_origin(self, wiener_problem):
        lo, hi = k_extremes(wiener_problem, 0.0)
        assert lo == 0.0 and hi == 0.0

    def test_k_extremes_uniform_bound(self, expcov_problem):
        lo, hi = k_extremes(expcov_problem, 0.25)
        h = expcov_problem.h_vector(0.25)
        half = np.sqrt(3.0) * np.sum(np.abs(h))
        assert hi <= half + 1e-15
        assert_allclose(lo, -hi, atol=1e-15)


class TestDensityCheck:
    CFG = dict(seed=42, samples=50_000, bins=25)

    def test_report_is_deterministic(self, wiener_problem):
        a = mc_density_check(wiener_problem, 0.75, McConfig(**self.CFG))
        b = mc_density_check(wiener_problem, 0.75, McConfig(**self.CFG))
        assert np.array_equal(a.counts, b.counts)
        assert np.array_equal(a.bin_edges, b.bin_edges)
        assert a.max_abs_z == b.max_abs_z
        assert a.l1_distance == b.l1_distance
        assert a.mc_mean == b.mc_mean

    def test_initial_time_self_consistency(self, bridge_problem):
        # at t0 the sampler and the density are both the initial law, so the
        # z-scores are pure binomial noise
        rep = mc_density_check(bridge_problem, 0.0,
                               McConfig(seed=5, samples=10 ** 6, bins=100))
        assert rep.max_abs_z < 4.0
        assert abs(rep.mc_mean - rep.density_mean) < 4.0 * rep.mc_mean_se

    def test_l1_shrinks_with_sample_size(self, wiener_problem):
        # binomial L1 scales like 1/sqrt(n); doubling n should shrink it by
        # ~sqrt(2), contaminated by the deterministic bin-averaging floor
        ratios = []
        for seed in range(5):
            small = mc_density_check(
                wiener_problem, 0.75,
                McConfig(seed=seed, samples=10_000, bins=20))
            big = mc_density_check(
                wiener_problem, 0.75,
                McConfig(seed=seed, samples=20_000, bins=20))
            ratios.append(small.l1_distance / big.l1_distance)
        assert 1.05 < np.mean(ratios) < 1.6

    def test_detects_wrong_truncation_order(self, expcov_problem):
        # draws from the N=1 model measured against the N=2 expected
        # frequencies must blow past any noise threshold
        ref = mc_density_check(expcov_problem, 0.0,
                               McConfig(seed=11, samples=10 ** 6, bins=100))
        wrong = Problem(expcov_problem.process, expcov_problem.initial, 1)
        rng = np.random.default_rng(11)
        draws = _sample_block(wrong, 0.0, rng, 10 ** 6)
        counts, _ = np.histogram(draws, bins=ref.bin_edges)
        freq = counts / 10 ** 6
        se = np.sqrt(ref.expected_freq * (1 - ref.expected_freq) / 10 ** 6)
        z = np.where(se > 0, (freq - ref.expected_freq) / np.where(se > 0, se, 1),
                     0.0)
        assert np.max(np.abs(z)) > 5.0

    def test_moments_within_monte_carlo_error(self, wiener_problem):
        rep = mc_density_check(wiener_problem, 0.75,
                               McConfig(seed=42, samples=10 ** 5, bins=50))
        assert abs(rep.mc_mean - rep.density_mean) < 4.0 * rep.mc_mean_se
        assert abs(rep.mc_var - rep.density_var) < 4.0 * rep.mc_var_se
