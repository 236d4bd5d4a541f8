import warnings

import mpmath as mp
import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.special import expit

from logistic_kle import (KleProcess, McConfig, Problem, k_extremes,
                          mc_density_check, mc_oracle, primitive_h,
                          truncated_beta, truncated_exponential)
from logistic_kle.mc_oracle import _sample_block, _solution


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

    def test_more_bins_than_samples_refused(self):
        # refused before a histogram of 10^9 bins is allocated
        with pytest.raises(ValueError, match="1000000000 bins exceed"):
            McConfig(seed=1, samples=10 ** 4, bins=10 ** 9)


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

    @pytest.mark.parametrize("process", [
        KleProcess.wiener(1.5),
        KleProcess.exponential_cov(1.0, 0.5)],
        ids=["gaussian", "uniform"])
    def test_blocks_match_one_matrix_draw(self, process, monkeypatch):
        # one (n, 1+N) draw through the same transforms, the closed-form
        # solution among them, is the reference; the blocked sampler must
        # reproduce it bit for bit
        problem = Problem(process, truncated_beta(7.0, 10.0), 3)
        n, t = 1000, 0.3
        monkeypatch.setattr(mc_oracle, "_BLOCK_ROWS", 64)
        assert n % mc_oracle._BLOCK_ROWS
        u = np.random.default_rng(9).random((n, 1 + problem.N))
        p0 = problem.initial.ppf(u[:, 0])
        xi = process.xi_law.from_uniform(u[:, 1:])
        K = process.mean_primitive(t) + xi @ primitive_h(process, t, problem.N)
        ref = p0 / (p0 + (1.0 - p0) * np.exp(-K))
        x = _sample_block(problem, t, np.random.default_rng(9), n)
        assert np.array_equal(x, ref)

    def test_solution_against_mpmath(self):
        # P0 / (P0 + (1 - P0) e^{-K}) at 40 digits; the closed form rounds
        # four operations and an exp, so 3 ulp bounds it
        rng = np.random.default_rng(17)
        p0 = expit(rng.uniform(-np.log(1e6), np.log(1e6), 3000))
        k = rng.uniform(-40.0, 40.0, 3000)
        x = _solution(p0, k)
        with mp.workdps(40):
            ref = [float(mp.mpf(a) / (mp.mpf(a) + (1 - mp.mpf(a))
                                      * mp.exp(-mp.mpf(b))))
                   for a, b in zip(p0, k)]
        assert_allclose(x, ref, rtol=3 * np.finfo(float).eps, atol=0)

    def test_solution_at_extreme_growth(self):
        # exp(-K) overflows below K = -709 and underflows above K = 745:
        # the solution is then exactly 0 or 1, without a warning
        p0 = np.array([1e-6, 0.3, 1.0 - 1e-6])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.all(_solution(p0, np.full(3, -800.0)) == 0.0)
            assert np.all(_solution(p0, np.full(3, 800.0)) == 1.0)
            assert _solution(0.3, -800.0) == 0.0
            assert _solution(0.3, 800.0) == 1.0

    def test_k_extremes_at_origin(self, wiener_problem):
        lo, hi = k_extremes(wiener_problem, 0.0)
        assert lo == 0.0 and hi == 0.0

    def test_k_extremes_uniform_bound(self, expcov_problem):
        lo, hi = k_extremes(expcov_problem, 0.25)
        h = primitive_h(expcov_problem.process, 0.25, expcov_problem.N)
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

    def test_non_finite_expectation_fails(self, wiener_problem, monkeypatch):
        # one bin without a finite expected frequency: the check must not
        # pass, even where that bin's count is zero
        real = mc_oracle.f1n_collapsed

        def holed(problem, p, t):
            row = real(problem, p, t)
            row[0] = np.nan
            return row

        monkeypatch.setattr(mc_oracle, "f1n_collapsed", holed)
        rep = mc_density_check(wiener_problem, 0.75,
                               McConfig(seed=42, samples=10 ** 4, bins=20))
        assert np.isnan(rep.z_scores[0])
        assert not rep.max_abs_z <= 5.0

    def test_moments_within_monte_carlo_error(self, wiener_problem):
        rep = mc_density_check(wiener_problem, 0.75,
                               McConfig(seed=42, samples=10 ** 5, bins=50))
        assert abs(rep.mc_mean - rep.density_mean) < 4.0 * rep.mc_mean_se
        assert abs(rep.mc_var - rep.density_var) < 4.0 * rep.mc_var_se
