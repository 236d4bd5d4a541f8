import sys
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.integrate import quad

from logistic_kle import (STANDARD_GAUSSIAN, UNIFORM_SYM, truncated_beta,
                          truncated_exponential)

sys.path.insert(0, str(Path(__file__).parent))
from oracles import beta_ppf_exact, cdf_quad  # noqa: E402

# Beta laws for the inverse CDF; beta7-10 is the law of the presets
_BETA_LAWS = pytest.mark.parametrize("law", [
    truncated_beta(7, 10), truncated_beta(0.5, 0.5), truncated_beta(50, 2),
    truncated_beta(2, 50), truncated_beta(7, 10, 0.4, 0.45)],
    ids=["beta7-10", "beta0.5-0.5", "beta50-2", "beta2-50", "narrow"])


@pytest.fixture(scope="module")
def beta710():
    return truncated_beta(7, 10)


@pytest.fixture(scope="module")
def exp10():
    return truncated_exponential(10)


class TestInitialLaw:
    def test_pdf_integrates_to_one(self, beta710, exp10):
        for law in (beta710, exp10):
            mass, _ = quad(law.pdf, law.p01, law.p02, epsabs=1e-13)
            assert_allclose(mass, 1.0, atol=1e-10)

    def test_pdf_zero_outside_support(self, beta710):
        assert beta710.pdf(0.05) == 0.0
        assert beta710.pdf(0.95) == 0.0
        assert_allclose(beta710.pdf(np.array([0.0, 0.99])), 0.0)

    def test_exponential_reference_values(self, exp10):
        # hand-computed: pdf(p) = 10 e^{-10p} / (e^{-1} - e^{-9}) on [0.1, 0.9]
        assert_allclose(exp10.pdf(0.1), 10.003355752008414, rtol=1e-12)
        assert_allclose(exp10.ppf(0.5), 0.16928117741870494, atol=1e-9)

    def test_beta_pdf_shape(self, beta710):
        # kernel p^6 (1-p)^9 peaks at p = 6/15 = 0.4 inside the support
        p = np.linspace(0.1, 0.9, 1601)
        f = beta710.pdf(p)
        assert_allclose(p[np.argmax(f)], 0.4, atol=1e-3)

    def test_cdf_matches_adaptive_quadrature(self, beta710, exp10):
        for law in (beta710, exp10):
            for p in (0.12, 0.3, 0.55, 0.84):
                assert_allclose(law.cdf(p), cdf_quad(law, p), atol=1e-11)

    def test_cdf_endpoints(self, beta710):
        assert beta710.cdf(beta710.p01) == 0.0
        assert_allclose(beta710.cdf(beta710.p02), 1.0, atol=1e-12)

    def test_ppf_inverts_cdf(self, beta710, exp10):
        u = np.linspace(0.02, 0.98, 25)
        for law in (beta710, exp10):
            assert_allclose(law.cdf(law.ppf(u)), u, atol=1e-10)

    def test_ppf_monotone(self, exp10):
        u = np.linspace(0.01, 0.99, 50)
        assert np.all(np.diff(exp10.ppf(u)) > 0)

    def test_sampling_within_support(self, beta710):
        rng = np.random.default_rng(0)
        x = beta710.ppf(rng.uniform(size=1000))
        assert np.all((x >= beta710.p01) & (x <= beta710.p02))

    def test_moments_against_simpson(self, beta710):
        from scipy.integrate import simpson
        p = np.linspace(beta710.p01, beta710.p02, 4001)
        f = beta710.pdf(p)
        mean, var = beta710.moments()
        assert_allclose(mean, simpson(p * f, x=p), atol=1e-9)
        assert_allclose(var, simpson(p * p * f, x=p) - mean ** 2, atol=1e-9)

    @pytest.mark.parametrize("law", [
        truncated_beta(7, 10), truncated_beta(0.5, 0.7, 0.01, 0.99),
        truncated_exponential(10), truncated_exponential(1, 0.2, 0.7)],
        ids=["beta7-10", "beta0.5-0.7", "exp10", "exp1"])
    def test_closed_forms_match_adaptive_quadrature(self, law):
        opts = dict(epsabs=1e-15, epsrel=1e-13, limit=200)
        if law.kind == "beta":
            a, b = law.params
            norm, _ = quad(lambda p: p ** (a - 1) * (1 - p) ** (b - 1),
                           law.p01, law.p02, **opts)
            assert_allclose(law.norm_const, norm, rtol=1e-14)
        m1, _ = quad(lambda p: p * law.pdf(p), law.p01, law.p02, **opts)
        m2, _ = quad(lambda p: p * p * law.pdf(p), law.p01, law.p02, **opts)
        mean, var = law.moments()
        assert_allclose(mean, m1, rtol=0, atol=1e-14)
        assert_allclose(var, m2 - m1 * m1, rtol=0, atol=1e-14)

    def test_free_function_wrappers(self, beta710):
        # scalar calls of pdf/ppf agree with the array paths
        assert beta710.pdf(0.4) == beta710.pdf(np.array([0.4]))[0]
        # the scalar ppf returns a float that the closed-form CDF inverts
        x = beta710.ppf(0.5)
        assert isinstance(x, float)
        assert_allclose(beta710.cdf(x), 0.5, atol=1e-9)
        assert_allclose([beta710.ppf(0.3), beta710.ppf(0.7)],
                        beta710.ppf(np.array([0.3, 0.7])), atol=1e-9)

    @_BETA_LAWS
    def test_beta_ppf_matches_betaincinv(self, law):
        # both tails down to 1e-12 (edges included) and a dense interior
        tail = np.logspace(-12, -2, 101)
        u = np.unique(np.concatenate(
            [tail, np.linspace(0.01, 0.99, 2001), 1.0 - tail]))
        x = law.ppf(u)
        assert_allclose(x, beta_ppf_exact(law, u), rtol=1e-12, atol=0)
        assert np.all(np.diff(x) >= 0)
        assert np.all((x >= law.p01) & (x <= law.p02))
        scalar = law.ppf(1.0 - 1e-12)
        assert isinstance(scalar, float) and scalar == x[-1]

    @_BETA_LAWS
    def test_beta_ppf_between_certification_points(self, law):
        # each interval's polynomial was checked at s = 1/4, 1/2, 3/4; here
        # it is held to the exact inverse at the points between them
        t = law._ppf_tables
        s = np.array([0.125, 0.375, 0.625, 0.875])[:, None]
        u = (t.c[:-1] + s * np.diff(t.c)).ravel()
        u = u[(u > 0.0) & (u < 1.0)]
        assert_allclose(law.ppf(u), beta_ppf_exact(law, u), rtol=1e-12,
                        atol=0)

    def test_ppf_certified_mass(self):
        # the presets' law: almost every draw takes its interval's
        # polynomial and evaluates no incomplete beta function
        t = truncated_beta(7, 10)._ppf_tables
        assert np.diff(t.c)[t.certified].sum() >= 0.99

    def test_beta_ppf_upper_tail_pinned(self):
        # a 50-digit mpmath root of I(p) = I(p01) + u (I(p02) - I(p01)) at
        # u = 1 - 1e-12, where the target's tail mass 1e-12 (I(p02) -
        # I(p01)) must keep its digits
        law = truncated_beta(2, 50)
        assert_allclose(law.ppf(1.0 - 1e-12), 0.49701400120918154,
                        rtol=1e-13, atol=0)

    def test_ppf_makes_one_betainc_pass(self, monkeypatch):
        # structural, not a timing: certified intervals evaluate no
        # incomplete beta function, the few other draws one or a few each,
        # and the tables (and their certification) are built once per law
        import logistic_kle.distributions as dist
        points = []
        real = dist.betainc

        def counted(a, b, x):
            points.append(np.broadcast(a, b, x).size)
            return real(a, b, x)

        monkeypatch.setattr(dist, "betainc", counted)
        law = truncated_beta(7, 10)
        n = 1 << 16
        u = np.random.default_rng(0).random(n)
        points.clear()
        law.ppf(u)
        tables = dist._PPF_TABLE + len(dist._PPF_CHECKS) * (dist._PPF_TABLE - 1)
        assert sum(points) <= 0.01 * n + tables
        points.clear()
        law.ppf(u)
        assert sum(points) <= 0.01 * n

    @pytest.mark.parametrize("law", [
        truncated_beta(7, 10, 0.99, 1.0 - 1e-6),
        truncated_beta(7, 10, 0.95, 0.999),
        truncated_beta(20, 20, 0.999, 0.9999)],
        ids=["beta7-10-far", "beta7-10-upper", "beta20-20-upper"])
    def test_upper_tail_support(self, law):
        # I(p01) and I(p02) both round near 1 here: the law must not take
        # their difference
        opts = dict(epsabs=0.0, epsrel=1e-13, limit=200)
        mass, _ = quad(law.pdf, law.p01, law.p02, **opts)
        assert abs(mass - 1.0) <= 1e-10
        tail = np.logspace(-12, -2, 21)
        u = np.concatenate([tail, np.linspace(0.02, 0.98, 49), 1.0 - tail])
        x = law.ppf(u)
        assert np.all((x >= law.p01) & (x <= law.p02))
        assert_allclose(law.cdf(x), u, rtol=0, atol=1e-10)
        # the mean's distance from 1, which keeps its digits
        q1 = quad(lambda p: (1.0 - p) * law.pdf(p), law.p01, law.p02,
                  **opts)[0] / mass
        var = quad(lambda p: (1.0 - p - q1) ** 2 * law.pdf(p), law.p01,
                   law.p02, **opts)[0] / mass
        mean, law_var = law.moments()
        assert_allclose(1.0 - mean, q1, rtol=1e-10)
        assert_allclose(law_var, var, rtol=1e-8)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            truncated_beta(0, 10)
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match="positive and finite"):
                truncated_beta(bad, 10)
            with pytest.raises(ValueError, match="positive and finite"):
                truncated_beta(7, bad)
            with pytest.raises(ValueError, match="positive and finite"):
                truncated_exponential(bad)
        with pytest.raises(ValueError):
            truncated_exponential(-1)
        with pytest.raises(ValueError):
            truncated_beta(7, 10, 0.9, 0.1)
        with pytest.raises(ValueError):
            truncated_beta(7, 10, 0.0, 0.9)


class TestXiLaw:
    def test_pdf_normalization(self):
        for law, lim in ((STANDARD_GAUSSIAN, 12), (UNIFORM_SYM, np.sqrt(3))):
            mass, _ = quad(law.pdf, -lim, lim)
            assert_allclose(mass, 1.0, atol=1e-9)

    def test_unit_variance(self):
        for law, lim in ((STANDARD_GAUSSIAN, 12), (UNIFORM_SYM, np.sqrt(3))):
            v, _ = quad(lambda x: x * x * law.pdf(x), -lim, lim)
            assert_allclose(v, 1.0, atol=1e-9)

    def test_from_uniform_median_and_symmetry(self):
        for law in (STANDARD_GAUSSIAN, UNIFORM_SYM):
            assert_allclose(law.from_uniform(0.5), 0.0, atol=1e-12)
            assert_allclose(law.from_uniform(0.25), -law.from_uniform(0.75),
                            atol=1e-12)

    def test_uniform_support_bound(self):
        rng = np.random.default_rng(3)
        x = UNIFORM_SYM.from_uniform(rng.uniform(size=10000))
        assert np.all(np.abs(x) <= np.sqrt(3))
        assert_allclose(np.var(x), 1.0, atol=0.05)

    def test_gaussian_sample_moments(self):
        rng = np.random.default_rng(4)
        x = STANDARD_GAUSSIAN.from_uniform(rng.uniform(size=200_000))
        assert_allclose(np.mean(x), 0.0, atol=0.01)
        assert_allclose(np.var(x), 1.0, atol=0.02)
