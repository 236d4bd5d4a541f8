import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.integrate import quad
from scipy.optimize import brentq

import logistic_kle.kle as kle
from logistic_kle import (KleProcess, TimeDomain, expcov_roots, kn_sigma,
                          primitive_h)


def h(process, j, t):
    """H_j(t) alone, from the array call."""
    return primitive_h(process, t, j)[j - 1]


class TestTimeDomain:
    def test_contains_and_require(self):
        dom = TimeDomain(0.0, 1.5)
        assert dom.contains(0.0) and dom.contains(1.5)
        assert not dom.contains(1.5001)
        with pytest.raises(ValueError):
            dom.require(-0.1)

    def test_empty_domain_rejected(self):
        with pytest.raises(ValueError):
            TimeDomain(1.0, 1.0)


class TestWiener:
    def test_eigenvalue_ratios(self):
        # nu_j proportional to (2j-1)^{-2}
        proc = KleProcess.wiener(1.5)
        nus = [proc.eigenpair(j).value for j in (1, 2, 3)]
        assert_allclose(nus[1] / nus[0], 1.0 / 9.0, rtol=1e-14)
        assert_allclose(nus[2] / nus[0], 1.0 / 25.0, rtol=1e-14)

    def test_eigenfunction_orthonormality(self):
        T = 1.5
        proc = KleProcess.wiener(T)
        for i in (1, 2):
            for j in (1, 2, 3):
                pi, pj = proc.eigenpair(i), proc.eigenpair(j)
                val, _ = quad(lambda s: pi.phi(s) * pj.phi(s), 0.0, T,
                              limit=200)
                assert_allclose(val, 1.0 if i == j else 0.0, atol=1e-12)

    def test_mercer_diagonal(self):
        # sum nu_j phi_j(t)^2 converges to Cov(t,t) = t
        t, proc = 0.8, KleProcess.wiener(1.5)
        s = sum(proc.eigenpair(j).value * proc.eigenpair(j).phi(t) ** 2
                for j in range(1, 20001))
        assert_allclose(s, t, atol=1e-4)

    def test_primitive_closed_form(self):
        proc = KleProcess.wiener(1.5)
        assert_allclose(h(proc, 1, 1.5), 1.0529606277092740,
                        rtol=1e-12)
        for j, t in ((1, 0.4), (3, 1.1), (7, 0.9)):
            pair = proc.eigenpair(j)
            ref, _ = quad(lambda s: np.sqrt(pair.value) * pair.phi(s), 0.0, t)
            assert_allclose(h(proc, j, t), ref, atol=1e-12)

    def test_variance_sum_limit(self):
        proc = KleProcess.wiener(1.5)
        for t in (0.5, 1.0, 1.5):
            _, s = kn_sigma(proc, t, 200)
            assert_allclose(s ** 2, t ** 3 / 3.0, atol=1e-4)


class TestBridge:
    def test_eigenvalue_law(self):
        proc = KleProcess.brownian_bridge()
        nus = [proc.eigenpair(j).value for j in (1, 2, 3)]
        assert_allclose(nus[1] / nus[0], 0.25, rtol=1e-14)
        assert_allclose(nus[2] / nus[0], 1.0 / 9.0, rtol=1e-14)

    def test_first_primitive_at_endpoint(self):
        proc = KleProcess.brownian_bridge()
        assert_allclose(h(proc, 1, 1.0), 2.0 * np.sqrt(2) / np.pi ** 2,
                        rtol=1e-13)

    def test_primitive_vs_numeric(self):
        proc = KleProcess.brownian_bridge()
        for j, t in ((2, 0.3), (5, 0.8)):
            pair = proc.eigenpair(j)
            ref, _ = quad(lambda s: np.sqrt(pair.value) * pair.phi(s), 0.0, t)
            assert_allclose(h(proc, j, t), ref, atol=1e-13)

    def test_variance_sum_limit(self):
        proc = KleProcess.brownian_bridge()
        for t in (0.5, 1.0):
            _, s = kn_sigma(proc, t, 200)
            assert_allclose(s ** 2, t ** 3 / 3.0 - t ** 4 / 4.0, atol=1e-4)


class TestExponentialCov:
    C, A = 1.0, 0.5

    def test_root_residuals(self):
        roots = expcov_roots(self.C, self.A, 10)
        for parity, w in roots:
            if parity == "odd":
                res = self.C - w * np.tan(w * self.A)
            else:
                res = w + self.C * np.tan(w * self.A)
            assert abs(res) < 1e-10, (parity, w, res)

    def test_first_roots(self):
        roots = expcov_roots(self.C, self.A, 1)
        assert_allclose(roots[0][1], 1.3065423741888, atol=1e-10)
        assert_allclose(roots[1][1], 3.6731944063042, atol=1e-10)

    @pytest.mark.parametrize("c, a", [(1.0, 0.5), (10.0, 0.5), (0.1, 2.0)])
    def test_roots_match_brent(self, c, a):
        # the pole-bracketed tangent equations solved by Brent's method
        eps, got = 1e-9, expcov_roots(c, a, 200)
        for k in range(1, 201):
            w = brentq(lambda w: c - w * np.tan(w * a), (k - 1) * np.pi / a + eps,
                       (2 * k - 1) * np.pi / (2 * a) - eps, xtol=1e-15)
            ws = brentq(lambda w: w + c * np.tan(w * a),
                        (2 * k - 1) * np.pi / (2 * a) + eps, k * np.pi / a - eps,
                        xtol=1e-15)
            assert got[2 * k - 2] == ("odd", pytest.approx(w, rel=1e-15, abs=0))
            assert got[2 * k - 1] == ("even", pytest.approx(ws, rel=1e-15, abs=0))

    def test_roots_interlace(self):
        ws = [w for _, w in expcov_roots(self.C, self.A, 10)]
        assert np.all(np.diff(ws) > 0)

    def test_eigenvalues_descending(self):
        proc = KleProcess.exponential_cov(self.C, self.A)
        nus = [proc.eigenpair(j).value for j in range(1, 21)]
        assert_allclose(nus[0], 0.73881080941645, rtol=1e-10)
        assert_allclose(nus[1], 0.13800377535426, rtol=1e-10)
        assert np.all(np.diff(nus) < 0)

    def test_eigenfunction_normalization(self):
        proc = KleProcess.exponential_cov(self.C, self.A)
        for j in (1, 2, 3, 4):
            pair = proc.eigenpair(j)
            val, _ = quad(lambda s: pair.phi(s) ** 2, -self.A, self.A)
            assert_allclose(val, 1.0, atol=1e-12)

    def test_eigenfunction_parity(self):
        proc = KleProcess.exponential_cov(self.C, self.A)
        odd = proc.eigenpair(1)    # cosine branch: even function
        even = proc.eigenpair(2)   # sine branch: odd function
        assert (odd.parity, odd.shape, even.parity, even.shape) == \
            ("odd", "cos", "even", "sin")
        assert_allclose(odd.phi(0.3), odd.phi(-0.3), rtol=1e-14)
        assert_allclose(even.phi(0.3), -even.phi(-0.3), rtol=1e-14)

    def test_fredholm_identity(self):
        # eigenpairs satisfy int exp(-c|s-u|) phi(u) du = nu phi(s)
        proc = KleProcess.exponential_cov(self.C, self.A)
        for j in (1, 2, 3):
            pair = proc.eigenpair(j)
            for s in (-0.2, 0.1, 0.4):
                val, _ = quad(lambda u: np.exp(-self.C * abs(s - u)) * pair.phi(u),
                              -self.A, self.A, points=[s], limit=200)
                assert_allclose(val, pair.value * pair.phi(s), atol=1e-10)

    def test_primitive_vs_numeric(self):
        proc = KleProcess.exponential_cov(self.C, self.A)
        for j, t in ((1, 0.2), (2, -0.1), (4, 0.45)):
            pair = proc.eigenpair(j)
            ref, _ = quad(lambda s: np.sqrt(pair.value) * pair.phi(s), -0.5, t)
            assert_allclose(h(proc, j, t), ref, atol=1e-13)

    @pytest.mark.parametrize("t", [-0.25, 0.0, 0.25, 0.5])
    def test_variance_sum_limit(self, t):
        # sum_j H_j(t)^2 -> int int exp(-c|s-u|) ds du over [-a, t]^2
        proc = KleProcess.exponential_cov(self.C, self.A)
        c, L = self.C, t + self.A
        _, s = kn_sigma(proc, t, 2000)
        assert_allclose(s ** 2, 2.0 * (L / c - (1.0 - np.exp(-c * L)) / c ** 2),
                        rtol=0, atol=2e-12)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            expcov_roots(0.0, 0.5, 3)
        with pytest.raises(ValueError):
            KleProcess.exponential_cov().eigenpair(0)
        with pytest.raises(ValueError):
            KleProcess.exponential_cov(-1.0)


class TestProcessFacade:
    def test_eigenpair_caching(self):
        # rows are views of one table, rebuilt only when it grows, and then
        # to at least twice its size
        def one_table(u, v):
            return all(map(np.shares_memory, u, v))

        proc = KleProcess.exponential_cov()
        first = proc.spectrum(3)
        a = proc.eigenpair(3)
        assert proc.eigenpair(3) == a
        assert one_table(first, proc.spectrum(4))
        grown = proc.spectrum(5)
        assert not np.shares_memory(first[0], grown[0])
        assert one_table(grown, proc.spectrum(8))
        with pytest.raises(ValueError):
            grown[0][0] = 1.0

    @pytest.mark.parametrize("make", [KleProcess.wiener,
                                      KleProcess.brownian_bridge,
                                      KleProcess.exponential_cov])
    def test_prefix_independent_of_table_size(self, make):
        fresh, grown = make(), make()
        grown.spectrum(400)
        for x, y in zip(fresh.spectrum(10), grown.spectrum(10)):
            assert np.array_equal(x, y)
        for t in np.linspace(fresh.domain.t0, fresh.domain.T, 7):
            assert np.array_equal(primitive_h(fresh, t, 10),
                                  primitive_h(grown, t, 10))

    def test_expcov_pairs_come_from_one_root_solve(self, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(args)
            return expcov_roots(*args)

        monkeypatch.setattr(kle, "expcov_roots", counted)
        proc = KleProcess.exponential_cov()
        nu, w = proc.spectrum(10)[:2]
        assert len(calls) == 1
        pairs = [proc.eigenpair(j) for j in range(1, 11)]
        primitive_h(proc, 0.25, 10)
        kn_sigma(proc, 0.25, 7)
        assert len(calls) == 1
        for j, pair in enumerate(pairs, 1):
            assert (pair.value, pair.frequency) == (nu[j - 1], w[j - 1])
            # the same pair as from the smallest solve that reaches it
            assert pair == KleProcess.exponential_cov().eigenpair(j)

    def test_mean_primitive_is_zero(self):
        for proc in (KleProcess.wiener(), KleProcess.brownian_bridge(),
                     KleProcess.exponential_cov()):
            assert proc.mean_primitive(proc.domain.T) == 0.0

    def test_domain_guard(self):
        proc = KleProcess.wiener(1.5)
        with pytest.raises(ValueError):
            primitive_h(proc, 2.0, 1)
        with pytest.raises(ValueError):
            kn_sigma(proc, -0.5, 2)
        with pytest.raises(ValueError):
            kn_sigma(proc, 1.0, 0)

    def test_kn_sigma_accumulates(self):
        proc = KleProcess.wiener(1.5)
        _, s1 = kn_sigma(proc, 1.0, 1)
        _, s2 = kn_sigma(proc, 1.0, 2)
        h2 = h(proc, 2, 1.0)
        assert_allclose(s2 ** 2 - s1 ** 2, h2 ** 2, rtol=1e-12)
