import math
import sys
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.integrate import quad, simpson

from logistic_kle import (KleProcess, Problem, e_moment_consecutive,
                          e_moment_exact, e_pdf_consecutive, e_pdf_exact,
                          f1_exact_wiener, density_row, kn_sigma, moments_n,
                          primitive_h, truncated_beta, truncated_exponential)
from logistic_kle.density import k_law
from logistic_kle.stats import (ERROR_P_POINTS, ERROR_T_POINTS,
                                _exact_moment_curves, _simpson, law_moments)

sys.path.insert(0, str(Path(__file__).parent))
from oracles import (boxspline_law, f1_uniform_exact,  # noqa: E402
                     moments_nested_quad, simpson_moments)


@pytest.fixture(scope="module")
def wiener_problem():
    return Problem(KleProcess.wiener(1.5), truncated_beta(7.0, 10.0), 1)


@pytest.fixture(scope="module")
def bridge_problem():
    return Problem(KleProcess.brownian_bridge(),
                   truncated_exponential(10.0), 2)


@pytest.fixture(scope="module")
def expcov_problem():
    return Problem(KleProcess.exponential_cov(1.0, 0.5),
                   truncated_beta(7.0, 10.0), 2)


class TestMoments:
    def test_initial_time_matches_law(self, wiener_problem, bridge_problem,
                                      expcov_problem):
        for prob in (wiener_problem, bridge_problem, expcov_problem):
            mean, var = moments_n(prob, prob.process.domain.t0)
            law_mean, law_var = prob.initial.moments()
            assert_allclose(mean, law_mean, atol=1e-13)
            assert_allclose(var, law_var, atol=1e-13)

    def test_mean_stays_in_unit_interval(self, wiener_problem):
        for t in (0.25, 0.75, 1.5):
            mean, var = moments_n(wiener_problem, t)
            assert 0.0 < mean < 1.0
            assert var > 0.0

    def test_matches_simpson_over_density_rows(self, wiener_problem,
                                               bridge_problem, expcov_problem):
        # the regression oracle: composite Simpson over 2001 density values,
        # which is within 3e-10 at interior times (its (0.001, 0.999)
        # window cuts off the most at the Wiener model's t = 1.5)
        for prob, times in ((wiener_problem, (0.5, 1.0, 1.5)),
                            (bridge_problem, (0.25, 0.5, 0.75))):
            for t in times:
                want = simpson_moments(lambda p: density_row(prob, p, t))
                assert_allclose(moments_n(prob, t), want, rtol=0, atol=1e-9,
                                err_msg=f"{prob.process.kind} t={t}")
        prob, t = expcov_problem, 0.25
        want = simpson_moments(lambda p: np.array(
            [f1_uniform_exact(x, t, prob.process, prob.initial, prob.N)
             for x in p]))
        assert_allclose(moments_n(prob, t), want, rtol=0, atol=1e-9)

    @pytest.mark.parametrize("N", [1, 2, 3])
    def test_law_moments_match_double_integral(self, N, wiener_problem,
                                               bridge_problem, expcov_problem):
        for base, t in ((wiener_problem, 0.9), (bridge_problem, 0.3)):
            prob = Problem(base.process, base.initial, N)
            m, s = kn_sigma(prob.process, t, N)

            def pdf(k):
                z = (k - m) / s
                return math.exp(-0.5 * z * z) / (s * math.sqrt(2.0 * math.pi))

            want = moments_nested_quad(pdf, [m - 12 * s, m, m + 12 * s],
                                       prob.initial)
            assert_allclose(law_moments(k_law(prob, t), prob.initial), want,
                            rtol=0, atol=1e-12,
                            err_msg=f"{prob.process.kind} t={t}")
        prob = Problem(expcov_problem.process, expcov_problem.initial, N)
        for t in (-0.25, 0.3, 0.49):
            c = list(np.sqrt(3.0) * np.abs(primitive_h(prob.process, t, N)))
            pdf, kinks = boxspline_law(c, prob.process.mean_primitive(t))
            want = moments_nested_quad(pdf, kinks, prob.initial)
            assert_allclose(law_moments(k_law(prob, t), prob.initial), want,
                            rtol=0, atol=1e-12, err_msg=f"expcov t={t}")

    def test_exact_wiener_curve_matches_density(self, wiener_problem):
        initial = wiener_problem.initial
        t_grid = np.array([0.0, 0.5, 1.0, 1.5])
        means, varis = _exact_moment_curves(wiener_problem, t_grid)
        for t, mean, var in zip(t_grid, means, varis):
            m1, m2 = (quad(lambda p: p ** j * f1_exact_wiener(initial, p, t),
                           0.0, 1.0, points=[initial.p01, initial.p02],
                           epsabs=1e-15, epsrel=1e-13, limit=200)[0]
                      for j in (1, 2))
            assert_allclose([mean, var], [m1, m2 - m1 * m1], rtol=0,
                            atol=1e-12, err_msg=f"t={t}")


@pytest.mark.parametrize("n, lo, hi", [(ERROR_P_POINTS, 0.0, 1.0),
                                        (ERROR_T_POINTS, 0.0, 1.5),
                                        (ERROR_T_POINTS, -0.5, 0.5)])
def test_simpson_matches_scipy(n, lo, hi):
    x = np.linspace(lo, hi, n)
    rng = np.random.default_rng(n)
    for y in (np.abs(np.sin(7.0 * x)), np.exp(-x * x), rng.random(n)):
        assert_allclose(_simpson(y, x), simpson(y, x=x), rtol=1e-14, atol=0)


class TestPdfErrors:
    def test_exact_reference_self_distance_vanishes(self, wiener_problem):
        # feeding the density's own values as the reference must give ~0
        prob = wiener_problem

        def self_ref(p, t):
            from logistic_kle import f1n_collapsed
            return f1n_collapsed(prob, p, t)

        assert e_pdf_exact(prob, 0.75, exact=self_ref) < 1e-14

    def test_wiener_regression_value(self, wiener_problem):
        assert_allclose(e_pdf_exact(wiener_problem, 0.5), 0.037416,
                        atol=2e-6)

    def test_bridge_consecutive_regression_value(self, bridge_problem):
        assert_allclose(e_pdf_consecutive(bridge_problem, 0.25), 0.010181,
                        atol=2e-6)

    def test_expcov_consecutive_regression_value(self, expcov_problem):
        assert_allclose(e_pdf_consecutive(expcov_problem, 0.0), 0.029742,
                        atol=5e-6)

    def test_exact_requires_reference(self, bridge_problem):
        with pytest.raises(ValueError):
            e_pdf_exact(bridge_problem, 0.25)

    def test_consecutive_needs_two_orders(self, wiener_problem):
        with pytest.raises(ValueError):
            e_pdf_consecutive(wiener_problem, 0.5)  # problem has N = 1

    def test_explicit_exact_callable_for_other_models(self, bridge_problem):
        # any callable reference is accepted, e.g. a higher-order curve
        import dataclasses
        rich = dataclasses.replace(bridge_problem, N=6)
        val = e_pdf_exact(bridge_problem, 0.25,
                          exact=lambda p, t: density_row(rich, p, t))
        # distance to N=6 should be close to the N=2 vs exact scale
        assert 0.0 < val < 0.02


class TestMomentErrors:
    def test_wiener_exact_moment_errors(self, wiener_problem):
        assert_allclose(e_moment_exact(wiener_problem, "mean"), 0.000659,
                        atol=2e-6)

    def test_exact_moments_need_wiener(self, bridge_problem):
        with pytest.raises(ValueError):
            e_moment_exact(bridge_problem, "mean")

    def test_consecutive_decreases_with_order(self, bridge_problem):
        e2 = e_moment_consecutive(bridge_problem, "variance", N=2)
        e3 = e_moment_consecutive(bridge_problem, "variance", N=3)
        assert e3 < e2

    def test_kind_validated(self, wiener_problem, bridge_problem):
        with pytest.raises(ValueError):
            e_moment_exact(wiener_problem, "skewness")
        with pytest.raises(ValueError):
            e_moment_consecutive(bridge_problem, "median")

    def test_consecutive_needs_two_orders(self, bridge_problem):
        with pytest.raises(ValueError):
            e_moment_consecutive(bridge_problem, "mean", N=1)

