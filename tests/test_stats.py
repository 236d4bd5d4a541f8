import numpy as np
import pytest
from numpy.testing import assert_allclose

from logistic_kle import (ErrorReport, KleProcess, Problem,
                          e_moment_consecutive, e_moment_exact,
                          e_pdf_consecutive, e_pdf_exact, f1_exact_wiener,
                          density_row, moments_n, truncated_beta,
                          truncated_exponential)


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
        # the fixed Simpson grid sees the initial law's jump at the support
        # edges; the beta kernel is ~4e-7 there, the exponential one ~10,
        # which sets the achievable agreement
        for prob, tol in ((wiener_problem, 1e-6), (bridge_problem, 1e-4),
                          (expcov_problem, 1e-6)):
            mean, var = moments_n(prob, prob.process.domain.t0)
            law_mean, law_var = prob.initial.moments()
            assert_allclose(mean, law_mean, atol=tol)
            assert_allclose(var, law_var, atol=tol)

    def test_mean_stays_in_unit_interval(self, wiener_problem):
        for t in (0.25, 0.75, 1.5):
            mean, var = moments_n(wiener_problem, t)
            assert 0.0 < mean < 1.0
            assert var > 0.0


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


class TestErrorReport:
    def test_negative_value_rejected(self):
        with pytest.raises(ValueError):
            ErrorReport(kind="pdf_vs_exact", t=0.5, N=1, value=-1e-3)

    def test_fields_round_trip(self):
        rep = ErrorReport(kind="mean_consecutive", t=None, N=3, value=0.25)
        assert (rep.kind, rep.t, rep.N, rep.value) == \
            ("mean_consecutive", None, 3, 0.25)
