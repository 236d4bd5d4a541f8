import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.integrate import simpson
from scipy.special import expit, logit

from logistic_kle import (KleProcess, Problem, f1_exact_wiener,
                          f1n_collapsed, f1n_eval, kn_sigma, primitive_h,
                          rvt_kernel, truncated_beta, truncated_exponential)
from logistic_kle.density import (MAX_BOX_N, BoxSplineLaw, NormalLaw,
                                  _f1n_tensor_many, k_law, law_rule,
                                  wiener_law)

sys.path.insert(0, str(Path(__file__).parent))
from oracles import (boxspline_pdf, boxspline_pdf_mp,  # noqa: E402
                     f1_uniform_exact)

EX3_TIMES = (-0.49, -0.25, 0.0, 0.25, 0.49)


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


class TestRvtKernel:
    def test_zero_shift_is_identity(self):
        arg, jac = rvt_kernel(0.37, 0.0)
        assert_allclose(arg, 0.37, rtol=1e-15)
        assert_allclose(jac, 1.0, rtol=1e-15)

    def test_log_two_shift(self):
        arg, jac = rvt_kernel(0.5, np.log(2.0))
        assert_allclose(arg, 1.0 / 3.0, rtol=1e-14)
        assert_allclose(jac, 8.0 / 9.0, rtol=1e-14)

    def test_extreme_shifts_saturate(self):
        arg_hi, jac_hi = rvt_kernel(0.5, 800.0)
        arg_lo, jac_lo = rvt_kernel(0.5, -800.0)
        assert np.isfinite([arg_hi, jac_hi, arg_lo, jac_lo]).all()
        assert arg_hi < 1e-300 and jac_hi < 1e-300
        assert arg_lo > 1.0 - 1e-12 and jac_lo < 1e-300

    def test_vectorized_matches_scalar(self):
        p = np.array([0.2, 0.5, 0.8])
        K = np.array([-3.0, 0.4, 12.0])
        arg, jac = rvt_kernel(p, K)
        for i in range(3):
            a, j = rvt_kernel(float(p[i]), float(K[i]))
            assert_allclose([arg[i], jac[i]], [a, j], rtol=1e-15)

    @settings(max_examples=300, deadline=None)
    @given(p=st.floats(1e-6, 1.0 - 1e-6), K=st.floats(-700.0, 700.0))
    def test_algebraic_identities(self, p, K):
        arg, jac = rvt_kernel(p, K)
        assert 0.0 <= arg <= 1.0
        assert jac >= 0.0
        if 1e-12 < arg < 1.0 - 1e-12:
            # the map is logit-shift by -K, and the jacobian is the
            # derivative q(1-q)/(p(1-p)) of that reparametrization.  A double
            # near 1 keeps only the absolute digits of 1 - arg, so the
            # references avoid forming 1 - arg: q(1-q) is expit(x) expit(-x),
            # and for arg > 1/2 the logit shift is checked on the mirrored
            # point rvt_kernel(1 - p, -K), which maps to 1 - arg
            x = logit(p) - K
            if arg <= 0.5:
                assert_allclose(logit(arg), x, atol=1e-8)
            else:
                mirror, _ = rvt_kernel(1.0 - p, -K)
                assert_allclose(logit(mirror), -x, atol=1e-8)
            assert_allclose(jac, expit(x) * expit(-x) / (p * (1.0 - p)),
                            rtol=1e-9)


class TestKn:
    """K_N(t) = m(t) + h(t) . xi with h = primitive_h(process, t, N)."""

    def test_zero_at_time_origin(self, wiener_problem):
        assert np.all(primitive_h(wiener_problem.process, 0.0, 2) == 0.0)
        assert kn_sigma(wiener_problem.process, 0.0, 2) == (0.0, 0.0)

    def test_sigma_is_norm_of_h_vector(self, wiener_problem):
        _, sigma = kn_sigma(wiener_problem.process, 1.0, wiener_problem.N)
        h = primitive_h(wiener_problem.process, 1.0, wiener_problem.N)
        assert_allclose(sigma, np.linalg.norm(h), rtol=1e-14)

    def test_single_mode_recovers_primitive(self):
        process = KleProcess.wiener(1.5)
        h1 = primitive_h(process, 1.5, 1)
        assert h1.shape == (1,)
        assert_allclose(primitive_h(process, 1.5, 3)[0], h1[0], rtol=1e-14)
        assert_allclose(kn_sigma(process, 1.5, 1)[1], abs(h1[0]), rtol=1e-14)

    def test_domain_enforced(self):
        with pytest.raises(ValueError):
            primitive_h(KleProcess.wiener(1.5), 5.0, 1)


class TestPointEvaluation:
    def test_initial_time_returns_initial_pdf(self, wiener_problem,
                                              expcov_problem):
        # at t0 every H_j is 0, so the law of K is a point mass
        for prob in (wiener_problem, expcov_problem):
            p = np.array([0.15, 0.4, 0.85])
            t0 = prob.process.domain.t0
            assert np.array_equal(f1n_collapsed(prob, p, t0),
                                  prob.initial.pdf(p))

    def test_outside_image_support_is_zero(self, wiener_problem):
        # at small t the density support is barely wider than [p01, p02]
        assert f1n_eval(wiener_problem, 0.005, 0.1) == 0.0

    def test_tensor_matches_boxspline_oracle(self, expcov_problem):
        # independent closed-form reference for uniform KLE coordinates
        proc, ini = expcov_problem.process, expcov_problem.initial
        for N, tol in ((1, 1e-12), (2, 1e-12), (3, 2e-7)):
            prob = Problem(proc, ini, N)
            for t in (-0.25, 0.0, 0.25):
                for p in (0.3, 0.45, 0.6):
                    want = f1_uniform_exact(p, t, proc, ini, N, order=60)
                    assert_allclose(f1n_eval(prob, p, t), want, atol=tol,
                                    err_msg=f"N={N} t={t} p={p}")

    def test_tensor_matches_collapsed_for_gaussian(self, wiener_problem):
        for t in (0.1, 0.2, 0.3):
            for p in (0.3, 0.5, 0.7):
                assert_allclose(f1n_eval(wiener_problem, p, t),
                                f1n_collapsed(wiener_problem, p, t),
                                atol=1e-6)

    def test_tensor_matches_collapsed_for_uniform(self, expcov_problem):
        # the tensor rule misses the box-spline kinks by up to ~1.1e-3
        p = np.linspace(0.05, 0.95, 91)
        for N in (1, 2, 3):
            prob = Problem(expcov_problem.process, expcov_problem.initial, N)
            for t in EX3_TIMES:
                assert_allclose(_f1n_tensor_many(prob, p, t),
                                f1n_collapsed(prob, p, t), atol=2e-3,
                                err_msg=f"N={N} t={t}")


class TestBoxSplineLaw:
    def test_matches_closed_form(self):
        rng = np.random.default_rng(3)
        for N in (1, 2, 3, 4):
            c = rng.uniform(0.05, 1.0, N)
            x = np.linspace(-1.1 * c.sum(), 1.1 * c.sum(), 801)
            assert_allclose(BoxSplineLaw.from_widths(c).pdf(x),
                            boxspline_pdf(x, c), rtol=0, atol=1e-13,
                            err_msg=f"N={N}")

    @pytest.mark.parametrize("N", [7, 8])
    @pytest.mark.parametrize("c", [0.1, 1.0])
    def test_matches_high_precision_reference(self, N, c):
        # equal widths: the Irwin-Hall density, where the double-precision
        # corner sum cancels worst
        x = np.linspace(-N * c, N * c, 61)
        want = boxspline_pdf_mp(x, [c] * N)
        got = BoxSplineLaw.from_widths([c] * N).pdf(x)
        assert np.max(np.abs(got - want)) <= 1e-12 * want.max()

    def test_zero_and_tiny_widths(self):
        law = BoxSplineLaw.from_widths([0.0, 1e-14, 0.3, 1.0])
        x = np.linspace(-1.45, 1.45, 291)
        assert_allclose(law.pdf(x), boxspline_pdf(x, [0.3, 1.0]), atol=1e-13)
        point = BoxSplineLaw.from_widths([0.0, 0.0])
        assert point.breaks().tolist() == [0.0, 0.0]
        assert np.all(point.pdf(x) == 0.0)

    def test_laws_by_coordinate_law(self, wiener_problem, expcov_problem):
        law = k_law(wiener_problem, 0.75)
        assert isinstance(law, NormalLaw)
        assert (law.mean, law.sigma) == kn_sigma(wiener_problem.process, 0.75, 2)
        box = k_law(expcov_problem, 0.25)
        assert isinstance(box, BoxSplineLaw)
        h = primitive_h(expcov_problem.process, 0.25, expcov_problem.N)
        c = np.sqrt(3.0) * np.abs(h)
        assert_allclose(box.breaks()[[0, -1]], [-c.sum(), c.sum()], rtol=1e-15)


class TestLawRule:
    def test_probability_weights_match_law_moments(self, wiener_problem,
                                                   expcov_problem):
        for prob, t in ((wiener_problem, 0.9), (expcov_problem, -0.2),
                        (expcov_problem, 0.49)):
            k, w = law_rule(k_law(prob, t))
            m, sigma = kn_sigma(prob.process, t, prob.N)
            assert_allclose([w.sum(), w @ k, w @ (k - m) ** 2],
                            [1.0, m, sigma ** 2], rtol=1e-13, atol=1e-16,
                            err_msg=f"{prob.process.kind} t={t}")

    def test_point_mass_is_one_node(self, wiener_problem, expcov_problem):
        for law in (k_law(wiener_problem, 0.0), k_law(expcov_problem, -0.5),
                    wiener_law(0.0)):
            k, w = law_rule(law)
            assert (k.tolist(), w.tolist()) == ([0.0], [1.0])

    def test_wiener_law(self):
        assert wiener_law(1.5) == NormalLaw(0.0, np.sqrt(1.5 ** 3 / 3.0))
        with pytest.raises(ValueError, match="outside"):
            wiener_law(1.6)


class TestCollapsed:
    def test_initial_time(self, bridge_problem):
        p = np.linspace(0.12, 0.88, 9)
        assert_allclose(f1n_collapsed(bridge_problem, p, 0.0),
                        bridge_problem.initial.pdf(p), atol=0.0)

    def test_uniform_coordinates_rejected(self, expcov_problem):
        # only beyond the box-spline size guard
        big = Problem(expcov_problem.process, expcov_problem.initial,
                      MAX_BOX_N + 1)
        with pytest.raises(ValueError, match="box-spline law of 11 widths"):
            f1n_collapsed(big, 0.5, 0.25)

    def test_uniform_matches_boxspline_oracle(self, expcov_problem):
        p = np.linspace(0.02, 0.98, 25)
        for N in (1, 2, 3):
            prob = Problem(expcov_problem.process, expcov_problem.initial, N)
            for t in EX3_TIMES:
                want = [f1_uniform_exact(x, t, prob.process, prob.initial, N)
                        for x in p]
                assert_allclose(f1n_collapsed(prob, p, t), want, rtol=0,
                                atol=1e-12, err_msg=f"N={N} t={t}")

    def test_normalization(self, wiener_problem):
        p = np.linspace(0.0, 1.0, 2001)
        for t in (0.5, 1.5):
            f = f1n_collapsed(wiener_problem, p[1:-1], t)
            mass = simpson(np.concatenate([[0.0], f, [0.0]]), x=p)
            assert_allclose(mass, 1.0, atol=1e-6)

    def test_scalar_p_matches_row(self, expcov_problem):
        got = f1n_collapsed(expcov_problem, 0.45, 0.25)
        assert isinstance(got, float)
        assert got == f1n_collapsed(expcov_problem, np.array([0.45]), 0.25)[0]


class TestNearT0:
    """Rows just after t0 equal the initial density to rounding: the law of
    K is then narrower than an ulp of logit(p), and H_j(t) is a difference
    of nearby trigonometric values.  Away from p01 and p02, where the spread
    of K smooths the initial density's jumps, the true change is O(sigma^2),
    below 1e-15 at these times."""

    P = np.linspace(0.105, 0.895, 159)

    @pytest.mark.parametrize("make, dt", [
        (KleProcess.wiener, 1e-8), (KleProcess.wiener, 1e-6),
        (KleProcess.wiener, 1e-4),
        (KleProcess.exponential_cov, 2e-12), (KleProcess.exponential_cov, 1e-10),
    ])
    def test_row_is_initial_pdf(self, make, dt):
        prob = Problem(make(), truncated_beta(7.0, 10.0), 3)
        t = prob.process.domain.t0 + dt
        assert_allclose(f1n_collapsed(prob, self.P, t),
                        prob.initial.pdf(self.P), rtol=0, atol=1e-13)


class TestExactWiener:
    def test_initial_time(self):
        law = truncated_beta(7.0, 10.0)
        p = np.linspace(0.15, 0.85, 11)
        assert_allclose(f1_exact_wiener(law, p, 0.0), law.pdf(p), atol=0.0)

    def test_normalization(self):
        law = truncated_beta(7.0, 10.0)
        p = np.linspace(0.0, 1.0, 2001)
        for t in (0.5, 1.5):
            f = f1_exact_wiener(law, p[1:-1], t)
            mass = simpson(np.concatenate([[0.0], f, [0.0]]), x=p)
            assert_allclose(mass, 1.0, atol=1e-6)

    def test_truncation_converges_to_exact(self):
        # with 200 modes the truncated variance matches t^3/3 to ~1e-8
        law = truncated_beta(7.0, 10.0)
        prob = Problem(KleProcess.wiener(1.5), law, 200)
        got = f1n_collapsed(prob, 0.4, 1.0)
        want = f1_exact_wiener(law, 0.4, 1.0)
        assert abs(got - want) < 1e-6


class TestDensityGrid:
    """Row contracts: ``f1n_collapsed`` is the one evaluator of a density
    row in p, for both coordinate laws and at every t including t0."""

    def test_grid_validation(self, wiener_problem):
        law = wiener_problem.initial
        for p in (np.array([0.5, 1.0]), np.array([0.0, 0.5]), 1.5):
            with pytest.raises(ValueError, match=r"p must lie in \(0, 1\)"):
                f1n_collapsed(wiener_problem, p, 0.75)
            with pytest.raises(ValueError, match=r"p must lie in \(0, 1\)"):
                f1_exact_wiener(law, p, 0.75)
        with pytest.raises(ValueError, match="outside"):
            f1n_collapsed(wiener_problem, 0.5, 2.5)

    def test_density_row_picks_path_by_coordinate_law(self, wiener_problem,
                                                      expcov_problem):
        # one engine for both coordinate laws, through the law of K: the
        # row at t0 is the initial density, and a row off t0 is the
        # pointwise density to rounding
        p = np.array([0.3, 0.45, 0.6])
        for prob, t in ((wiener_problem, 0.75), (expcov_problem, 0.25)):
            t0 = prob.process.domain.t0
            assert np.array_equal(f1n_collapsed(prob, p, t0),
                                  prob.initial.pdf(p))
            assert_allclose(f1n_collapsed(prob, p, t),
                            [f1n_collapsed(prob, x, t) for x in p],
                            rtol=1e-14, atol=0.0)
            with pytest.raises(ValueError, match=r"p must lie in \(0, 1\)"):
                f1n_collapsed(prob, np.array([0.5, 1.0]), t0)
