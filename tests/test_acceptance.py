"""End-to-end acceptance checks, one test per criterion.

Run with ``pytest tests/test_acceptance.py -v`` to get one pass/fail line per
criterion.  Reference error values are the independently tabulated results
for these three model configurations; where a converged computation cannot
reproduce a reference entry, the test fails with the measured value spelled
out rather than with a loosened tolerance.
"""

import functools
import time

import numpy as np
from scipy.integrate import simpson
from scipy.optimize import brentq

from logistic_kle import (KleProcess, McConfig, Problem, e_moment_consecutive,
                          e_moment_exact, e_pdf_consecutive, e_pdf_exact,
                          expcov_roots, f1n_collapsed, kn_sigma,
                          mc_density_check, truncated_beta,
                          truncated_exponential)
from logistic_kle.density import f1n_eval

# ---------------------------------------------------------------------------
# model configurations


@functools.lru_cache(maxsize=None)
def ex1(N):
    """Wiener coefficient on [0, 1.5], Beta(7,10) initial on [0.1, 0.9]."""
    return Problem(KleProcess.wiener(1.5), truncated_beta(7.0, 10.0), N)


@functools.lru_cache(maxsize=None)
def ex2(N):
    """Brownian-bridge coefficient on [0, 1], Exp(10) initial on [0.1, 0.9]."""
    return Problem(KleProcess.brownian_bridge(), truncated_exponential(10.0), N)


@functools.lru_cache(maxsize=None)
def ex3(N):
    """Exponential-covariance coefficient (c=1) on [-0.5, 0.5], Beta(7,10)."""
    return Problem(KleProcess.exponential_cov(1.0, 0.5),
                   truncated_beta(7.0, 10.0), N)


EX1_TIMES = (0.50, 0.75, 1.00, 1.50)
EX2_TIMES = (0.25, 0.40, 0.50)
EX3_TIMES = (-0.25, 0.0, 0.25)

# reference L1 density errors vs the exact density, example 1: {(t, N): value}
EX1_PDF_REF = {
    (0.50, 1): 0.037418, (0.50, 2): 0.013544, (0.50, 3): 0.003149,
    (0.75, 1): 0.059518, (0.75, 2): 0.006964, (0.75, 3): 0.000652,
    (1.00, 1): 0.048595, (1.00, 2): 0.001153, (1.00, 3): 0.000987,
    (1.50, 1): 0.005737, (1.50, 2): 0.000789, (1.50, 3): 0.000648,
}

# reference time-integrated moment errors vs exact, example 1: N = 1..4
EX1_MEAN_REF = (0.000659, 0.000085, 0.000029, 0.000009)
EX1_VAR_REF = (0.001756, 0.000225, 0.000077, 0.000035)

# reference consecutive-truncation L1 density errors, example 2: {(t, N)}
EX2_PDF_REF = {
    (0.25, 2): 0.002382, (0.25, 3): 0.001275, (0.25, 4): 0.000604,
    (0.40, 2): 0.004166, (0.40, 3): 0.000746, (0.40, 4): 0.000252,
    (0.50, 2): 0.003935, (0.50, 3): 0.000471, (0.50, 4): 0.000306,
}

# reference consecutive moment errors, example 2: N = 2..4
EX2_MEAN_REF = (0.000027, 0.000005, 0.000002)
EX2_VAR_REF = (0.000053, 0.000011, 0.000004)

# reference consecutive errors, example 3 (correlation length not stated
# with the reference values, so these anchor an order-of-magnitude check
# only): {(t, N)} and N = 2..3
EX3_PDF_REF = {
    (-0.25, 2): 0.022077, (-0.25, 3): 0.004105,
    (0.0, 2): 0.029739, (0.0, 3): 0.000044,
    (0.25, 2): 0.009479, (0.25, 3): 0.000975,
}
EX3_MEAN_REF = (0.000216, 0.000016)
EX3_VAR_REF = (0.000575, 0.000042)


def _check_entry(label, got, ref, rel, abs_, failures):
    tol = max(rel * ref, abs_)
    if abs(got - ref) > tol:
        failures.append(f"{label}: got {got:.6f}, reference {ref:.6f}, "
                        f"|diff| {abs(got - ref):.2e} > tol {tol:.2e}")


# ---------------------------------------------------------------------------


def test_c01_ex1_pdf_error_table():
    start = time.perf_counter()
    failures = []
    for t in EX1_TIMES:
        for N in (1, 2, 3):
            got = e_pdf_exact(ex1(N), t)
            _check_entry(f"(t={t:.2f}, N={N})", got, EX1_PDF_REF[(t, N)],
                         0.10, 2e-4, failures)
    elapsed = time.perf_counter() - start
    assert elapsed < 600.0, f"collapsed-path table took {elapsed:.0f}s"
    assert not failures, (
        f"{len(failures)}/12 entries outside max(10% rel, 2e-4 abs) "
        "(measured values are quadrature-converged; see "
        "tests/test_known_failures.py):\n" + "\n".join(failures))


def test_c02_ex1_moment_error_table():
    failures = []
    means = [e_moment_exact(ex1(N), "mean") for N in (1, 2, 3, 4)]
    vars_ = [e_moment_exact(ex1(N), "variance") for N in (1, 2, 3, 4)]
    for N, (got, ref) in enumerate(zip(means, EX1_MEAN_REF), start=1):
        _check_entry(f"(mean, N={N})", got, ref, 0.25, 2e-5, failures)
    for N, (got, ref) in enumerate(zip(vars_, EX1_VAR_REF), start=1):
        _check_entry(f"(variance, N={N})", got, ref, 0.25, 2e-5, failures)
    assert not failures, "\n".join(failures)
    assert np.all(np.diff(means) <= 0), f"mean errors not nonincreasing: {means}"
    assert np.all(np.diff(vars_) <= 0), f"variance errors not nonincreasing: {vars_}"


def test_c03_ex2_pdf_error_table():
    failures = []
    for t in EX2_TIMES:
        for N in (2, 3, 4):
            got = e_pdf_consecutive(ex2(N), t)
            _check_entry(f"(t={t:.2f}, N={N})", got, EX2_PDF_REF[(t, N)],
                         0.15, 5e-4, failures)
    assert not failures, (
        f"{len(failures)}/9 entries outside max(15% rel, 5e-4 abs) "
        "(measured values are quadrature-converged for the stated Exp(10) "
        "initial law; see tests/test_known_failures.py):\n"
        + "\n".join(failures))


def test_c04_ex2_moment_error_table():
    failures = []
    means = [e_moment_consecutive(ex2(N), "mean", N) for N in (2, 3, 4)]
    vars_ = [e_moment_consecutive(ex2(N), "variance", N) for N in (2, 3, 4)]
    assert np.all(np.diff(means) < 0), f"mean errors not strictly decreasing: {means}"
    assert np.all(np.diff(vars_) < 0), f"variance errors not strictly decreasing: {vars_}"
    for N, (got, ref) in enumerate(zip(means, EX2_MEAN_REF), start=2):
        _check_entry(f"(mean, N={N})", got, ref, 0.25, 1e-5, failures)
    for N, (got, ref) in enumerate(zip(vars_, EX2_VAR_REF), start=2):
        _check_entry(f"(variance, N={N})", got, ref, 0.25, 1e-5, failures)
    assert not failures, (
        "entries outside max(25% rel, 1e-5 abs) (measured values are "
        "quadrature-converged for the stated Exp(10) initial law; see "
        "tests/test_known_failures.py):\n" + "\n".join(failures))


def test_c05_ex3_convergence_and_mc_probes():
    # consecutive-truncation errors: nonincreasing in N at every tabulated t,
    # and within one order of magnitude of the reference entries
    failures = []
    for t in EX3_TIMES:
        e2 = e_pdf_consecutive(ex3(2), t)
        e3 = e_pdf_consecutive(ex3(3), t)
        if e3 > e2:
            failures.append(f"density error increased N=2->3 at t={t}")
        for N, got in ((2, e2), (3, e3)):
            ref = EX3_PDF_REF[(t, N)]
            if not (0.1 * ref <= got <= 10.0 * ref):
                failures.append(f"(t={t}, N={N}): {got:.6f} not within 10x "
                                f"of {ref:.6f}")
    for kind, refs in (("mean", EX3_MEAN_REF), ("variance", EX3_VAR_REF)):
        e2 = e_moment_consecutive(ex3(2), kind, 2)
        e3 = e_moment_consecutive(ex3(3), kind, 3)
        if e3 > e2:
            failures.append(f"{kind} error increased N=2->3")
        for N, got, ref in ((2, e2, refs[0]), (3, e3, refs[1])):
            if not (0.1 * ref <= got <= 10.0 * ref):
                failures.append(f"({kind}, N={N}): {got:.6f} not within 10x "
                                f"of {ref:.6f}")
    assert not failures, "\n".join(failures)

    # box-spline density vs the MC oracle at three (p, t) probes
    for t, p in ((-0.25, 0.45), (0.0, 0.5), (0.25, 0.55)):
        rep = mc_density_check(ex3(2), t,
                               McConfig(seed=1234, samples=10 ** 6, bins=100))
        assert rep.max_abs_z < 4.0, f"t={t}: max|z| = {rep.max_abs_z:.2f}"
        i = int(np.searchsorted(rep.bin_edges, p)) - 1
        assert abs(rep.z_scores[i]) < 4.0, \
            f"probe bin at (p={p}, t={t}): z = {rep.z_scores[i]:.2f}"


def test_c06_initial_time_identity_and_normalization():
    p50 = np.linspace(0.01, 0.99, 50)
    for prob, times in ((ex1(2), EX1_TIMES), (ex2(2), EX2_TIMES),
                        (ex3(2), EX3_TIMES)):
        t0 = prob.process.domain.t0
        f0 = prob.initial.pdf(p50)
        for p, want in zip(p50, f0):
            got = f1n_eval(prob, float(p), t0)
            assert abs(got - want) <= 1e-12, \
                f"{prob.process.kind}: |f(p,t0) - f0(p)| = {abs(got - want):.2e} at p={p}"

        p_full = np.linspace(0.0, 1.0, 2001)
        for t in times:
            row = f1n_collapsed(prob, p_full[1:-1], t)
            mass = simpson(np.concatenate([[0.0], row, [0.0]]), x=p_full)
            assert abs(mass - 1.0) <= 1e-3, \
                f"{prob.process.kind}: mass {mass:.6f} at t={t}"


def test_c07_tensor_vs_collapsed_paths():
    probes = {ex1: (0.1, 0.2, 0.3), ex2: (0.15, 0.25, 0.35)}
    for maker, times in probes.items():
        for N in (1, 2, 3):
            prob = maker(N)
            for t in times:
                for p in (0.3, 0.5, 0.7):
                    a = f1n_eval(prob, p, t)
                    b = f1n_collapsed(prob, p, t)
                    assert abs(a - b) <= 1e-6, \
                        f"{prob.process.kind} N={N} (p={p}, t={t}): |diff| = {abs(a - b):.2e}"


def test_c08_kle_variance_convergence():
    _, s_w = kn_sigma(KleProcess.wiener(1.5), 1.0, 200)
    assert abs(s_w ** 2 - 1.0 / 3.0) <= 1e-4
    _, s_b = kn_sigma(KleProcess.brownian_bridge(), 1.0, 200)
    assert abs(s_b ** 2 - (1.0 / 3.0 - 1.0 / 4.0)) <= 1e-4


def test_c09_transcendental_roots():
    c, a = 1.0, 0.5
    roots = expcov_roots(c, a, 10)
    assert len(roots) == 20
    for parity, w in roots:
        if parity == "odd":
            res = c - w * np.tan(w * a)
        else:
            res = w + c * np.tan(w * a)
        assert abs(res) < 1e-10, f"{parity} root {w}: residual {res:.2e}"
    # independent bisection oracle for the first odd root
    first = brentq(lambda w: c - w * np.tan(w * a), 0.1, np.pi / a / 2 - 1e-9,
                   xtol=1e-12)
    assert abs(roots[0][1] - 1.3065) <= 1e-3
    assert abs(roots[0][1] - first) <= 1e-9


def test_c10_mc_validation_per_example():
    # example 2 at t=0.25 needs narrow bins: the density's support-edge flank
    # (image of the Exp(10) jump under a sigma ~ 0.065 kernel) is about as
    # wide as one bin of a 100-bin grid, and midpoint-times-width expected
    # frequencies average across it
    cases = (
        (ex1(2), 0.75, 100),
        (ex2(2), 0.25, 400),
        (ex3(2), 0.25, 100),
    )
    for prob, t, bins in cases:
        cfg = McConfig(seed=42, samples=10 ** 6, bins=bins)
        rep = mc_density_check(prob, t, cfg)
        label = prob.process.kind
        assert rep.max_abs_z < 4.0, f"{label}: max|z| = {rep.max_abs_z:.2f}"
        assert abs(rep.mc_mean - rep.density_mean) <= 3.0 * rep.mc_mean_se, \
            f"{label}: mean off by {abs(rep.mc_mean - rep.density_mean) / rep.mc_mean_se:.2f} se"
        assert abs(rep.mc_var - rep.density_var) <= 3.0 * rep.mc_var_se, \
            f"{label}: variance off by {abs(rep.mc_var - rep.density_var) / rep.mc_var_se:.2f} se"

        again = mc_density_check(prob, t, cfg)
        assert again.counts.tobytes() == rep.counts.tobytes()
        assert again.bin_edges.tobytes() == rep.bin_edges.tobytes()
        assert again.expected_freq.tobytes() == rep.expected_freq.tobytes()
        assert again.z_scores.tobytes() == rep.z_scores.tobytes()
        assert (again.max_abs_z, again.l1_distance, again.mc_mean,
                again.mc_var) == (rep.max_abs_z, rep.l1_distance,
                                  rep.mc_mean, rep.mc_var)
