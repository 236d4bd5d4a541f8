"""Property tests of the density engine over the parameter space: the three
covariance models, truncation orders up to 5, narrow supports and supports
near 0 or 1, and times down to t0 + 10^-14.

Rows must be nonnegative and carry unit mass, checked by adaptive ``quad``
in the logit variable v = logit(p), where the density of logit(P_t) is the
initial logit-density convolved with the law of K_N(t).  ``quad`` calls the
density one p at a time, and a box-spline row of N widths has up to
2^N - 1 panels, so the mass test takes uniform coordinates up to N = 3
only.  The Gauss rule over the law (``law_rule``) must reproduce its mass,
mean m(t) and variance sigma_N(t)^2.

Initial laws, Beta with parameters in [0.5, 10] or truncated exponential,
are drawn on every support kind, near 1 included: a Beta support in the
far upper tail is computed in the mirrored variable 1 - p.  The Beta
inverse CDF must match ``betaincinv`` to 1e-12 relative down to tails of
1e-12, with the target formed from the nearer end of the support and the
upper tail inverted through ``betainccinv`` (``oracles.beta_ppf_exact``).
"""

import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.integrate import quad
from scipy.special import expit, logit

from logistic_kle import (KleProcess, Problem, f1n_collapsed, kn_sigma,
                          truncated_beta, truncated_exponential)
from logistic_kle.density import k_law, law_rule

sys.path.insert(0, str(Path(__file__).parent))
from oracles import beta_ppf_exact  # noqa: E402


@st.composite
def processes(draw):
    kind = draw(st.sampled_from(["wiener", "bridge", "expcov"]))
    if kind == "wiener":
        return KleProcess.wiener(draw(st.floats(0.5, 1.5)))
    if kind == "bridge":
        return KleProcess.brownian_bridge()
    return KleProcess.exponential_cov(draw(st.floats(0.1, 10.0)),
                                      draw(st.floats(0.1, 1.0)))


@st.composite
def initial_laws(draw, beta=None):
    shape = draw(st.sampled_from(["wide", "narrow", "near0", "near1"]))
    beta = draw(st.booleans()) if beta is None else beta
    if shape == "wide":
        p01, p02 = draw(st.floats(1e-3, 0.3)), draw(st.floats(0.5, 0.999))
    elif shape == "narrow":
        width = 10.0 ** -draw(st.floats(2.0, 4.0))
        p01 = draw(st.floats(1e-3, 0.999 - width))
        p02 = p01 + width
    elif shape == "near0":
        p01 = 10.0 ** -draw(st.floats(2.0, 6.0))
        p02 = min(p01 * draw(st.floats(2.0, 1000.0)), 0.5)
    else:
        q02 = 10.0 ** -draw(st.floats(2.0, 4.0))
        p01, p02 = 1.0 - q02 * draw(st.floats(2.0, 50.0)), 1.0 - q02
    if beta:
        return truncated_beta(draw(st.floats(0.5, 10.0)),
                              draw(st.floats(0.5, 10.0)), p01, p02)
    return truncated_exponential(draw(st.floats(0.1, 50.0)), p01, p02)


@st.composite
def times(draw, process):
    dom = process.domain
    if draw(st.booleans()):
        return min(dom.t0 + 10.0 ** -draw(st.integers(0, 14)), dom.T)
    return dom.t0 + draw(st.floats(0.0, 1.0)) * (dom.T - dom.t0)


@st.composite
def problems(draw, max_uniform_n=5):
    process = draw(processes())
    top = 5 if process.xi_law.kind == "gaussian" else max_uniform_n
    prob = Problem(process, draw(initial_laws()), draw(st.integers(1, top)))
    return prob, draw(times(process))


@settings(max_examples=40, deadline=None)
@given(problems())
def test_law_rule_moments(case):
    prob, t = case
    k, w = law_rule(k_law(prob, t))
    m, sigma = kn_sigma(prob.process, t, prob.N)
    assert abs(w.sum() - 1.0) <= 1e-13
    assert abs(w @ k - m) <= 1e-13 * sigma
    assert abs(w @ (k - m) ** 2 - sigma ** 2) <= 1e-12 * sigma ** 2


def _image_support(prob, t):
    """Breaks of the law of K_N(t) shifted by logit(p01) and logit(p02): the
    logit-density's support and its kinks."""
    brk = k_law(prob, t).breaks()
    return np.unique(np.concatenate([logit(prob.initial.p01) + brk,
                                     logit(prob.initial.p02) + brk]))


@settings(max_examples=40, deadline=None)
@given(problems())
def test_rows_nonnegative(case):
    prob, t = case
    edges = _image_support(prob, t)
    v = np.linspace(edges[0] - 1.0, edges[-1] + 1.0, 201)
    row = f1n_collapsed(prob, expit(v), t)
    assert np.all(np.isfinite(row)) and np.all(row >= 0.0)


@pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
@settings(max_examples=10, deadline=None)
@given(problems(max_uniform_n=3))
def test_row_mass_is_one(case):
    # quad's error estimate can be pessimistic at a support edge's steep
    # flank; the assertion on the mass is the check
    prob, t = case

    def logit_density(v):
        p = expit(v)
        return f1n_collapsed(prob, p, t) * p * (1.0 - p)

    edges = _image_support(prob, t)
    mass, _ = quad(logit_density, edges[0], edges[-1],
                   points=edges[1:-1] if edges.size > 2 else None, limit=200,
                   epsabs=1e-11, epsrel=0.0)
    assert abs(mass - 1.0) <= 1e-9, mass


# both tails down to 1e-12, the median, and the smallest and largest
# doubles inside (0, 1)
_U = np.concatenate([[5e-324], np.logspace(-12, -1, 12), [0.5],
                     1.0 - np.logspace(-1, -12, 12), [np.nextafter(1.0, 0.0)]])


@settings(max_examples=100, deadline=None)
@given(initial_laws(beta=True), st.floats(1e-12, 1.0 - 1e-12))
# a CDF table flat in double precision over its upper half
@example(truncated_beta(2.0, 50.0, 0.1, 0.9), 0.75)
def test_beta_ppf_matches_betaincinv(law, u):
    u = np.append(_U, u)
    x = law.ppf(u)
    assert_allclose(x, beta_ppf_exact(law, u), rtol=1e-12, atol=0)
    scalar = law.ppf(np.array(u[-1]))    # a 0-d input gives a float
    assert isinstance(scalar, float) and scalar == x[-1]
