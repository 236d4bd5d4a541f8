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

Beta initial laws are drawn on supports below 0.6 with parameters up to
10: higher up, ``truncated_beta`` normalises by a difference of two
incomplete-beta values near 1, which cancels.  The exponential law covers
every support kind, near 1 included.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import expit, logit

from logistic_kle import (KleProcess, Problem, f1n_collapsed, kn_sigma,
                          truncated_beta, truncated_exponential)
from logistic_kle.density import k_law, law_rule


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
def initial_laws(draw):
    shape = draw(st.sampled_from(["wide", "narrow", "near0", "near1"]))
    beta = shape != "near1" and draw(st.booleans())
    top = 0.6 if beta else 0.999
    if shape == "wide":
        p01, p02 = draw(st.floats(1e-3, 0.3)), draw(st.floats(0.5, top))
    elif shape == "narrow":
        width = 10.0 ** -draw(st.floats(2.0, 4.0))
        p01 = draw(st.floats(1e-3, top - width))
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
