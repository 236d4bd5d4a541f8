"""The three known acceptance failures (``c01``, ``c03``, ``c04``), held as
facts.

Each test asserts one sentence of README "Known failures" with the
acceptance gate's own entry check, references and tolerances, so the
explanation cannot drift from what the program computes.  Nothing here
changes a reference value or a tolerance of ``test_acceptance.py``.
"""

import sys
from pathlib import Path

from logistic_kle import (KleProcess, Problem, e_moment_consecutive,
                          e_pdf_consecutive, e_pdf_exact, kn_sigma,
                          primitive_h, truncated_exponential)

sys.path.insert(0, str(Path(__file__).parent))
from test_acceptance import (EX1_PDF_REF, EX1_TIMES,  # noqa: E402
                             EX2_MEAN_REF, EX2_PDF_REF, EX2_TIMES,
                             EX2_VAR_REF, _check_entry, ex1)


def _bridge(rate, N):
    return Problem(KleProcess.brownian_bridge(), truncated_exponential(rate), N)


def _c03_misses(rate):
    """Labels of the c03 entries outside tolerance for Exponential(rate)."""
    misses = []
    for t in EX2_TIMES:
        for N in (2, 3, 4):
            got = e_pdf_consecutive(_bridge(rate, N), t)
            _check_entry(f"(t={t:.2f}, N={N})", got, EX2_PDF_REF[(t, N)],
                         0.15, 5e-4, misses)
    return {m.split(": ")[0] for m in misses}


def _c04_misses(rate):
    """Labels of the c04 entries outside tolerance for Exponential(rate),
    and the errors by (kind, N).  Both curves decrease strictly in N, as
    c04 requires before it checks the entries."""
    errors, misses = {}, []
    for kind, refs in (("mean", EX2_MEAN_REF), ("variance", EX2_VAR_REF)):
        got = [e_moment_consecutive(_bridge(rate, N), kind, N) for N in (2, 3, 4)]
        assert got[0] > got[1] > got[2], (kind, got)
        for N, value, ref in zip((2, 3, 4), got, refs):
            errors[(kind, N)] = value
            _check_entry(f"({kind}, N={N})", value, ref, 0.25, 1e-5, misses)
    return {m.split(": ")[0] for m in misses}, errors


def test_c01_misses_one_entry_of_12():
    errors = {(t, N): e_pdf_exact(ex1(N), t)
              for t in EX1_TIMES for N in (1, 2, 3)}
    misses = []
    for (t, N), got in errors.items():
        _check_entry(f"(t={t:.2f}, N={N})", got, EX1_PDF_REF[(t, N)], 0.10,
                     2e-4, misses)
    assert {m.split(": ")[0] for m in misses} == {"(t=1.50, N=3)"}
    assert abs(errors[(1.5, 3)] - 2.85e-4) < 1e-6


def test_c03_entry_at_t_0_5_n4_is_exactly_zero():
    # H_4(0.5) is a multiple of int_0^0.5 sin(4 pi s) ds = 0, so orders 3
    # and 4 have the same law of K at t = 0.5, whatever the initial law
    h = primitive_h(KleProcess.brownian_bridge(), 0.5, 4)
    assert abs(h[3]) <= 1e-15 * abs(h).max()
    assert kn_sigma(KleProcess.brownian_bridge(), 0.5, 4) == \
        kn_sigma(KleProcess.brownian_bridge(), 0.5, 3)
    for rate in (10.0, 1.0, 0.1):
        assert e_pdf_consecutive(_bridge(rate, 4), 0.5) == 0.0, rate
    # so the 3.06e-4 reference entry passes only through the 5e-4 floor
    ref, with_floor, without = EX2_PDF_REF[(0.5, 4)], [], []
    _check_entry("floor", 0.0, ref, 0.15, 5e-4, with_floor)
    _check_entry("no floor", 0.0, ref, 0.15, 0.0, without)
    assert (with_floor, len(without)) == ([], 1)


def test_stated_exponential_10_misses():
    assert _c03_misses(10.0) == {
        "(t=0.25, N=2)", "(t=0.25, N=3)", "(t=0.25, N=4)",
        "(t=0.40, N=2)", "(t=0.40, N=3)", "(t=0.50, N=2)"}
    assert _c04_misses(10.0)[0] == {"(mean, N=2)", "(mean, N=3)"}


def test_exponential_1_passes_c03_but_not_c04():
    assert _c03_misses(1.0) == set()
    misses, errors = _c04_misses(1.0)
    assert misses == {"(mean, N=2)"}
    assert abs(errors[("mean", 2)] - 1.54e-5) < 1e-7, errors[("mean", 2)]
