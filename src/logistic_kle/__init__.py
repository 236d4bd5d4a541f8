"""Density approximations for logistic growth with a random rate process.

The growth coefficient is replaced by a truncated Karhunen-Loeve expansion,
which makes the solution a known transformation of finitely many random
coordinates; the first probability density of the solution then follows from
the change-of-variables formula as a one-dimensional integral against the
law of the integrated field (a normal law for Gaussian coordinates, a box
spline for uniform ones).
"""

from .distributions import (InitialLaw, XiLaw, STANDARD_GAUSSIAN, UNIFORM_SYM,
                            truncated_beta, truncated_exponential)
from .kle import (EigenPair, KleProcess, TimeDomain, expcov_roots, kn_sigma,
                  primitive_h)
from .quadrature import (QuadratureRule, check_tensor_size, default_order,
                         make_rule, rule_for_law, tensor_nodes_chunks)
from .density import (Problem, f1_exact_wiener, f1n_collapsed, f1n_eval,
                      rvt_kernel)
from .stats import (e_moment_consecutive, e_moment_exact, e_pdf_consecutive,
                    e_pdf_exact, moments_n)
from .mc_oracle import McConfig, McReport, k_extremes, mc_density_check

__version__ = "0.1.0"

__all__ = [
    "InitialLaw", "XiLaw", "STANDARD_GAUSSIAN", "UNIFORM_SYM",
    "truncated_beta", "truncated_exponential",
    "TimeDomain", "EigenPair", "KleProcess",
    "expcov_roots", "primitive_h", "kn_sigma",
    "QuadratureRule", "make_rule", "rule_for_law", "tensor_nodes_chunks",
    "check_tensor_size",
    "default_order",
    "Problem", "rvt_kernel",
    "f1n_eval", "f1n_collapsed", "f1_exact_wiener",
    "moments_n",
    "e_pdf_exact", "e_pdf_consecutive", "e_moment_exact", "e_moment_consecutive",
    "McConfig", "McReport", "mc_density_check", "k_extremes",
    "__version__",
]
