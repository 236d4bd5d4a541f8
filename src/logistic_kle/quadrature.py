"""Gaussian quadrature matched to the KLE coordinate laws.

Two rule families, both normalized against *probability* measures so that
weights sum to one and no change-of-variables constants leak into callers:

* ``hermite``  -- probabilists' Gauss-Hermite; weight = standard normal pdf.
* ``legendre`` -- Gauss-Legendre rescaled to (-sqrt(3), sqrt(3)); weight =
  the uniform density on that interval (a mean-0, variance-1 law).

Nodes and weights come from numpy's ``hermegauss`` / ``leggauss``.
``tensor_nodes_chunks`` walks the full tensor grid in lexicographic order,
one vectorized block at a time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "QuadratureRule",
    "make_rule",
    "rule_for_law",
    "tensor_nodes_chunks",
    "check_tensor_size",
    "default_order",
]

MAX_ORDER = 128
TENSOR_GUARD = 10 ** 7


@dataclass(frozen=True)
class QuadratureRule:
    kind: str
    order: int
    nodes: np.ndarray
    weights: np.ndarray

    def integrate(self, f):
        """Apply the rule to a vectorized callable: sum_i w_i f(x_i)."""
        return float(np.dot(self.weights, f(self.nodes)))


def make_rule(kind, order) -> QuadratureRule:
    """Build a rule of the given kind ('hermite' or 'legendre') and order.

    Both rules integrate polynomials up to degree 2*order - 1 exactly against
    their probability measure; weights are positive and sum to 1.
    """
    gauss = {"hermite": np.polynomial.hermite_e.hermegauss,
             "legendre": np.polynomial.legendre.leggauss}.get(kind)
    if gauss is None:
        raise ValueError(f"unknown quadrature kind {kind!r}")
    order = int(order)
    if not 1 <= order <= MAX_ORDER:
        raise ValueError(f"order must be in [1, {MAX_ORDER}], got {order}")

    nodes, weights = gauss(order)
    weights = weights / weights.sum()

    # enforce exact +/- symmetry of the computed rule
    nodes = 0.5 * (nodes - nodes[::-1])
    weights = 0.5 * (weights + weights[::-1])
    if order % 2 == 1:
        nodes[order // 2] = 0.0
    if kind == "legendre":
        nodes = nodes * np.sqrt(3.0)

    nodes.setflags(write=False)
    weights.setflags(write=False)
    return QuadratureRule(kind, order, nodes, weights)


def rule_for_law(xi_law, order) -> QuadratureRule:
    """Rule matched to a coordinate law ('gaussian' -> hermite, 'uniform' ->
    legendre on (-sqrt(3), sqrt(3)))."""
    kind = getattr(xi_law, "kind", xi_law)
    if kind == "gaussian":
        return make_rule("hermite", order)
    if kind == "uniform":
        return make_rule("legendre", order)
    raise ValueError(f"no quadrature rule for coordinate law {kind!r}")


def default_order(N):
    """Per-dimension default order; decreases with dimension to bound the
    tensor-grid size (order**N stays under 10^7 up to N = 7)."""
    if N <= 2:
        return 40
    if N == 3:
        return 25
    if N == 4:
        return 15
    return 10


def check_tensor_size(order, N):
    if order ** N > TENSOR_GUARD:
        raise ValueError(
            f"tensor grid too large: order {order} in {N} dimensions gives "
            f"{order ** N} nodes (limit {TENSOR_GUARD})")


def tensor_nodes_chunks(rule: QuadratureRule, N, chunk=65536):
    """Yield (nodes, weights) blocks covering the full tensor grid.

    ``nodes`` is (m, N) and ``weights`` (m,); blocks follow lexicographic
    index order (flat-index decode).  Used by the density module's
    vectorized tensor path.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    check_tensor_size(rule.order, N)
    order = rule.order
    total = order ** N
    for start in range(0, total, chunk):
        stop = min(start + chunk, total)
        flat = np.arange(start, stop)
        pts = np.empty((stop - start, N))
        wts = np.ones(stop - start)
        for d in range(N - 1, -1, -1):
            flat, rem = np.divmod(flat, order)
            pts[:, d] = rule.nodes[rem]
            wts *= rule.weights[rem]
        yield pts, wts
