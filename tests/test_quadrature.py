import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from logistic_kle import (UNIFORM_SYM, check_tensor_size, default_order,
                          make_rule, rule_for_law, tensor_nodes_chunks)


def gaussian_moment(k):
    # E xi^k for standard normal: (k-1)!! for even k, 0 for odd
    if k % 2:
        return 0.0
    return float(np.prod(np.arange(k - 1, 0, -2, dtype=float))) if k else 1.0


def tensor_integrate(rule, N, f, chunk=65536):
    # f maps an (m, N) block of tensor nodes to m integrand values
    return sum(float(wts @ f(pts))
               for pts, wts in tensor_nodes_chunks(rule, N, chunk))


def uniform_sym_moment(k):
    # E xi^k for U(-sqrt3, sqrt3): 3^{k/2}/(k+1) for even k
    if k % 2:
        return 0.0
    return 3.0 ** (k // 2) / (k + 1)


class TestSmallRules:
    def test_order_one_is_mean_point(self):
        for kind in ("hermite", "legendre"):
            r = make_rule(kind, 1)
            assert_allclose(r.nodes, [0.0])
            assert_allclose(r.weights, [1.0])

    def test_order_two_hermite(self):
        r = make_rule("hermite", 2)
        assert_allclose(r.nodes, [-1.0, 1.0], atol=1e-14)
        assert_allclose(r.weights, [0.5, 0.5], atol=1e-14)

    def test_order_two_legendre(self):
        # scaled so that the weight is the U(-sqrt3, sqrt3) density
        r = make_rule("legendre", 2)
        assert_allclose(r.nodes, [-1.0, 1.0], atol=1e-14)
        assert_allclose(r.weights, [0.5, 0.5], atol=1e-14)

    def test_order_bounds(self):
        for bad in (0, -3, 129):
            with pytest.raises(ValueError):
                make_rule("hermite", bad)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            make_rule("laguerre", 8)


class TestRuleInvariants:
    @pytest.mark.parametrize("kind", ["hermite", "legendre"])
    @pytest.mark.parametrize("order", [2, 3, 5, 8, 13, 24, 40, 64, 97, 128])
    def test_first_moments(self, kind, order):
        r = make_rule(kind, order)
        assert_allclose(r.weights.sum(), 1.0, atol=1e-12)
        assert_allclose(r.weights @ r.nodes, 0.0, atol=1e-12)
        if order >= 2:
            assert_allclose(r.weights @ r.nodes ** 2, 1.0, atol=1e-10)

    @pytest.mark.parametrize("kind", ["hermite", "legendre"])
    @pytest.mark.parametrize("order", [3, 6, 11, 20])
    def test_polynomial_exactness(self, kind, order):
        r = make_rule(kind, order)
        moment = gaussian_moment if kind == "hermite" else uniform_sym_moment
        for k in range(2 * order):
            got = r.weights @ r.nodes ** k
            want = moment(k)
            if k % 2:
                # exact value is 0; cancellation noise scales with the
                # magnitude of the summed terms, not with the result
                scale = r.weights @ np.abs(r.nodes) ** k
                assert abs(got) <= 1e-13 * max(scale, 1.0), \
                    f"{kind} order {order} moment {k}"
            else:
                assert_allclose(got, want, rtol=1e-9,
                                err_msg=f"{kind} order {order} moment {k}")

    @pytest.mark.parametrize("kind", ["hermite", "legendre"])
    def test_symmetry(self, kind):
        for order in (7, 16, 33):
            r = make_rule(kind, order)
            assert_allclose(r.nodes, -r.nodes[::-1], atol=0.0)
            assert_allclose(r.weights, r.weights[::-1], atol=0.0)
            assert np.all(np.diff(r.nodes) > 0)
            assert np.all(r.weights > 0)

    def test_nodes_read_only(self):
        r = make_rule("hermite", 6)
        with pytest.raises(ValueError):
            r.nodes[0] = 0.0

    def test_integrate_helper(self):
        r = make_rule("hermite", 30)
        assert_allclose(r.weights @ np.exp(0.3 * r.nodes),
                        math.exp(0.045), rtol=1e-12)

    @pytest.mark.parametrize("kind,target", [
        ("hermite", math.exp(0.5)),
        ("legendre", math.sinh(math.sqrt(3.0)) / math.sqrt(3.0)),
    ])
    def test_exp_values_converge_monotonically(self, kind, target):
        rules = [make_rule(kind, n) for n in (1, 2, 3, 4, 6, 8, 12, 16)]
        vals = [r.weights @ np.exp(r.nodes) for r in rules]
        assert np.all(np.diff(vals) >= -1e-15)
        assert_allclose(vals[-1], target, rtol=1e-13)


class TestLawMapping:
    def test_rule_for_law(self):
        assert rule_for_law(UNIFORM_SYM.kind, 9).kind == "legendre"
        assert rule_for_law("gaussian", 9).kind == "hermite"
        with pytest.raises(ValueError):
            rule_for_law("triangular", 9)

    def test_default_order_schedule(self):
        assert default_order(1) == 40
        assert default_order(2) == 40
        assert default_order(3) == 25
        assert default_order(4) == 15
        assert default_order(5) == 10
        assert default_order(9) == 10


class TestTensorProduct:
    def test_constant_integrand(self):
        r = make_rule("hermite", 5)
        val = tensor_integrate(r, 3, lambda xi: np.ones(len(xi)))
        assert_allclose(val, 1.0, atol=1e-12)

    def test_cross_moment_vanishes(self):
        r = make_rule("hermite", 5)
        val = tensor_integrate(r, 2, lambda xi: xi[:, 0] * xi[:, 1])
        assert_allclose(val, 0.0, atol=1e-12)

    def test_gaussian_mgf(self):
        lam = np.array([0.3, 0.2])
        r = make_rule("hermite", 20)
        val = tensor_integrate(r, 2, lambda xi: np.exp(xi @ lam))
        assert_allclose(val, math.exp(0.5 * (lam @ lam)), rtol=1e-9)

    def test_deterministic(self):
        r = make_rule("legendre", 7)
        f = lambda xi: np.cos(xi[:, 0] - 0.5 * xi[:, 1] + 0.25 * xi[:, 2])
        # blocks of 50 split the 343-node grid unevenly
        assert tensor_integrate(r, 3, f, chunk=50) == \
            tensor_integrate(r, 3, f, chunk=50)

    def test_size_guard(self):
        with pytest.raises(ValueError):
            check_tensor_size(40, 5)
        with pytest.raises(ValueError):
            next(tensor_nodes_chunks(make_rule("hermite", 40), 5))
        check_tensor_size(10, 7)  # 1e7 exactly is allowed

    def test_chunks_cover_full_grid(self):
        r = make_rule("legendre", 3)
        pts = []
        wts = []
        for block_pts, block_w in tensor_nodes_chunks(r, 2, chunk=4):
            pts.append(block_pts)
            wts.append(block_w)
        pts = np.vstack(pts)
        wts = np.concatenate(wts)
        full = np.array([[r.nodes[i], r.nodes[j]]
                         for i in range(3) for j in range(3)])
        full_w = np.array([r.weights[i] * r.weights[j]
                           for i in range(3) for j in range(3)])
        assert_allclose(pts, full, atol=0.0)
        assert_allclose(wts, full_w, atol=0.0)
