"""Gradient and forward checks for the autodiff engine.

Every differentiable operation kind is checked against central finite
differences at randomly drawn points; forward values are checked
against straight-line numpy evaluations.
"""

import itertools
import sys
import threading
import time
import types
import warnings

import numpy as np
import pytest

from corrcolor import autograd as ag
from corrcolor.autograd import (AutogradError, NonFiniteError, ShapeError,
                                astensor, parameter)
from corrcolor.data import Worker
from same_bits import assert_same_bits, same_bits


def numeric_grad(func, x: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Central finite differences of a scalar-valued function of x."""
    grad = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        orig = x[idx]
        x[idx] = orig + h
        fp = func()
        x[idx] = orig - h
        fm = func()
        x[idx] = orig
        grad[idx] = (fp - fm) / (2.0 * h)
    return grad


def assert_grad_close(analytic: np.ndarray, numeric: np.ndarray, rtol: float = 1e-4):
    denom = np.maximum(np.abs(analytic), np.abs(numeric))
    mask = denom > 1e-8
    if mask.any():
        rel = np.abs(analytic - numeric)[mask] / denom[mask]
        assert rel.max() < rtol, f"max relative gradient error {rel.max():.3e}"
    np.testing.assert_allclose(analytic[~mask], numeric[~mask], atol=1e-7)


class TestForwardValues:
    def test_square_of_three(self):
        x = astensor([3.0])
        y = ag.mul(x, x)
        np.testing.assert_array_equal(y.data, [9.0])

    def test_matmul_identity(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((2, 2))
        out = ag.matmul(astensor(a), astensor(np.eye(2)))
        np.testing.assert_array_equal(out.data, a)

    def test_three_layer_perceptron_matches_straight_line(self):
        # batch-normalized 3-layer MLP vs an independent hand-rolled evaluation
        rng = np.random.default_rng(7)
        x = rng.standard_normal((4, 8))
        weights = [rng.standard_normal((8, 6)), rng.standard_normal((6, 5)),
                   rng.standard_normal((5, 3))]
        biases = [rng.standard_normal(6), rng.standard_normal(5), rng.standard_normal(3)]
        gammas = [rng.uniform(0.5, 1.5, s) for s in (6, 5, 3)]
        betas = [rng.standard_normal(s) for s in (6, 5, 3)]
        eps = 1e-5

        h = astensor(x)
        for w, b, g, bt in zip(weights, biases, gammas, betas):
            z = ag.add(ag.matmul(h, w), b)
            mean = ag.mul(ag.tsum(z, axis=0, keepdims=True), 1.0 / z.shape[0])
            var = ag.mul(ag.tsum(ag.square(ag.sub(z, mean)), axis=0, keepdims=True),
                         1.0 / z.shape[0])
            zh = ag.div(ag.sub(z, mean), ag.sqrt(ag.add(var, eps)))
            h = ag.relu(ag.add(ag.mul(zh, g), bt))

        ref = x
        for w, b, g, bt in zip(weights, biases, gammas, betas):
            z = ref @ w + b
            zh = (z - z.mean(axis=0)) / np.sqrt(z.var(axis=0) + eps)
            ref = np.maximum(g * zh + bt, 0.0)

        np.testing.assert_allclose(h.data, ref, atol=1e-12)

    def test_shape_error_names_operation(self):
        with pytest.raises(ShapeError, match="matmul"):
            ag.matmul(astensor(np.ones((2, 3))), astensor(np.ones((2, 3))))

    def test_non_finite_error_names_node_and_index(self):
        x = astensor([1.0, 1e300, 2.0])
        with np.errstate(over="ignore"), pytest.raises(NonFiniteError,
                                                       match=r"'mul' \(node \d+\).*index 1"):
            ag.mul(x, 1e300)


class TestBackwardBasics:
    def test_polynomial_derivative(self):
        x = parameter([3.0])
        y = ag.mul(x, x)
        y.backward()
        np.testing.assert_array_equal(x.grad, [6.0])

    def test_bilinear_form(self):
        rng = np.random.default_rng(1)
        a = parameter(rng.standard_normal((2, 2)))
        b = rng.standard_normal((2, 2))
        ag.tsum(ag.mul(a, b)).backward()
        np.testing.assert_array_equal(a.grad, b)

    def test_non_scalar_loss_rejected(self):
        x = parameter(np.ones((2, 2)))
        with pytest.raises(ShapeError, match="scalar"):
            ag.mul(x, 2.0).backward()

    def test_detached_loss_rejected(self):
        loss = ag.tsum(ag.square(astensor(np.ones(3))))
        with pytest.raises(AutogradError, match="detached"):
            loss.backward()

    def test_gradient_accumulates_over_shared_input(self):
        x = parameter([2.0])
        y = ag.add(ag.mul(x, x), ag.mul(x, 3.0))  # x^2 + 3x
        y.backward()
        np.testing.assert_allclose(x.grad, [7.0])

    def test_repeated_backward_resets_gradients(self):
        x = parameter([2.0])
        for _ in range(2):
            y = ag.mul(x, x)
            y.backward()
            np.testing.assert_allclose(x.grad, [4.0])

    def test_second_backward_on_a_released_graph_raises(self):
        # a graph takes one backward pass; its gradients stay as they were
        x = parameter([2.0, 3.0])
        h = ag.mul(x, x)
        y = ag.tsum(h)
        y.backward()
        with pytest.raises(AutogradError, match="already took its backward pass"):
            y.backward()
        with pytest.raises(AutogradError, match="already took its backward pass"):
            ag.tsum(ag.mul(h, 2.0)).backward()  # a new loss on a released node
        np.testing.assert_array_equal(x.grad, [4.0, 6.0])
        np.testing.assert_array_equal(h.grad, [1.0, 1.0])


def _gradcheck(build, shapes, seed, rtol=1e-4, positive=False):
    """Compare analytic and numeric gradients for all inputs of ``build``."""
    rng = np.random.default_rng(seed)
    arrays = []
    for shape in shapes:
        a = rng.standard_normal(shape)
        if positive:
            a = np.abs(a) + 0.5
        arrays.append(a)
    tensors = [parameter(a) for a in arrays]
    loss = build(*tensors)
    loss.backward()
    # astensor aliases float64 arrays, so in-place perturbation of t.data
    # is visible to the rebuilt graph
    for t in tensors:
        numeric = numeric_grad(
            lambda: build(*[astensor(u.data) for u in tensors]).item(), t.data)
        assert_grad_close(t.grad, numeric, rtol=rtol)


OP_CASES = {
    "add": (lambda a, b: ag.tsum(ag.square(ag.add(a, b))), [(3, 4), (3, 4)], False),
    "add_broadcast": (lambda a, b: ag.tsum(ag.square(ag.add(a, b))), [(3, 4), (4,)], False),
    "sub": (lambda a, b: ag.tsum(ag.square(ag.sub(a, b))), [(3, 4), (3, 4)], False),
    "mul": (lambda a, b: ag.tsum(ag.square(ag.mul(a, b))), [(3, 4), (3, 4)], False),
    "div": (lambda a, b: ag.tsum(ag.square(ag.div(a, b))), [(3, 4), (3, 4)], True),
    "matmul": (lambda a, b: ag.tsum(ag.square(ag.matmul(a, b))), [(3, 4), (4, 2)], False),
    "transpose": (lambda a: ag.tsum(ag.square(ag.transpose(a))), [(3, 4)], False),
    "relu": (lambda a: ag.tsum(ag.square(ag.relu(a))), [(3, 4)], False),
    "square": (lambda a: ag.tsum(ag.square(a)), [(3, 4)], False),
    "sqrt": (lambda a: ag.tsum(ag.sqrt(a)), [(3, 4)], True),
    "exp": (lambda a: ag.tsum(ag.exp(a)), [(3, 4)], False),
    "sum_all": (lambda a: ag.square(ag.tsum(a)), [(3, 4)], False),
    "sum_axis0": (lambda a: ag.tsum(ag.square(ag.tsum(a, axis=0, keepdims=True))),
                  [(3, 4)], False),
    "concat_rows": (lambda a, b: ag.tsum(ag.square(ag.concat_rows(a, b))),
                    [(2, 3), (4, 3)], False),
    "rows": (lambda a: ag.tsum(ag.square(ag.rows(a, 1, 3))), [(4, 3)], False),
}


class TestGradientChecks:
    @pytest.mark.parametrize("name", sorted(OP_CASES))
    def test_op_matches_finite_differences(self, name):
        build, shapes, positive = OP_CASES[name]
        # 20 random points per operation kind
        for seed in range(20):
            _gradcheck(build, shapes, seed=seed, positive=positive)

    def test_softmax_cross_entropy_gradient(self):
        rng = np.random.default_rng(3)
        labels = rng.integers(0, 3, size=5)
        for seed in range(20):
            rng2 = np.random.default_rng(100 + seed)
            logits = rng2.standard_normal((5, 3))
            t = parameter(logits)
            ag.softmax_cross_entropy(t, labels).backward()
            numeric = numeric_grad(
                lambda: ag.softmax_cross_entropy(astensor(t.data), labels).item(),
                t.data)
            assert_grad_close(t.grad, numeric)

    def test_softmax_cross_entropy_value(self):
        # uniform logits on k classes -> loss = log(k)
        logits = astensor(np.zeros((4, 5)))
        loss = ag.softmax_cross_entropy(logits, np.array([0, 1, 2, 3]))
        np.testing.assert_allclose(loss.item(), np.log(5.0), atol=1e-12)


class TestDeterminism:
    def test_forward_backward_bit_identical(self):
        def run():
            rng = np.random.default_rng(42)
            x = parameter(rng.standard_normal((6, 5)))
            w = parameter(rng.standard_normal((5, 4)))
            loss = ag.tsum(ag.square(ag.relu(ag.matmul(x, w))))
            loss.backward()
            return loss.item(), x.grad.copy(), w.grad.copy()

        for first, second in zip(run(), run()):
            assert_same_bits(first, second)


_E = np.random.default_rng(1011).uniform(-1, 1, (4, 4))
_WEIGHT = np.where(np.eye(4) == 1.0, 1.0, 0.3)
_R6 = np.random.default_rng(1012).standard_normal((6, 3))
_EPS = np.random.default_rng(1013).standard_normal((5, 3))
_R53 = np.random.default_rng(1014).standard_normal((5, 3))
_MEMBER_W = np.array([0.7, -1.3])

_RUNNING = (np.array([0.3, -0.2, 0.1]), np.array([0.5, 1.5, 2.0]))


def _dense(*args, **kwargs):
    return ag.dense(*args, **kwargs)[0]


FUSED_CASES = {
    # dense without batch norm, with and without ReLU
    "linear": (lambda x, w, b: ag.tsum(ag.square(_dense(x, w, b))),
               [(5, 4), (4, 3), (3,)], False),
    "dense_relu": (lambda x, w, b: ag.tsum(ag.square(_dense(x, w, b, relu=True))),
                   [(5, 4), (4, 3), (3,)], False),
    # training-mode batch norm; a random readout: sum(out^2) is nearly
    # constant in x, so its input gradient would be eps-sized and below
    # finite-difference noise
    "batch_norm": (lambda x, w, b, g, bt: ag.tsum(ag.mul(_dense(x, w, b, g, bt, 1e-5), _R6)),
                   [(6, 4), (4, 3), (3,), (3,), (3,)], False),
    "batch_norm_relu": (lambda x, w, b, g, bt: ag.tsum(ag.mul(
        _dense(x, w, b, g, bt, 1e-5, relu=True), _R6)), [(6, 4), (4, 3), (3,), (3,), (3,)], False),
    # m=2 normalizes each column to about +-1 whatever x is; an eps on the
    # scale of the variance keeps the input gradient measurable
    "batch_norm_m2": (lambda x, w, b, g, bt: ag.tsum(ag.square(_dense(x, w, b, g, bt, 0.5))),
                      [(2, 4), (4, 3), (3,), (3,), (3,)], False),
    "batch_norm_m2_relu": (lambda x, w, b, g, bt: ag.tsum(ag.square(
        _dense(x, w, b, g, bt, 0.5, relu=True))), [(2, 4), (4, 3), (3,), (3,), (3,)], False),
    "unit_columns": (lambda a: ag.tsum(ag.square(ag.mul(ag.unit_columns(a), a))),
                     [(5, 3)], False),
    "gram": (lambda a, b: ag.tsum(ag.square(ag.gram(a, b))), [(5, 3), (5, 4)], False),
    "gram_same_operand": (lambda a: ag.tsum(ag.square(ag.gram(a, a))), [(5, 3)], False),
    "sq_dist": (lambda a: ag.sq_dist(a, _E), [(4, 4)], False),
    "sq_dist_weighted": (lambda a: ag.sq_dist(a, np.eye(4), weight=_WEIGHT), [(4, 4)], False),
    "gaussian_kl": (lambda mu, logvar: ag.gaussian_kl(mu, logvar), [(5, 3), (5, 3)], False),
    # member-axis forms: two member blocks of 3 rows, per-member outputs
    # weighted apart so that each member's gradient is checked on its own
    "linear_members": (lambda x, w, b: ag.tsum(ag.square(_dense(x, w, b))),
                       [(6, 4), (2, 4, 3), (2, 3)], False),
    "dense_members_relu": (lambda x, w, b: ag.tsum(ag.square(_dense(x, w, b, relu=True))),
                           [(6, 4), (2, 4, 3), (2, 3)], False),
    "sq_dist_members": (lambda a: ag.tsum(ag.mul(ag.sq_dist(a, _R6, members=2), _MEMBER_W)),
                        [(6, 3)], False),
    "gaussian_kl_members": (lambda mu, logvar: ag.tsum(ag.mul(
        ag.gaussian_kl(mu, logvar, members=2), _MEMBER_W)), [(6, 3), (6, 3)], False),
    # a random readout, so the sample's gradient is not all ones
    "reparameterize": (lambda mu, logvar: ag.tsum(ag.mul(ag.reparameterize(mu, logvar, _EPS),
                                                         _R53)),
                       [(5, 3), (5, 3)], False),
}


class TestFusedOps:
    @pytest.mark.parametrize("name", sorted(FUSED_CASES))
    def test_fused_op_matches_finite_differences(self, name):
        build, shapes, positive = FUSED_CASES[name]
        for seed in range(20):
            _gradcheck(build, shapes, seed=seed, positive=positive)

    def test_fused_values_match_compositions(self):
        rng = np.random.default_rng(13)
        x, w, b = rng.standard_normal((6, 4)), rng.standard_normal((4, 3)), rng.standard_normal(3)
        y = x @ w + b
        np.testing.assert_array_equal(_dense(x, w, b).data, y)
        assert_same_bits(_dense(x, w, b, relu=True).data, np.maximum(y, 0.0))
        out, mean, var = ag.dense(x, w, b, np.ones(3), np.zeros(3), 1e-5)
        np.testing.assert_allclose(out.data, (y - y.mean(0)) / np.sqrt(y.var(0) + 1e-5),
                                   atol=1e-12)
        np.testing.assert_allclose(mean, y.mean(0), atol=1e-15)
        np.testing.assert_allclose(var, y.var(0), atol=1e-14)
        out = ag.dense_inference(x, w, b, "layer", (np.ones(3), np.zeros(3), *_RUNNING, 1e-5),
                                 relu=True)
        np.testing.assert_allclose(
            out, np.maximum((y - _RUNNING[0]) / np.sqrt(_RUNNING[1] + 1e-5), 0.0), atol=1e-12)
        centered = x - x.mean(0)
        np.testing.assert_allclose(ag.unit_columns(x).data,
                                   centered / np.linalg.norm(centered, axis=0), atol=1e-15)
        np.testing.assert_allclose(ag.gram(x, x).data, x.T @ x, atol=1e-12)
        np.testing.assert_allclose(ag.sq_dist(x, x + 0.5).item(), 0.25 * x.size, atol=1e-12)

    def test_vae_op_values_match_numpy(self):
        rng = np.random.default_rng(14)
        mu, logvar, eps = (rng.standard_normal((6, 4)) for _ in range(3))
        kl = 0.5 * np.mean(np.sum(mu ** 2 + np.exp(logvar) - 1.0 - logvar, axis=1))
        np.testing.assert_allclose(ag.gaussian_kl(mu, logvar).item(), kl, rtol=1e-14)
        np.testing.assert_allclose(ag.reparameterize(mu, logvar, eps).data,
                                   mu + np.exp(logvar / 2.0) * eps, rtol=1e-14)
        # a standard normal posterior has zero KL
        assert ag.gaussian_kl(np.zeros((3, 2)), np.zeros((3, 2))).item() == 0.0

    @pytest.mark.parametrize("members", [1, 2, 3])
    def test_member_blocks_match_lone_ops_bit_for_bit(self, members):
        # each member block, forward and backward, is what the op computes
        # on that block alone: a stacked model trains as its lone members
        rng = np.random.default_rng(15)
        m = 5
        x = rng.standard_normal((members * m, 4))
        w, b = rng.standard_normal((members, 4, 3)), rng.standard_normal((members, 3))
        mu, logvar = (rng.standard_normal((members * m, 3)) for _ in range(2))
        target = rng.standard_normal((members * m, 3))
        readout = rng.standard_normal(members)

        def run(xs, ws, bs, mus, logvars, targets, k, weight):
            params = [parameter(a) for a in (xs, ws, bs, mus, logvars)]
            px, pw, pb, pmu, plogvar = params
            y = _dense(px, pw, pb)
            parts = ag.add(ag.sq_dist(y, targets, members=k),
                           ag.mul(ag.gaussian_kl(pmu, plogvar, members=k or 1), 0.3))
            total = ag.mul(parts, weight)
            (total if k is None else ag.tsum(total)).backward()
            return parts.data, [p.grad for p in params]

        values, grads = run(x, w, b, mu, logvar, target, members, readout)
        for s in range(members):
            rows = slice(s * m, (s + 1) * m)
            lone_values, lone_grads = run(x[rows], w[s], b[s], mu[rows], logvar[rows],
                                          target[rows], None, readout[s])
            assert_same_bits(values[s], lone_values.item())
            for stacked, lone, member_axis in zip(grads, lone_grads,
                                                  (False, True, True, False, False)):
                block = stacked[s] if member_axis else stacked[rows]
                assert_same_bits(block, lone)

    def test_member_blocks_must_split_evenly(self):
        with pytest.raises(ShapeError, match="dense.*member blocks"):
            ag.dense(np.ones((5, 3)), np.ones((2, 3, 2)), np.ones((2, 2)))
        with pytest.raises(ShapeError, match="gaussian_kl.*member blocks"):
            ag.gaussian_kl(np.ones((5, 3)), np.ones((5, 3)), members=2)
        with pytest.raises(ShapeError, match="sq_dist.*member blocks"):
            ag.sq_dist(np.ones((5, 3)), np.ones((5, 3)), members=2)

    def test_shape_errors_name_the_op(self):
        with pytest.raises(ShapeError, match="gaussian_kl"):
            ag.gaussian_kl(np.ones((2, 3)), np.ones((2, 2)))
        with pytest.raises(ShapeError, match="reparameterize"):
            ag.reparameterize(np.ones((2, 3)), np.ones((2, 3)), np.ones((3, 2)))
        with pytest.raises(ShapeError, match="dense"):
            ag.dense(np.ones((2, 3)), np.ones((4, 2)), np.ones(2))
        with pytest.raises(ShapeError, match="dense: batch norm.*1 rows"):
            ag.dense(np.ones((1, 2)), np.eye(2), np.zeros(2), np.ones(2), np.zeros(2), 1e-5)
        with pytest.raises(ShapeError, match="dense: batch norm.*gamma"):
            ag.dense(np.ones((2, 2)), np.eye(2), np.zeros(2), np.ones(3), np.zeros(3), 1e-5)
        with pytest.raises(ShapeError, match="dense: batch norm"):
            ag.dense(np.ones((4, 2)), np.ones((2, 2, 2)), np.zeros((2, 2)), np.ones(2),
                     np.zeros(2), 1e-5)
        with pytest.raises(ShapeError, match="gram"):
            ag.gram(np.ones((2, 3)), np.ones((3, 3)))
        with pytest.raises(ShapeError, match="sq_dist"):
            ag.sq_dist(np.ones((2, 2)), np.ones((3, 3)))


class TestKeepFreedMemory:
    def test_no_op_without_mallopt(self, monkeypatch):
        # a C library without mallopt (macOS, Windows) leaves the allocator as it is
        monkeypatch.setattr(ag.ctypes, "CDLL", lambda name: types.SimpleNamespace())
        ag._keep_freed_memory()

    def test_sets_trim_and_mmap_thresholds(self, monkeypatch):
        calls = []

        def mallopt(param, value):
            calls.append((param, value))
            return 1

        monkeypatch.setattr(ag.ctypes, "CDLL", lambda name: types.SimpleNamespace(mallopt=mallopt))
        ag._keep_freed_memory()
        # M_TRIM_THRESHOLD as high as an int goes, M_MMAP_THRESHOLD at glibc's 32 MiB cap
        assert calls == [(-1, 2**31 - 1), (-3, 32 << 20)]


class TestLazyGradients:
    def test_first_contribution_is_copied(self):
        # add passes the same adjoint array to both operands; a shared
        # buffer would let the second accumulation leak into the first
        x, y = parameter([1.0, 2.0]), parameter([3.0, 4.0])
        s = ag.add(x, y)
        ag.tsum(ag.add(ag.mul(s, 1.0), ag.mul(x, 2.0))).backward()
        np.testing.assert_array_equal(x.grad, [3.0, 3.0])
        np.testing.assert_array_equal(y.grad, [1.0, 1.0])

    def test_passed_through_adjoints_are_copied(self):
        # the sample's adjoint reaches mu unchanged; handed over without a
        # copy, mu's second contribution would write into the sample's own
        mu, logvar = parameter(np.zeros((2, 2))), parameter(np.zeros((2, 2)))
        z = ag.reparameterize(mu, logvar, np.ones((2, 2)))
        ag.tsum(ag.add(z, ag.mul(mu, 2.0))).backward()
        np.testing.assert_array_equal(z.grad, np.ones((2, 2)))
        np.testing.assert_array_equal(mu.grad, np.full((2, 2), 3.0))

    def test_gradients_are_arrays(self):
        # numpy returns 0-d products as scalars; a gradient stays an array
        x = parameter(3.0)
        ag.mul(x, x).backward()
        assert isinstance(x.grad, np.ndarray) and x.grad.shape == ()
        assert x.grad == 6.0

    def test_row_slices_fill_the_rest_with_zeros(self):
        a = parameter(np.ones((4, 2)))
        ag.tsum(ag.rows(a, 1, 3)).backward()
        np.testing.assert_array_equal(a.grad, [[0, 0], [1, 1], [1, 1], [0, 0]])


_DENSE_MODES = {
    "linear": ((6, 4), (4, 3), False, False),
    "relu": ((6, 4), (4, 3), False, True),
    "batch_norm": ((6, 4), (4, 3), True, False),
    "batch_norm_relu": ((6, 4), (4, 3), True, True),
    "batch_norm_m2_relu": ((2, 4), (4, 3), True, True),
    "members_relu": ((6, 4), (2, 4, 3), False, True),
}


class TestDenseMatchesComposition:
    # the fused layer against the separate linear, batch-norm and ReLU
    # nodes it replaced: same values, statistics and gradients, bit for bit
    @pytest.mark.parametrize("mode", sorted(_DENSE_MODES))
    def test_bit_identical_to_composed_nodes(self, mode):
        from composed_layers import composed_dense
        x_shape, w_shape, norm, relu = _DENSE_MODES[mode]
        rng = np.random.default_rng(21)
        arrays = [rng.standard_normal(x_shape), rng.standard_normal(w_shape),
                  rng.standard_normal(w_shape[:-2] + w_shape[-1:])]
        if norm:
            arrays += [rng.uniform(0.5, 1.5, 3), rng.standard_normal(3)]
        readout = rng.standard_normal((x_shape[0], 3))

        def run(layer):
            params = [parameter(a) for a in arrays]
            out, mean, var = layer(*params, eps=1e-5, relu=relu)
            # the output feeds two consumers, as the backbone's tap layer does
            ag.tsum(ag.add(ag.mul(out, readout), ag.square(out))).backward()
            return [out.data, mean, var] + [p.grad for p in params]

        for fused, composed in zip(run(ag.dense), run(composed_dense)):
            assert (fused is None and composed is None) or same_bits(fused, composed)


_INFERENCE_MODES = {  # x, w, batch norm, ReLU
    "linear": ((6, 4), (4, 3), False, False),
    "relu": ((6, 4), (4, 3), False, True),
    "batch_norm": ((6, 4), (4, 3), True, False),
    "batch_norm_relu": ((6, 4), (4, 3), True, True),
    "batch_norm_one_row": ((1, 4), (4, 3), True, True),
    "members": ((6, 4), (2, 4, 3), False, False),
    "members_relu": ((6, 4), (2, 4, 3), False, True),
}


class TestDenseInference:
    # the array layer against the separate nodes of the composed layer,
    # batch norm by fixed statistics: the same values, bit for bit
    @pytest.mark.parametrize("mode", sorted(_INFERENCE_MODES))
    def test_bit_identical_to_composed_nodes(self, mode):
        from composed_layers import composed_dense
        x_shape, w_shape, norm, relu = _INFERENCE_MODES[mode]
        rng = np.random.default_rng(22)
        x, w = rng.standard_normal(x_shape), rng.standard_normal(w_shape)
        b = rng.standard_normal(w_shape[:-2] + w_shape[-1:])
        gamma, beta = rng.uniform(0.5, 1.5, 3), rng.standard_normal(3)
        stats = (rng.standard_normal(3), rng.uniform(0.5, 2.0, 3))
        if norm:
            want = composed_dense(x, w, b, gamma, beta, 1e-5, stats, relu)[0]
            got = ag.dense_inference(x, w, b, "layer", (gamma, beta, *stats, 1e-5), relu)
        else:
            want = composed_dense(x, w, b, relu=relu)[0]
            got = ag.dense_inference(x, w, b, "layer", relu=relu)
        assert type(got) is np.ndarray
        assert_same_bits(got, want.data)

    def test_builds_no_node(self):
        rng = np.random.default_rng(23)
        w, b = parameter(rng.standard_normal((4, 3))), parameter(np.zeros(3))
        before = repr(ag._node_ids)
        ag.dense_inference(rng.standard_normal((5, 4)), w.data, b.data, "layer",
                           (np.ones(3), np.zeros(3), np.zeros(3), np.ones(3), 1e-5), relu=True)
        assert repr(ag._node_ids) == before

    def test_non_finite_output_names_the_layer(self):
        b = np.zeros(3)
        b[2] = np.nan
        with pytest.raises(NonFiniteError, match=r"'backbone.l2' at flat index 2$"):
            ag.dense_inference(np.ones((2, 4)), np.ones((4, 3)), b, "backbone.l2")

    def test_relu_does_not_hide_minus_inf(self):
        x = np.array([[1e300, 1.0], [1.0, 1.0]])
        with np.errstate(over="ignore"), pytest.raises(NonFiniteError,
                                                       match=r"'layer' at flat index 0"):
            ag.dense_inference(x, np.array([[-1e300], [0.0]]), np.zeros(1), "layer", relu=True)

    def test_shape_errors_name_the_op(self):
        norm = (np.ones(3), np.zeros(3), np.zeros(3), np.ones(3), 1e-5)
        with pytest.raises(ShapeError, match="dense: inner dimensions"):
            ag.dense_inference(np.ones((2, 3)), np.ones((4, 2)), np.ones(2), "layer")
        with pytest.raises(ShapeError, match="dense.*member blocks"):
            ag.dense_inference(np.ones((5, 3)), np.ones((2, 3, 2)), np.ones((2, 2)), "layer")
        with pytest.raises(ShapeError, match="dense: batch norm.*gamma"):
            ag.dense_inference(np.ones((2, 2)), np.eye(2), np.zeros(2), "layer", norm)


class TestFiniteCheck:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("size", [7, ag._ZEROS.size + 5])
    def test_first_middle_and_last_index_named(self, bad, size):
        for index in (0, size // 2, size - 1):
            data = np.arange(size, dtype=np.float64).reshape(-1, 1) - 3.0
            data[index] = bad
            with pytest.raises(NonFiniteError, match=rf"'op' \(node 9\) at flat index {index}$"):
                ag._check_finite(data, "op", 9)

    def test_finite_arrays_pass(self):
        for data in (np.array(2.5), np.zeros((0, 3)), np.full(ag._ZEROS.size + 5, -1e308),
                     np.array([[np.finfo(float).max, -0.0], [5e-324, 1.0]])):
            ag._check_finite(data, "op", 0)
            astensor(data)

    def test_zero_dimensional_and_strided_arrays(self):
        with pytest.raises(NonFiniteError, match="index 0"):
            astensor(np.nan)
        data = np.ones((4, 4))
        data[2, 1] = np.inf
        with pytest.raises(NonFiniteError, match="index 6"):
            ag._check_finite(data.T, "op", 0)  # flat index in the transposed order

    def test_zeros_cannot_be_written(self):
        with pytest.raises(ValueError):
            ag._ZEROS[0] = 1.0

    def test_check_raises_no_floating_point_warning(self):
        # a numpy warning would put a second line before the CLI's one-line
        # JSON error on stderr
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteError):
                ag._check_finite(np.array([1.0, np.inf]), "op", 0)

    def test_relu_does_not_hide_minus_inf(self):
        # -inf before the ReLU becomes 0 after it; the check reads the input
        x = np.array([[1e300, 1.0], [1.0, 1.0]])
        with np.errstate(over="ignore"), pytest.raises(NonFiniteError, match=r"'dense'.*index 0"):
            ag.dense(x, np.array([[-1e300], [0.0]]), np.zeros(1), relu=True)


_SPARE_CORE = ag._spare_core  # before a test replaces it


class DelayedWorker(Worker):
    """A worker that pauses before each job, so that a job the caller does
    not wait for lands after the caller's own work.  It counts the jobs
    submitted and, at each submission, the most not yet finished."""

    def __init__(self, delay: float = 0.0):
        super().__init__()
        self.delay, self.jobs, self.finished, self.most_ahead = delay, 0, 0, 0

    def submit(self, fn):
        self.jobs += 1
        self.most_ahead = max(self.most_ahead, self.jobs - self.finished)

        def late():
            time.sleep(self.delay)
            try:
                return fn()
            finally:
                self.finished += 1  # only this thread writes it
        return super().submit(late)


# rows x in x out of each layer below reaches ag.QUEUE_MACS
_ROWS, _WIDTH = 320, 48
_QUEUED_MODES = {  # batch norm, ReLU, members
    "linear": (False, False, 0),
    "relu": (False, True, 0),
    "batch_norm": (True, False, 0),
    "batch_norm_relu": (True, True, 0),
    "members": (False, False, 2),
    "members_relu": (False, True, 2),
}


def _two_layer_grads(mode: str, worker) -> list[np.ndarray]:
    """Every gradient of a two-layer stack in ``mode``, the input included."""
    norm, relu, members = _QUEUED_MODES[mode]
    rng = np.random.default_rng(31)
    lead = (members,) if members else ()
    x = parameter(rng.standard_normal((_ROWS, _WIDTH)))
    params = []
    for _ in range(2):
        layer = [parameter(rng.standard_normal(lead + (_WIDTH, _WIDTH)) / 7.0),
                 parameter(rng.standard_normal(lead + (_WIDTH,)))]
        if norm:
            layer += [parameter(rng.uniform(0.5, 1.5, _WIDTH)),
                      parameter(rng.standard_normal(_WIDTH))]
        params.append(layer)
    h = x
    for layer in params:
        h = ag.dense(h, *layer, eps=1e-5, relu=relu)[0]
    ag.sq_dist(h, rng.standard_normal(h.shape)).backward(worker)
    return [x.grad] + [p.grad for layer in params for p in layer]


class TestQueuedParameterGradients:
    @pytest.fixture(autouse=True)
    def spare_core(self, monkeypatch):
        monkeypatch.setattr(ag, "_spare_core", lambda: True)

    @pytest.mark.parametrize("env, cores, spare", [
        ({}, 2, False), ({"OPENBLAS_NUM_THREADS": "1"}, 2, True),
        ({"OPENBLAS_NUM_THREADS": "1"}, 1, False), ({"OMP_NUM_THREADS": "2"}, 2, False),
        ({"OMP_NUM_THREADS": "2"}, 4, True),
        ({"OPENBLAS_NUM_THREADS": "4", "OMP_NUM_THREADS": "1"}, 4, False)])
    def test_a_core_is_spare_when_blas_threads_leave_one(self, monkeypatch, env, cores, spare):
        # OpenBLAS runs a thread per core when none of its settings is given;
        # the host has more cores than the process may use
        for name in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"):
            monkeypatch.delenv(name, raising=False)
        for name, value in env.items():
            monkeypatch.setenv(name, value)
        monkeypatch.setattr(ag.os, "sched_getaffinity", lambda pid: set(range(cores)),
                            raising=False)
        monkeypatch.setattr(ag.os, "cpu_count", lambda: 8)
        _SPARE_CORE.cache_clear()
        try:
            assert _SPARE_CORE() is spare
        finally:
            _SPARE_CORE.cache_clear()  # the next reader sees this process's own setting

    def test_usable_cores_read_the_affinity_mask(self, monkeypatch):
        # under ``taskset -c 0`` on a two-core host one core is usable
        monkeypatch.setattr(ag.os, "cpu_count", lambda: 2)
        monkeypatch.setattr(ag.os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert ag.usable_cores() == 1
        # a platform without affinity masks falls back to the host's cores
        monkeypatch.delattr(ag.os, "sched_getaffinity")
        assert ag.usable_cores() == 2

    def test_no_spare_core_runs_inline(self, monkeypatch):
        monkeypatch.setattr(ag, "_spare_core", lambda: False)
        with DelayedWorker() as worker:
            queued = _two_layer_grads("batch_norm_relu", worker)
        assert worker.jobs == 0
        for got, want in zip(queued, _two_layer_grads("batch_norm_relu", None)):
            assert_same_bits(got, want)

    def test_layers_reach_the_size_constant(self):
        assert _ROWS * _WIDTH * _WIDTH >= ag.QUEUE_MACS

    @pytest.mark.parametrize("switch", [None, 1e-6])
    @pytest.mark.parametrize("mode", sorted(_QUEUED_MODES))
    def test_bit_identical_to_the_inline_pass(self, mode, switch):
        inline = _two_layer_grads(mode, None)
        interval = sys.getswitchinterval()
        if switch:
            sys.setswitchinterval(switch)
        try:
            with DelayedWorker() as worker:
                queued = _two_layer_grads(mode, worker)
        finally:
            sys.setswitchinterval(interval)
        assert worker.jobs == 2
        for got, want in zip(queued, inline):
            assert_same_bits(got, want)

    def test_four_workers_under_rapid_thread_switching(self):
        # four callers, each with its own worker, on two cores, switching
        # threads every microsecond: each still gets the inline gradients
        inline = {mode: _two_layer_grads(mode, None) for mode in _QUEUED_MODES}
        modes = sorted(_QUEUED_MODES)[:4]
        results = {}

        def call(mode):
            with Worker() as worker:
                results[mode] = _two_layer_grads(mode, worker)

        callers = [threading.Thread(target=call, args=(mode,)) for mode in modes]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for caller in callers:
                caller.start()
            for caller in callers:
                caller.join(timeout=60)
                assert not caller.is_alive()
        finally:
            sys.setswitchinterval(interval)
        for mode in modes:
            for got, want in zip(results[mode], inline[mode], strict=True):
                assert_same_bits(got, want)

    @pytest.mark.parametrize("order", itertools.permutations(["large", "large", "small"]))
    def test_shared_parameter_takes_contributions_in_the_serial_order(self, order):
        # a weight fed by two queued nodes and one inline node: the inline
        # contribution waits for the queued ones before it, however late
        # the worker runs them
        rng = np.random.default_rng(5)
        inputs = [rng.standard_normal((_ROWS if size == "large" else 4, _WIDTH))
                  for size in order]
        w0, b0 = rng.standard_normal((_WIDTH, _WIDTH)), rng.standard_normal(_WIDTH)

        def grads(worker):
            w, b = parameter(w0), parameter(b0)
            outs = [ag.dense(x, w, b, relu=True)[0] for x in inputs]
            ag.tsum(ag.concat_rows(ag.concat_rows(outs[0], outs[1]), outs[2])).backward(worker)
            return w.grad, b.grad

        with DelayedWorker(delay=0.005) as worker:
            queued = grads(worker)
        assert worker.jobs == 2
        for got, want in zip(queued, grads(None)):
            assert_same_bits(got, want)

    def test_at_most_two_jobs_run_ahead_of_the_chain(self):
        # a worker that falls behind keeps at most two jobs' arrays alive
        rng = np.random.default_rng(9)
        h = astensor(rng.standard_normal((_ROWS, _WIDTH)))
        layers = [(parameter(rng.standard_normal((_WIDTH, _WIDTH)) / 7.0),
                   parameter(np.zeros(_WIDTH))) for _ in range(5)]
        for w, b in layers:
            h = ag.dense(h, w, b, relu=True)[0]
        with DelayedWorker(delay=0.005) as worker:
            ag.tsum(h).backward(worker)
        assert worker.jobs == 5 and worker.most_ahead == 2

    def test_job_exception_is_raised_after_every_job_ran(self, monkeypatch):
        class JobFailure(Exception):
            pass

        hand_over = ag._hand_over
        failing = {}

        def fail_once(t, g):
            if t is failing.get("param"):
                del failing["param"]
                raise JobFailure("first job")
            hand_over(t, g)

        inline = _two_layer_grads("batch_norm_relu", None)
        monkeypatch.setattr(ag, "_hand_over", fail_once)
        rng = np.random.default_rng(31)
        x = parameter(rng.standard_normal((_ROWS, _WIDTH)))
        layers = [[parameter(rng.standard_normal((_WIDTH, _WIDTH)) / 7.0),
                   parameter(rng.standard_normal(_WIDTH)),
                   parameter(rng.uniform(0.5, 1.5, _WIDTH)),
                   parameter(rng.standard_normal(_WIDTH))] for _ in range(2)]
        h = ag.dense(x, *layers[0], eps=1e-5, relu=True)[0]
        h = ag.dense(h, *layers[1], eps=1e-5, relu=True)[0]
        loss = ag.sq_dist(h, rng.standard_normal(h.shape))
        failing["param"] = layers[1][2]  # the gamma of the first job queued
        with DelayedWorker(delay=0.005) as worker:
            with pytest.raises(JobFailure, match="first job"):
                loss.backward(worker)
            # the later job, and the input-gradient chain, ran in full
            for param, want in zip([x] + layers[0], inline):
                assert_same_bits(param.grad, want)
            with pytest.raises(AutogradError, match="already took its backward pass"):
                loss.backward(worker)
        assert worker.jobs == 2

    def test_no_worker_starts_no_thread(self, monkeypatch):
        def refuse(thread):
            raise AssertionError(f"thread {thread.name} started")

        monkeypatch.setattr(threading.Thread, "start", refuse)
        for mode in _QUEUED_MODES:
            _two_layer_grads(mode, None)
