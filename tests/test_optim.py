import numpy as np
import pytest

from corrcolor import autograd as ag
from corrcolor.autograd import parameter
from corrcolor.optim import Adam, OptimizerError
from same_bits import assert_same_bits


class TestAdam:
    def test_moves_against_gradient_sign(self):
        p = parameter([1.0])
        opt = Adam({"p": p}, lr=0.1)
        p.grad = np.array([1.0])
        opt.step()
        assert p.data[0] < 1.0

    def test_zero_gradient_is_fixed_point_without_decay(self):
        p = parameter([0.5, -0.3])
        opt = Adam({"p": p}, lr=0.1, weight_decay=0.0)
        before = p.data.copy()
        for _ in range(5):
            p.grad = np.zeros(2)
            opt.step()
        np.testing.assert_array_equal(p.data, before)

    def test_zero_gradient_with_decay_shrinks_parameters(self):
        p = parameter([1.0])
        opt = Adam({"p": p}, lr=0.1, weight_decay=0.1)
        p.grad = np.array([0.0])
        opt.step()
        assert abs(p.data[0]) < 1.0

    def test_quadratic_loss_decreases_every_step(self):
        target = np.array([1.0, 1.0])
        w = parameter(np.zeros(2))
        opt = Adam({"w": w}, lr=0.1)
        losses = []
        for _ in range(10):
            loss = ag.tsum(ag.square(ag.sub(w, target)))
            loss.backward()
            losses.append(loss.item())
            opt.step()
            opt.zero_grad()
        final = ag.tsum(ag.square(ag.sub(w, target))).item()
        losses.append(final)
        assert all(b < a for a, b in zip(losses, losses[1:]))

    def test_missing_gradient_raises(self):
        p = parameter([1.0])
        opt = Adam({"p": p}, lr=0.1)
        with pytest.raises(OptimizerError, match="missing gradient.*'p'"):
            opt.step()

    def test_step_counter_increments(self):
        p = parameter([1.0])
        opt = Adam({"p": p}, lr=0.1)
        for expected in (1, 2, 3):
            p.grad = np.array([0.1])
            opt.step()
            assert opt.step_count == expected

    def test_state_roundtrip_preserves_trajectory(self):
        def train(steps, opt, p):
            history = []
            for _ in range(steps):
                loss = ag.tsum(ag.square(p))
                loss.backward()
                opt.step()
                opt.zero_grad()
                history.append(p.data.copy())
            return history

        p1 = parameter([2.0, -1.0])
        opt1 = Adam({"p": p1}, lr=0.05)
        straight = train(6, opt1, p1)

        p2 = parameter([2.0, -1.0])
        opt2 = Adam({"p": p2}, lr=0.05)
        train(3, opt2, p2)
        records = {name: a.copy() for name, a in opt2.state_arrays().items()}

        p3 = parameter(p2.data.copy())
        opt3 = Adam({"p": p3}, lr=0.05)
        opt3.load_state_arrays(records, opt2.step_count)
        resumed = train(3, opt3, p3)

        np.testing.assert_array_equal(straight[-1], resumed[-1])

    def test_accumulator_shapes_match_parameters(self):
        params = {"a": parameter(np.zeros((2, 3))), "b": parameter(np.zeros(4))}
        opt = Adam(params, lr=0.1)
        assert opt.m["a"].shape == (2, 3)
        assert opt.v["b"].shape == (4,)


def _reference_adam(params, grads_per_step, lr, betas, eps, weight_decay):
    """Per-parameter Adam, one tensor at a time; returns the final values
    and moments."""
    beta1, beta2 = betas
    values = {k: v.copy() for k, v in params.items()}
    m = {k: np.zeros_like(v) for k, v in params.items()}
    v = {k: np.zeros_like(val) for k, val in params.items()}
    for t, grads in enumerate(grads_per_step, start=1):
        bias1, bias2 = 1.0 - beta1 ** t, 1.0 - beta2 ** t
        for name in values:
            g = grads[name] + weight_decay * values[name]
            m[name] *= beta1
            m[name] += (1.0 - beta1) * g
            v[name] *= beta2
            v[name] += (1.0 - beta2) * (g * g)
            values[name] -= lr * (m[name] / bias1) / (np.sqrt(v[name] / bias2) + eps)
    return values, m, v


class TestFlatBuffer:
    SHAPES = {"w": (3, 4), "b": (4,), "s": (), "k": (2, 1, 3)}

    def _params(self, seed=0):
        rng = np.random.default_rng(seed)
        return {name: rng.standard_normal(shape) for name, shape in self.SHAPES.items()}

    def test_bit_identical_to_per_parameter_reference(self):
        self._check_against_reference(weight_decay=0.05)

    def test_bit_identical_without_weight_decay(self):
        self._check_against_reference(weight_decay=0.0)

    def _check_against_reference(self, weight_decay):
        init = self._params()
        rng = np.random.default_rng(1)
        grads = [{name: rng.standard_normal(shape) for name, shape in self.SHAPES.items()}
                 for _ in range(5)]
        settings = dict(lr=0.01, betas=(0.8, 0.99), eps=1e-6, weight_decay=weight_decay)
        tensors = {name: parameter(a) for name, a in init.items()}
        opt = Adam(tensors, **settings)
        for step_grads in grads:
            for name, p in tensors.items():
                p.grad = step_grads[name].copy()
            opt.step()
        values, m, v = _reference_adam(init, grads, **settings)
        for name, p in tensors.items():
            assert p.data.shape == self.SHAPES[name]
            assert_same_bits(p.data, values[name], name)
            assert_same_bits(opt.m[name], m[name], name)
            assert_same_bits(opt.v[name], v[name], name)

    def test_parameters_are_views_of_the_buffer(self):
        tensors = {name: parameter(a) for name, a in self._params().items()}
        opt = Adam(tensors, lr=0.1)
        for name, p in tensors.items():
            assert np.shares_memory(p.data, opt.flat), name
        assert opt.flat.size == sum(int(np.prod(s)) for s in self.SHAPES.values())

    def test_second_optimizer_takes_the_tensor(self):
        p = parameter([1.0, 2.0])
        first = Adam({"p": p}, lr=0.1)
        second = Adam({"p": p}, lr=0.1)
        p.grad = np.ones(2)
        second.step()
        with pytest.raises(OptimizerError, match="'p'.*buffer"):
            first.step()

    def test_load_state_writes_through_the_views(self):
        tensors = {name: parameter(a) for name, a in self._params().items()}
        opt = Adam(tensors, lr=0.1)
        views = dict(opt.m)
        records = {**{f"adam.m.{k}": np.full(s, 0.5) for k, s in self.SHAPES.items()},
                   **{f"adam.v.{k}": np.full(s, 0.25) for k, s in self.SHAPES.items()}}
        opt.load_state_arrays(records, 3)
        assert opt.step_count == 3
        for name in self.SHAPES:
            assert opt.m[name] is views[name]
            np.testing.assert_array_equal(opt.m[name], 0.5)
            np.testing.assert_array_equal(opt.v[name], 0.25)
