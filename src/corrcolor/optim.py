"""Adam optimizer over named parameter tensors."""

from __future__ import annotations

import numpy as np

from .autograd import Tensor


class OptimizerError(Exception):
    pass


class Adam:
    """Standard Adam with optional L2 weight decay folded into the gradient.

    The optimizer owns one contiguous float64 buffer, ``flat``, holding
    all of its parameters: construction copies each parameter's values in
    and rebinds ``p.data`` to a view of it, so a step is a few whole-buffer
    numpy calls instead of a dozen per tensor.  A tensor therefore
    belongs to one optimizer at a time.  The first/second moments are
    flat buffers as well; ``m[name]`` and ``v[name]`` are views into
    them, keyed by parameter name, next to a shared step counter.  A step
    writes its temporaries into two preallocated flat scratch buffers.
    The moments round-trip as checkpoint records through
    ``state_arrays``/``load_state_arrays``; the step counter travels
    beside them.
    """

    def __init__(self, params: dict[str, Tensor], lr: float = 1e-3,
                 betas: tuple[float, float] = (0.9, 0.999), eps: float = 1e-8,
                 weight_decay: float = 0.0):
        if lr <= 0:
            raise OptimizerError(f"learning rate must be positive, got {lr}")
        self.params = dict(params)
        self.lr = float(lr)
        self.beta1, self.beta2 = float(betas[0]), float(betas[1])
        self.eps = float(eps)
        self.weight_decay = float(weight_decay)
        self.step_count = 0
        self.flat = np.concatenate([np.zeros(0)] + [p.data for p in self.params.values()],
                                   axis=None)
        self._views = list(self._split(self.flat).values())
        for p, view in zip(self.params.values(), self._views):
            p.data = view
        self._m = np.zeros_like(self.flat)
        self._v = np.zeros_like(self.flat)
        self._g = np.empty_like(self.flat)
        self._t = np.empty_like(self.flat)
        self.m = self._split(self._m)
        self.v = self._split(self._v)

    def _split(self, flat: np.ndarray) -> dict[str, np.ndarray]:
        """Views of ``flat`` shaped like each parameter, in order."""
        views, start = {}, 0
        for name, p in self.params.items():
            stop = start + p.data.size
            views[name] = flat[start:stop].reshape(p.data.shape)
            start = stop
        return views

    def step(self) -> None:
        """Apply one Adam update from the gradients stored on the parameters."""
        grads = []
        for (name, p), view in zip(self.params.items(), self._views):
            if p.grad is None:
                raise OptimizerError(f"missing gradient for parameter '{name}'")
            if p.data is not view:
                raise OptimizerError(
                    f"parameter '{name}' no longer lives in this optimizer's buffer "
                    "(rebound, or taken over by another optimizer)")
            grads.append(p.grad)
        self.step_count += 1
        t = self.step_count
        bias1 = 1.0 - self.beta1 ** t
        bias2 = 1.0 - self.beta2 ** t
        # the arithmetic of m = b1*m + (1-b1)*g, v = b2*v + (1-b2)*g*g and
        # flat -= lr*(m/bias1) / (sqrt(v/bias2) + eps), operation by operation
        g, t, m, v = self._g, self._t, self._m, self._v
        np.concatenate([np.zeros(0)] + grads, axis=None, out=g)
        if self.weight_decay != 0.0:
            g += np.multiply(self.flat, self.weight_decay, out=t)
        m *= self.beta1
        m += np.multiply(g, 1.0 - self.beta1, out=t)
        v *= self.beta2
        v += np.multiply(np.multiply(g, g, out=t), 1.0 - self.beta2, out=t)
        np.divide(m, bias1, out=t)
        t *= self.lr
        np.divide(v, bias2, out=g)
        np.sqrt(g, out=g)
        g += self.eps
        t /= g
        self.flat -= t

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.grad = None

    def state_arrays(self) -> dict[str, np.ndarray]:
        """The moments as checkpoint records, views into the moment buffers:
        every ``adam.m.<name>``, then every ``adam.v.<name>``."""
        return {**{f"adam.m.{name}": m for name, m in self.m.items()},
                **{f"adam.v.{name}": v for name, v in self.v.items()}}

    def load_state_arrays(self, records: dict[str, np.ndarray], step: int) -> None:
        """Restore the moments ``records`` holds, named as ``state_arrays``
        names them, and the step counter; a parameter without records keeps
        its moments (zero in a fresh optimizer)."""
        for key, current in self.state_arrays().items():
            if key in records:
                if records[key].shape != current.shape:
                    raise OptimizerError(
                        f"optimizer state shape mismatch for '{key}': "
                        f"{records[key].shape} vs {current.shape}")
                current[...] = records[key]
        self.step_count = int(step)
