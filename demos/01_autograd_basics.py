"""A walk through the autodiff engine: tensors, graphs, gradients.

Everything downstream (losses, networks, training) is built on the tiny
reverse-mode engine in corrcolor.autograd, so this script starts there.
Run it with `python demos/01_autograd_basics.py`.
"""

import corrcolor  # before numpy: it pins BLAS to one thread, read as numpy loads
import numpy as np

from corrcolor import autograd as ag
from corrcolor.autograd import astensor, parameter

# A Tensor wraps a float64 numpy array. Operations record the graph as
# they execute, so there is no separate "compile" step.
x = parameter([3.0])
y = ag.mul(x, x)          # y = x^2
y.backward()
print("d(x^2)/dx at x=3:", x.grad)          # -> [6.0]

# A network layer is one fused node, x @ w + b (batch norm and a ReLU are
# optional); sq_dist sums squared distances to a constant target.
rng = np.random.default_rng(0)
w = parameter(rng.standard_normal((5, 3)))
b = parameter(np.zeros(3))
inputs = astensor(rng.standard_normal((8, 5)))
zeros = np.zeros((8, 3))


def mean_square(logits):
    return ag.mul(ag.sq_dist(logits, zeros), 1.0 / logits.size)


logits = ag.dense(inputs, w, b)[0]
loss = mean_square(logits)
loss.backward()
print("loss:", loss.item())
print("weight gradient shape:", w.grad.shape, " bias gradient shape:", b.grad.shape)

# Gradients agree with central finite differences; this check is the
# backbone of the test suite.
def finite_difference(f, array, h=1e-5):
    grad = np.zeros_like(array)
    it = np.nditer(array, flags=["multi_index"])
    for _ in it:
        i = it.multi_index
        orig = array[i]
        array[i] = orig + h
        hi = f()
        array[i] = orig - h
        lo = f()
        array[i] = orig
        grad[i] = (hi - lo) / (2 * h)
    return grad

numeric = finite_difference(
    lambda: mean_square(ag.dense(inputs, astensor(w.data), b.data)[0]).item(), w.data)
print("max |analytic - numeric|:", np.abs(w.grad - numeric).max())

# Inference needs no graph: the same layer maps arrays to an array.
same = ag.dense_inference(inputs.data, w.data, b.data, "layer")
print("inference layer equals the node's value:", np.array_equal(same, logits.data))

# Non-finite values are refused loudly rather than propagated:
try:
    with np.errstate(over="ignore"):
        ag.mul(astensor([1.0, 1e300]), 1e300)
except ag.NonFiniteError as exc:
    print("caught:", exc)

# And a loss with no trainable ancestors is a bug, not a no-op:
try:
    ag.sq_dist(astensor(np.ones(3)), np.zeros(3)).backward()
except ag.AutogradError as exc:
    print("caught:", exc)

# A graph takes one backward pass, which frees the arrays its nodes saved
# for it; a second pass is refused (the gradients stay), so build it again:
try:
    loss.backward()
except ag.AutogradError as exc:
    print("caught:", exc)
