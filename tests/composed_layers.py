"""A network layer composed of separate linear, batch-norm and ReLU nodes.

These are the ops a layer was built from before ``autograd.dense`` fused
them: the reference that the fused layer must reproduce bit for bit,
forward and backward.  ``composed_dense`` takes ``dense``'s arguments
and returns what it returns, so a test can swap it in for
``autograd.dense`` and train a whole model on the composition.  Given
running statistics (``stats``), it is the reference that
``autograd.dense_inference`` must reproduce bit for bit.
"""

import numpy as np

from corrcolor import autograd as ag
from corrcolor.autograd import Tensor, _hand_over, astensor


def linear(x, w, b) -> Tensor:
    """x @ w + b; a 3-D ``w`` maps k member-major row blocks."""
    x, w, b = astensor(x), astensor(w), astensor(b)
    if w.data.ndim == 3:
        return _member_linear(x, w, b)
    y = x.data @ w.data
    y += b.data
    out = Tensor(y, op="linear", _parents=(x, w, b))

    def backward(g):
        if x.requires_grad:
            _hand_over(x, g @ w.data.T)
        if w.requires_grad:
            _hand_over(w, x.data.T @ g)
        if b.requires_grad:
            _hand_over(b, g.sum(axis=0))

    out._backward = backward
    return out


def _member_linear(x, w, b) -> Tensor:
    k = w.shape[0]
    x3 = x.data.reshape(k, x.shape[0] // k, x.shape[1])
    y = np.matmul(x3, w.data)
    y += b.data[:, None, :]
    out = Tensor(y.reshape(x.shape[0], -1), op="linear", _parents=(x, w, b))

    def backward(g):
        g3 = g.reshape(k, -1, g.shape[1])
        if x.requires_grad:
            _hand_over(x, np.matmul(g3, w.data.transpose(0, 2, 1)).reshape(x.shape))
        if w.requires_grad:
            _hand_over(w, np.matmul(x3.transpose(0, 2, 1), g3))
        if b.requires_grad:
            _hand_over(b, g3.sum(axis=1))

    out._backward = backward
    return out


def batch_norm(x, gamma, beta, eps: float):
    """Training-mode batch norm; returns the node, batch mean and variance."""
    x, gamma, beta = astensor(x), astensor(gamma), astensor(beta)
    m = x.shape[0]
    mean = x.data.sum(axis=0, keepdims=True) * (1.0 / m)
    centered = x.data - mean
    var = (centered * centered).sum(axis=0, keepdims=True) * (1.0 / m)
    std = np.sqrt(var + eps)
    xhat = centered / std
    out = Tensor(xhat * gamma.data + beta.data, op="batch_norm", _parents=(x, gamma, beta))

    def backward(g):
        if x.requires_grad:
            gx = g * gamma.data
            t = gx * centered
            t /= std * std
            g_var = (-t.sum(axis=0) * 0.5 / std) * (1.0 / m)
            gx /= std
            np.multiply(g_var * 2.0, centered, out=t)
            gx += t
            gx += -gx.sum(axis=0) * (1.0 / m)
            _hand_over(x, gx)
        if gamma.requires_grad:
            _hand_over(gamma, (g * xhat).sum(axis=0))
        if beta.requires_grad:
            _hand_over(beta, g.sum(axis=0))

    out._backward = backward
    return out, mean.ravel(), var.ravel()


def composed_dense(x, w, b, gamma=None, beta=None, eps=0.0, stats=None, relu=False):
    """``autograd.dense`` built from separate nodes; inference-mode batch
    norm is the composition of elementwise nodes it was."""
    h, mean, var = linear(x, w, b), None, None
    if gamma is not None and stats is None:
        h, mean, var = batch_norm(h, gamma, beta, eps)
    elif gamma is not None:
        scale = 1.0 / np.sqrt(stats[1] + eps)
        h = ag.add(ag.mul(ag.mul(ag.sub(h, stats[0]), scale), gamma), beta)
    return (ag.relu(h) if relu else h), mean, var
