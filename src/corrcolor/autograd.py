"""Reverse-mode automatic differentiation on dense float64 arrays.

The engine is define-by-run: every operation allocates a fresh ``Tensor``
node holding its forward value, references to its parents, and a closure
that routes the incoming adjoint to those parents.  Calling
``Tensor.backward()`` on a scalar walks the recorded graph once, in
reverse topological order, accumulating gradients.

All values are 64-bit floats.  Every operation validates shapes up front
and checks its output for NaN/Inf, so a non-finite value surfaces as an
error naming the offending node instead of propagating silently.

Since each node costs Python overhead that dwarfs its arithmetic at the
batch sizes used here, the layers and losses of the training hot path
are single fused nodes with closed-form backward passes: ``dense`` (a
training-mode network layer: linear, optional batch norm, optional
ReLU), ``unit_columns``, ``gram`` and ``sq_dist``; the VAE objective's
Gaussian KL term and its reparameterized sample are ``gaussian_kl`` and
``reparameterize``.  ``dense``, ``sq_dist`` and ``gaussian_kl`` also
take a leading member axis, for independent models trained as one
graph: their rows are member-major blocks of equal size, each block
computed with the very operations a lone model would run on it, and the
losses give one value per member (``gaussian_kl`` always does, one
member by default).  ``reparameterize`` is row-wise, so it needs none.
Inference builds no graph: ``dense_inference`` maps arrays to arrays.
Gradient buffers are allocated lazily: a node's first adjoint
contribution becomes its gradient, later ones are added in place.  A
contribution a backward closure computed afresh is handed over as it is
(``_hand_over``); one that passes an array through unchanged, or a view
of it, is copied first (``_accumulate``), so that no in-place addition
writes through to an array another node still reads.  Backward closures
capture arrays, never their own output node, so a graph holds no
reference cycles and is freed as soon as the loss is dropped.

A graph takes one backward pass.  ``backward()`` releases each node's
closure, and with it the arrays the closure saved, right after calling
it; what stays is every node's forward value and ``.grad``.  A second
``backward()`` through a released node raises ``AutogradError``: build
the graph again.  Training loops drop each step's graph before the next
step builds its own, so one graph is alive at a time.

Given the training loop's worker thread, and a core that BLAS's own
thread leaves free, ``backward(worker)`` queues the parameter gradients
of every ``dense`` node of at least ``QUEUE_MACS`` multiply-adds on it
(the weight product, the bias sum and the batch-norm scale and shift
sums) and goes on down the input-gradient chain; it returns once every
queued job has run.  The worker runs the jobs in the order they were
queued, and this thread waits for them before it runs a closure that
touches a tensor they write, so every gradient receives its
contributions in the serial order and every number is the one an inline
pass computes.

Importing this module asks glibc's allocator to keep freed memory in
the process (``_keep_freed_memory``): each step frees and reallocates
the same few megabytes, which glibc would otherwise hand back to the
kernel and fault in again.
"""

from __future__ import annotations

import contextvars
import ctypes
import functools
import itertools
import os

import numpy as np

from . import BLAS_PINNED

_node_ids = itertools.count()

# glibc's mallopt parameters (malloc.h) and the largest mmap threshold it
# accepts on 64-bit hosts
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_MMAP_THRESHOLD_MAX = 32 << 20


def _keep_freed_memory() -> None:
    """Stop glibc returning freed heap to the kernel: no trimming of the
    heap top, and blocks up to 32 MiB come from the heap, not from a
    fresh mmap each.  A no-op where the C library has no ``mallopt``."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(_M_TRIM_THRESHOLD, 2**31 - 1)
    mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD_MAX)


_keep_freed_memory()


class AutogradError(Exception):
    """Base class for graph construction and traversal failures."""


class ShapeError(AutogradError):
    """Operand shapes are inconsistent with the requested operation."""


class NonFiniteError(AutogradError):
    """A forward value contains NaN or Inf."""


def _as_array(value) -> np.ndarray:
    return np.asarray(value, dtype=np.float64)


# 0 * v is +-0 for a finite v and NaN for +-inf or NaN: one BLAS dot
# against these zeros (read-only, so no caller can spoil them) checks an array
_ZEROS = np.zeros(1 << 16)
_ZEROS.flags.writeable = False


def _check_finite(data: np.ndarray, op: str, node_id: int | None = None) -> None:
    # vdot, unlike dot, raises no floating-point warning on 0 * inf
    if data.size <= _ZEROS.size:
        if np.vdot(_ZEROS[:data.size], data) == 0.0:
            return
    elif np.isfinite(data).all():
        return
    bad = int(np.flatnonzero(~np.isfinite(data.ravel()))[0])
    node = "" if node_id is None else f" (node {node_id})"
    raise NonFiniteError(f"non-finite value in output of '{op}'{node} at flat index {bad}")


def _accumulate(t: "Tensor", g) -> None:
    """Add a passed-through adjoint to ``t.grad``, allocating it on first use.

    The first contribution is copied so that no later in-place addition
    writes through to an array that another node still reads.
    """
    if t.grad is None:
        t.grad = np.array(g, dtype=np.float64)
    else:
        t.grad += g


def _hand_over(t: "Tensor", g) -> None:
    """Add a fresh adjoint, one no other node holds, to ``t.grad``.

    On first use the array itself becomes the gradient, without a copy
    (numpy returns a 0-d product as a scalar, which is wrapped).
    """
    if t.grad is None:
        t.grad = g if type(g) is np.ndarray else np.asarray(g)
    else:
        t.grad += g


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum an adjoint back down to the shape of a broadcast operand."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """A float64 array plus the bookkeeping needed for backpropagation.

    ``requires_grad`` marks trainable leaves; interior nodes inherit it
    from their parents so backward() can skip dead subgraphs.  ``grad``
    is populated (same shape as ``data``) during a backward pass.  The
    finite check reads ``_checked`` instead of ``data`` when given.
    """

    __slots__ = ("data", "grad", "requires_grad", "op", "node_id", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False, op: str = "leaf", _parents=(),
                 _checked=None):
        self.data = _as_array(data)
        self.grad = None
        self.requires_grad = bool(requires_grad) or any(p.requires_grad for p in _parents)
        self.op = op
        self.node_id = next(_node_ids)
        self._parents = _parents
        self._backward = None
        _check_finite(self.data if _checked is None else _checked, op, self.node_id)

    # -- introspection ------------------------------------------------

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() on non-scalar tensor of shape {self.shape}")
        return float(self.data.reshape(()))

    def __repr__(self):
        return f"Tensor(op={self.op!r}, shape={self.shape}, requires_grad={self.requires_grad})"

    # -- backward pass ------------------------------------------------

    def backward(self, worker=None) -> None:
        """Accumulate d(self)/d(node) into every reachable node's .grad.

        Each node's backward closure is released right after it runs, so
        the arrays it saved are freed during the pass; forward values and
        every ``.grad`` stay.  Raises if this tensor is not scalar, if no
        node in its history requires a gradient (a detached loss is
        always a bug), or if a node in its history already took a
        backward pass (a graph takes one).

        Given a ``worker`` (``data.Worker``) and a core that BLAS leaves
        free (``_spare_core``), ``dense`` nodes of at least ``QUEUE_MACS``
        queue their parameter gradients on it while this thread goes on
        down the chain (see ``_Pass``).  The call returns once every
        queued job has run, and raises the first exception a job raised.
        """
        if self.data.size != 1:
            raise ShapeError(f"backward() requires a scalar loss, got shape {self.shape}")

        topo: list[Tensor] = []
        visited = set()
        stack = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            if node._backward is _released:
                raise AutogradError(
                    "backward() through a graph that already took its backward pass; "
                    "build the graph again")
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in visited and parent.requires_grad:
                    stack.append((parent, False))

        if not any(n.requires_grad and n._backward is None for n in topo):
            raise AutogradError(
                "backward() on a detached loss: no path to any requires-grad leaf"
            )

        for node in topo:
            node.grad = None
        self.grad = np.ones_like(self.data)
        queued = _Pass(worker) if worker is not None and _spare_core() else None
        writes = () if queued is None else queued.writes
        token = _queued.set(queued)
        try:
            for node in reversed(topo):
                backward = node._backward
                if backward is not None:
                    node._backward = _released
                    # a closure touching a tensor a queued job writes waits for the jobs
                    if writes and (node in writes or not writes.isdisjoint(node._parents)):
                        queued.wait()
                    backward(node.grad)
        finally:
            _queued.reset(token)
            if queued is not None:
                queued.wait()
        if queued is not None and queued.error is not None:
            raise queued.error


def _released(g) -> None:
    """The backward closure of a node whose own closure has run."""
    raise AutogradError("backward closure already released")


# A dense node of at least this many multiply-adds (rows x in x out) queues
# its parameter gradients on the backward pass's worker; below it, the
# hand-off costs more than the overlap saves (measured on a 2-core host,
# 1 BLAS thread: see README, "Graph lifetime and memory").
QUEUE_MACS = 1 << 19


def usable_cores() -> int:
    """The cores this process may run on: its affinity mask (which
    ``taskset`` narrows) where the platform has one, else the host's."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@functools.cache
def _spare_core() -> bool:
    """Whether BLAS leaves a usable core for the worker, read once per
    process: it runs one thread (``BLAS_PINNED``) and the process may use
    two cores or more.  Unpinned, OpenBLAS runs a thread per core, and a
    worker's products would contend with the caller's: queued passes
    measured slower than inline ones then."""
    return BLAS_PINNED and usable_cores() > 1


class _Pass:
    """The parameter-gradient jobs a backward pass's ``dense`` closures
    queue on a worker.

    The worker runs the jobs in the order they were queued, which is the
    order of the serial pass, so every gradient array receives its
    contributions in the serial order.  ``writes`` holds the tensors the
    jobs not yet waited for write; ``backward()`` waits for them before it
    runs a closure that reads or writes one of those tensors.
    Queueing a job first waits for the one two before it (``before``): a
    worker that falls behind would otherwise keep every waiting job's
    arrays alive, and a step's peak memory would grow with its lag, while
    waiting for the job just before would stall this thread on the VAE's
    short chain segments.
    """

    __slots__ = ("worker", "writes", "before", "last", "error")

    def __init__(self, worker):
        self.worker, self.writes, self.error = worker, set(), None
        self.before = self.last = None

    def put(self, job, writes) -> None:
        if self.before is not None:
            self.before.wait()
        self.before = self.last
        self.writes.update(writes)
        self.last = self.worker.submit(functools.partial(self._run, job))

    def _run(self, job) -> None:
        try:
            job()
        except BaseException as exc:  # backward() raises it once every job has run
            if self.error is None:
                self.error = exc

    def wait(self) -> None:
        if self.last is not None:
            self.last.wait()
        self.before = self.last = None
        self.writes.clear()


# the pass whose closures are running on this thread, if it has a worker
_queued = contextvars.ContextVar("queued", default=None)


def astensor(value) -> Tensor:
    """Lift arrays and scalars into constant tensors; pass tensors through."""
    if isinstance(value, Tensor):
        return value
    return Tensor(value, op="const")


def parameter(data, name: str = "param") -> Tensor:
    """A trainable leaf tensor."""
    return Tensor(data, requires_grad=True, op=name)


# ---------------------------------------------------------------------
# elementwise arithmetic (with numpy broadcasting)
# ---------------------------------------------------------------------


def _broadcast_check(a: Tensor, b: Tensor, op: str):
    try:
        np.broadcast_shapes(a.shape, b.shape)
    except ValueError:
        raise ShapeError(f"{op}: cannot broadcast shapes {a.shape} and {b.shape}") from None


def add(a, b) -> Tensor:
    a, b = astensor(a), astensor(b)
    _broadcast_check(a, b, "add")
    out = Tensor(a.data + b.data, op="add", _parents=(a, b))

    def backward(g):
        if a.requires_grad:
            _accumulate(a, _unbroadcast(g, a.shape))
        if b.requires_grad:
            _accumulate(b, _unbroadcast(g, b.shape))

    out._backward = backward
    return out


def sub(a, b) -> Tensor:
    a, b = astensor(a), astensor(b)
    _broadcast_check(a, b, "sub")
    out = Tensor(a.data - b.data, op="sub", _parents=(a, b))

    def backward(g):
        if a.requires_grad:
            _accumulate(a, _unbroadcast(g, a.shape))
        if b.requires_grad:
            _hand_over(b, -_unbroadcast(g, b.shape))

    out._backward = backward
    return out


def mul(a, b) -> Tensor:
    a, b = astensor(a), astensor(b)
    _broadcast_check(a, b, "mul")
    out = Tensor(a.data * b.data, op="mul", _parents=(a, b))

    def backward(g):
        if a.requires_grad:
            _hand_over(a, _unbroadcast(g * b.data, a.shape))
        if b.requires_grad:
            _hand_over(b, _unbroadcast(g * a.data, b.shape))

    out._backward = backward
    return out


def div(a, b) -> Tensor:
    a, b = astensor(a), astensor(b)
    _broadcast_check(a, b, "div")
    with np.errstate(divide="ignore", invalid="ignore"):
        out = Tensor(a.data / b.data, op="div", _parents=(a, b))

    def backward(g):
        if a.requires_grad:
            _hand_over(a, _unbroadcast(g / b.data, a.shape))
        if b.requires_grad:
            _hand_over(b, _unbroadcast(-g * a.data / (b.data * b.data), b.shape))

    out._backward = backward
    return out


# ---------------------------------------------------------------------
# linear algebra and shape ops
# ---------------------------------------------------------------------


def matmul(a, b) -> Tensor:
    a, b = astensor(a), astensor(b)
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ShapeError(f"matmul: expected 2-D operands, got {a.shape} and {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul: inner dimensions differ, {a.shape} @ {b.shape}")
    out = Tensor(a.data @ b.data, op="matmul", _parents=(a, b))

    def backward(g):
        if a.requires_grad:
            _hand_over(a, g @ b.data.T)
        if b.requires_grad:
            _hand_over(b, a.data.T @ g)

    out._backward = backward
    return out


def transpose(a) -> Tensor:
    a = astensor(a)
    if a.data.ndim != 2:
        raise ShapeError(f"transpose: expected 2-D operand, got {a.shape}")
    out = Tensor(a.data.T.copy(), op="transpose", _parents=(a,))

    def backward(g):
        if a.requires_grad:
            _accumulate(a, g.T)

    out._backward = backward
    return out


def concat_rows(a, b) -> Tensor:
    """Stack two 2-D tensors along axis 0."""
    a, b = astensor(a), astensor(b)
    if a.data.ndim != 2 or b.data.ndim != 2 or a.shape[1] != b.shape[1]:
        raise ShapeError(f"concat_rows: incompatible shapes {a.shape} and {b.shape}")
    out = Tensor(np.concatenate([a.data, b.data], axis=0), op="concat_rows", _parents=(a, b))
    split = a.shape[0]

    def backward(g):
        if a.requires_grad:
            _accumulate(a, g[:split])
        if b.requires_grad:
            _accumulate(b, g[split:])

    out._backward = backward
    return out


def rows(a, start: int, stop: int) -> Tensor:
    """Slice rows [start, stop) of a 2-D tensor."""
    a = astensor(a)
    if a.data.ndim != 2:
        raise ShapeError(f"rows: expected 2-D operand, got {a.shape}")
    if not (0 <= start <= stop <= a.shape[0]):
        raise ShapeError(f"rows: slice [{start}, {stop}) out of bounds for {a.shape}")
    out = Tensor(a.data[start:stop].copy(), op="rows", _parents=(a,))

    def backward(g):
        if a.requires_grad:
            if a.grad is None:
                a.grad = np.zeros_like(a.data)
            a.grad[start:stop] += g

    out._backward = backward
    return out


# ---------------------------------------------------------------------
# fused layers and losses (one node each, closed-form backward)
# ---------------------------------------------------------------------


def _affine(x: np.ndarray, w: np.ndarray, b: np.ndarray):
    """``dense``'s shape checks and map x @ w + b: the output, the member
    count k and ``x`` as k row blocks (0 and None for a 2-D ``w``)."""
    if x.ndim != 2 or w.ndim not in (2, 3) or b.shape != w.shape[:-2] + w.shape[-1:]:
        raise ShapeError(f"dense: incompatible shapes x {x.shape}, w {w.shape}, b {b.shape}")
    if x.shape[1] != w.shape[-2]:
        raise ShapeError(f"dense: inner dimensions differ, {x.shape} @ {w.shape}")
    if w.ndim == 2:
        y = x @ w
        y += b
        return y, 0, None
    k = w.shape[0]
    x3 = x.reshape(k, _member_rows("dense", x.shape[0], k), x.shape[1])
    y = np.matmul(x3, w)
    y += b[:, None, :]
    return y.reshape(x.shape[0], -1), k, x3


def _check_norm(y: np.ndarray, w: np.ndarray, gamma: np.ndarray, beta: np.ndarray,
                training: bool) -> None:
    m, n = y.shape
    if w.ndim != 2 or gamma.shape != (n,) or beta.shape != gamma.shape or (training and m < 2):
        raise ShapeError(f"dense: batch norm takes a 2-D w, gamma and beta of width {n} and "
                         f"2+ rows to train; got w {w.shape}, gamma {gamma.shape}, "
                         f"beta {beta.shape}, {m} rows")


def dense(x, w, b, gamma=None, beta=None, eps: float = 0.0, relu: bool = False):
    """One training-mode network layer as one node: x @ w + b for a 2-D
    batch ``x``, then batch norm if ``gamma`` and ``beta`` are given, then
    a ReLU if ``relu``; the backward pass runs the composed ops' adjoints
    in order.  Returns (node, batch mean, biased batch variance), the
    statistics None without batch norm.

    Batch norm centers each column, divides it by sqrt(var + ``eps``),
    scales it by ``gamma`` and shifts it by ``beta``.  A 3-D ``w`` (k, in,
    out) with ``b`` (k, out) is a leading member axis: the rows of ``x``
    are k member-major blocks of equal size, block s mapped by ``w[s]``
    and ``b[s]`` exactly as by a 2-D weight.
    """
    x, w, b = astensor(x), astensor(w), astensor(b)
    y, k, x3 = _affine(x.data, w.data, b.data)
    parents, mean, var = (x, w, b), None, None
    if gamma is not None:
        gamma, beta = astensor(gamma), astensor(beta)
        _check_norm(y, w.data, gamma.data, beta.data, True)
        parents += (gamma, beta)
        m = y.shape[0]
        mean = y.sum(axis=0) * (1.0 / m)
        centered = y - mean
        var = (centered * centered).sum(axis=0) * (1.0 / m)
        std = np.sqrt(var + eps)
        xhat = centered / std
        y = xhat * gamma.data + beta.data
    # the check reads the pre-activation: a ReLU would turn -inf into 0
    out = Tensor(np.maximum(y, 0.0) if relu else y, op="dense", _parents=parents, _checked=y)
    # the output, not the node (no cycle); it is > 0 exactly where y is, so
    # the pre-activation of a ReLU layer is not kept
    value = out.data

    def backward(g):
        if relu:
            g = g * (value > 0.0)
        g_out = g  # the adjoint of the batch norm's output
        if gamma is not None:
            # in place on two temporaries (a negation commutes exactly
            # with rounding, so it is taken on the column sums)
            g = g * gamma.data
            t = g * centered
            t /= std * std
            g_var = (-t.sum(axis=0) * 0.5 / std) * (1.0 / m)
            g /= std
            np.multiply(g_var * 2.0, centered, out=t)
            g += t
            g += -g.sum(axis=0) * (1.0 / m)
        g3 = g.reshape(k, -1, g.shape[1]) if k else None

        def parameter_grads():  # off the input-gradient chain
            if gamma is not None:
                if gamma.requires_grad:
                    _hand_over(gamma, (g_out * xhat).sum(axis=0))
                if beta.requires_grad:
                    _hand_over(beta, g_out.sum(axis=0))
            if w.requires_grad:
                _hand_over(w, np.matmul(x3.transpose(0, 2, 1), g3) if k else x.data.T @ g)
            if b.requires_grad:
                _hand_over(b, g3.sum(axis=1) if k else g.sum(axis=0))

        queued = _queued.get()
        if queued is not None and x.shape[0] * x.shape[1] * w.shape[-1] >= QUEUE_MACS:
            queued.put(parameter_grads, parents[1:])
        else:
            parameter_grads()
        if x.requires_grad:
            _hand_over(x, np.matmul(g3, w.data.transpose(0, 2, 1)).reshape(x.shape) if k
                       else g @ w.data.T)

    out._backward = backward
    return out, mean, var


def dense_inference(x, w, b, name: str, norm=None, relu: bool = False) -> np.ndarray:
    """``dense``'s layer in inference mode, arrays to an array, no node:
    given ``norm`` = (gamma, beta, mean, var, eps), batch norm by the fixed
    statistics ``mean`` and ``var``.  Batch norm and ReLU run in place on
    the layer's output, the composed layer's operations in its order (the
    same bits).  A non-finite pre-activation raises NonFiniteError naming
    the layer ``name``."""
    y, _, _ = _affine(_as_array(x), w, b)
    if norm is not None:
        gamma, beta, mean, var, eps = norm
        _check_norm(y, w, gamma, beta, False)
        y -= mean
        y *= 1.0 / np.sqrt(var + eps)
        y *= gamma
        y += beta
    _check_finite(y, name)
    return np.maximum(y, 0.0, out=y) if relu else y


def _member_rows(op: str, rows: int, members: int) -> int:
    """Rows per member block of a member-major batch."""
    if members < 1 or rows % members:
        raise ShapeError(f"{op}: {rows} rows do not split into {members} member blocks")
    return rows // members


def _per_member(scale: np.ndarray, a: np.ndarray, members: int) -> np.ndarray:
    """``a`` with each member's row block multiplied by that member's
    entry of ``scale``, in a (members, block size) view so that numpy
    runs one contiguous inner loop per member."""
    return (scale[:, None] * a.reshape(members, -1)).reshape(a.shape)


def unit_columns(a) -> Tensor:
    """Center each column of a 2-D tensor and scale it to unit Euclidean norm."""
    a = astensor(a)
    if a.data.ndim != 2:
        raise ShapeError(f"unit_columns: expected 2-D operand, got {a.shape}")
    m = a.shape[0]
    centered = a.data - a.data.sum(axis=0, keepdims=True) * (1.0 / m)
    norms = np.sqrt((centered * centered).sum(axis=0, keepdims=True))
    with np.errstate(divide="ignore", invalid="ignore"):
        y = centered / norms
    out = Tensor(y, op="unit_columns", _parents=(a,))

    def backward(g):
        if a.requires_grad:
            # composed-op adjoints in accumulation order, as in batch_norm
            g_sq = (-g * centered / (norms * norms)).sum(axis=0) * 0.5 / norms
            gc = g / norms + g_sq * 2.0 * centered
            _hand_over(a, gc + -gc.sum(axis=0) * (1.0 / m))

    out._backward = backward
    return out


def gram(a, b) -> Tensor:
    """The product a^T b of two 2-D tensors with the same row count.

    No transposed copy is made.  When ``b`` is ``a``, numpy computes
    a^T a through its symmetric (syrk) path, which fills one triangle.
    """
    a, b = astensor(a), astensor(b)
    if a.data.ndim != 2 or b.data.ndim != 2 or a.shape[0] != b.shape[0]:
        raise ShapeError(f"gram: incompatible shapes {a.shape} and {b.shape}")
    out = Tensor(a.data.T @ b.data, op="gram", _parents=(a, b))

    def backward(g):
        if a is b:
            _hand_over(a, a.data @ (g + g.T))
            return
        if a.requires_grad:
            _hand_over(a, b.data @ g.T)
        if b.requires_grad:
            _hand_over(b, a.data @ g)

    out._backward = backward
    return out


def sq_dist(a, target, weight=None, members: int | None = None) -> Tensor:
    """Weighted squared distance sum_ij weight_ij (a_ij - target_ij)^2.

    ``target`` and ``weight`` (all ones when omitted) are constants of
    ``a``'s shape.  With ``members`` k, the rows of ``a`` are k
    member-major blocks and the output holds one sum per block.
    """
    a = astensor(a)
    target = _as_array(target)
    if target.shape != a.shape or (weight is not None and np.shape(weight) != a.shape):
        raise ShapeError(f"sq_dist: target {target.shape} or weight "
                         f"{np.shape(weight)} does not match {a.shape}")
    diff = a.data - target
    diff_w = diff if weight is None else diff * weight
    _member_rows("sq_dist", a.shape[0], members or 1)
    terms = diff_w * diff
    value = terms.sum() if members is None else terms.reshape(members, -1).sum(axis=1)
    out = Tensor(value, op="sq_dist", _parents=(a,))

    def backward(g):
        if a.requires_grad:
            if members is None:
                _hand_over(a, g * 2.0 * diff_w)
            else:
                _hand_over(a, _per_member(g * 2.0, diff_w, members))

    out._backward = backward
    return out


def _same_2d(op: str, a: Tensor, b: Tensor) -> None:
    if a.data.ndim != 2 or a.shape != b.shape:
        raise ShapeError(f"{op}: expected two 2-D operands of one shape, "
                         f"got {a.shape} and {b.shape}")


def gaussian_kl(mu, logvar, members: int = 1) -> Tensor:
    """Per-member batch mean of KL(N(mu, e^logvar) || N(0, I)) over the
    rows, 0.5 * mean_rows sum_cols (mu^2 + e^logvar - 1 - logvar): the
    rows are ``members`` member-major blocks, and the output holds one
    mean per block.
    """
    mu, logvar = astensor(mu), astensor(logvar)
    _same_2d("gaussian_kl", mu, logvar)
    batch = _member_rows("gaussian_kl", mu.shape[0], members)
    with np.errstate(over="ignore"):
        var = np.exp(logvar.data)
    terms = mu.data * mu.data
    terms += var
    terms -= 1.0
    terms -= logvar.data
    total = terms.sum(axis=1).reshape(members, batch).sum(axis=1)
    out = Tensor(total * (1.0 / batch) * 0.5, op="gaussian_kl", _parents=(mu, logvar))

    def backward(g):
        # the composed ops' adjoints, with the two logvar terms added one by
        # one in their composed order, so that training is bit-identical
        gk = g * 0.5 * (1.0 / batch)
        if mu.requires_grad:
            _hand_over(mu, _per_member(gk * 2.0, mu.data, members))
        if logvar.requires_grad:
            _hand_over(logvar, np.repeat(-gk, logvar.size // members).reshape(logvar.shape))
            _hand_over(logvar, _per_member(gk, var, members))

    out._backward = backward
    return out


def reparameterize(mu, logvar, eps) -> Tensor:
    """The sample mu + exp(logvar / 2) * eps, with the noise eps constant."""
    mu, logvar = astensor(mu), astensor(logvar)
    eps = _as_array(eps)
    _same_2d("reparameterize", mu, logvar)
    if eps.shape != mu.shape:
        raise ShapeError(f"reparameterize: noise {eps.shape} does not match {mu.shape}")
    with np.errstate(over="ignore"):
        std = np.exp(logvar.data * 0.5)
    out = Tensor(mu.data + std * eps, op="reparameterize", _parents=(mu, logvar))

    def backward(g):
        if mu.requires_grad:
            _accumulate(mu, g)
        if logvar.requires_grad:
            _hand_over(logvar, g * eps * std * 0.5)

    out._backward = backward
    return out


# ---------------------------------------------------------------------
# nonlinearities and pointwise functions
# ---------------------------------------------------------------------


def relu(a) -> Tensor:
    a = astensor(a)
    out = Tensor(np.maximum(a.data, 0.0), op="relu", _parents=(a,))

    def backward(g):
        if a.requires_grad:
            _hand_over(a, g * (a.data > 0.0))

    out._backward = backward
    return out


def square(a) -> Tensor:
    a = astensor(a)
    out = Tensor(a.data * a.data, op="square", _parents=(a,))

    def backward(g):
        if a.requires_grad:
            _hand_over(a, g * 2.0 * a.data)

    out._backward = backward
    return out


def sqrt(a) -> Tensor:
    a = astensor(a)
    with np.errstate(invalid="ignore"):
        out = Tensor(np.sqrt(a.data), op="sqrt", _parents=(a,))
    root = out.data  # the array, not the node: no Tensor <-> closure cycle

    def backward(g):
        if a.requires_grad:
            _hand_over(a, g * 0.5 / root)

    out._backward = backward
    return out


def exp(a) -> Tensor:
    a = astensor(a)
    with np.errstate(over="ignore"):
        out = Tensor(np.exp(a.data), op="exp", _parents=(a,))
    value = out.data  # the array, not the node: no Tensor <-> closure cycle

    def backward(g):
        if a.requires_grad:
            _hand_over(a, g * value)

    out._backward = backward
    return out


# ---------------------------------------------------------------------
# reductions
# ---------------------------------------------------------------------


def tsum(a, axis=None, keepdims: bool = False) -> Tensor:
    a = astensor(a)
    out = Tensor(a.data.sum(axis=axis, keepdims=keepdims), op="sum", _parents=(a,))

    def backward(g):
        if a.requires_grad:
            gg = g if axis is None or keepdims else np.expand_dims(g, axis)
            _accumulate(a, np.broadcast_to(gg, a.shape))

    out._backward = backward
    return out


# ---------------------------------------------------------------------
# classification head
# ---------------------------------------------------------------------


def softmax_cross_entropy(logits, labels) -> Tensor:
    """Mean softmax cross-entropy over a batch, fused for stability.

    ``labels`` is an integer array of class indices, treated as constant.
    """
    logits = astensor(logits)
    labels = np.asarray(labels)
    if logits.data.ndim != 2:
        raise ShapeError(f"softmax_cross_entropy: logits must be 2-D, got {logits.shape}")
    m, k = logits.shape
    if labels.shape != (m,):
        raise ShapeError(f"softmax_cross_entropy: labels shape {labels.shape} != ({m},)")
    if labels.min() < 0 or labels.max() >= k:
        raise ShapeError(f"softmax_cross_entropy: label out of range [0, {k})")

    shifted = logits.data - logits.data.max(axis=1, keepdims=True)
    logsumexp = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    logprobs = shifted - logsumexp
    losses = -logprobs[np.arange(m), labels]
    out = Tensor(losses.mean(), op="softmax_cross_entropy", _parents=(logits,))

    def backward(g):
        if logits.requires_grad:
            grad = np.exp(logprobs)
            grad[np.arange(m), labels] -= 1.0
            _hand_over(logits, grad * (float(g) / m))

    out._backward = backward
    return out
