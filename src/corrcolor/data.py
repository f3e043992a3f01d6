"""Datasets and the stochastic view-pair augmentation operator.

The data are feature vectors.  The synthetic benchmark's vector is the
concatenation of a class-determining sparse block and a class-independent
dense noise block.  Augmentation perturbs the dense block (Gaussian
noise, dropout) and applies a global scale jitter, so view pairs agree
on the sparse block by construction.  ``draw_views`` draws every view
from row indices: a stream's pair as one batch, the target pass's views
as one-row batches.

A dataset kind is one spec class with a ``kind`` name and a ``build()``:
``SparseDenseSpec`` (``synthetic``).
"""

from __future__ import annotations

import contextvars
import functools
import queue
import threading
from dataclasses import dataclass
from typing import ClassVar

import numpy as np


class DataError(Exception):
    pass


# ---------------------------------------------------------------------
# datasets
# ---------------------------------------------------------------------


@dataclass
class Dataset:
    """Immutable collection of (n, dim) feature vectors with integer class
    labels.  ``sparse_dim`` records, for synthetic data, how many leading
    coordinates carry the class signal.
    """

    features: np.ndarray
    labels: np.ndarray
    num_classes: int
    sparse_dim: int = 0

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.features.ndim != 2:
            raise DataError(f"features must be (n, dim) vectors, got shape {self.features.shape}")
        if self.features.shape[0] != self.labels.shape[0]:
            raise DataError(
                f"{self.features.shape[0]} samples but {self.labels.shape[0]} labels"
            )
        if self.labels.size and (self.labels.min() < 0 or self.labels.max() >= self.num_classes):
            raise DataError(f"labels outside [0, {self.num_classes})")
        if not 0 <= self.sparse_dim <= self.flat_dim():
            raise DataError(f"sparse_dim must be in [0, {self.flat_dim()}], got {self.sparse_dim}")
        self.features.flags.writeable = False
        self.labels.flags.writeable = False

    def __len__(self) -> int:
        return self.features.shape[0]

    def flat_dim(self) -> int:
        return self.features.shape[1]

    def digest(self) -> str:
        import hashlib

        h = hashlib.sha256()
        h.update(b"vector")  # the tag every dataset_digest so far has hashed first
        h.update(np.ascontiguousarray(self.features).tobytes())
        h.update(np.ascontiguousarray(self.labels).tobytes())
        return h.hexdigest()[:16]


@dataclass(frozen=True)
class SparseDenseSpec:
    """Recipe for the synthetic sparse/dense benchmark.

    Each class owns a distinct random sign pattern on the sparse block;
    samples are ``signal * pattern + sparse_noise`` there and pure
    ``dense_noise``-scaled Gaussian noise on the dense block.
    """

    kind: ClassVar[str] = "synthetic"
    num_classes: int = 2
    sparse_dim: int = 4
    dense_dim: int = 60
    num_samples: int = 2000
    signal: float = 1.0
    sparse_noise: float = 0.1
    dense_noise: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.num_classes < 2:
            raise DataError(f"num_classes must be >= 2, got {self.num_classes}")
        if self.sparse_dim < self.num_classes:
            raise DataError(
                f"sparse_dim {self.sparse_dim} < num_classes {self.num_classes}; "
                "need one distinguishable pattern per class"
            )
        for name in ("dense_dim", "num_samples", "seed"):
            if getattr(self, name) < 0:
                raise DataError(f"{name} must be >= 0, got {getattr(self, name)}")

    def build(self) -> Dataset:
        return generate_sparse_dense(self)


def _class_patterns(rng, num_classes: int, sparse_dim: int) -> np.ndarray:
    """Distinct ±1 patterns, one row per class."""
    patterns = rng.choice([-1.0, 1.0], size=(num_classes, sparse_dim))
    seen = {patterns[0].tobytes()}
    for k in range(1, num_classes):
        while patterns[k].tobytes() in seen:
            patterns[k] = rng.choice([-1.0, 1.0], size=sparse_dim)
        seen.add(patterns[k].tobytes())
    return patterns


def generate_sparse_dense(spec: SparseDenseSpec) -> Dataset:
    """Materialize the synthetic benchmark described by ``spec``."""
    rng = np.random.default_rng(spec.seed)
    patterns = _class_patterns(rng, spec.num_classes, spec.sparse_dim)

    labels = np.arange(spec.num_samples, dtype=np.int64) % spec.num_classes
    labels = labels[rng.permutation(spec.num_samples)]
    sparse = spec.signal * patterns[labels]
    if spec.sparse_noise != 0.0:
        sparse = sparse + spec.sparse_noise * rng.standard_normal(sparse.shape)
    dense = spec.dense_noise * rng.standard_normal((spec.num_samples, spec.dense_dim))
    features = np.concatenate([sparse, dense], axis=1)
    return Dataset(features, labels, spec.num_classes, sparse_dim=spec.sparse_dim)


# ---------------------------------------------------------------------
# augmentation
# ---------------------------------------------------------------------


@dataclass(frozen=True)
class Augmentation:
    """View-pair transform of a vector.

    Only the dense coordinates (index >= the dataset's ``sparse_dim``)
    receive additive noise and dropout; the whole vector may be rescaled
    by a global jitter factor.  Sparse coordinates are never otherwise
    touched.
    """

    dense_noise_scale: float = 0.5
    dense_dropout_prob: float = 0.2
    scale_jitter: tuple[float, float] = (0.9, 1.1)

    def __post_init__(self):
        lo, hi = self.scale_jitter
        if not 0.0 < lo <= hi:
            raise DataError(f"scale_jitter must satisfy 0 < lo <= hi, got {(lo, hi)}")
        if not 0.0 <= self.dense_dropout_prob <= 1.0:
            raise DataError(f"dense_dropout_prob must be in [0, 1], "
                            f"got {self.dense_dropout_prob!r}")
        if not self.dense_noise_scale >= 0.0:
            raise DataError(f"dense_noise_scale must be >= 0, got {self.dense_noise_scale!r}")


def _transform(views: np.ndarray, aug: Augmentation, sparse_dim: int, noise, drop,
               scale) -> np.ndarray:
    """``views`` (samples on the last axis) transformed in place by their
    draws: ``noise`` and ``drop`` shaped like the dense block, ``scale`` one
    factor per sample, None for a part the augmentation leaves out."""
    dense = views[..., sparse_dim:]
    if noise is not None:
        dense += aug.dense_noise_scale * noise
    if drop is not None:
        dense[drop < aug.dense_dropout_prob] = 0.0
    if scale is not None:
        views *= scale
    return views


def _draw(rows: np.ndarray, aug: Augmentation, sparse_dim: int, rng, copies: int) -> np.ndarray:
    """``copies`` views of each batch of feature ``rows`` (batches, m, dim),
    shaped (copies, batches, m, dim).  The draws go batch by batch, then
    copy by copy, each copy one ``standard_normal``, one ``random`` and
    one ``uniform`` call (those the augmentation uses) for the batch's m
    rows, into preallocated arrays; one transform then takes every view."""
    batches, m, dim = rows.shape
    shape = (batches * copies, m, dim - sparse_dim)  # one block per call, in draw order
    noise = np.empty(shape) if aug.dense_noise_scale != 0.0 else None
    drop = np.empty(shape) if aug.dense_dropout_prob > 0.0 else None
    lo, hi = aug.scale_jitter
    scale = np.empty((*shape[:-1], 1)) if (lo, hi) != (1.0, 1.0) else None
    for r in range(batches * copies):
        if noise is not None:
            rng.standard_normal(out=noise[r])
        if drop is not None:
            rng.random(out=drop[r])
        if scale is not None:
            scale[r, :, 0] = rng.uniform(lo, hi, size=m)
    blocks = (a if a is None else a.reshape(batches, copies, *a.shape[1:]).swapaxes(0, 1)
              for a in (noise, drop, scale))
    return _transform(np.repeat(rows[None], copies, axis=0), aug, sparse_dim, *blocks)


def draw_views(dataset: Dataset, aug: Augmentation, idx: np.ndarray, rng,
               copies: int) -> np.ndarray:
    """``copies`` views of the rows ``idx``, a (batches, m) index array,
    stacked copy-major: (copies * batches * m, dim), copy c of batch b's
    row r at ``(c * batches + b) * m + r``.  One batch (``idx[None]``) is
    the streams' batch-level draw; one-row batches (``idx[:, None]``) draw
    each row's ``copies`` views in turn, as ``augment_once`` would."""
    return _draw(dataset.features[idx], aug, dataset.sparse_dim, rng,
                 copies).reshape(-1, dataset.flat_dim())


def augment_once(sample: np.ndarray, aug: Augmentation, sparse_dim: int, rng) -> np.ndarray:
    """One stochastic view of a 1-D sample."""
    return _draw(sample[None, None], aug, sparse_dim, rng, 1)[0, 0, 0]


def augment_batch_pair(features: np.ndarray, aug: Augmentation, sparse_dim: int, rng):
    """View pairs for a batch: two (m, dim) arrays, the two copies of a
    one-batch ``draw_views``."""
    return tuple(_draw(features[None], aug, sparse_dim, rng, 2)[:, 0])


def view_pair_batches(dataset: Dataset, aug: Augmentation, rng, batch_size: int, epochs: int,
                      min_rows: int, noise=(), latent_dim: int = 0) -> _ViewPairs:
    """The view-pair stream of ``epochs`` epochs, one batch at a time.

    Each epoch draws ``rng.permutation(n)`` and slices it into batches of
    ``batch_size`` samples; a batch of fewer than ``min_rows`` samples is
    skipped before its draw, every other one draws its view pair as one
    batch of ``draw_views`` and comes out as ``(views, eps)``: its two views
    stacked, (2 m, dim), and, when ``noise`` holds one generator per
    member of a stacked VAE, that VAE's sampling noise ``eps``,
    (2 m, latent_dim) in member-major blocks: member s's generator fills
    block s with one ``standard_normal`` call after the batch's views are
    drawn.  With no generators ``eps`` is None.  Use the result in a
    ``with`` block and iterate ``epoch()`` once per epoch.  The stream is
    a ``Worker`` that draws batch i + 1 before batch i's step, or during
    it once a queued gradient job (``Tensor.backward(stream)``) started
    its thread: every generator makes the calls of a serial loop in the
    same order and is never drawn past the last batch.  Leaving the block
    joins the thread, and the generators are the caller's again.
    """
    n = len(dataset)
    starts = [s for s in range(0, n, batch_size) if min(batch_size, n - s) >= min_rows]

    def draws():
        for _ in range(epochs):
            order = rng.permutation(n)
            for start in starts:
                views = draw_views(dataset, aug, order[None, start:start + batch_size], rng, 2)
                eps = None
                if noise:
                    eps = np.empty((views.shape[0], latent_dim))
                    for member, block in zip(noise, np.split(eps, len(noise))):
                        member.standard_normal(block.shape, out=block)
                yield views, eps

    return _ViewPairs(draws(), len(starts))


class Worker:
    """Runs submitted jobs one at a time, in the order they were submitted:
    in the submitting thread until ``start()``, then on a thread of its
    own.  Use it in a ``with`` block: leaving it lets the jobs submitted
    run, then joins a started thread, which runs in a copy of the creating
    thread's context, so that thread's np.errstate holds for its jobs."""

    def __init__(self, name: str = "worker"):
        self._jobs = queue.SimpleQueue()
        self._thread = threading.Thread(target=contextvars.copy_context().run,
                                        args=(self._run,), name=name, daemon=True)

    def __enter__(self) -> Worker:
        return self

    def __exit__(self, *exc_info) -> None:
        if self._thread.ident is not None:
            self._jobs.put(None)
            self._thread.join()

    def _run(self) -> None:
        while (job := self._jobs.get()) is not None:
            job.run()

    def start(self) -> None:
        """Run the jobs submitted from now on on the thread; idempotent."""
        if self._thread.ident is None:
            self._thread.start()

    def submit(self, fn) -> Job:
        """Queue ``fn()`` (call it now before ``start()``); ``wait()`` gives its result."""
        job = Job(fn)
        if self._thread.ident is None:
            job.run(held=Exception)  # an interrupt propagates at once
        else:
            self._jobs.put(job)
        return job


class Job:
    """A call queued on a ``Worker``."""

    __slots__ = ("_fn", "_done", "_result", "_error")

    def __init__(self, fn):
        self._fn, self._result, self._error = fn, None, None
        self._done = threading.Lock()
        self._done.acquire()  # released when the call has run

    def run(self, held=BaseException) -> None:
        try:
            self._result = self._fn()
        except held as exc:  # raised by wait(), in the thread that waits
            self._error = exc
        self._done.release()

    def wait(self):
        """Block until the call has run, once; its result, or its exception raised."""
        self._done.acquire()
        if self._error is not None:
            raise self._error
        return self._result


class _ViewPairs(Worker):
    """The items of ``items``, ``per_epoch`` at a time, each made on this
    worker one item ahead (on its thread, once started, while the caller
    works on the item before); an exception raised in the making is raised
    in the caller where that item was due, and nothing is made after it."""

    def __init__(self, items, per_epoch: int):
        super().__init__("view-pairs")
        self.per_epoch = per_epoch
        self._make = functools.partial(next, items)
        self._next = None

    def __enter__(self) -> _ViewPairs:
        super().__enter__()
        self._next = self.submit(self._make)
        return self

    def epoch(self):
        """The next ``per_epoch`` items."""
        for _ in range(self.per_epoch):
            item = self._next.wait()
            self._next = self.submit(self._make)
            yield item
