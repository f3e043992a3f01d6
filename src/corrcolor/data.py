"""Datasets and the stochastic view-pair augmentation operator.

Two modalities are supported:

* ``vector``: a synthetic benchmark whose feature vector is the
  concatenation of a class-determining sparse block and a
  class-independent dense noise block.  Augmentation perturbs the dense
  block (Gaussian noise, dropout) and applies a global scale jitter, so
  view pairs agree on the sparse block by construction.
* ``image``: small grayscale images read from a raw binary format, with
  mirror / crop-resize / brightness / contrast augmentation.

A dataset kind is one spec class with a ``kind`` name and a ``build()``:
``SparseDenseSpec`` (``synthetic``) and ``ImageSource`` (``image``).

Raw image file layout (little-endian):

    magic b"RIM1" | uint32 count | uint32 height | uint32 width
    count*height*width bytes of row-major uint8 pixels

Labels live in a sibling file:

    magic b"RLB1" | uint32 count | count bytes of uint8 labels
"""

from __future__ import annotations

import contextvars
import functools
import queue
import struct
import threading
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

IMAGE_MAGIC = b"RIM1"
LABEL_MAGIC = b"RLB1"


class DataError(Exception):
    pass


class FormatError(DataError):
    """A raw file does not match the documented layout."""


# ---------------------------------------------------------------------
# datasets
# ---------------------------------------------------------------------


@dataclass
class Dataset:
    """Immutable collection of samples with integer class labels.

    ``features`` is (n, dim) for vector data or (n, h, w) for images; the
    rank is the ``modality``.  ``sparse_dim`` records, for synthetic
    vector data, how many leading coordinates carry the class signal; it
    is 0 for image data.
    """

    features: np.ndarray
    labels: np.ndarray
    num_classes: int
    sparse_dim: int = 0

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.features.ndim not in (2, 3):
            raise DataError(f"features must be (n, dim) vectors or (n, h, w) images, "
                            f"got shape {self.features.shape}")
        if self.features.shape[0] != self.labels.shape[0]:
            raise DataError(
                f"{self.features.shape[0]} samples but {self.labels.shape[0]} labels"
            )
        if self.labels.size and (self.labels.min() < 0 or self.labels.max() >= self.num_classes):
            raise DataError(f"labels outside [0, {self.num_classes})")
        self.features.flags.writeable = False
        self.labels.flags.writeable = False

    def __len__(self) -> int:
        return self.features.shape[0]

    @property
    def modality(self) -> str:
        return "vector" if self.features.ndim == 2 else "image"

    @property
    def sample_shape(self) -> tuple:
        return self.features.shape[1:]

    def flat_dim(self) -> int:
        return int(np.prod(self.sample_shape))

    def digest(self) -> str:
        import hashlib

        h = hashlib.sha256()
        h.update(self.modality.encode())
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


@dataclass(frozen=True)
class ImageSource:
    """A raw image file; its labels are in ``labels_path``, else ``<path>.labels``."""

    kind: ClassVar[str] = "image"
    path: str = ""
    labels_path: str | None = None

    def __post_init__(self):
        if not self.path:
            raise DataError(f"path must name the image file, got {self.path!r}")

    def build(self) -> Dataset:
        return load_image_set(self.path, self.labels_path)


# ---------------------------------------------------------------------
# augmentation
# ---------------------------------------------------------------------


@dataclass(frozen=True)
class Augmentation:
    """View-pair transform; a sample's number of dimensions picks the part
    that applies.

    Vectors (1-D): only the dense coordinates (index >= the dataset's
    ``sparse_dim``) receive additive noise and dropout; the whole vector
    may be rescaled by a global jitter factor.  Sparse coordinates are
    never otherwise touched.

    Images (2-D): mirror, crop + resize back (area scale and aspect
    jitter), brightness shift, contrast scale around the mean; output is
    clipped back to [0, 1].
    """

    dense_noise_scale: float = 0.5
    dense_dropout_prob: float = 0.2
    scale_jitter: tuple[float, float] = (0.9, 1.1)
    mirror_prob: float = 0.5
    crop_scale: tuple[float, float] = (0.6, 1.0)
    aspect_jitter: tuple[float, float] = (1.0, 1.0)
    brightness_jitter: float = 0.2
    contrast_jitter: float = 0.2

    def __post_init__(self):
        for name in ("scale_jitter", "aspect_jitter"):
            lo, hi = getattr(self, name)
            if not 0.0 < lo <= hi:
                raise DataError(f"{name} must satisfy 0 < lo <= hi, got {(lo, hi)}")
        lo, hi = self.crop_scale
        if not 0.0 < lo <= hi <= 1.0:
            raise DataError(f"crop_scale must satisfy 0 < lo <= hi <= 1, got {(lo, hi)}")
        for name in ("dense_dropout_prob", "mirror_prob"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise DataError(f"{name} must be in [0, 1], got {getattr(self, name)!r}")
        for name in ("dense_noise_scale", "brightness_jitter", "contrast_jitter"):
            if not getattr(self, name) >= 0.0:
                raise DataError(f"{name} must be >= 0, got {getattr(self, name)!r}")

    def validate_bounds(self, height: int, width: int) -> None:
        """Crop boxes must fit the image for every drawable parameter."""
        _, s_hi = self.crop_scale
        alo, ahi = self.aspect_jitter
        worst_h = int(round(height * np.sqrt(s_hi) / np.sqrt(alo)))
        worst_w = int(round(width * np.sqrt(s_hi) * np.sqrt(ahi)))
        if worst_h > height or worst_w > width:
            raise DataError(
                f"crop range exceeds image bounds: worst-case crop "
                f"{worst_h}x{worst_w} for image {height}x{width}"
            )


def bilinear_resize(img: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Resize a 2-D array with bilinear interpolation (half-pixel centers)."""
    h, w = img.shape
    if (out_h, out_w) == (h, w):
        return img.copy()
    ys = np.clip((np.arange(out_h) + 0.5) * h / out_h - 0.5, 0.0, h - 1.0)
    xs = np.clip((np.arange(out_w) + 0.5) * w / out_w - 0.5, 0.0, w - 1.0)
    y0 = np.floor(ys).astype(np.int64)
    x0 = np.floor(xs).astype(np.int64)
    y1 = np.minimum(y0 + 1, h - 1)
    x1 = np.minimum(x0 + 1, w - 1)
    wy = (ys - y0)[:, None]
    wx = (xs - x0)[None, :]
    top = img[np.ix_(y0, x0)] * (1.0 - wx) + img[np.ix_(y0, x1)] * wx
    bot = img[np.ix_(y1, x0)] * (1.0 - wx) + img[np.ix_(y1, x1)] * wx
    return top * (1.0 - wy) + bot * wy


def _augment_image_once(img: np.ndarray, aug: Augmentation, rng) -> np.ndarray:
    h, w = img.shape
    view = img
    if rng.random() < aug.mirror_prob:
        view = view[:, ::-1]
    s_lo, s_hi = aug.crop_scale
    a_lo, a_hi = aug.aspect_jitter
    if (s_lo, s_hi, a_lo, a_hi) != (1.0, 1.0, 1.0, 1.0):
        area = rng.uniform(s_lo, s_hi)
        aspect = rng.uniform(a_lo, a_hi)
        crop_h = int(np.clip(round(h * np.sqrt(area) / np.sqrt(aspect)), 1, h))
        crop_w = int(np.clip(round(w * np.sqrt(area) * np.sqrt(aspect)), 1, w))
        top = int(rng.integers(0, h - crop_h + 1))
        left = int(rng.integers(0, w - crop_w + 1))
        view = bilinear_resize(view[top:top + crop_h, left:left + crop_w], h, w)
    else:
        view = view.copy()
    if aug.brightness_jitter != 0.0:
        view = view + rng.uniform(-aug.brightness_jitter, aug.brightness_jitter)
    if aug.contrast_jitter != 0.0:
        factor = rng.uniform(1.0 - aug.contrast_jitter, 1.0 + aug.contrast_jitter)
        mean = view.mean()
        view = (view - mean) * factor + mean
    return np.clip(view, 0.0, 1.0)


def _dense_width(features: np.ndarray, sparse_dim: int) -> int:
    if sparse_dim > features.shape[-1]:
        raise DataError(f"sparse_dim {sparse_dim} exceeds sample dim {features.shape[-1]}")
    return features.shape[-1] - sparse_dim


def _vector_views(views: np.ndarray, aug: Augmentation, sparse_dim: int, noise, drop,
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


def _augment_vector_batch(features: np.ndarray, aug: Augmentation, sparse_dim: int,
                          rng) -> np.ndarray:
    """One stochastic view of every row, drawn with batch-level rng calls."""
    shape = (features.shape[0], _dense_width(features, sparse_dim))
    noise = rng.standard_normal(shape) if aug.dense_noise_scale != 0.0 else None
    drop = rng.random(shape) if aug.dense_dropout_prob > 0.0 else None
    lo, hi = aug.scale_jitter
    scale = rng.uniform(lo, hi, size=(shape[0], 1)) if (lo, hi) != (1.0, 1.0) else None
    return _vector_views(features.copy(), aug, sparse_dim, noise, drop, scale)


def _augment_vector_rows(features: np.ndarray, aug: Augmentation, sparse_dim: int, rng,
                         copies: int) -> np.ndarray:
    """``copies`` views of every row, drawn row by row and copy by copy into
    preallocated arrays (the rng calls of one ``augment_once`` per view),
    then transformed as one array."""
    views = np.repeat(features[:, None], copies, axis=1)
    rows = views.reshape(-1, features.shape[1])
    shape = (rows.shape[0], _dense_width(features, sparse_dim))
    noise = np.empty(shape) if aug.dense_noise_scale != 0.0 else None
    drop = np.empty(shape) if aug.dense_dropout_prob > 0.0 else None
    lo, hi = aug.scale_jitter
    scale = np.empty((shape[0], 1)) if (lo, hi) != (1.0, 1.0) else None
    for r in range(shape[0]):
        if noise is not None:
            rng.standard_normal(out=noise[r])
        if drop is not None:
            rng.random(out=drop[r])
        if scale is not None:
            scale[r] = rng.uniform(lo, hi)
    _vector_views(rows, aug, sparse_dim, noise, drop, scale)
    return views


def augment_once(sample: np.ndarray, aug: Augmentation, sparse_dim: int, rng) -> np.ndarray:
    """One stochastic view of a vector (1-D) or image (2-D) sample."""
    if sample.ndim == 1:
        # a batch of one draws exactly what a single sample would
        return _augment_vector_batch(sample[None], aug, sparse_dim, rng)[0]
    if sample.ndim == 2:
        aug.validate_bounds(*sample.shape)
        return _augment_image_once(sample, aug, rng)
    raise DataError(f"augmentation needs a 1-D vector or 2-D image, got shape {sample.shape}")


def augment_batch_pair(features: np.ndarray, aug: Augmentation, sparse_dim: int, rng):
    """View pairs for a batch; returns two (m, ...) arrays.

    Vector batches are transformed with vectorized draws (a different,
    but equally deterministic, rng consumption order than two
    ``augment_once`` calls per sample); image batches draw the pairs of
    ``augment_once`` sample by sample (``augment_rows``).
    """
    if features.ndim == 2:
        return (_augment_vector_batch(features, aug, sparse_dim, rng),
                _augment_vector_batch(features, aug, sparse_dim, rng))
    views = augment_rows(features, aug, sparse_dim, rng, 2)
    return views[:, 0], views[:, 1]


def augment_rows(features: np.ndarray, aug: Augmentation, sparse_dim: int, rng,
                 copies: int) -> np.ndarray:
    """``copies`` views of every sample, shaped (n, copies, ...): what
    ``augment_once`` called ``copies`` times on each sample in turn gives,
    with the same rng calls in the same order.  Images go sample by
    sample; vector rows are drawn into arrays and transformed at once."""
    if features.ndim == 2:
        return _augment_vector_rows(features, aug, sparse_dim, rng, copies)
    views = [[augment_once(x, aug, sparse_dim, rng) for _ in range(copies)] for x in features]
    return np.asarray(views).reshape(features.shape[:1] + (copies,) + features.shape[1:])


def view_pair_batches(dataset: Dataset, aug: Augmentation, rng, batch_size: int, epochs: int,
                      min_rows: int, noise=(), latent_dim: int = 0) -> _ViewPairs:
    """The view-pair stream of ``epochs`` epochs, one batch at a time.

    Each epoch draws ``rng.permutation(n)`` and slices it into batches of
    ``batch_size`` samples; a batch of fewer than ``min_rows`` samples is
    skipped before its draw, every other one draws one
    ``augment_batch_pair`` and comes out as ``(views, eps)``: its two views
    stacked, (2 m, flat dim), and, when ``noise`` holds one generator per
    member of a stacked VAE, that VAE's sampling noise ``eps``,
    (2 m, latent_dim) in member-major blocks: member s's generator fills
    block s with one ``standard_normal`` call after the batch's views are
    drawn.  With no generators ``eps`` is None.  Use the result in a
    ``with`` block and iterate ``epoch()`` once per epoch.  The stream is
    a ``Worker`` that draws batch i + 1 while the caller works on batch i:
    every generator makes the calls of a serial loop in the same order and
    is never drawn past the last batch.  The loop hands the same worker
    its gradient jobs (``Tensor.backward(stream)``).  Leaving the block
    joins the worker, and the generators are the caller's again.
    """
    n = len(dataset)
    starts = [s for s in range(0, n, batch_size) if min(batch_size, n - s) >= min_rows]

    def draws():
        for _ in range(epochs):
            order = rng.permutation(n)
            for start in starts:
                idx = order[start:start + batch_size]
                pair = augment_batch_pair(dataset.features[idx], aug, dataset.sparse_dim, rng)
                views = np.concatenate(pair).reshape(2 * idx.size, -1)
                eps = None
                if noise:
                    eps = np.empty((views.shape[0], latent_dim))
                    for member, block in zip(noise, np.split(eps, len(noise))):
                        member.standard_normal(block.shape, out=block)
                yield views, eps

    return _ViewPairs(draws(), len(starts))


class Worker:
    """One thread that runs submitted jobs one at a time, in the order
    they were submitted.  Use it in a ``with`` block: leaving the block
    lets the jobs already submitted run, then joins the thread.  The
    thread runs in a copy of the creating thread's context, so that
    thread's numpy error state (np.errstate) holds for every job."""

    def __init__(self, name: str = "worker"):
        self._jobs = queue.SimpleQueue()
        self._thread = threading.Thread(target=contextvars.copy_context().run,
                                        args=(self._run,), name=name, daemon=True)

    def __enter__(self) -> Worker:
        self._thread.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self._jobs.put(None)
        self._thread.join()

    def _run(self) -> None:
        while (job := self._jobs.get()) is not None:
            job.run()

    def submit(self, fn) -> Job:
        """Queue ``fn()``; ``wait()`` on the returned job gives its result."""
        job = Job(fn)
        self._jobs.put(job)
        return job


class Job:
    """A call queued on a ``Worker``."""

    __slots__ = ("_fn", "_done", "_result", "_error")

    def __init__(self, fn):
        self._fn, self._result, self._error = fn, None, None
        self._done = threading.Lock()
        self._done.acquire()  # released when the call has run

    def run(self) -> None:
        try:
            self._result = self._fn()
        except BaseException as exc:  # raised by wait(), in the thread that waits
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
    worker while the caller works on the item before; an exception the
    worker hits is raised in the caller where that item was due, and
    nothing is made after it."""

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


# ---------------------------------------------------------------------
# raw image file IO
# ---------------------------------------------------------------------


def save_image_set(path, images: np.ndarray, labels: np.ndarray) -> None:
    """Write images (n, h, w) with values in [0, 1] and their labels."""
    images = np.asarray(images)
    labels = np.asarray(labels)
    if images.ndim != 3:
        raise DataError(f"expected (n, h, w) images, got shape {images.shape}")
    if labels.shape != (images.shape[0],):
        raise DataError("label count does not match image count")
    n, h, w = images.shape
    pixels = np.clip(np.round(images * 255.0), 0, 255).astype(np.uint8)
    with open(path, "wb") as fh:
        fh.write(IMAGE_MAGIC)
        fh.write(struct.pack("<III", n, h, w))
        fh.write(pixels.tobytes())
    with open(str(path) + ".labels", "wb") as fh:
        fh.write(LABEL_MAGIC)
        fh.write(struct.pack("<I", n))
        fh.write(labels.astype(np.uint8).tobytes())


def _read_file(path) -> bytes:
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc.strerror}") from None


def load_image_set(path, labels_path=None) -> Dataset:
    """Read a raw image file (and its sibling label file) into a Dataset.

    Pixels are scaled to [0, 1].  A count of zero is a valid, empty
    dataset.  Structural problems raise FormatError with the byte
    offset at which the file stopped making sense.
    """
    if labels_path is None:
        labels_path = str(path) + ".labels"
    blob = _read_file(path)
    if len(blob) < 16:
        raise FormatError(f"truncated header at byte offset {len(blob)} in {path}")
    if blob[:4] != IMAGE_MAGIC:
        raise FormatError(f"bad magic at byte offset 0 in {path}: {blob[:4]!r}")
    n, h, w = struct.unpack("<III", blob[4:16])
    expected = 16 + n * h * w
    if len(blob) != expected:
        raise FormatError(
            f"image body ends at byte offset {len(blob)}, expected {expected} in {path}"
        )
    pixels = np.frombuffer(blob[16:], dtype=np.uint8).reshape(n, h, w)

    lblob = _read_file(labels_path)
    if len(lblob) < 8:
        raise FormatError(f"truncated label header at byte offset {len(lblob)} in {labels_path}")
    if lblob[:4] != LABEL_MAGIC:
        raise FormatError(f"bad magic at byte offset 0 in {labels_path}: {lblob[:4]!r}")
    (ln,) = struct.unpack("<I", lblob[4:8])
    if ln != n:
        raise FormatError(f"label count {ln} does not match image count {n}")
    if len(lblob) != 8 + ln:
        raise FormatError(f"label body ends at byte offset {len(lblob)}, expected {8 + ln}")
    labels = np.frombuffer(lblob[8:], dtype=np.uint8).astype(np.int64)

    num_classes = int(labels.max()) + 1 if labels.size else 1
    return Dataset(pixels.astype(np.float64) / 255.0, labels, max(num_classes, 2))

