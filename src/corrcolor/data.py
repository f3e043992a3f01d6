"""Datasets and the stochastic view-pair augmentation operator.

Two modalities are supported:

* ``vector``: a synthetic benchmark whose feature vector is the
  concatenation of a class-determining sparse block and a
  class-independent dense noise block.  Augmentation perturbs the dense
  block (Gaussian noise, dropout) and applies a global scale jitter, so
  view pairs agree on the sparse block by construction.
* ``image``: small grayscale images read from a raw binary format, with
  mirror / crop-resize / brightness / contrast augmentation.

Raw image file layout (little-endian):

    magic b"RIM1" | uint32 count | uint32 height | uint32 width
    count*height*width bytes of row-major uint8 pixels

Labels live in a sibling file:

    magic b"RLB1" | uint32 count | count bytes of uint8 labels
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

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

    ``features`` is (n, dim) for vector data or (n, h, w) for images.
    ``sparse_dim`` records, for synthetic vector data, how many leading
    coordinates carry the class signal; it is 0 for image data.
    """

    features: np.ndarray
    labels: np.ndarray
    modality: str
    num_classes: int
    sparse_dim: int = 0

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.modality not in ("vector", "image"):
            raise DataError(f"unknown modality {self.modality!r}")
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

    num_classes: int = 2
    sparse_dim: int = 4
    dense_dim: int = 60
    num_samples: int = 2000
    signal: float = 1.0
    sparse_noise: float = 0.1
    dense_noise: float = 1.0
    seed: int = 0


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
    if spec.sparse_dim < spec.num_classes:
        raise DataError(
            f"sparse_dim {spec.sparse_dim} < num_classes {spec.num_classes}; "
            "need one distinguishable pattern per class"
        )
    if spec.num_samples < 0 or spec.num_classes < 2:
        raise DataError("need num_samples >= 0 and num_classes >= 2")
    rng = np.random.default_rng(spec.seed)
    patterns = _class_patterns(rng, spec.num_classes, spec.sparse_dim)

    labels = np.arange(spec.num_samples, dtype=np.int64) % spec.num_classes
    labels = labels[rng.permutation(spec.num_samples)]
    sparse = spec.signal * patterns[labels]
    if spec.sparse_noise != 0.0:
        sparse = sparse + spec.sparse_noise * rng.standard_normal(sparse.shape)
    dense = spec.dense_noise * rng.standard_normal((spec.num_samples, spec.dense_dim))
    features = np.concatenate([sparse, dense], axis=1)
    return Dataset(features, labels, "vector", spec.num_classes, sparse_dim=spec.sparse_dim)


# ---------------------------------------------------------------------
# augmentation protocols
# ---------------------------------------------------------------------


@dataclass(frozen=True)
class VectorAugmentation:
    """View-pair transform for vector data.

    Only the dense coordinates (index >= sparse_dim) receive additive
    noise and dropout; the whole vector may be rescaled by a global
    jitter factor.  Sparse coordinates are never otherwise touched.
    """

    sparse_dim: int
    dense_noise_scale: float = 0.5
    dense_dropout_prob: float = 0.2
    scale_jitter_range: tuple[float, float] = (0.9, 1.1)

    def __post_init__(self):
        lo, hi = self.scale_jitter_range
        if not (0.0 < lo <= hi):
            raise DataError(f"invalid scale jitter range {self.scale_jitter_range}")
        if not (0.0 <= self.dense_dropout_prob <= 1.0):
            raise DataError(f"invalid dropout probability {self.dense_dropout_prob}")
        if self.dense_noise_scale < 0.0:
            raise DataError("dense noise scale must be non-negative")


@dataclass(frozen=True)
class ImageAugmentation:
    """View-pair transform for grayscale images.

    Order of application: mirror, crop + resize back (area scale and
    aspect jitter), brightness shift, contrast scale around the mean;
    output is clipped back to [0, 1].
    """

    mirror_prob: float = 0.5
    crop_scale_range: tuple[float, float] = (0.6, 1.0)
    aspect_jitter_range: tuple[float, float] = (1.0, 1.0)
    brightness_jitter: float = 0.2
    contrast_jitter: float = 0.2

    def __post_init__(self):
        lo, hi = self.crop_scale_range
        if not (0.0 < lo <= hi <= 1.0):
            raise DataError(f"crop scale range {self.crop_scale_range} outside (0, 1]")
        alo, ahi = self.aspect_jitter_range
        if not (0.0 < alo <= ahi):
            raise DataError(f"invalid aspect jitter range {self.aspect_jitter_range}")
        if not (0.0 <= self.mirror_prob <= 1.0):
            raise DataError(f"invalid mirror probability {self.mirror_prob}")
        if self.brightness_jitter < 0.0 or self.contrast_jitter < 0.0:
            raise DataError("jitter magnitudes must be non-negative")

    def validate_bounds(self, height: int, width: int) -> None:
        """Crop boxes must fit the image for every drawable parameter."""
        _, s_hi = self.crop_scale_range
        alo, ahi = self.aspect_jitter_range
        worst_h = int(round(height * np.sqrt(s_hi) / np.sqrt(alo)))
        worst_w = int(round(width * np.sqrt(s_hi) * np.sqrt(ahi)))
        if worst_h > height or worst_w > width:
            raise DataError(
                f"crop range exceeds image bounds: worst-case crop "
                f"{worst_h}x{worst_w} for image {height}x{width}"
            )


AugmentationProtocol = VectorAugmentation | ImageAugmentation


def _augment_vector_once(x: np.ndarray, proto: VectorAugmentation, rng) -> np.ndarray:
    view = x.copy()
    dense = view[proto.sparse_dim:]
    if proto.dense_noise_scale != 0.0:
        dense += proto.dense_noise_scale * rng.standard_normal(dense.shape)
    if proto.dense_dropout_prob > 0.0:
        dense[rng.random(dense.shape) < proto.dense_dropout_prob] = 0.0
    lo, hi = proto.scale_jitter_range
    if (lo, hi) != (1.0, 1.0):
        view *= rng.uniform(lo, hi)
    return view


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


def _augment_image_once(img: np.ndarray, proto: ImageAugmentation, rng) -> np.ndarray:
    h, w = img.shape
    view = img
    if rng.random() < proto.mirror_prob:
        view = view[:, ::-1]
    s_lo, s_hi = proto.crop_scale_range
    a_lo, a_hi = proto.aspect_jitter_range
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
    if proto.brightness_jitter != 0.0:
        view = view + rng.uniform(-proto.brightness_jitter, proto.brightness_jitter)
    if proto.contrast_jitter != 0.0:
        factor = rng.uniform(1.0 - proto.contrast_jitter, 1.0 + proto.contrast_jitter)
        mean = view.mean()
        view = (view - mean) * factor + mean
    return np.clip(view, 0.0, 1.0)


def augment_once(sample: np.ndarray, protocol: AugmentationProtocol, rng) -> np.ndarray:
    if isinstance(protocol, VectorAugmentation):
        if sample.ndim != 1:
            raise DataError(f"vector protocol on sample of shape {sample.shape}")
        if protocol.sparse_dim > sample.shape[0]:
            raise DataError(
                f"protocol sparse_dim {protocol.sparse_dim} exceeds sample dim {sample.shape[0]}"
            )
        return _augment_vector_once(sample, protocol, rng)
    if isinstance(protocol, ImageAugmentation):
        if sample.ndim != 2:
            raise DataError(f"image protocol on sample of shape {sample.shape}")
        protocol.validate_bounds(*sample.shape)
        return _augment_image_once(sample, protocol, rng)
    raise DataError(f"unknown protocol type {type(protocol).__name__}")


def augment_pair(sample: np.ndarray, protocol: AugmentationProtocol, rng):
    """Two independent stochastic views of one sample."""
    return augment_once(sample, protocol, rng), augment_once(sample, protocol, rng)


def _augment_vector_batch(features: np.ndarray, proto: VectorAugmentation, rng) -> np.ndarray:
    """One stochastic view of every row, drawn with batch-level rng calls."""
    views = features.copy()
    dense = views[:, proto.sparse_dim:]
    if proto.dense_noise_scale != 0.0:
        dense += proto.dense_noise_scale * rng.standard_normal(dense.shape)
    if proto.dense_dropout_prob > 0.0:
        dense[rng.random(dense.shape) < proto.dense_dropout_prob] = 0.0
    lo, hi = proto.scale_jitter_range
    if (lo, hi) != (1.0, 1.0):
        views *= rng.uniform(lo, hi, size=(views.shape[0], 1))
    return views


def augment_batch_pair(features: np.ndarray, protocol: AugmentationProtocol, rng):
    """View pairs for a batch; returns two (m, ...) arrays.

    Vector batches are transformed with vectorized draws (a different,
    but equally deterministic, rng consumption order than per-sample
    ``augment_pair`` calls).
    """
    if isinstance(protocol, VectorAugmentation) and features.ndim == 2:
        if protocol.sparse_dim > features.shape[1]:
            raise DataError(
                f"protocol sparse_dim {protocol.sparse_dim} exceeds sample dim {features.shape[1]}"
            )
        return (_augment_vector_batch(features, protocol, rng),
                _augment_vector_batch(features, protocol, rng))
    views1 = np.empty_like(features)
    views2 = np.empty_like(features)
    for i in range(features.shape[0]):
        views1[i], views2[i] = augment_pair(features[i], protocol, rng)
    return views1, views2


def identity_protocol_for(dataset: Dataset) -> AugmentationProtocol:
    """A protocol whose draws reproduce the sample exactly."""
    if dataset.modality == "vector":
        return VectorAugmentation(dataset.sparse_dim, 0.0, 0.0, (1.0, 1.0))
    return ImageAugmentation(0.0, (1.0, 1.0), (1.0, 1.0), 0.0, 0.0)


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


def load_image_set(path, labels_path=None) -> Dataset:
    """Read a raw image file (and its sibling label file) into a Dataset.

    Pixels are scaled to [0, 1].  A count of zero is a valid, empty
    dataset.  Structural problems raise FormatError with the byte
    offset at which the file stopped making sense.
    """
    if labels_path is None:
        labels_path = str(path) + ".labels"
    with open(path, "rb") as fh:
        blob = fh.read()
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

    with open(labels_path, "rb") as fh:
        lblob = fh.read()
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
    return Dataset(pixels.astype(np.float64) / 255.0, labels, "image", max(num_classes, 2))

