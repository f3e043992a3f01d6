"""Construction of the desired colored correlation target.

A pair of VAEs is trained on the two augmentation streams; their
deterministic latent means over the whole dataset, column-normalized,
give the target cross-correlation.  Autoencoder (no KL, no sampling)
and single-VAE auto-correlation variants reuse the same pipeline, and
an identity target is available for ablations.

Target file layout (little-endian):

    magic b"CCTARG01" | uint32 dim | uint16 len + kind | uint16 len + source
    | uint32 len + provenance JSON | dim*dim float64 row-major values
"""

from __future__ import annotations

import hashlib
import json
import struct
from dataclasses import dataclass, field

import numpy as np

from .data import Dataset, AugmentationProtocol, augment_batch_pair, augment_once
from .losses import (CollapseError, CorrelationMatrix, auto_correlation,
                     cross_correlation, normalize_columns)
from .networks import VAE, VAESpec, vae_loss
from .optim import Adam
from .seeding import derive_seed as _sub_seed


TARGET_MAGIC = b"CCTARG01"


class TargetError(Exception):
    pass


class TrainingDivergedError(TargetError):
    pass


@dataclass
class TargetArtifact:
    """A target correlation matrix with enough provenance to rebuild it."""

    matrix: CorrelationMatrix
    source: str  # vae | autoencoder | identity | file
    provenance: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.source not in ("vae", "autoencoder", "identity", "file"):
            raise TargetError(f"unknown target source {self.source!r}")
        if self.source in ("vae", "autoencoder"):
            for key in ("vae_spec_digest", "dataset_digest", "epochs", "seed"):
                if key not in self.provenance:
                    raise TargetError(f"target provenance missing '{key}'")

    @property
    def dim(self) -> int:
        return self.matrix.dim


def _spec_digest(spec) -> str:
    return hashlib.sha256(repr(spec).encode()).hexdigest()[:16]


# ---------------------------------------------------------------------
# VAE training on augmentation streams
# ---------------------------------------------------------------------


def _train_vae_on_views(vae: VAE, dataset: Dataset, protocol: AugmentationProtocol,
                        epochs: int, batch_size: int, lr: float, beta_kl: float,
                        view_index: int, pair_rng_seed: int, model_rng_seed: int,
                        deterministic_latents: bool = False) -> dict:
    """Train one VAE on one side of the view-pair stream.

    The pair stream is drawn from ``pair_rng_seed`` (both views are
    generated, one is kept) so the two VAEs of a pair can consume
    identical augmentation randomness on opposite sides.
    """
    opt = Adam(vae.parameters(), lr=lr)
    pair_rng = np.random.default_rng(pair_rng_seed)
    model_rng = np.random.default_rng(model_rng_seed)
    n = len(dataset)
    first_loss = last_loss = first_recon = last_recon = None
    for epoch in range(epochs):
        order = pair_rng.permutation(n)
        epoch_loss = epoch_recon = 0.0
        batches = 0
        for start in range(0, n, batch_size):
            idx = order[start:start + batch_size]
            if idx.size < 2:
                continue
            v1, v2 = augment_batch_pair(dataset.features[idx], protocol, pair_rng)
            views = (v1 if view_index == 0 else v2).reshape(idx.size, -1)
            try:
                recon, mu, logvar, _ = vae.forward(views, rng=model_rng,
                                                   deterministic=deterministic_latents)
                loss = vae_loss(recon, views, mu, logvar, beta_kl=beta_kl)
                loss.backward()
            except Exception as exc:
                raise TrainingDivergedError(f"VAE training diverged at epoch {epoch}: {exc}") from exc
            opt.step()
            opt.zero_grad()
            epoch_loss += loss.item()
            epoch_recon += float(np.mean((recon.data - views) ** 2))
            batches += 1
        if batches == 0:
            raise TargetError("dataset too small for the requested batch size")
        epoch_loss /= batches
        epoch_recon /= batches
        if first_loss is None:
            first_loss, first_recon = epoch_loss, epoch_recon
        last_loss, last_recon = epoch_loss, epoch_recon
    return {"first_epoch_loss": first_loss, "last_epoch_loss": last_loss,
            "first_epoch_recon": first_recon, "last_epoch_recon": last_recon}


def _dataset_recon_mse(vae: VAE, dataset: Dataset) -> float:
    """Deterministic reconstruction error on the clean samples."""
    flat = dataset.features.reshape(len(dataset), -1)
    recon, _, _, _ = vae.forward(flat, deterministic=True)
    return float(np.mean((recon.data - flat) ** 2))


def train_vae_pair(dataset: Dataset, protocol: AugmentationProtocol, vae_spec: VAESpec,
                   epochs: int, seed: int, batch_size: int = 64, lr: float = 1e-3,
                   beta_kl: float = 1.0, deterministic_latents: bool = False):
    """Train two VAEs, one per augmentation stream.

    Both consume the same pair stream (so view pairs stay paired) but
    have independently seeded weights and sampling noise, and each gets
    its own optimizer on an identical schedule.
    """
    if epochs < 1:
        raise TargetError(f"epochs must be >= 1, got {epochs}")
    if len(dataset) < 2:
        raise TargetError("need at least two samples to train the VAE pair")
    vae1 = VAE(vae_spec, seed=_sub_seed(seed, "vae1-init"), name="vae1")
    vae2 = VAE(vae_spec, seed=_sub_seed(seed, "vae2-init"), name="vae2")
    initial = (_dataset_recon_mse(vae1, dataset), _dataset_recon_mse(vae2, dataset))
    info1 = _train_vae_on_views(vae1, dataset, protocol, epochs, batch_size, lr, beta_kl,
                                view_index=0, pair_rng_seed=_sub_seed(seed, "views"),
                                model_rng_seed=_sub_seed(seed, "vae1-noise"),
                                deterministic_latents=deterministic_latents)
    info2 = _train_vae_on_views(vae2, dataset, protocol, epochs, batch_size, lr, beta_kl,
                                view_index=1, pair_rng_seed=_sub_seed(seed, "views"),
                                model_rng_seed=_sub_seed(seed, "vae2-noise"),
                                deterministic_latents=deterministic_latents)
    info1["untrained_recon"] = initial[0]
    info2["untrained_recon"] = initial[1]
    info1["trained_recon"] = _dataset_recon_mse(vae1, dataset)
    info2["trained_recon"] = _dataset_recon_mse(vae2, dataset)
    return vae1, vae2, {"vae1": info1, "vae2": info2, "epochs": epochs, "seed": seed}


def train_vae_single(dataset: Dataset, protocol: AugmentationProtocol, vae_spec: VAESpec,
                     epochs: int, seed: int, batch_size: int = 64, lr: float = 1e-3,
                     beta_kl: float = 1.0, deterministic_latents: bool = False):
    """Train one VAE on both views of every sample (the single-network
    auto-correlation setup)."""
    if epochs < 1:
        raise TargetError(f"epochs must be >= 1, got {epochs}")
    vae = VAE(vae_spec, seed=_sub_seed(seed, "vae1-init"), name="vae1")
    opt = Adam(vae.parameters(), lr=lr)
    pair_rng = np.random.default_rng(_sub_seed(seed, "views"))
    model_rng = np.random.default_rng(_sub_seed(seed, "vae1-noise"))
    n = len(dataset)
    first_loss = last_loss = first_recon = last_recon = None
    for epoch in range(epochs):
        order = pair_rng.permutation(n)
        epoch_loss = epoch_recon = 0.0
        batches = 0
        for start in range(0, n, batch_size):
            idx = order[start:start + batch_size]
            if idx.size < 1:
                continue
            v1, v2 = augment_batch_pair(dataset.features[idx], protocol, pair_rng)
            views = np.concatenate([v1, v2], axis=0).reshape(2 * idx.size, -1)
            try:
                recon, mu, logvar, _ = vae.forward(views, rng=model_rng,
                                                   deterministic=deterministic_latents)
                loss = vae_loss(recon, views, mu, logvar, beta_kl=beta_kl)
                loss.backward()
            except Exception as exc:
                raise TrainingDivergedError(f"VAE training diverged at epoch {epoch}: {exc}") from exc
            opt.step()
            opt.zero_grad()
            epoch_loss += loss.item()
            epoch_recon += float(np.mean((recon.data - views) ** 2))
            batches += 1
        if batches == 0:
            raise TargetError("dataset too small for the requested batch size")
        epoch_loss /= batches
        epoch_recon /= batches
        if first_loss is None:
            first_loss, first_recon = epoch_loss, epoch_recon
        last_loss, last_recon = epoch_loss, epoch_recon
    return vae, {"first_epoch_loss": first_loss, "last_epoch_loss": last_loss,
                 "first_epoch_recon": first_recon, "last_epoch_recon": last_recon,
                 "epochs": epochs, "seed": seed}


def train_autoencoder_pair(dataset: Dataset, protocol: AugmentationProtocol, vae_spec: VAESpec,
                           epochs: int, seed: int, batch_size: int = 64, lr: float = 1e-3):
    """Plain autoencoder pair: the VAE pipeline with no KL term and
    deterministic latents."""
    return train_vae_pair(dataset, protocol, vae_spec, epochs, seed,
                          batch_size=batch_size, lr=lr,
                          beta_kl=0.0, deterministic_latents=True)


# ---------------------------------------------------------------------
# target computation
# ---------------------------------------------------------------------


def _latent_views(vaes, dataset: Dataset, protocol: AugmentationProtocol,
                  rng) -> list[np.ndarray]:
    """One fresh view per VAE per sample, mapped to deterministic latents.

    Views are drawn sample by sample, the k-th view of a sample for the
    k-th VAE, then each VAE maps all of its views in one batch.
    """
    n = len(dataset)
    views = [[augment_once(x, protocol, rng) for _ in vaes] for x in dataset.features]
    return [vae.latent_means(np.stack([v[k] for v in views]).reshape(n, -1))
            for k, vae in enumerate(vaes)]


def compute_target(vae1: VAE, vae2: VAE, dataset: Dataset, protocol: AugmentationProtocol,
                   seed: int, source: str = "vae", draws: int = 1,
                   provenance: dict | None = None) -> TargetArtifact:
    """Cross-correlation of the two VAEs' latent means over the dataset.

    One view pair is drawn per sample per pass; ``draws > 1`` averages
    the resulting matrices over that many fresh passes.  A latent
    coordinate that is constant over the whole dataset cannot define a
    target and raises CollapseError.
    """
    if vae1.spec.latent_dim != vae2.spec.latent_dim:
        raise TargetError("latent dimensions differ between the two VAEs")
    if draws < 1:
        raise TargetError("draws must be >= 1")
    if len(dataset) < 2:
        raise TargetError("need at least two samples to correlate latents")
    rng = np.random.default_rng(_sub_seed(seed, "target-views"))
    acc = None
    for _ in range(draws):
        lat1, lat2 = _latent_views((vae1, vae2), dataset, protocol, rng)
        try:
            z1 = normalize_columns(lat1)
            z2 = normalize_columns(lat2)
        except CollapseError as exc:
            raise CollapseError(exc.columns,
                                f"collapsed VAE latent coordinate(s) {exc.columns} "
                                "cannot define a target") from exc
        values = cross_correlation(z1, z2).data
        acc = values if acc is None else acc + values
    matrix = CorrelationMatrix(np.clip(acc / draws, -1.0, 1.0), "target")
    prov = dict(provenance or {})
    prov.setdefault("vae_spec_digest", _spec_digest(vae1.spec))
    prov.setdefault("dataset_digest", dataset.digest())
    prov.setdefault("seed", seed)
    prov.setdefault("draws", draws)
    prov.setdefault("epochs", prov.get("epochs", 0))
    return TargetArtifact(matrix, source, prov)


def compute_target_auto(vae: VAE, dataset: Dataset, protocol: AugmentationProtocol,
                        seed: int, source: str = "vae",
                        provenance: dict | None = None) -> TargetArtifact:
    """Auto-correlation target from a single VAE's latents (one view per sample)."""
    if len(dataset) < 2:
        raise TargetError("need at least two samples to correlate latents")
    rng = np.random.default_rng(_sub_seed(seed, "target-views"))
    (lat,) = _latent_views((vae,), dataset, protocol, rng)
    try:
        z = normalize_columns(lat)
    except CollapseError as exc:
        raise CollapseError(exc.columns,
                            f"collapsed VAE latent coordinate(s) {exc.columns} "
                            "cannot define a target") from exc
    values = np.clip(auto_correlation(z).data, -1.0, 1.0)
    np.fill_diagonal(values, 1.0)
    matrix = CorrelationMatrix(values, "auto")
    prov = dict(provenance or {})
    prov.setdefault("vae_spec_digest", _spec_digest(vae.spec))
    prov.setdefault("dataset_digest", dataset.digest())
    prov.setdefault("seed", seed)
    prov.setdefault("epochs", prov.get("epochs", 0))
    return TargetArtifact(matrix, source, prov)


def compute_target_from_ae(ae1: VAE, ae2: VAE, dataset: Dataset,
                           protocol: AugmentationProtocol, seed: int,
                           provenance: dict | None = None) -> TargetArtifact:
    """Target from a trained autoencoder pair (same pipeline, AE source tag)."""
    return compute_target(ae1, ae2, dataset, protocol, seed,
                          source="autoencoder", provenance=provenance)


def identity_target(dim: int) -> TargetArtifact:
    """E = I: coloring degenerates to a second whitening-style pull."""
    return TargetArtifact(CorrelationMatrix(np.eye(dim), "target"), "identity")


# ---------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------


def save_target(artifact: TargetArtifact, path) -> None:
    kind_b = artifact.matrix.kind.encode("utf-8")
    source_b = artifact.source.encode("utf-8")
    prov_b = json.dumps(artifact.provenance, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(TARGET_MAGIC)
        fh.write(struct.pack("<I", artifact.dim))
        fh.write(struct.pack("<H", len(kind_b)) + kind_b)
        fh.write(struct.pack("<H", len(source_b)) + source_b)
        fh.write(struct.pack("<I", len(prov_b)) + prov_b)
        fh.write(artifact.matrix.values.astype("<f8").tobytes())


def load_target(path, expect_dim: int | None = None) -> TargetArtifact:
    with open(path, "rb") as fh:
        blob = fh.read()
    off = 0

    def need(count, what):
        nonlocal off
        if off + count > len(blob):
            raise TargetError(f"truncated target file: {what} at byte offset {off}")
        chunk = blob[off:off + count]
        off += count
        return chunk

    magic = need(8, "magic")
    if magic != TARGET_MAGIC:
        raise TargetError(f"bad target magic at byte offset 0: {magic!r}")
    (dim,) = struct.unpack("<I", need(4, "dimension"))
    (kl,) = struct.unpack("<H", need(2, "kind length"))
    kind = need(kl, "kind").decode("utf-8")
    (sl,) = struct.unpack("<H", need(2, "source length"))
    source = need(sl, "source").decode("utf-8")
    (pl,) = struct.unpack("<I", need(4, "provenance length"))
    provenance = json.loads(need(pl, "provenance").decode("utf-8"))
    values = np.frombuffer(need(8 * dim * dim, "matrix values"), dtype="<f8")
    if off != len(blob):
        raise TargetError(f"trailing bytes at byte offset {off}")
    if expect_dim is not None and dim != expect_dim:
        raise TargetError(f"target dimension {dim} does not match configured dimension {expect_dim}")
    matrix = CorrelationMatrix(values.reshape(dim, dim).astype(np.float64), kind)
    return TargetArtifact(matrix, source, provenance)


# ---------------------------------------------------------------------
# latent coordinate analysis (sparse vs dense attribution)
# ---------------------------------------------------------------------


def latent_group_split(vae: VAE, dataset: Dataset) -> dict:
    """Attribute each latent coordinate to the sparse or dense input block.

    Each coordinate of the deterministic latents is regressed (least
    squares, with intercept) on the sparse block and on the dense block
    of the raw features; the block with the higher adjusted R^2 claims
    the coordinate.  The adjustment matters: the dense block has far
    more regressors and would otherwise soak up variance spuriously.
    """
    if dataset.modality != "vector" or dataset.sparse_dim == 0:
        raise TargetError("latent attribution needs a vector dataset with a sparse block")
    flat = dataset.features.reshape(len(dataset), -1)
    latents = vae.latent_means(flat)
    n = flat.shape[0]
    sparse = flat[:, :dataset.sparse_dim]
    dense = flat[:, dataset.sparse_dim:]

    def adjusted_r_squared(block, y):
        p = block.shape[1]
        if n <= p + 1:
            raise TargetError(f"need more than {p + 1} samples to attribute latents")
        x = np.concatenate([block, np.ones((n, 1))], axis=1)
        coef, *_ = np.linalg.lstsq(x, y, rcond=None)
        resid = y - x @ coef
        total = ((y - y.mean(axis=0)) ** 2).sum(axis=0)
        total = np.where(total == 0.0, 1.0, total)
        r2 = 1.0 - (resid ** 2).sum(axis=0) / total
        return 1.0 - (1.0 - r2) * (n - 1) / (n - p - 1)

    r2_sparse = adjusted_r_squared(sparse, latents)
    r2_dense = adjusted_r_squared(dense, latents)
    return {
        "sparse_mask": r2_sparse >= r2_dense,
        "r2_sparse": r2_sparse,
        "r2_dense": r2_dense,
        "margin": r2_sparse - r2_dense,
    }
