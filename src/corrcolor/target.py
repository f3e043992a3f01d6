"""Construction of the desired colored correlation target.

A pair of VAEs is trained on the two augmentation streams; their
deterministic latent means over the whole dataset, column-normalized,
give the target cross-correlation.  Autoencoder (no KL, no sampling)
and single-VAE auto-correlation variants reuse the same pipeline, and
an identity target is available for ablations.

A target file is a checkpoint container (see ``checkpoint``) holding one
``values`` record, with ``kind``, ``source`` and ``provenance`` in its
metadata.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

from .checkpoint import CheckpointError, load_arrays, save_arrays
from .data import Augmentation, Dataset, augment_batch_pair, augment_once
from .losses import (CollapseError, CorrelationMatrix, auto_correlation,
                     cross_correlation, normalize_columns)
from .networks import VAE, VAESpec, vae_loss
from .optim import Adam
from .seeding import derive_seed as _sub_seed

TARGET_SOURCES = ("vae", "autoencoder", "identity", "file")


class TargetError(Exception):
    pass


class TrainingDivergedError(TargetError):
    pass


@dataclass
class TargetArtifact:
    """A target correlation matrix with enough provenance to rebuild it."""

    matrix: CorrelationMatrix
    source: str  # one of TARGET_SOURCES
    provenance: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.source not in TARGET_SOURCES:
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


def _train_vae(vae: VAE, dataset: Dataset, aug: Augmentation, epochs: int,
               seed: int, batch_size: int, lr: float, beta_kl: float,
               deterministic_latents: bool, sides: tuple[int, ...]) -> dict:
    """Train one VAE on the given sides of the view-pair stream.

    The pair stream is drawn from the "views" sub-seed (both views are
    generated, unused sides are dropped), so the two VAEs of a pair
    consume identical augmentation randomness on opposite sides;
    ``sides=(0, 1)`` stacks both views into one batch.  Sampling noise
    comes from the VAE's own "<name>-noise" sub-seed.
    """
    if epochs < 1:
        raise TargetError(f"epochs must be >= 1, got {epochs}")
    opt = Adam(vae.parameters(), lr=lr)
    pair_rng = np.random.default_rng(_sub_seed(seed, "views"))
    model_rng = np.random.default_rng(_sub_seed(seed, f"{vae.name}-noise"))
    n = len(dataset)
    first_loss = last_loss = first_recon = last_recon = None
    for epoch in range(epochs):
        order = pair_rng.permutation(n)
        epoch_loss = epoch_recon = 0.0
        batches = 0
        for start in range(0, n, batch_size):
            idx = order[start:start + batch_size]
            if len(sides) * idx.size < 2:  # before the draw, or the view stream shifts
                continue
            pair = augment_batch_pair(dataset.features[idx], aug, dataset.sparse_dim, pair_rng)
            views = np.concatenate([pair[s] for s in sides]).reshape(len(sides) * idx.size, -1)
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


def train_vae_pair(dataset: Dataset, aug: Augmentation, vae_spec: VAESpec,
                   epochs: int, seed: int, batch_size: int = 64, lr: float = 1e-3,
                   beta_kl: float = 1.0, deterministic_latents: bool = False):
    """Train two VAEs, one per augmentation stream.

    Both consume the same pair stream (so view pairs stay paired) but
    have independently seeded weights and sampling noise, and each gets
    its own optimizer on an identical schedule.  ``beta_kl=0`` with
    ``deterministic_latents`` makes this a plain autoencoder pair.
    """
    if len(dataset) < 2:
        raise TargetError("need at least two samples to train the VAE pair")
    vaes = (VAE(vae_spec, seed=_sub_seed(seed, "vae1-init"), name="vae1"),
            VAE(vae_spec, seed=_sub_seed(seed, "vae2-init"), name="vae2"))
    initial = [_dataset_recon_mse(vae, dataset) for vae in vaes]
    info = {"epochs": epochs, "seed": seed}
    for side, vae in enumerate(vaes):
        info[vae.name] = _train_vae(vae, dataset, aug, epochs, seed, batch_size, lr,
                                    beta_kl, deterministic_latents, sides=(side,))
    for vae, untrained in zip(vaes, initial):
        info[vae.name]["untrained_recon"] = untrained
        info[vae.name]["trained_recon"] = _dataset_recon_mse(vae, dataset)
    return vaes[0], vaes[1], info


def train_vae_single(dataset: Dataset, aug: Augmentation, vae_spec: VAESpec,
                     epochs: int, seed: int, batch_size: int = 64, lr: float = 1e-3,
                     beta_kl: float = 1.0, deterministic_latents: bool = False):
    """Train one VAE on both views of every sample (the single-network
    auto-correlation setup)."""
    vae = VAE(vae_spec, seed=_sub_seed(seed, "vae1-init"), name="vae1")
    info = _train_vae(vae, dataset, aug, epochs, seed, batch_size, lr, beta_kl,
                      deterministic_latents, sides=(0, 1))
    return vae, {**info, "epochs": epochs, "seed": seed}


# ---------------------------------------------------------------------
# target computation
# ---------------------------------------------------------------------


def _latent_views(vaes, dataset: Dataset, aug: Augmentation, rng) -> list[np.ndarray]:
    """One fresh view per VAE per sample, mapped to deterministic latents.

    Views are drawn sample by sample, the k-th view of a sample for the
    k-th VAE, then each VAE maps all of its views in one batch.
    """
    n = len(dataset)
    views = [[augment_once(x, aug, dataset.sparse_dim, rng) for _ in vaes]
             for x in dataset.features]
    return [vae.latent_means(np.stack([v[k] for v in views]).reshape(n, -1))
            for k, vae in enumerate(vaes)]


def _target_artifact(vaes, dataset: Dataset, aug: Augmentation, seed: int,
                     source: str, draws: int, provenance: dict | None) -> TargetArtifact:
    """Correlation of the VAEs' latent means over the dataset.

    One view per VAE is drawn per sample per pass, and ``draws`` passes
    are averaged.  Two VAEs give a cross-correlation ("target" kind),
    one VAE an auto-correlation ("auto" kind, unit diagonal).  A latent
    coordinate that is constant over the whole dataset cannot define a
    target and raises CollapseError.
    """
    if draws < 1:
        raise TargetError("draws must be >= 1")
    if len(dataset) < 2:
        raise TargetError("need at least two samples to correlate latents")
    auto = len(vaes) == 1
    rng = np.random.default_rng(_sub_seed(seed, "target-views"))
    acc = None
    for _ in range(draws):
        try:
            zs = [normalize_columns(lat) for lat in _latent_views(vaes, dataset, aug, rng)]
        except CollapseError as exc:
            raise CollapseError(exc.columns,
                                f"collapsed VAE latent coordinate(s) {exc.columns} "
                                "cannot define a target") from exc
        values = (auto_correlation(*zs) if auto else cross_correlation(*zs)).data
        acc = values if acc is None else acc + values
    values = np.clip(acc / draws, -1.0, 1.0)
    if auto:
        np.fill_diagonal(values, 1.0)
    prov = {"vae_spec_digest": _spec_digest(vaes[0].spec), "dataset_digest": dataset.digest(),
            "seed": seed, "draws": draws, "epochs": 0, **(provenance or {})}
    return TargetArtifact(CorrelationMatrix(values, "auto" if auto else "target"), source, prov)


def compute_target(vae1: VAE, vae2: VAE, dataset: Dataset, aug: Augmentation,
                   seed: int, source: str = "vae", draws: int = 1,
                   provenance: dict | None = None) -> TargetArtifact:
    """Cross-correlation target of two VAEs ("target" kind)."""
    if vae1.spec.latent_dim != vae2.spec.latent_dim:
        raise TargetError("latent dimensions differ between the two VAEs")
    return _target_artifact((vae1, vae2), dataset, aug, seed, source, draws, provenance)


def compute_target_auto(vae: VAE, dataset: Dataset, aug: Augmentation,
                        seed: int, source: str = "vae", draws: int = 1,
                        provenance: dict | None = None) -> TargetArtifact:
    """Auto-correlation target from a single VAE's latents ("auto" kind)."""
    return _target_artifact((vae,), dataset, aug, seed, source, draws, provenance)


def identity_target(dim: int, kind: str = "target") -> TargetArtifact:
    """E = I: coloring degenerates to a second whitening-style pull."""
    return TargetArtifact(CorrelationMatrix(np.eye(dim), kind), "identity")


# ---------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------


def save_target(artifact: TargetArtifact, path) -> None:
    save_arrays(path, {"values": artifact.matrix.values},
                {"kind": artifact.matrix.kind, "source": artifact.source,
                 "provenance": artifact.provenance})


def load_target(path, expect_dim: int | None = None) -> TargetArtifact:
    try:
        arrays, meta = load_arrays(path)
    except CheckpointError as exc:
        raise TargetError(f"not a target file: {exc}") from exc
    if set(arrays) != {"values"} or not {"kind", "source", "provenance"} <= set(meta):
        raise TargetError(f"{path} holds no target matrix")
    dim = arrays["values"].shape[0]
    if expect_dim is not None and dim != expect_dim:
        raise TargetError(f"target dimension {dim} does not match configured dimension {expect_dim}")
    return TargetArtifact(CorrelationMatrix(arrays["values"], meta["kind"]), meta["source"],
                          meta["provenance"])


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
