"""Construction of the desired colored correlation target.

A pair of VAEs is trained on the two augmentation streams; their
deterministic latent means over the whole dataset, column-normalized,
give the target cross-correlation.  The pair is one two-member VAE (see
``networks.VAE``): each batch draws one view pair, view s feeds member
s, and one graph and one Adam step train both members, each exactly as
if it were trained alone.  The single-VAE auto-correlation variant is
the one-member case of the same pipeline, the autoencoder source (no KL,
no sampling) trains the same members with z = mu, and an identity
target is available for ablations.

A target file is a checkpoint container (see ``checkpoint``) holding one
``values`` record, with ``kind``, ``source`` and ``provenance`` in its
metadata.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from . import autograd as ag
from .autograd import NonFiniteError
from .checkpoint import CheckpointError, load_arrays, save_arrays
from .data import Augmentation, Dataset, draw_views, view_pair_batches
from .losses import (CollapseError, CorrelationMatrix, auto_correlation,
                     cross_correlation, normalize_columns)
from .networks import VAE, VAESpec, vae_loss
from .optim import Adam
from .seeding import derive_seed as _sub_seed

if TYPE_CHECKING:  # the config section lives with the other sections
    from .training import VAETrainConfig

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

# member s of a stacked VAE draws its weights from the "<name>-init" and
# its sampling noise from the "<name>-noise" sub-seed of MEMBERS[s]
MEMBERS = ("vae1", "vae2")


def _train_vae(dataset: Dataset, aug: Augmentation, vae_spec: VAESpec, train: VAETrainConfig,
               seed: int, deterministic_latents: bool, members: int) -> tuple[VAE, dict]:
    """Build a ``members``-member stacked VAE and train it on the view-pair
    stream.

    Member s is named ``MEMBERS[s]`` and draws its weights from its
    "<name>-init" sub-seed.  Each batch draws one view pair from the
    "views" sub-seed and stacks the two views member-major: with two
    members view s feeds member s, with one member both views feed it.
    Unless ``deterministic_latents``, each member's sampling noise comes
    from its "<name>-noise" sub-seed; the stream's worker draws views and
    noise one batch ahead.  One graph, one backward pass and one Adam step
    serve all members; their objectives are summed, which hands each
    member exactly its own gradient.  A step whose numbers stop being
    finite raises TrainingDivergedError.  Returns the VAE and its training
    record: by member name, the first and last epoch's mean loss and
    reconstruction error, and the reconstruction error on the clean
    samples before and after training.
    """
    names = MEMBERS[:members]
    vae = VAE(vae_spec, seed=[_sub_seed(seed, f"{name}-init") for name in names])
    untrained = _dataset_recon_mse(vae, dataset)
    opt = Adam(vae.parameters(), lr=train.lr)
    pair_rng = np.random.default_rng(_sub_seed(seed, "views"))
    noise = [] if deterministic_latents else [
        np.random.default_rng(_sub_seed(seed, f"{name}-noise")) for name in names]
    first = last = None
    # a batch with fewer rows than members would give a member a single
    # row: it is skipped before its draw, or the view stream shifts
    with view_pair_batches(dataset, aug, pair_rng, train.batch_size, train.epochs,
                           min_rows=members, noise=noise,
                           latent_dim=vae_spec.latent_dim) as stream:
        if stream.per_epoch == 0:
            raise TargetError("dataset too small for the requested batch size")
        for epoch in range(train.epochs):
            sums = np.zeros((2, members))  # per member: loss, reconstruction error
            for views, eps in stream.epoch():
                try:
                    losses, recon_err = _vae_step(vae, views, eps, train.beta_kl, stream)
                except NonFiniteError as exc:
                    raise TrainingDivergedError(
                        f"VAE training diverged at epoch {epoch}: {exc}") from exc
                opt.step()
                opt.zero_grad()
                sums[0] += losses
                sums[1] += recon_err
            sums /= stream.per_epoch
            if first is None:
                first = sums
            last = sums
    trained = _dataset_recon_mse(vae, dataset)
    return vae, {
        name: {"first_epoch_loss": float(first[0, s]), "last_epoch_loss": float(last[0, s]),
               "first_epoch_recon": float(first[1, s]), "last_epoch_recon": float(last[1, s]),
               "untrained_recon": float(untrained[s]), "trained_recon": float(trained[s])}
        for s, name in enumerate(names)}


def _vae_step(vae: VAE, views: np.ndarray, eps, beta_kl: float,
              worker) -> tuple[np.ndarray, np.ndarray]:
    """Forward and backward pass of a stacked VAE on member-major ``views``
    with sampling noise ``eps`` (None: z = mu), large layers' parameter
    gradients computed on ``worker``: each member's objective and
    reconstruction error.  The graph lives only in this call, so it is
    freed before the next batch builds its own."""
    recon, mu, logvar, _ = vae.forward(views, eps)
    losses, recon_err = vae_loss(recon, views, mu, logvar, beta_kl=beta_kl, members=vae.members)
    ag.tsum(losses).backward(worker)
    return losses.data, recon_err


def _dataset_recon_mse(vae: VAE, dataset: Dataset) -> np.ndarray:
    """Each member's deterministic reconstruction error on the clean samples."""
    flat = np.tile(dataset.features, (vae.members, 1))
    recon, _, _, _ = vae.forward(flat, training=False)
    return ((recon - flat) ** 2).reshape(vae.members, -1).mean(axis=1)


def train_vae_pair(dataset: Dataset, aug: Augmentation, vae_spec: VAESpec,
                   train: VAETrainConfig, seed: int, deterministic_latents: bool = False):
    """Train two VAEs, one per augmentation stream, as one two-member VAE.

    The members see the two views of one pair stream (so view pairs stay
    paired) but have independently seeded weights and sampling noise.
    ``train.beta_kl=0`` with ``deterministic_latents`` makes this a plain
    autoencoder pair.  Returns the stacked VAE and its training record
    (see ``_train_vae``).
    """
    return _train_vae(dataset, aug, vae_spec, train, seed, deterministic_latents, members=2)


def train_vae_single(dataset: Dataset, aug: Augmentation, vae_spec: VAESpec,
                     train: VAETrainConfig, seed: int, deterministic_latents: bool = False):
    """Train one VAE on both views of every sample (the single-network
    auto-correlation setup): the one-member case of ``train_vae_pair``."""
    return _train_vae(dataset, aug, vae_spec, train, seed, deterministic_latents, members=1)


# ---------------------------------------------------------------------
# target computation
# ---------------------------------------------------------------------


def _latent_views(vae: VAE, dataset: Dataset, aug: Augmentation, rng) -> list[np.ndarray]:
    """One fresh view per member per sample, mapped to deterministic latents.

    Views are drawn sample by sample, as one-row batches, the s-th view
    of a sample for member s, then one batch maps every member's views.
    """
    views = draw_views(dataset, aug, np.arange(len(dataset))[:, None], rng, vae.members)
    return np.split(vae.latent_means(views), vae.members)


def _target_artifact(vae: VAE, members: int, dataset: Dataset, aug: Augmentation, seed: int,
                     source: str, draws: int, provenance: dict | None) -> TargetArtifact:
    """Correlation of the members' latent means over the dataset.

    One view per member is drawn per sample per pass, and ``draws``
    passes are averaged.  Two members give a cross-correlation ("target"
    kind), one member an auto-correlation ("auto" kind, unit diagonal).
    A latent coordinate that is constant over the whole dataset cannot
    define a target and raises CollapseError.
    """
    if vae.members != members:
        raise TargetError(f"this target needs a {members}-member VAE, got {vae.members}")
    if draws < 1:
        raise TargetError("draws must be >= 1")
    auto = vae.members == 1
    rng = np.random.default_rng(_sub_seed(seed, "target-views"))
    acc = None
    for _ in range(draws):
        try:
            zs = [normalize_columns(lat) for lat in _latent_views(vae, dataset, aug, rng)]
        except CollapseError as exc:
            raise CollapseError(exc.columns,
                                f"collapsed VAE latent coordinate(s) {exc.columns} "
                                "cannot define a target") from exc
        values = (auto_correlation(*zs) if auto else cross_correlation(*zs)).data
        acc = values if acc is None else acc + values
    values = np.clip(acc / draws, -1.0, 1.0)
    prov = {"vae_spec_digest": _spec_digest(vae.spec), "dataset_digest": dataset.digest(),
            "seed": seed, "draws": draws, "epochs": 0, **(provenance or {})}
    return TargetArtifact(CorrelationMatrix(values, "auto" if auto else "target"), source, prov)


def compute_target(vae: VAE, dataset: Dataset, aug: Augmentation,
                   seed: int, source: str = "vae", draws: int = 1,
                   provenance: dict | None = None) -> TargetArtifact:
    """Cross-correlation target of a VAE pair's two members ("target" kind)."""
    return _target_artifact(vae, 2, dataset, aug, seed, source, draws, provenance)


def compute_target_auto(vae: VAE, dataset: Dataset, aug: Augmentation,
                        seed: int, source: str = "vae", draws: int = 1,
                        provenance: dict | None = None) -> TargetArtifact:
    """Auto-correlation target from a single VAE's latents ("auto" kind)."""
    return _target_artifact(vae, 1, dataset, aug, seed, source, draws, provenance)


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


def load_target(path) -> TargetArtifact:
    try:
        arrays, meta = load_arrays(path)
    except CheckpointError as exc:
        raise TargetError(f"not a target file: {exc}") from exc
    if set(arrays) != {"values"} or not {"kind", "source", "provenance"} <= set(meta):
        raise TargetError(f"{path} holds no target matrix")
    return TargetArtifact(CorrelationMatrix(arrays["values"], meta["kind"]), meta["source"],
                          meta["provenance"])


# ---------------------------------------------------------------------
# latent coordinate analysis (sparse vs dense attribution)
# ---------------------------------------------------------------------


def latent_group_split(vae: VAE, dataset: Dataset) -> dict:
    """Attribute each latent coordinate of the first member to the sparse
    or dense input block.

    Each coordinate of the deterministic latents is regressed (least
    squares, with intercept) on the sparse block and on the dense block
    of the raw features; the block with the higher adjusted R^2 claims
    the coordinate.  The adjustment matters: the dense block has far
    more regressors and would otherwise soak up variance spuriously.
    """
    if dataset.sparse_dim == 0:
        raise TargetError("latent attribution needs a dataset with a sparse block")
    x = dataset.features
    latents = vae.latent_means(np.tile(x, (vae.members, 1)))[:len(x)]
    n = x.shape[0]
    sparse = x[:, :dataset.sparse_dim]
    dense = x[:, dataset.sparse_dim:]

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
