"""End-to-end pretraining loops for the dual-view (cross-correlation)
framework and its single-network auto-correlation variant.

One weight-shared backbone processes both augmented views as a single
concatenated batch (so both views see identical batch-norm statistics).
The tap activation feeds the coloring head, the final activation the
whitening head; column-normalized embeddings give the correlation
matrices entering the combined objective.  Runs are deterministic given
the config seed, resumable from checkpoints (the training RNG stream is
checkpointed too), and abort loudly when an embedding column collapses.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import dataclass, field, asdict

import numpy as np

from . import autograd as ag
from .autograd import NonFiniteError
from .checkpoint import load_arrays, save_arrays, write_atomic
from .data import (Dataset, ImageAugmentation, SparseDenseSpec, VectorAugmentation,
                   augment_batch_pair, generate_sparse_dense, load_image_set)
from .diagnostics import DiagnosticsReport, append_metrics, compute_report, embedding_variance
from .losses import (CollapseError, LossConfig, coloring_loss,
                     cross_correlation, auto_correlation, lambda_at, normalize_columns,
                     total_loss, whitening_loss)
from .networks import Backbone, EncoderSpec, Projector, ProjectorSpec, vae_spec_for
from .optim import Adam
from .seeding import derive_seed
from .target import (TARGET_SOURCES, TargetArtifact, compute_target, compute_target_auto,
                     identity_target, load_target, train_vae_pair, train_vae_single)

CHECKPOINT_VERSION = 1


class TrainingError(Exception):
    pass


class PrerequisiteError(TrainingError):
    """A required artifact is missing; the message names the file and
    the command that produces it."""


class CollapseAbort(TrainingError):
    """Training hit a zero-variance embedding column and stopped."""

    def __init__(self, cause: CollapseError, run: "TrainingRun", epoch: int, batch: int):
        self.cause = cause
        self.run = run
        self.epoch = epoch
        self.batch = batch
        super().__init__(f"collapse at epoch {epoch}, batch {batch}: {cause}")


class NumericalAbort(TrainingError):
    def __init__(self, cause: Exception, epoch: int, batch: int):
        self.cause = cause
        self.epoch = epoch
        self.batch = batch
        super().__init__(f"non-finite value at epoch {epoch}, batch {batch}: {cause}")


# ---------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------


@dataclass(frozen=True)
class ImageSource:
    path: str
    labels_path: str | None = None


@dataclass(frozen=True)
class AugmentConfig:
    """Protocol parameters; the modality-appropriate subset applies."""

    dense_noise_scale: float = 0.5
    dense_dropout_prob: float = 0.2
    scale_jitter: tuple[float, float] = (0.9, 1.1)
    mirror_prob: float = 0.5
    crop_scale: tuple[float, float] = (0.6, 1.0)
    aspect_jitter: tuple[float, float] = (1.0, 1.0)
    brightness_jitter: float = 0.2
    contrast_jitter: float = 0.2

    def protocol_for(self, dataset: Dataset):
        if dataset.modality == "vector":
            return VectorAugmentation(dataset.sparse_dim, self.dense_noise_scale,
                                      self.dense_dropout_prob, self.scale_jitter)
        return ImageAugmentation(self.mirror_prob, self.crop_scale, self.aspect_jitter,
                                 self.brightness_jitter, self.contrast_jitter)


@dataclass(frozen=True)
class EncoderConfig:
    widths: tuple[int, ...] = (64, 64, 32)
    tap_index: int = 2
    batch_norm: bool = True
    allow_tap_at_final: bool = False

    def spec_for(self, input_dim: int) -> EncoderSpec:
        return EncoderSpec(input_dim, tuple(self.widths), self.tap_index,
                           self.batch_norm, self.allow_tap_at_final)


@dataclass(frozen=True)
class OptimizerConfig:
    lr: float = 3e-3
    weight_decay: float = 5e-6
    betas: tuple[float, float] = (0.9, 0.999)


@dataclass(frozen=True)
class VAETrainConfig:
    epochs: int = 30
    lr: float = 1e-3
    beta_kl: float = 1.0
    batch_size: int = 64


@dataclass(frozen=True)
class TargetConfig:
    source: str = "vae"  # one of TARGET_SOURCES
    path: str | None = None
    draws: int = 1

    def __post_init__(self):
        if self.source not in TARGET_SOURCES:
            raise TrainingError(f"unknown target source {self.source!r}")


@dataclass(frozen=True)
class EvalConfig:
    probe_epochs: int = 50
    train_fraction: float = 0.8
    lr_start: float = 1e-3
    lr_end: float = 1e-6
    batch_size: int = 128


@dataclass(frozen=True)
class ExperimentConfig:
    dataset: SparseDenseSpec | ImageSource = field(default_factory=SparseDenseSpec)
    augment: AugmentConfig = field(default_factory=AugmentConfig)
    encoder: EncoderConfig = field(default_factory=EncoderConfig)
    coloring_head: ProjectorSpec = field(default_factory=lambda: ProjectorSpec((64, 64, 64)))
    whitening_head: ProjectorSpec = field(default_factory=lambda: ProjectorSpec((64, 64, 64)))
    loss: LossConfig = field(default_factory=LossConfig)
    target: TargetConfig = field(default_factory=TargetConfig)
    vae_train: VAETrainConfig = field(default_factory=VAETrainConfig)
    optimizer: OptimizerConfig = field(default_factory=OptimizerConfig)
    eval: EvalConfig = field(default_factory=EvalConfig)
    batch_size: int = 128
    epochs: int = 20
    seed: int = 0
    share_heads: bool = True
    output_dir: str = "runs/run"

    def __post_init__(self):
        if self.batch_size < 2:
            raise TrainingError(f"batch size must be >= 2, got {self.batch_size}")
        if self.epochs < 1:
            raise TrainingError(f"epochs must be >= 1, got {self.epochs}")

    @property
    def variant(self) -> str:
        return self.loss.variant

    def to_dict(self) -> dict:
        return asdict(self)

    def digest(self) -> str:
        canon = json.dumps(self.to_dict(), sort_keys=True, default=str)
        return hashlib.sha256(canon.encode()).hexdigest()[:16]


def build_dataset(config: ExperimentConfig) -> Dataset:
    if isinstance(config.dataset, SparseDenseSpec):
        return generate_sparse_dense(config.dataset)
    return load_image_set(config.dataset.path, config.dataset.labels_path)


# ---------------------------------------------------------------------
# arithmetic cost model
# ---------------------------------------------------------------------


def correlation_stage_macs(variant: str, batch_size: int, coloring_dim: int,
                           whitening_dim: int, coloring_active: bool = True) -> int:
    """Multiply-accumulates needed per step by the correlation and loss stages.

    A cross-correlation between two views accumulates all d^2 entries
    over m samples.  The auto variant's coloring matrix is a symmetric
    single-view auto-correlation, so only its d(d+1)/2 unique entries
    need accumulating; its whitening matrix still correlates the two
    views (full d^2).  Loss stages cost one MAC per (unique) entry.
    """
    m, dc, dw = batch_size, coloring_dim, whitening_dim
    if variant == "cross":
        corr = (m * dc * dc if coloring_active else 0) + m * dw * dw
        loss = (dc * dc if coloring_active else 0) + dw * dw
    elif variant == "auto":
        uc = dc * (dc + 1) // 2
        corr = (m * uc if coloring_active else 0) + m * dw * dw
        loss = (uc if coloring_active else 0) + dw * dw
    else:
        raise TrainingError(f"unknown variant {variant!r}")
    return corr + loss


# ---------------------------------------------------------------------
# target preparation
# ---------------------------------------------------------------------


def _load_target_file(config: ExperimentConfig) -> TargetArtifact:
    path = config.target.path
    if path is None or not os.path.exists(path):
        raise PrerequisiteError(
            f"target file {path!r} not found; produce it with 'compute-target'")
    return load_target(path, expect_dim=config.coloring_head.output_dim)


def prepare_target(config: ExperimentConfig, dataset: Dataset | None = None) -> TargetArtifact:
    """Build (or load, for file/identity sources) the coloring target."""
    d = config.coloring_head.output_dim
    if config.target.source == "identity":
        return identity_target(d, "auto" if config.loss.variant == "auto" else "target")
    if config.target.source == "file":
        return _load_target_file(config)

    if dataset is None:
        dataset = build_dataset(config)
    protocol = config.augment.protocol_for(dataset)
    enc_spec = config.encoder.spec_for(dataset.flat_dim())
    vae_spec = vae_spec_for(dataset.flat_dim(), enc_spec, d)
    seed_t = derive_seed(config.seed, "target")
    vt = config.vae_train
    as_autoencoder = config.target.source == "autoencoder"

    if config.loss.variant == "auto":
        vae, info = train_vae_single(dataset, protocol, vae_spec, vt.epochs, seed_t,
                                     batch_size=vt.batch_size, lr=vt.lr,
                                     beta_kl=0.0 if as_autoencoder else vt.beta_kl,
                                     deterministic_latents=as_autoencoder)
        return compute_target_auto(vae, dataset, protocol, seed_t,
                                   source=config.target.source, draws=config.target.draws,
                                   provenance={"epochs": vt.epochs, "train_info": info})
    vae1, vae2, info = train_vae_pair(dataset, protocol, vae_spec, vt.epochs, seed_t,
                                      batch_size=vt.batch_size, lr=vt.lr,
                                      beta_kl=0.0 if as_autoencoder else vt.beta_kl,
                                      deterministic_latents=as_autoencoder)
    return compute_target(vae1, vae2, dataset, protocol, seed_t,
                          source=config.target.source, draws=config.target.draws,
                          provenance={"epochs": vt.epochs, "train_info": info})


# ---------------------------------------------------------------------
# model assembly
# ---------------------------------------------------------------------


class Model:
    """Backbone plus coloring/whitening heads with named parameters."""

    def __init__(self, config: ExperimentConfig, input_dim: int):
        self.config = config
        enc_spec = config.encoder.spec_for(input_dim)
        self.enc_spec = enc_spec
        self.backbone = Backbone(enc_spec, derive_seed(config.seed, "init-backbone"))
        shared = config.share_heads or config.loss.variant == "auto"
        self.shared = shared
        self.coloring = Projector(config.coloring_head, enc_spec.tap_dim,
                                  derive_seed(config.seed, "init-coloring"), "coloring")
        self.whitening = Projector(config.whitening_head, enc_spec.output_dim,
                                   derive_seed(config.seed, "init-whitening"), "whitening")
        self.coloring_b = None
        self.whitening_b = None
        if not shared:
            self.coloring_b = Projector(config.coloring_head, enc_spec.tap_dim,
                                        derive_seed(config.seed, "init-coloring-b"),
                                        "coloring_b")
            self.whitening_b = Projector(config.whitening_head, enc_spec.output_dim,
                                         derive_seed(config.seed, "init-whitening-b"),
                                         "whitening_b")

    def modules(self):
        mods = [self.backbone, self.coloring, self.whitening]
        if self.coloring_b is not None:
            mods += [self.coloring_b, self.whitening_b]
        return mods

    def trainable_parameters(self, coloring_active: bool):
        params = {}
        params.update(self.backbone.parameters())
        params.update(self.whitening.parameters())
        if self.whitening_b is not None:
            params.update(self.whitening_b.parameters())
        if coloring_active:
            params.update(self.coloring.parameters())
            if self.coloring_b is not None:
                params.update(self.coloring_b.parameters())
        return params

    def state_arrays(self):
        out = {}
        for mod in self.modules():
            out.update(mod.state_arrays())
        return out

    def load_state_arrays(self, arrays):
        for mod in self.modules():
            mod.load_state_arrays(arrays)


def load_model(config: ExperimentConfig, input_dim: int, checkpoint_path: str):
    """The model of ``config`` restored from a checkpoint.

    Returns ``(model, arrays, meta)``: the restored model plus the raw
    checkpoint records (optimizer moments included) and metadata.
    """
    if not os.path.exists(checkpoint_path):
        raise PrerequisiteError(
            f"checkpoint {checkpoint_path!r} not found; produce it with 'pretrain'")
    arrays, meta = load_arrays(checkpoint_path)
    if meta.get("version") != CHECKPOINT_VERSION:
        raise TrainingError(f"unsupported checkpoint version {meta.get('version')}")
    if meta.get("coloring_dim") != config.coloring_head.output_dim:
        raise TrainingError(
            f"checkpoint coloring dimension {meta.get('coloring_dim')} != configured "
            f"{config.coloring_head.output_dim}")
    model = Model(config, input_dim)
    model.load_state_arrays(arrays)
    return model, arrays, meta


# ---------------------------------------------------------------------
# training runs
# ---------------------------------------------------------------------


@dataclass
class TrainingRun:
    run_dir: str | None
    config_digest: str
    metrics: list[DiagnosticsReport] = field(default_factory=list)
    checkpoint_path: str | None = None
    status: str = "completed"
    epochs_completed: int = 0
    macs_per_step: int = 0
    final_variance: float = 0.0


def _rng_state_to_json(rng) -> str:
    return json.dumps(rng.bit_generator.state)


def _rng_from_json(state_json: str):
    rng = np.random.default_rng(0)
    rng.bit_generator.state = json.loads(state_json)
    return rng


def _save_checkpoint(path, model: Model, opt: Adam, rng, epochs_completed: int,
                     config: ExperimentConfig) -> None:
    arrays = dict(model.state_arrays())
    for name, m in opt.m.items():
        arrays[f"adam.m.{name}"] = m
    for name, v in opt.v.items():
        arrays[f"adam.v.{name}"] = v
    meta = {
        "version": CHECKPOINT_VERSION,
        "epochs_completed": epochs_completed,
        "adam_step": opt.step_count,
        "rng_state": _rng_state_to_json(rng),
        "config_digest": config.digest(),
        "variant": config.loss.variant,
        "encoder_widths": list(config.encoder.widths),
        "tap_index": config.encoder.tap_index,
        "coloring_dim": config.coloring_head.output_dim,
        "whitening_dim": config.whitening_head.output_dim,
    }
    save_arrays(path, arrays, meta)


def _write_manifest(run_dir: str, config: ExperimentConfig, extra: dict) -> None:
    manifest = {"config": config.to_dict(), "config_digest": config.digest()}
    manifest.update(extra)
    write_atomic(os.path.join(run_dir, "manifest.json"),
                 lambda fh: json.dump(manifest, fh, indent=2, sort_keys=True, default=str))


def _best_effort_variance(z_raw: np.ndarray | None) -> float:
    if z_raw is None or z_raw.shape[0] < 2:
        return 0.0
    try:
        return embedding_variance(z_raw)
    except Exception:
        return 0.0  # zero-norm rows: fully collapsed output


def _run_loop(config: ExperimentConfig, dataset: Dataset, target: TargetArtifact,
              run_dir: str | None, model: Model, opt: Adam, rng,
              start_epoch: int, manifest_extra: dict) -> TrainingRun:
    protocol = config.augment.protocol_for(dataset)
    features = dataset.features.reshape(len(dataset), -1)
    n, m = features.shape[0], config.batch_size
    if n < m:
        raise TrainingError(f"dataset of {n} samples smaller than batch size {m}")
    auto = config.loss.variant == "auto"
    if auto and target.matrix.kind != "auto":
        raise TrainingError("auto-correlation training needs an auto-kind target")
    if not auto and target.matrix.kind != "target":
        raise TrainingError("cross-correlation training needs a target-kind matrix")
    if target.dim != config.coloring_head.output_dim:
        raise TrainingError(
            f"target dimension {target.dim} != coloring head output "
            f"{config.coloring_head.output_dim}"
        )
    coloring_active = config.loss.coloring_active()
    e_const = target.matrix.values  # constant: no gradient ever reaches the target
    macs = correlation_stage_macs(config.loss.variant, m, config.coloring_head.output_dim,
                                  config.whitening_head.output_dim, coloring_active)
    run = TrainingRun(run_dir, config.digest(), macs_per_step=macs,
                      epochs_completed=start_epoch)
    metrics_path = os.path.join(run_dir, "metrics.csv") if run_dir else None

    last_zw1 = last_zw2 = None
    for epoch in range(start_epoch, config.epochs):
        t0 = time.perf_counter()
        lam = lambda_at(config.loss, epoch)
        sums = np.zeros(3)  # total, whitening, coloring
        batches = 0
        order = rng.permutation(n)
        for b_idx, start in enumerate(range(0, n - m + 1, m)):
            idx = order[start:start + m]
            v1, v2 = augment_batch_pair(dataset.features[idx], protocol, rng)
            x = np.concatenate([v1.reshape(m, -1), v2.reshape(m, -1)], axis=0)
            try:
                tap_all, fin_all = model.backbone.forward(x, training=True)
                if model.shared:
                    zw_all = model.whitening(fin_all, training=True)
                    zw1, zw2 = ag.rows(zw_all, 0, m), ag.rows(zw_all, m, 2 * m)
                else:
                    zw1 = model.whitening(ag.rows(fin_all, 0, m), training=True)
                    zw2 = model.whitening_b(ag.rows(fin_all, m, 2 * m), training=True)
                last_zw1, last_zw2 = zw1.data.copy(), zw2.data.copy()

                # whitening always correlates the two views (the diagonal term
                # is the only alignment force; a stacked-batch auto-correlation
                # would pin it at 1 and train nothing toward invariance)
                w_mat = cross_correlation(normalize_columns(zw1), normalize_columns(zw2))
                loss_w = whitening_loss(w_mat, config.loss.alpha)

                if coloring_active:
                    if auto:
                        zc1 = model.coloring(ag.rows(tap_all, 0, m), training=True)
                        c_mat = auto_correlation(normalize_columns(zc1))
                    elif model.shared:
                        zc_all = model.coloring(tap_all, training=True)
                        c_mat = cross_correlation(
                            normalize_columns(ag.rows(zc_all, 0, m)),
                            normalize_columns(ag.rows(zc_all, m, 2 * m)))
                    else:
                        zc1 = model.coloring(ag.rows(tap_all, 0, m), training=True)
                        zc2 = model.coloring_b(ag.rows(tap_all, m, 2 * m), training=True)
                        c_mat = cross_correlation(normalize_columns(zc1),
                                                  normalize_columns(zc2))
                    loss_c = coloring_loss(c_mat, e_const)
                    loss = total_loss(loss_w, loss_c, lam)
                    loss_c_val = loss_c.item()
                else:
                    loss = loss_w
                    loss_c_val = 0.0

                loss.backward()
            except CollapseError as exc:
                run.status = "collapsed"
                run.final_variance = _best_effort_variance(
                    np.concatenate([last_zw1, last_zw2]) if last_zw1 is not None else None)
                run.metrics.append(DiagnosticsReport(
                    epoch=epoch, lam=lam, loss_total=float("nan"), loss_w=float("nan"),
                    loss_c=float("nan"), variance=run.final_variance,
                    effective_rank=1.0, alignment=float("nan")))
                if metrics_path:
                    append_metrics(metrics_path, run.metrics[-1])
                if run_dir:
                    dump = {"epoch": epoch, "batch": b_idx, "columns": exc.columns,
                            "variance": run.final_variance}
                    write_atomic(os.path.join(run_dir, "collapse.json"),
                                 lambda fh: json.dump(dump, fh, indent=2))
                    _write_manifest(run_dir, config, {"status": "collapsed",
                                                      "epochs_completed": run.epochs_completed,
                                                      **manifest_extra})
                raise CollapseAbort(exc, run, epoch, b_idx) from exc
            except NonFiniteError as exc:
                run.status = "diverged"
                if run_dir:
                    _write_manifest(run_dir, config, {"status": "diverged",
                                                      "epochs_completed": run.epochs_completed,
                                                      **manifest_extra})
                raise NumericalAbort(exc, epoch, b_idx) from exc
            opt.step()
            opt.zero_grad()
            sums += (loss.item(), loss_w.item(), loss_c_val)
            batches += 1

        wall_ms = (time.perf_counter() - t0) * 1000.0
        report = compute_report(epoch, lam, tuple(sums / batches), last_zw1, last_zw2,
                                wall_ms=wall_ms)
        run.metrics.append(report)
        run.epochs_completed = epoch + 1
        if metrics_path:
            append_metrics(metrics_path, report)

    run.final_variance = run.metrics[-1].variance if run.metrics else 0.0
    if run_dir:
        run.checkpoint_path = os.path.join(run_dir, "checkpoint.bin")
        _save_checkpoint(run.checkpoint_path, model, opt, rng, run.epochs_completed, config)
        _write_manifest(run_dir, config, {
            "status": run.status, "epochs_completed": run.epochs_completed,
            "macs_per_step": run.macs_per_step,
            "target_source": target.source, "target_provenance": target.provenance,
            **manifest_extra,
        })
    return run


def _optimizer(model: Model, config: ExperimentConfig) -> Adam:
    return Adam(model.trainable_parameters(config.loss.coloring_active()),
                lr=config.optimizer.lr, betas=config.optimizer.betas,
                weight_decay=config.optimizer.weight_decay)


def _resolve_target(config: ExperimentConfig, dataset: Dataset,
                    target: TargetArtifact | None) -> TargetArtifact:
    """Use the given artifact, or load/build one per the target source.

    Sources that need VAE training ('vae', 'autoencoder') are expected
    to have been materialized to ``target.path`` beforehand.
    """
    if target is not None:
        return target
    if config.target.source in ("identity", "file"):
        return prepare_target(config, dataset)
    return _load_target_file(config)


def pretrain(config: ExperimentConfig, target: TargetArtifact | None = None,
             run_dir: str | None = None) -> TrainingRun:
    """Pretrain from scratch; ``loss.variant`` selects cross or auto correlation."""
    dataset = build_dataset(config)
    target = _resolve_target(config, dataset, target)
    if run_dir:
        os.makedirs(run_dir, exist_ok=True)
        _write_manifest(run_dir, config, {"status": "running"})
    model = Model(config, dataset.flat_dim())
    rng = np.random.default_rng(derive_seed(config.seed, "pretrain"))
    return _run_loop(config, dataset, target, run_dir, model, _optimizer(model, config), rng,
                     start_epoch=0, manifest_extra={})


def resume_from(checkpoint_path: str, config: ExperimentConfig,
                target: TargetArtifact | None = None,
                run_dir: str | None = None) -> TrainingRun:
    """Continue a checkpointed run up to ``config.epochs`` total epochs.

    Network/optimizer state and the training RNG stream are restored, so
    a split run reproduces the metrics of an uninterrupted one.  Loss
    weights may differ from the original run (recorded in the manifest);
    shape-changing edits are rejected.
    """
    dataset = build_dataset(config)
    model, arrays, meta = load_model(config, dataset.flat_dim(), checkpoint_path)
    if meta.get("variant") != config.loss.variant:
        raise TrainingError(
            f"checkpoint variant {meta.get('variant')!r} != config variant "
            f"{config.loss.variant!r}")
    target = _resolve_target(config, dataset, target)
    opt = _optimizer(model, config)
    # parameters newly activated by a config change start with fresh moments
    opt.load_state_dict({
        "step": meta["adam_step"],
        "m": {name: arrays.get(f"adam.m.{name}", np.zeros_like(opt.params[name].data))
              for name in opt.params},
        "v": {name: arrays.get(f"adam.v.{name}", np.zeros_like(opt.params[name].data))
              for name in opt.params},
    })
    rng = _rng_from_json(meta["rng_state"])
    start_epoch = int(meta["epochs_completed"])
    if start_epoch >= config.epochs:
        raise TrainingError(
            f"checkpoint already has {start_epoch} epochs; config asks for {config.epochs}")
    resumed = {"resumed_from": checkpoint_path, "resumed_at_epoch": start_epoch}
    if run_dir:
        os.makedirs(run_dir, exist_ok=True)
        _write_manifest(run_dir, config, {"status": "running", **resumed})
    return _run_loop(config, dataset, target, run_dir, model, opt, rng,
                     start_epoch=start_epoch, manifest_extra=resumed)
