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

import functools
import hashlib
import json
import os
import platform
import time
from dataclasses import dataclass, field, asdict

import numpy as np

from . import autograd as ag
from .autograd import NonFiniteError, Tensor
from .checkpoint import load_arrays, save_arrays, write_atomic
from .data import Augmentation, Dataset, SparseDenseSpec, view_pair_batches
from .diagnostics import (DiagnosticsError, DiagnosticsReport, append_row, compute_report,
                          embedding_variance)
from .losses import (CollapseError, LossConfig, coloring_loss,
                     cross_correlation, auto_correlation, lambda_at, normalize_columns,
                     total_loss, whitening_loss)
from .networks import (Backbone, EncoderSpec, NetworkError, Projector, ProjectorSpec, _Module,
                       vae_spec_for)
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


class RunAbort(TrainingError):
    """Training stopped at ``epoch``, ``batch`` on ``cause``; ``run`` is its record."""

    def __init__(self, cause: Exception, run: "TrainingRun", epoch: int, batch: int):
        self.cause, self.run, self.epoch, self.batch = cause, run, epoch, batch
        super().__init__(f"{self.what} at epoch {epoch}, batch {batch}: {cause}")

    def record(self) -> dict:
        """Where and why the run stopped: its manifest's ``abort``."""
        return {"epoch": self.epoch, "batch": self.batch, "cause": str(self.cause)}


class CollapseAbort(RunAbort):
    """Training hit a zero-variance embedding column and stopped."""
    what = "collapse"

    def record(self) -> dict:
        return {**super().record(), "columns": self.cause.columns}


class NumericalAbort(RunAbort):
    what = "non-finite value"


# ---------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------


def _require(config, test, rule: str, *names) -> None:
    """Reject a config section field failing ``test`` at parse time, before
    any work is done."""
    for name in names:
        value = getattr(config, name)
        if not test(value):
            raise TrainingError(f"{name} must be {rule}, got {value!r}")


def _positive(value) -> bool:
    return value > 0  # False for NaN


def _at_least_one(value) -> bool:
    return value >= 1


@dataclass(frozen=True)
class OptimizerConfig:
    lr: float = 3e-3
    weight_decay: float = 5e-6
    betas: tuple[float, float] = (0.9, 0.999)

    def __post_init__(self):
        _require(self, _positive, "> 0", "lr")
        _require(self, lambda v: v >= 0, ">= 0", "weight_decay")
        _require(self, lambda v: all(0 <= b < 1 for b in v), "each in [0, 1)", "betas")


@dataclass(frozen=True)
class VAETrainConfig:
    epochs: int = 30
    lr: float = 1e-3
    beta_kl: float = 1.0
    batch_size: int = 64

    def __post_init__(self):
        _require(self, _positive, "> 0", "lr")
        _require(self, lambda v: v >= 0, ">= 0", "beta_kl")
        _require(self, _at_least_one, ">= 1", "epochs", "batch_size")


@dataclass(frozen=True)
class TargetConfig:
    source: str = "vae"  # one of TARGET_SOURCES
    path: str | None = None
    draws: int = 1

    def __post_init__(self):
        _require(self, lambda v: v in TARGET_SOURCES, f"one of {TARGET_SOURCES}", "source")
        _require(self, _at_least_one, ">= 1", "draws")


@dataclass(frozen=True)
class EvalConfig:
    probe_epochs: int = 50
    train_fraction: float = 0.8
    lr_start: float = 1e-3
    lr_end: float = 1e-6
    batch_size: int = 128

    def __post_init__(self):
        _require(self, _positive, "> 0", "lr_start", "lr_end")
        _require(self, _at_least_one, ">= 1", "probe_epochs", "batch_size")
        _require(self, lambda v: 0.0 < v < 1.0, "in (0, 1)", "train_fraction")


# dataclass field name -> config-file key, where the two differ
JSON_KEYS = {"lam": "lambda", "lam_schedule": "lambda_schedule",
             "lam_block_epochs": "lambda_block_epochs"}


@dataclass(frozen=True)
class ExperimentConfig:
    dataset: SparseDenseSpec = field(default_factory=SparseDenseSpec)
    augment: Augmentation = field(default_factory=Augmentation)
    encoder: EncoderSpec = field(default_factory=EncoderSpec)
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
        _require(self, lambda v: v >= 2, ">= 2", "batch_size")
        _require(self, _at_least_one, ">= 1", "epochs")

    def to_dict(self) -> dict:
        """The config-file JSON of the config, every key spelled out (the
        derived dataset seed too); ``config.config_from_dict`` reads it."""
        d = json.loads(json.dumps(asdict(self)))
        d["dataset"]["kind"] = self.dataset.kind
        d["loss"] = {JSON_KEYS.get(k, k): v for k, v in d["loss"].items()}
        return d

    def digest(self) -> str:
        """Hash of what the run computes from, not of where its files sit:
        ``output_dir`` and ``target.path`` are left out."""
        d = asdict(self)
        del d["output_dir"], d["target"]["path"]
        canon = json.dumps(d, sort_keys=True, default=str)
        return hashlib.sha256(canon.encode()).hexdigest()[:16]


def build_dataset(config: ExperimentConfig) -> Dataset:
    return config.dataset.build()


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


def target_path(config: ExperimentConfig, run_dir: str | None) -> str | None:
    """``target.path``, else ``target.bin`` in the run directory, else None:
    where ``compute-target`` writes the target and ``pretrain`` reads it."""
    return config.target.path or (os.path.join(run_dir, "target.bin") if run_dir else None)


def _load_target_file(config: ExperimentConfig, run_dir: str | None) -> TargetArtifact:
    path = target_path(config, run_dir)
    if path is None:
        raise PrerequisiteError("no target file: set 'target.path' to one 'compute-target' wrote")
    if not os.path.exists(path):
        raise PrerequisiteError(
            f"target file {path!r} not found; produce it with 'compute-target'")
    return load_target(path)


TARGET_KINDS = {"cross": "target", "auto": "auto"}  # the kind each loss variant trains against


def _check_target(config: ExperimentConfig, target: TargetArtifact) -> TargetArtifact:
    """``target``, refused unless it fits ``config``: of the kind its loss
    variant trains against and as wide as the coloring head's output."""
    variant, kind = config.loss.variant, target.matrix.kind
    if kind != TARGET_KINDS[variant]:
        raise TrainingError(f"loss.variant {variant!r} needs a target of kind "
                            f"{TARGET_KINDS[variant]!r}, got kind {kind!r}")
    if target.dim != config.coloring_head.output_dim:
        raise TrainingError(f"target dimension {target.dim} != coloring head output "
                            f"{config.coloring_head.output_dim}")
    return target


def prepare_target(config: ExperimentConfig, dataset: Dataset | None = None) -> TargetArtifact:
    """Build (or load, for file/identity sources) the coloring target."""
    d = config.coloring_head.output_dim
    if config.target.source == "identity":
        return identity_target(d, TARGET_KINDS[config.loss.variant])
    if config.target.source == "file":
        return _check_target(config, _load_target_file(config, None))

    if dataset is None:
        dataset = build_dataset(config)
    if len(dataset) < 2:  # refused before the VAE trains, not after
        raise TrainingError(f"a target needs at least two samples, the dataset has {len(dataset)}")
    vae_spec = vae_spec_for(dataset.flat_dim(), config.encoder, d)
    seed_t = derive_seed(config.seed, "target")
    if config.loss.variant == "auto":
        train, compute = train_vae_single, compute_target_auto
    else:
        train, compute = train_vae_pair, compute_target
    vae, info = train(dataset, config.augment, vae_spec, config.vae_train, seed_t)
    return compute(vae, dataset, config.augment, seed_t, draws=config.target.draws,
                   provenance={"epochs": config.vae_train.epochs, "train_info": info})


def target_inputs(config: ExperimentConfig) -> tuple:
    """The config fields ``prepare_target`` reads: configs equal on these
    get the same target."""
    enc = config.encoder
    return (config.target, config.coloring_head.output_dim, config.loss.variant,
            config.dataset, enc.widths[:enc.tap_index], config.augment, config.vae_train,
            config.seed)


# ---------------------------------------------------------------------
# model assembly
# ---------------------------------------------------------------------


class Model(_Module):
    """Backbone plus coloring and whitening heads with named parameters.

    ``coloring`` and ``whitening`` are (view-1 head, view-2 head) pairs.
    A shared pair holds one projector twice; the auto variant always
    shares.  An unshared pair's view-2 head is named ``<head>_b``.
    """

    def __init__(self, config: ExperimentConfig, input_dim: int):
        self.config = config
        enc = config.encoder
        self.backbone = Backbone(enc, input_dim, derive_seed(config.seed, "init-backbone"))
        shared = config.share_heads or config.loss.variant == "auto"

        def pair(spec: ProjectorSpec, in_dim: int, name: str) -> tuple[Projector, Projector]:
            first = Projector(spec, in_dim, derive_seed(config.seed, f"init-{name}"), name)
            if shared:
                return first, first
            return first, Projector(spec, in_dim, derive_seed(config.seed, f"init-{name}-b"),
                                    f"{name}_b")

        self.coloring = pair(config.coloring_head, enc.tap_dim, "coloring")
        self.whitening = pair(config.whitening_head, enc.output_dim, "whitening")
        # view-1 heads before view-2 heads: the checkpoint record order
        self.layers = [self.backbone, *_distinct(self.coloring[0], self.whitening[0],
                                                 self.coloring[1], self.whitening[1])]

    def trainable_parameters(self, coloring_active: bool):
        params = dict(self.backbone.parameters())
        heads = self.whitening + self.coloring if coloring_active else self.whitening
        for head in _distinct(*heads):
            params.update(head.parameters())
        return params


def _distinct(*heads) -> list[Projector]:
    """``heads`` in order, each once."""
    return list(dict.fromkeys(heads))


def map_views(heads: tuple[Projector, Projector], x):
    """Both views' outputs of a (view-1, view-2) head pair on ``x``, the two
    views' batches stacked.  A shared head maps the stacked batch once.
    A graph node maps in training mode, an array in inference mode."""
    first, second = heads
    m = x.shape[0] // 2
    training = isinstance(x, Tensor)
    rows = ag.rows if training else (lambda a, start, stop: a[start:stop])
    if first is second:
        z = first(x, training)
        return rows(z, 0, m), rows(z, m, 2 * m)
    return first(rows(x, 0, m), training), second(rows(x, m, 2 * m), training)


def load_model(config: ExperimentConfig, input_dim: int, checkpoint_path: str):
    """The model of ``config`` restored from a checkpoint that fits it (see
    ``_Module.load_state_arrays``), and the checkpoint's metadata, as
    ``(model, meta)``.  The optimizer moments, about two thirds of the
    file, are skipped unread."""
    if not os.path.exists(checkpoint_path):
        raise PrerequisiteError(
            f"checkpoint {checkpoint_path!r} not found; produce it with 'pretrain'")
    arrays, meta = load_arrays(checkpoint_path, keep=lambda name: not name.startswith("adam."))
    if meta.get("version") != CHECKPOINT_VERSION:
        raise TrainingError(
            f"{checkpoint_path}: unsupported checkpoint version {meta.get('version')}")
    model = Model(config, input_dim)
    try:
        model.load_state_arrays(arrays)
    except NetworkError as exc:
        raise NetworkError(f"{checkpoint_path} does not fit the config: {exc}") from None
    return model, meta


# ---------------------------------------------------------------------
# training runs
# ---------------------------------------------------------------------


@dataclass
class TrainingRun:
    metrics: list[DiagnosticsReport] = field(default_factory=list)
    checkpoint_path: str | None = None
    status: str = "running"  # then completed, collapsed or diverged
    epochs_completed: int = 0
    macs_per_step: int = 0

    @property
    def final_variance(self) -> float:
        """The embedding variance of the last recorded epoch (0 before any)."""
        return self.metrics[-1].variance if self.metrics else 0.0


def _save_checkpoint(path, model: Model, opt: Adam, rng, epochs_completed: int,
                     config: ExperimentConfig) -> None:
    meta = {"version": CHECKPOINT_VERSION, "epochs_completed": epochs_completed,
            "adam_step": opt.step_count, "rng_state": json.dumps(rng.bit_generator.state),
            "config_digest": config.digest(), "variant": config.loss.variant}
    save_arrays(path, {**model.state_arrays(), **opt.state_arrays()}, meta)


@functools.cache
def _environment() -> dict:
    """What a run's speed depends on besides its config, read once per
    process: the python, numpy and BLAS versions, whether BLAS loaded
    under the package's one-thread pin, and the host's cores and those
    the process may use (these two facts decide ``autograd._spare_core``)."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy before 1.25 only prints its config
        blas = {}
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": {"name": blas.get("name"), "version": blas.get("version")},
            "blas_pinned": ag.BLAS_PINNED,
            "cpu_count": os.cpu_count(), "usable_cores": ag.usable_cores()}


def _write_manifest(run_dir: str, config: ExperimentConfig, fields: dict) -> None:
    manifest = {"config": config.to_dict(), "config_digest": config.digest(),
                "environment": _environment(), **fields}
    write_atomic(os.path.join(run_dir, "manifest.json"),
                 lambda fh: json.dump(manifest, fh, indent=2, sort_keys=True, default=str))


def _rewind_records(run_dir: str, start_epoch: int) -> None:
    """Leave a run's ``metrics.csv`` as it stood after ``start_epoch``
    epochs: its header and its whole rows of earlier epochs, rewritten
    atomically if a row goes (a continuation killed before its checkpoint
    leaves later rows, the last perhaps cut short: no line end).  A fresh
    run starts at epoch 0, so the file goes."""
    metrics = os.path.join(run_dir, "metrics.csv")
    if not os.path.exists(metrics):
        return
    if not start_epoch:
        os.remove(metrics)
        return
    with open(metrics, "rb") as fh:
        lines = fh.readlines()
    kept = lines[:1] + [line for line in lines[1:] if line.endswith(b"\n")
                        and int(line.split(b",", 1)[0]) < start_epoch]
    if kept != lines:
        write_atomic(metrics, lambda fh: fh.writelines(kept), "wb")


def pretrain(config: ExperimentConfig, target: TargetArtifact | None = None,
             run_dir: str | None = None, resume: str | None = None) -> TrainingRun:
    """One training run up to ``config.epochs`` total epochs, fresh or
    resumed from the checkpoint file ``resume``; ``loss.variant`` selects
    cross or auto correlation.

    A resumed run takes five things from the checkpoint instead of the
    seed: the weights, the Adam moments (parameters without records,
    such as heads the checkpoint never trained, start at zero), the Adam
    step, the RNG state and the start epoch, so a split run reproduces
    the metrics of an uninterrupted one.  Loss weights may differ from
    the original run (recorded in the manifest); a checkpoint whose model
    records do not fit the config's is refused (``load_model``).  A
    refused input writes nothing: ``run_dir`` is first touched once every
    input is accepted, when the manifest records ``running``; the end
    state (completed, collapsed or diverged, with its ``abort`` record)
    follows the last epoch, and a run that fails any other way keeps
    ``running``.
    """
    dataset = build_dataset(config)
    if resume is None:
        model, meta = Model(config, dataset.flat_dim()), None
    else:
        model, meta = load_model(config, dataset.flat_dim(), resume)
        if meta.get("variant") != config.loss.variant:
            raise TrainingError(f"{resume}: checkpoint variant {meta.get('variant')!r} != "
                                f"config variant {config.loss.variant!r}")
    if target is None:  # every source but identity reads its target file
        target = (prepare_target(config, dataset) if config.target.source == "identity"
                  else _load_target_file(config, run_dir))
    coloring_active = config.loss.coloring_active()
    opt = Adam(model.trainable_parameters(coloring_active), lr=config.optimizer.lr,
               betas=config.optimizer.betas, weight_decay=config.optimizer.weight_decay)
    if meta is None:
        rng = np.random.default_rng(derive_seed(config.seed, "pretrain"))
        start_epoch, resumed = 0, {}
    else:
        records, _ = load_arrays(resume, keep=lambda name: name.startswith("adam."))
        opt.load_state_arrays(records, meta["adam_step"])
        rng, start_epoch = np.random.default_rng(0), int(meta["epochs_completed"])
        rng.bit_generator.state = json.loads(meta["rng_state"])
        if start_epoch >= config.epochs:
            raise TrainingError(
                f"checkpoint already has {start_epoch} epochs; config asks for {config.epochs}")
        resumed = {"resumed_from": resume, "resumed_at_epoch": start_epoch}
    if len(dataset) < config.batch_size:
        raise TrainingError(
            f"dataset of {len(dataset)} samples smaller than batch size {config.batch_size}")
    _check_target(config, target)
    if run_dir:  # every input is accepted: only now does the run write
        os.makedirs(run_dir, exist_ok=True)
        _write_manifest(run_dir, config, {"status": "running", **resumed})
        _rewind_records(run_dir, start_epoch)
    run = TrainingRun(epochs_completed=start_epoch, macs_per_step=correlation_stage_macs(
        config.loss.variant, config.batch_size, config.coloring_head.output_dim,
        config.whitening_head.output_dim, coloring_active))
    abort = None
    try:
        _train_epochs(config, dataset, target, model, opt, rng, run, run_dir)
        if run_dir:
            run.checkpoint_path = os.path.join(run_dir, "checkpoint.bin")
            _save_checkpoint(run.checkpoint_path, model, opt, rng, run.epochs_completed,
                             config)
        run.status = "completed"
    except RunAbort as exc:
        abort = exc.record()
        raise
    finally:
        if run_dir and run.status != "running":
            _write_manifest(run_dir, config, {
                "status": run.status, "epochs_completed": run.epochs_completed,
                "macs_per_step": run.macs_per_step, "target_source": target.source,
                "target_provenance": target.provenance, "abort": abort, **resumed})
    return run


def _train_epochs(config: ExperimentConfig, dataset: Dataset, target: TargetArtifact,
                  model: Model, opt: Adam, rng, run: TrainingRun,
                  run_dir: str | None) -> None:
    """Train from epoch ``run.epochs_completed`` up to ``config.epochs``,
    recording each epoch on ``run`` (and in ``metrics.csv``).  A collapse
    or non-finite value marks ``run`` collapsed or diverged and raises."""
    m, auto = config.batch_size, config.loss.variant == "auto"
    coloring_active = config.loss.coloring_active()
    e_const = target.matrix.values  # constant: no gradient ever reaches the target
    metrics_path = os.path.join(run_dir, "metrics.csv") if run_dir else None

    last_zw1 = last_zw2 = None

    def step(x: np.ndarray, lam: float, worker) -> tuple[float, float, float]:
        """Forward and backward pass on the stacked views ``x``, large
        layers' parameter gradients computed on ``worker``: the loss parts
        (total, whitening, coloring) as floats, the whitening outputs in
        ``last_zw1``/``last_zw2``.  The graph lives only in this call, so
        it is freed before the next step builds its own."""
        nonlocal last_zw1, last_zw2
        tap_all, fin_all = model.backbone.forward(x, training=True)
        zw1, zw2 = map_views(model.whitening, fin_all)
        last_zw1, last_zw2 = zw1.data, zw2.data

        # whitening always correlates the two views (the diagonal term
        # is the only alignment force; a stacked-batch auto-correlation
        # would pin it at 1 and train nothing toward invariance)
        w_mat = cross_correlation(normalize_columns(zw1), normalize_columns(zw2))
        loss_w = whitening_loss(w_mat, config.loss.alpha)
        if not coloring_active:
            loss_w.backward(worker)
            return loss_w.item(), loss_w.item(), 0.0
        if auto:
            zc1 = model.coloring[0](ag.rows(tap_all, 0, m), training=True)
            c_mat = auto_correlation(normalize_columns(zc1))
        else:
            zc1, zc2 = map_views(model.coloring, tap_all)
            c_mat = cross_correlation(normalize_columns(zc1), normalize_columns(zc2))
        loss_c = coloring_loss(c_mat, e_const)
        loss = total_loss(loss_w, loss_c, lam)
        loss.backward(worker)
        return loss.item(), loss_w.item(), loss_c.item()

    with view_pair_batches(dataset, config.augment, rng, m,
                           config.epochs - run.epochs_completed, min_rows=m) as stream:
        for epoch in range(run.epochs_completed, config.epochs):
            t0 = time.perf_counter()
            lam = lambda_at(config.loss, epoch)
            sums = np.zeros(3)  # total, whitening, coloring
            for b_idx, (x, _) in enumerate(stream.epoch()):
                try:
                    parts = step(x, lam, stream)
                except CollapseError as exc:
                    run.status = "collapsed"
                    try:  # the step set last_zw1 and last_zw2 before its collapse check
                        variance = embedding_variance(np.concatenate([last_zw1, last_zw2]))
                    except DiagnosticsError:  # zero-norm rows: fully collapsed output
                        variance = 0.0
                    run.metrics.append(DiagnosticsReport(
                        epoch=epoch, lam=lam, loss_total=float("nan"), loss_w=float("nan"),
                        loss_c=float("nan"), variance=variance,
                        effective_rank=1.0, alignment=float("nan")))
                    if metrics_path:
                        append_row(metrics_path, run.metrics[-1].record())
                    raise CollapseAbort(exc, run, epoch, b_idx) from exc
                except NonFiniteError as exc:
                    run.status = "diverged"
                    raise NumericalAbort(exc, run, epoch, b_idx) from exc
                opt.step()
                opt.zero_grad()
                sums += parts

            wall_ms = (time.perf_counter() - t0) * 1000.0
            report = compute_report(epoch, lam, tuple(sums / stream.per_epoch), last_zw1, last_zw2,
                                    wall_ms=wall_ms)
            run.metrics.append(report)
            run.epochs_completed = epoch + 1
            if metrics_path:
                append_row(metrics_path, report.record())
