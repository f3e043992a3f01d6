"""Linear evaluation of frozen encoders and the ablation sweep driver.

The probe is exactly one affine map plus softmax, trained with Adam on
an exponentially decaying learning rate while the encoder (heads
removed) stays frozen in inference mode.
"""

from __future__ import annotations

import csv
import os
import tempfile
from dataclasses import dataclass, replace

import numpy as np

from . import autograd as ag
from .data import Dataset
from .networks import ProjectorSpec
from .optim import Adam
from .seeding import derive_seed
from .training import (EvalConfig, ExperimentConfig, build_dataset, load_model,
                       prepare_target, pretrain)


class EvalError(Exception):
    pass


@dataclass
class EvalResult:
    accuracy: float
    probe_epochs: int
    config_digest: str
    probe_seed: int

    def __post_init__(self):
        if not (0.0 <= self.accuracy <= 1.0):
            raise EvalError(f"accuracy {self.accuracy} outside [0, 1]")


def encoder_features(config: ExperimentConfig, checkpoint_path: str,
                     dataset: Dataset) -> np.ndarray:
    """Final-layer activations of the frozen encoder, inference mode."""
    model, _ = load_model(config, dataset.flat_dim(), checkpoint_path)
    flat = dataset.features.reshape(len(dataset), -1)
    _, final = model.backbone.forward(flat, training=False)
    return final.data


def probe_accuracy(features: np.ndarray, labels: np.ndarray, num_classes: int,
                   spec: EvalConfig, seed: int) -> float:
    """Train the affine+softmax probe of ``spec`` on a split and score the
    held-out part."""
    n, d = features.shape
    if labels.shape != (n,):
        raise EvalError(f"labels shape {labels.shape} does not match {n} samples")
    if labels.size == 0:
        raise EvalError("dataset has no labels")

    split_rng = np.random.default_rng(derive_seed(seed, "eval-split"))
    order = split_rng.permutation(n)
    n_train = int(round(n * spec.train_fraction))
    if n_train < 1 or n_train >= n:
        raise EvalError(f"split leaves an empty side: {n_train} train of {n}")
    train_idx, test_idx = order[:n_train], order[n_train:]

    # center and globally rescale by train-split statistics: fixes the
    # optimization conditioning without reweighting coordinates, and as a
    # fixed affine preprocessing leaves the probe exactly one affine map
    mu = features[train_idx].mean(axis=0)
    scale = features[train_idx].std() + 1e-8
    features = (features - mu) / scale

    probe_rng = np.random.default_rng(derive_seed(seed, "eval-probe"))
    bound = np.sqrt(6.0 / d)
    weight = ag.parameter(probe_rng.uniform(-bound, bound, size=(d, num_classes)),
                          name="probe.weight")
    bias = ag.parameter(np.zeros(num_classes), name="probe.bias")
    opt = Adam({"probe.weight": weight, "probe.bias": bias}, lr=spec.lr_start)

    x_train, y_train = features[train_idx], labels[train_idx]
    decay = (spec.lr_end / spec.lr_start) ** (1.0 / max(spec.probe_epochs - 1, 1))
    for epoch in range(spec.probe_epochs):
        opt.lr = spec.lr_start * decay ** epoch
        order = probe_rng.permutation(n_train)
        for start in range(0, n_train, spec.batch_size):
            idx = order[start:start + spec.batch_size]
            logits = ag.dense(x_train[idx], weight, bias)[0]
            loss = ag.softmax_cross_entropy(logits, y_train[idx])
            loss.backward()
            opt.step()
            opt.zero_grad()

    predictions = ag.dense(features[test_idx], weight, bias)[0].data.argmax(axis=1)
    return float((predictions == labels[test_idx]).mean())


def linear_eval(config: ExperimentConfig, checkpoint_path: str,
                dataset: Dataset | None = None, seed: int | None = None) -> EvalResult:
    """Top-1 accuracy of the affine probe on the frozen encoder's output."""
    if dataset is None:
        dataset = build_dataset(config)
    seed = config.seed if seed is None else seed
    features = encoder_features(config, checkpoint_path, dataset)
    acc = probe_accuracy(features, dataset.labels, dataset.num_classes, config.eval, seed)
    return EvalResult(acc, config.eval.probe_epochs, config.digest(), seed)


# ---------------------------------------------------------------------
# ablation sweeps
# ---------------------------------------------------------------------

SWEEP_AXES = ("lambda", "projectorDim", "tapIndex", "targetSource")


def _config_for_value(base: ExperimentConfig, axis: str, value) -> ExperimentConfig:
    if axis == "lambda":
        return replace(base, loss=replace(base.loss, lam=float(value), lam_schedule=None))
    if axis == "projectorDim":
        dim = int(value)
        return replace(
            base,
            coloring_head=ProjectorSpec((base.coloring_head.widths[0],
                                         base.coloring_head.widths[1], dim),
                                        base.coloring_head.batch_norm),
            whitening_head=ProjectorSpec((base.whitening_head.widths[0],
                                          base.whitening_head.widths[1], dim),
                                         base.whitening_head.batch_norm),
        )
    if axis == "tapIndex":
        tap = int(value)
        at_final = tap == len(base.encoder.widths)
        return replace(base, encoder=replace(base.encoder, tap_index=tap,
                                             allow_tap_at_final=at_final))
    if axis == "targetSource":
        return replace(base, target=replace(base.target, source=str(value), path=None))
    raise EvalError(f"unknown sweep axis {axis!r}; valid axes: {SWEEP_AXES}")


def ablation_sweep(base_config: ExperimentConfig, axis: str, values,
                   seeds=None, out_dir: str | None = None) -> list[dict]:
    """One pretrain + eval per (value, seed); failures are marked rows.

    Targets are rebuilt per value whenever the axis can change what the
    target must look like.  Returns the result rows and, when
    ``out_dir`` is given, writes them to ``sweep.csv`` there.
    """
    values = list(values)
    if not values:
        raise EvalError("sweep needs at least one value")
    if axis not in SWEEP_AXES:
        raise EvalError(f"unknown sweep axis {axis!r}; valid axes: {SWEEP_AXES}")
    seeds = [base_config.seed] if seeds is None else list(seeds)

    rows = []
    target_cache: dict[str, object] = {}
    for value in values:
        for seed in seeds:
            row = {"axis": axis, "value": value, "seed": seed,
                   "accuracy": float("nan"), "status": "ok", "error": ""}
            try:  # an invalid value fails when its config is built
                config = replace(_config_for_value(base_config, axis, value), seed=seed)
                dataset = build_dataset(config)
                cache_key = f"{value}:{seed}" if axis != "lambda" else f"shared:{seed}"
                if cache_key not in target_cache:
                    target_cache[cache_key] = prepare_target(config, dataset)
                target = target_cache[cache_key]
                if out_dir:
                    run_dir = os.path.join(out_dir, f"{axis}_{value}_s{seed}")
                    run = pretrain(config, target=target, run_dir=run_dir)
                    result = linear_eval(config, run.checkpoint_path, dataset=dataset)
                else:
                    with tempfile.TemporaryDirectory() as tmp:
                        run = pretrain(config, target=target, run_dir=tmp)
                        result = linear_eval(config, run.checkpoint_path, dataset=dataset)
                row["accuracy"] = result.accuracy
            except Exception as exc:  # marked row, sweep continues
                row["status"] = "error"
                row["error"] = f"{type(exc).__name__}: {exc}"
            rows.append(row)

    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
        with open(os.path.join(out_dir, "sweep.csv"), "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=["axis", "value", "seed", "accuracy",
                                                    "status", "error"])
            writer.writeheader()
            writer.writerows(rows)
    return rows
