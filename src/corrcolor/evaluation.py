"""Linear evaluation of frozen encoders and the ablation sweep driver.

The probe is exactly one affine map plus softmax, trained with Adam on
an exponentially decaying learning rate while the encoder (heads
removed) stays frozen in inference mode; each step's gradient is its
closed form on arrays, with no graph.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import tempfile
from dataclasses import dataclass

import numpy as np

from . import autograd as ag
from .config import config_from_dict, merge_at
from .data import Dataset
from .diagnostics import append_row
from .optim import Adam
from .seeding import derive_seed
from .training import (EvalConfig, ExperimentConfig, build_dataset, load_model,
                       prepare_target, pretrain, target_inputs)


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
                     dataset: Dataset) -> tuple[np.ndarray, dict]:
    """Final-layer activations of the frozen encoder, inference mode, and
    the checkpoint's metadata."""
    model, meta = load_model(config, dataset.flat_dim(), checkpoint_path)
    return model.backbone.forward(dataset.features, training=False)[1], meta


def _softmax_grads(x: np.ndarray, y: np.ndarray, weight: np.ndarray,
                   bias: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Gradients in ``weight`` and ``bias`` of the mean softmax cross-entropy
    of ``x @ weight + bias`` at labels ``y``, with no graph and no loss value:
    the numpy operations of a ``dense`` and a ``softmax_cross_entropy`` node,
    forward and backward, in their order, so the same bits."""
    logits = x @ weight
    logits += bias
    ag._check_finite(logits, "probe")
    logits -= logits.max(axis=1, keepdims=True)
    logits -= np.log(np.exp(logits).sum(axis=1, keepdims=True))
    g = np.exp(logits, out=logits)
    g[np.arange(len(y)), y] -= 1.0
    g *= 1.0 / len(y)
    return x.T @ g, g.sum(axis=0)


def probe_accuracy(features: np.ndarray, labels: np.ndarray, num_classes: int,
                   spec: EvalConfig, seed: int) -> float:
    """Train the affine+softmax probe of ``spec`` on a split and score the
    held-out part."""
    n, d = features.shape
    if labels.shape != (n,):
        raise EvalError(f"labels shape {labels.shape} does not match {n} samples")
    if labels.size == 0:
        raise EvalError("dataset has no labels")
    if labels.min() < 0 or labels.max() >= num_classes:
        raise EvalError(f"label out of range [0, {num_classes})")

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

    batches = [slice(s, s + spec.batch_size) for s in range(0, n_train, spec.batch_size)]
    decay = (spec.lr_end / spec.lr_start) ** (1.0 / max(spec.probe_epochs - 1, 1))
    for epoch in range(spec.probe_epochs):
        opt.lr = spec.lr_start * decay ** epoch
        rows = train_idx[probe_rng.permutation(n_train)]
        xs, ys = features[rows], labels[rows]
        for batch in batches:
            weight.grad, bias.grad = _softmax_grads(xs[batch], ys[batch], weight.data, bias.data)
            opt.step()

    logits = ag.dense_inference(features[test_idx], weight.data, bias.data, "probe")
    predictions = logits.argmax(axis=1)
    return float((predictions == labels[test_idx]).mean())


def linear_eval(config: ExperimentConfig, checkpoint_path: str,
                dataset: Dataset | None = None) -> EvalResult:
    """Top-1 accuracy of the affine probe on the frozen encoder's output."""
    if dataset is None:
        dataset = build_dataset(config)
    features, meta = encoder_features(config, checkpoint_path, dataset)
    acc = probe_accuracy(features, dataset.labels, dataset.num_classes, config.eval,
                         config.seed)
    return EvalResult(acc, config.eval.probe_epochs, meta["config_digest"], config.seed)


# ---------------------------------------------------------------------
# ablation sweeps
# ---------------------------------------------------------------------

def _error(exc: Exception) -> dict:
    return {"status": "error", "error": f"{type(exc).__name__}: {exc}"}


def _sweep_cell(config: ExperimentConfig, target, run_dir: str) -> dict:
    """One sweep value's pretrain + eval: its row's accuracy, or its error."""
    try:
        run = pretrain(config, target=target, run_dir=run_dir)
        return {"accuracy": linear_eval(config, run.checkpoint_path).accuracy}
    except Exception as exc:  # marked row, sweep continues
        return _error(exc)


def sweep_processes(cells: int) -> int:
    """The processes a sweep of ``cells`` runs them on: one per usable
    core, each at the package's one BLAS thread, and no more than the
    cells."""
    return min(cells, ag.usable_cores())


def _cell_outcomes(cells: list):
    """The row fields ``_sweep_cell`` gives each cell, in order (none for
    a value that failed before its run): in this process when one process
    runs them, else on spawned workers (never forked, since this
    process's threads may be running) that inherit its environment.
    A worker that dies makes an error row of each cell not yet done."""
    processes = sweep_processes(sum(cell is not None for cell in cells))
    if processes <= 1:
        for cell in cells:
            yield _sweep_cell(*cell) if cell else {}
        return
    import multiprocessing  # here: only a pool pays for these imports, not every CLI call
    from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(processes, mp_context=multiprocessing.get_context("spawn")) as pool:
        futures = [cell and pool.submit(_sweep_cell, *cell) for cell in cells]
        try:
            for future in futures:
                try:
                    yield future.result() if future else {}
                except Exception as exc:  # BrokenProcessPool names the cause
                    yield _error(exc)
        finally:  # a caller that stops early drops the cells not started
            pool.shutdown(cancel_futures=True)


def ablation_sweep(base_config: ExperimentConfig, axis: str | None, values,
                   out_dir: str | None = None) -> list[dict]:
    """One pretrain + eval per value; failures are marked rows.

    Each value is merged into the config-file JSON of ``base_config``
    (``to_dict``) at the dotted key ``axis`` exactly as ``--set
    axis=value`` is (with no axis, it is a whole-config fragment).
    Before any run starts, this process builds every value's config
    (an invalid one is an error row) and one target per distinct
    ``target_inputs``; the runs then go on ``sweep_processes`` processes.
    Returns the rows in value order, ``value`` holding each value's
    JSON; given ``out_dir``, first removes an earlier sweep's
    ``sweep.csv`` and ``v<N>`` directories there, then writes run ``i``
    to ``v<i>`` and appends the rows to ``sweep.csv`` in value order as
    they finish.  Without it, the runs share one temporary directory.
    """
    values = list(values)
    if not values:
        raise EvalError("sweep needs at least one value")
    base = base_config.to_dict()
    merge_at(base, axis, {})  # an unknown axis key fails before any work
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
        for name in os.listdir(out_dir):
            path = os.path.join(out_dir, name)
            if name == "sweep.csv":
                os.remove(path)
            elif re.fullmatch(r"v\d+", name) and os.path.isdir(path):
                shutil.rmtree(path)

    with tempfile.TemporaryDirectory(prefix="sweep-") as scratch:  # without out_dir
        rows, cells, targets = [], [], {}
        for i, value in enumerate(values):
            row = {"axis": axis or "", "value": json.dumps(value), "seed": "",
                   "accuracy": float("nan"), "status": "ok", "error": ""}
            cell = None
            try:  # an invalid value fails when its config is built
                config = config_from_dict(merge_at(base, axis, value))
                row["seed"] = config.seed
                key = target_inputs(config)
                if key not in targets:
                    targets[key] = prepare_target(config)
                cell = (config, targets[key], os.path.join(out_dir or scratch, f"v{i}"))
            except Exception as exc:  # marked row, sweep continues
                row.update(_error(exc))
            rows.append(row)
            cells.append(cell)

        for i, outcome in enumerate(_cell_outcomes(cells)):  # to its end: no worker outlives it
            rows[i].update(outcome)
            if out_dir:
                append_row(os.path.join(out_dir, "sweep.csv"), rows[i])
    return rows
