"""Instrumentation of corrcolor from outside, by wrapping its public calls.

Nothing in the package is edited.  Module-level functions are replaced
in every corrcolor module that imported them by name; methods are
replaced on their class.  ``LapClock`` is the only wrapper of an
untraced run; ``install_tracing`` adds the per-layer regions of a traced
run.
"""

from __future__ import annotations

import os
import sys
import time
import types

# autograd op functions and the op type their output nodes carry
OPS = {"add": "add", "sub": "sub", "mul": "mul", "div": "div", "matmul": "matmul",
       "transpose": "transpose", "concat_rows": "concat_rows", "rows": "rows",
       "relu": "relu", "square": "square", "sqrt": "sqrt", "exp": "exp",
       "tsum": "sum", "softmax_cross_entropy": "softmax_cross_entropy"}


def _replace_everywhere(owner, attr: str, make) -> None:
    """Swap ``owner.attr`` for ``make(original)`` in every corrcolor module."""
    original = getattr(owner, attr)
    replacement = make(original)
    for name, module in list(sys.modules.items()):
        if name == "corrcolor" or name.startswith("corrcolor."):
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, replacement)


def _replace_method(cls, attr: str, make) -> None:
    setattr(cls, attr, make(getattr(cls, attr)))


class LapClock:
    """Lap times of a stage, split at every return of ``Adam.step`` and
    ``VAE.latent_means`` (VAE training and latent pass, pretrain steps,
    probe steps).

    Every job does identical work, so lap k of one call repeats lap k of
    another.  ``node_count``, when given, is read at each split as well,
    so that consecutive differences give the graph nodes built per step.
    """

    def __init__(self, node_count=None):
        self.marks: list[float] | None = None  # None while no stage is timed
        self.nodes: list[int] = []
        self.node_count = node_count

    def install(self, adam_cls, vae_cls) -> None:
        def make(fn):
            def lapped(*args, **kwargs):
                out = fn(*args, **kwargs)
                if self.marks is not None:
                    self.marks.append(time.perf_counter())
                    if self.node_count is not None:
                        self.nodes.append(self.node_count())
                return out
            return lapped
        _replace_method(adam_cls, "step", make)
        _replace_method(vae_cls, "latent_means", make)

    def time(self, call):
        """``call()``'s result and its laps in seconds, which sum to its wall time."""
        self.nodes = []
        self.marks = [time.perf_counter()]
        try:
            out = call()
        finally:
            self.marks.append(time.perf_counter())
            marks, self.marks = self.marks, None
        return out, [b - a for a, b in zip(marks, marks[1:])]

    def node_deltas(self) -> list[int]:
        n = self.nodes
        return [b - a for a, b in zip(n, n[1:])]


def fastest_laps(calls: list[list[float]]) -> list[float]:
    """Lap-wise fastest over calls that did identical work."""
    return [min(laps) for laps in zip(*calls)]


class Counters:
    """Work counts taken at layer boundaries during a traced run."""

    def __init__(self):
        self.in_vae_train = 0
        self.augmented_rows = 0   # augmented rows produced during VAE training
        self.vae_rows = 0         # rows the VAE loss consumed during VAE training
        self.vae_latent_calls = 0  # single-row latent_means calls
        self.checkpoint_bytes = 0


def install_tracing(tracer, counters: Counters) -> None:
    """Wrap each corrcolor layer's public calls in tracer regions."""
    from corrcolor import (autograd, checkpoint, config, data, diagnostics, evaluation,
                           linalg, losses, networks, optim, target, training)

    region = tracer.region

    def span(name):
        return lambda fn: region(name, fn)

    # autograd: ops, their backward closures, the finite check, zero-fill
    enter, exit_ = tracer.enter, tracer.exit
    for fn_name, op in OPS.items():
        def make_op(fn, fwd=f"autograd.fwd.{op}", bwd=f"autograd.bwd.{op}"):
            def traced_op(*args, **kwargs):
                enter(fwd, False)
                try:
                    out = fn(*args, **kwargs)
                finally:
                    exit_()
                backward = out._backward
                if backward is not None:
                    def traced_backward(g):
                        enter(bwd, False)
                        try:
                            backward(g)
                        finally:
                            exit_()
                    out._backward = traced_backward
                return out
            return traced_op
        _replace_everywhere(autograd, fn_name, make_op)
    autograd._check_finite = region("autograd.finite_check", autograd._check_finite,
                                    record=False)
    # backward() zero-fills each node's gradient with np.zeros_like; a copy
    # of the numpy namespace for the autograd module times only that call
    traced_np = types.ModuleType("numpy")
    traced_np.__dict__.update(vars(autograd.np))
    traced_np.zeros_like = region("autograd.zero_fill", autograd.np.zeros_like, record=False)
    autograd.np = traced_np
    _replace_method(autograd.Tensor, "backward", span("autograd.backward"))

    _replace_method(optim.Adam, "step", span("optim.step"))
    _replace_method(optim.Adam, "zero_grad", span("optim.zero_grad"))

    _replace_method(networks.Backbone, "forward", span("networks.backbone"))
    _replace_method(networks.Projector, "__call__", span("networks.projector"))
    _replace_method(networks.BatchNorm, "__call__", span("networks.batchnorm"))
    _replace_method(networks.VAE, "forward", span("networks.vae_forward"))

    def make_latent(fn):
        traced = region("networks.vae_latent", fn)

        def latent_means(vae, x):
            if x.shape[0] == 1:
                counters.vae_latent_calls += 1
            return traced(vae, x)
        return latent_means
    _replace_method(networks.VAE, "latent_means", make_latent)

    def make_vae_loss(fn):
        traced = region("networks.vae_loss", fn)

        def vae_loss(recon, x, *args, **kwargs):
            if counters.in_vae_train:
                counters.vae_rows += x.shape[0]
            return traced(recon, x, *args, **kwargs)
        return vae_loss
    _replace_everywhere(networks, "vae_loss", make_vae_loss)

    for fn_name, name in (("normalize_columns", "losses.normalize"),
                          ("cross_correlation", "losses.cross_corr"),
                          ("auto_correlation", "losses.auto_corr"),
                          ("coloring_loss", "losses.coloring"),
                          ("whitening_loss", "losses.whitening")):
        _replace_everywhere(losses, fn_name, span(name))

    def make_augment_pair(fn):
        traced = region("data.augment", fn)

        def augment_batch_pair(features, *args, **kwargs):
            if counters.in_vae_train:
                counters.augmented_rows += 2 * features.shape[0]
            return traced(features, *args, **kwargs)
        return augment_batch_pair
    _replace_everywhere(data, "augment_batch_pair", make_augment_pair)
    _replace_everywhere(data, "augment_once", span("data.augment"))
    _replace_everywhere(data, "generate_sparse_dense", span("data.generate"))

    def make_vae_train(fn):
        traced = region("target.vae_train", fn)

        def train(*args, **kwargs):
            counters.in_vae_train += 1
            try:
                return traced(*args, **kwargs)
            finally:
                counters.in_vae_train -= 1
        return train
    _replace_everywhere(target, "train_vae_pair", make_vae_train)
    _replace_everywhere(target, "train_vae_single", make_vae_train)
    _replace_everywhere(target, "compute_target", span("target.matrix"))
    _replace_everywhere(target, "compute_target_auto", span("target.matrix"))
    _replace_everywhere(training, "prepare_target", span("target.prepare"))

    _replace_everywhere(diagnostics, "compute_report", span("diagnostics.report"))
    _replace_everywhere(linalg, "symmetric_eigenvalues", span("linalg.eigvals"))

    def make_save(fn):
        traced = region("checkpoint.save", fn)

        def save_arrays(path, *args, **kwargs):
            traced(path, *args, **kwargs)
            counters.checkpoint_bytes += os.path.getsize(path)
        return save_arrays
    _replace_everywhere(checkpoint, "save_arrays", make_save)
    _replace_everywhere(checkpoint, "load_arrays", span("checkpoint.load"))

    _replace_everywhere(training, "pretrain", span("training.pretrain"))
    _replace_everywhere(evaluation, "linear_eval", span("evaluation.linear_eval"))
    _replace_everywhere(evaluation, "encoder_features", span("evaluation.features"))
    _replace_everywhere(evaluation, "probe_accuracy", span("evaluation.probe"))
    _replace_everywhere(config, "parse_config", span("config.parse"))
