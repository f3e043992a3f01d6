"""MLP building blocks: tapped backbone, projector heads, and the VAE.

Every network is a stack of blocks, each a ``Linear`` layer with its
``BatchNorm`` if any and a ReLU if any, built by one block builder
(``_Module._blocks``) and run by one block loop (``_run``).  In training
mode a block is one ``ag.dense`` graph node; in inference mode it is one
``ag.dense_inference`` call, which maps arrays to arrays and builds no
graph.  The VAE carries a leading member axis, so that the VAE pair of
the target pass trains as one model.  Construction takes an explicit
seed, weights are Kaiming-uniform, batch-norm starts at scale 1 / shift
0, and every module exposes a flat named-parameter dict so checkpointing
and the optimizer can address tensors by name.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import autograd as ag
from .autograd import Tensor

BN_EPS = 1e-5
BN_MOMENTUM = 0.1


class NetworkError(Exception):
    pass


class Linear:
    """An affine layer.  Given a list of generators instead of one, the
    layer gets a leading member axis (see ``autograd.dense``), each
    member's weights drawn from its own generator."""

    def __init__(self, in_dim: int, out_dim: int, rng, name: str):
        bound = np.sqrt(6.0 / in_dim)
        self.name = name
        self.in_dim = in_dim
        self.out_dim = out_dim
        if isinstance(rng, list):
            weight = np.stack([r.uniform(-bound, bound, size=(in_dim, out_dim)) for r in rng])
        else:
            weight = rng.uniform(-bound, bound, size=(in_dim, out_dim))
        self.weight = ag.parameter(weight, name=f"{name}.weight")
        self.bias = ag.parameter(np.zeros(weight.shape[:-2] + (out_dim,)), name=f"{name}.bias")

    def __call__(self, x, training: bool, relu: bool = False):
        """This affine map of ``x``, then a ReLU if ``relu``: one graph node
        when ``training``, else an array."""
        self.check_input(x)
        if not training:
            return ag.dense_inference(x, self.weight.data, self.bias.data, self.name, relu=relu)
        return ag.dense(x, self.weight, self.bias, relu=relu)[0]

    def check_input(self, x) -> None:
        if x.shape[1] != self.in_dim:
            raise NetworkError(
                f"{self.name}: input width {x.shape[1]} does not match layer width {self.in_dim}"
            )

    def parameters(self) -> dict[str, Tensor]:
        return {f"{self.name}.weight": self.weight, f"{self.name}.bias": self.bias}

    def state_arrays(self) -> dict[str, np.ndarray]:
        return {f"{self.name}.weight": self.weight.data, f"{self.name}.bias": self.bias.data}


class BatchNorm:
    """Per-feature batch normalization of a ``Linear`` layer's output,
    with running statistics.

    Training mode normalizes by batch statistics (differentiably) and
    updates running estimates; inference mode is a fixed affine map of
    its input using the running estimates.
    """

    def __init__(self, dim: int, name: str):
        self.name = name
        self.dim = dim
        self.gamma = ag.parameter(np.ones(dim), name=f"{name}.gamma")
        self.beta = ag.parameter(np.zeros(dim), name=f"{name}.beta")
        self.running_mean = np.zeros(dim)
        self.running_var = np.ones(dim)

    def __call__(self, linear: Linear, x, training: bool, relu: bool = False):
        """``linear``'s map of ``x``, normalized, then a ReLU if ``relu``:
        one graph node when ``training``, else an array."""
        linear.check_input(x)
        if not training:
            norm = (self.gamma.data, self.beta.data, self.running_mean, self.running_var, BN_EPS)
            return ag.dense_inference(x, linear.weight.data, linear.bias.data, linear.name,
                                      norm, relu)
        m = x.shape[0]
        if m < 2:
            raise NetworkError(f"{self.name}: training-mode batch norm needs m >= 2")
        out, mean, var = ag.dense(x, linear.weight, linear.bias, self.gamma, self.beta, BN_EPS,
                                  relu=relu)
        # running stats track the unbiased variance, outside the graph
        self.running_mean = (1.0 - BN_MOMENTUM) * self.running_mean + BN_MOMENTUM * mean
        self.running_var = ((1.0 - BN_MOMENTUM) * self.running_var
                            + BN_MOMENTUM * var * m / (m - 1))
        return out

    def parameters(self) -> dict[str, Tensor]:
        return {f"{self.name}.gamma": self.gamma, f"{self.name}.beta": self.beta}

    def state_arrays(self) -> dict[str, np.ndarray]:
        return {
            f"{self.name}.gamma": self.gamma.data,
            f"{self.name}.beta": self.beta.data,
            f"{self.name}.running_mean": self.running_mean,
            f"{self.name}.running_var": self.running_var,
        }


class Block(NamedTuple):
    """One layer of a stack: ``linear``, its batch norm if any, a ReLU if ``relu``."""

    linear: Linear
    bn: BatchNorm | None
    relu: bool


def _run(blocks: list[Block], x, training: bool):
    """``x`` through ``blocks``: graph nodes if ``training``, else arrays."""
    for linear, bn, relu in blocks:
        x = linear(x, training, relu) if bn is None else bn(linear, x, training, relu)
    return x


class _Module:
    """Shared plumbing for layer stacks."""

    layers: list

    def _blocks(self, rng, in_dim: int, specs) -> list[Block]:
        """One block per (name, width, batch norm name or None, relu) of
        ``specs``, each fed by the one before it, the first by ``in_dim``.
        Their layers join ``self.layers`` in this order, which is the
        order of the weight draws and of the checkpoint records."""
        blocks = []
        for name, width, bn_name, relu in specs:
            block = Block(Linear(in_dim, width, rng, name),
                          None if bn_name is None else BatchNorm(width, bn_name), relu)
            self.layers += [layer for layer in block[:2] if layer is not None]
            blocks.append(block)
            in_dim = width
        return blocks

    def parameters(self) -> dict[str, Tensor]:
        out: dict[str, Tensor] = {}
        for layer in self.layers:
            out.update(layer.parameters())
        return out

    def state_arrays(self) -> dict[str, np.ndarray]:
        out: dict[str, np.ndarray] = {}
        for layer in self.layers:
            out.update(layer.state_arrays())
        return out

    def load_state_arrays(self, arrays: dict[str, np.ndarray]) -> None:
        for name, current in self.state_arrays().items():
            if name not in arrays:
                raise NetworkError(f"missing tensor '{name}' in state")
            incoming = np.asarray(arrays[name], dtype=np.float64)
            if incoming.shape != current.shape:
                raise NetworkError(
                    f"shape mismatch for '{name}': checkpoint {incoming.shape} vs model {current.shape}"
                )
            current[...] = incoming


# ---------------------------------------------------------------------
# backbone with tap layer
# ---------------------------------------------------------------------


def _check_widths(widths) -> None:
    if len(widths) == 0 or min(widths) < 1:
        raise NetworkError(f"widths must be one or more values >= 1, got {widths}")


@dataclass(frozen=True)
class EncoderSpec:
    """Widths of the backbone layers plus the tap location.

    ``widths[i-1]`` is the output width of layer i (1-based); the tap
    exposes the activation of layer ``tap_index``.  By default the tap
    must sit strictly before the final layer; ``allow_tap_at_final``
    relaxes that for the head-location ablation.
    """

    widths: tuple[int, ...] = (64, 64, 32)
    tap_index: int = 2
    batch_norm: bool = True
    allow_tap_at_final: bool = False

    def __post_init__(self):
        _check_widths(self.widths)
        limit = len(self.widths) if self.allow_tap_at_final else len(self.widths) - 1
        if not (1 <= self.tap_index <= limit):
            raise NetworkError(
                f"tap_index {self.tap_index} invalid for {len(self.widths)} layers "
                f"(allow_tap_at_final={self.allow_tap_at_final})"
            )

    @property
    def tap_dim(self) -> int:
        return self.widths[self.tap_index - 1]

    @property
    def output_dim(self) -> int:
        return self.widths[-1]


class Backbone(_Module):
    """MLP encoder exposing both the tap activation and the final output."""

    def __init__(self, spec: EncoderSpec, input_dim: int, seed: int, name: str = "backbone"):
        self.spec = spec
        self.name = name
        self.layers = []
        self.blocks = self._blocks(np.random.default_rng(seed), input_dim, [
            (f"{name}.l{i}", width, f"{name}.bn{i}" if spec.batch_norm else None, True)
            for i, width in enumerate(spec.widths, start=1)])

    def forward(self, x, training: bool):
        """Returns (tap activation, final activation)."""
        if len(x.shape) != 2:
            raise NetworkError(f"backbone expects a 2-D batch, got shape {x.shape}")
        tap = _run(self.blocks[:self.spec.tap_index], x, training)
        return tap, _run(self.blocks[self.spec.tap_index:], tap, training)


# ---------------------------------------------------------------------
# projector heads
# ---------------------------------------------------------------------


@dataclass(frozen=True)
class ProjectorSpec:
    """Exactly three linear layers; the first two may carry BN + ReLU."""

    widths: tuple[int, int, int]
    batch_norm: bool = True

    def __post_init__(self):
        if len(self.widths) != 3:
            raise NetworkError(f"widths must be exactly three layer widths, got {self.widths}")
        _check_widths(self.widths)

    @property
    def output_dim(self) -> int:
        return self.widths[2]


class Projector(_Module):
    def __init__(self, spec: ProjectorSpec, input_dim: int, seed: int, name: str = "projector"):
        self.spec = spec
        self.name = name
        self.layers = []
        self.blocks = self._blocks(np.random.default_rng(seed), input_dim, [
            (f"{name}.l{i}", width, f"{name}.bn{i}" if spec.batch_norm and i < 3 else None,
             i < 3) for i, width in enumerate(spec.widths, start=1)])

    def __call__(self, x, training: bool):
        return _run(self.blocks, x, training)


# ---------------------------------------------------------------------
# variational autoencoder
# ---------------------------------------------------------------------


@dataclass(frozen=True)
class VAESpec:
    """Encoder widths mirror the backbone up to its tap layer; the
    decoder mirrors the encoder back out to the input dimension."""

    input_dim: int
    encoder_widths: tuple[int, ...]
    latent_dim: int

    def __post_init__(self):
        if len(self.encoder_widths) == 0:
            raise NetworkError("VAE encoder needs at least one layer")
        if self.latent_dim < 1:
            raise NetworkError("latent dimension must be positive")


class VAE(_Module):
    """Independent VAEs of one spec, stacked along a leading member axis.

    ``seed`` gives one seed per member (an int gives a single member).
    Every weight is (members, in, out) and every bias (members, out); a
    batch is ``members`` member-major row blocks of equal size, block s
    going through member s.  Member s draws its weights from its own
    seed in the order a lone VAE would, and computes exactly what that
    lone VAE computes on its block, so the members train as one graph
    and one optimizer step without touching each other's numbers.
    """

    def __init__(self, spec: VAESpec, seed, name: str = "vae"):
        seeds = (seed,) if np.ndim(seed) == 0 else tuple(seed)
        rngs = [np.random.default_rng(s) for s in seeds]
        self.spec = spec
        self.name = name
        self.members = len(rngs)
        self.layers = []
        widths = spec.encoder_widths
        self.enc = self._blocks(rngs, spec.input_dim, [
            (f"{name}.enc{i}", width, None, True) for i, width in enumerate(widths, start=1)])
        self.mu = self._blocks(rngs, widths[-1], [(f"{name}.mu", spec.latent_dim, None, False)])
        self.logvar = self._blocks(rngs, widths[-1],
                                   [(f"{name}.logvar", spec.latent_dim, None, False)])
        self.dec = self._blocks(rngs, spec.latent_dim, [
            *((f"{name}.dec{i}", width, None, True)
              for i, width in enumerate(reversed(widths), start=1)),
            (f"{name}.out", spec.input_dim, None, False)])

    def encode(self, x, training: bool = True):
        h = _run(self.enc, x, training)
        return _run(self.mu, h, training), _run(self.logvar, h, training)

    def decode(self, z, training: bool = True):
        return _run(self.dec, z, training)

    def forward(self, x, eps=None, training: bool = True):
        """Returns (reconstruction, mu, logvar, z): graph nodes when
        ``training``, arrays otherwise.

        ``eps`` is the sampling noise, one row per row of ``x`` (member s's
        block of rows for member s), and z = mu + exp(logvar / 2) * eps;
        without it z = mu.  Inference takes no noise.
        """
        mu, logvar = self.encode(x, training)
        z = mu if eps is None else ag.reparameterize(mu, logvar, eps)
        return self.decode(z, training), mu, logvar, z

    def latent_means(self, x) -> np.ndarray:
        """Deterministic latent coordinates of a member-major raw batch:
        inference-mode ``encode(x)[0]``, without the logvar head."""
        return _run(self.mu, _run(self.enc, x, False), False)


def vae_loss(recon, x, mu, logvar, beta_kl: float = 1.0,
             members: int = 1) -> tuple[Tensor, np.ndarray]:
    """Mean squared reconstruction error plus beta-weighted Gaussian KL,
    and the reconstruction error alone.

    The KL term is 0.5 * sum_dims(mu^2 + e^logvar - 1 - logvar),
    averaged over the batch.  The input ``x`` is a constant.  The rows
    are the ``members`` member-major blocks of a stacked VAE.  Returns
    each member's own objective (a graph node) and each member's mean
    squared reconstruction error (an array, read off the objective's
    squared-distance sums).
    """
    recon = ag.astensor(recon)
    x = x.data if isinstance(x, Tensor) else np.asarray(x, dtype=np.float64)
    if recon.shape != x.shape:
        raise NetworkError(f"reconstruction shape {recon.shape} != input shape {x.shape}")
    sq_sums = ag.sq_dist(recon, x, members=members)
    block = x.size // members
    objective = ag.add(ag.mul(sq_sums, 1.0 / block),
                       ag.mul(ag.gaussian_kl(mu, logvar, members=members), beta_kl))
    return objective, sq_sums.data / block


def vae_spec_for(input_dim: int, encoder: EncoderSpec, latent_dim: int) -> VAESpec:
    """VAE shaped to match a backbone truncated at its tap layer."""
    return VAESpec(input_dim=input_dim,
                   encoder_widths=tuple(encoder.widths[:encoder.tap_index]),
                   latent_dim=latent_dim)
