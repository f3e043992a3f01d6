"""MLP building blocks: tapped backbone, projector heads, and the VAE.

A layer is one object: a ``Linear`` (affine map, then a ReLU if
``relu``) or a ``BatchNorm`` (a ``Linear`` normalized before its ReLU).
Every network is a list of layers run by one loop (``_run``); in
training mode a layer is one ``ag.dense`` graph node, in inference mode
one ``ag.dense_inference`` call, which maps arrays to arrays and builds
no graph.  The VAE carries a leading member axis, so that the VAE pair
of the target pass trains as one model.  Construction takes an explicit
seed, weights are Kaiming-uniform, batch-norm starts at scale 1 / shift
0, and every module exposes a flat named-parameter dict so checkpointing
and the optimizer can address tensors by name.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autograd as ag
from .autograd import Tensor

BN_EPS = 1e-5
BN_MOMENTUM = 0.1


class NetworkError(Exception):
    pass


class Linear:
    """An affine layer, then a ReLU if ``relu``.  Given a list of
    generators instead of one, the layer gets a leading member axis (see
    ``autograd.dense``), each member's weights drawn from its own
    generator."""

    def __init__(self, in_dim: int, out_dim: int, rng, name: str, relu: bool = False):
        bound = np.sqrt(6.0 / in_dim)
        self.name = name
        self.in_dim = in_dim
        self.out_dim = out_dim
        self.relu = relu
        if isinstance(rng, list):
            weight = np.stack([r.uniform(-bound, bound, size=(in_dim, out_dim)) for r in rng])
        else:
            weight = rng.uniform(-bound, bound, size=(in_dim, out_dim))
        self.weight = ag.parameter(weight, name=f"{name}.weight")
        self.bias = ag.parameter(np.zeros(weight.shape[:-2] + (out_dim,)), name=f"{name}.bias")

    def __call__(self, x, training: bool):
        """The layer's map of ``x``: one graph node when ``training``, else
        an array."""
        self.check_input(x)
        if not training:
            return ag.dense_inference(x, self.weight.data, self.bias.data, self.name,
                                      relu=self.relu)
        return ag.dense(x, self.weight, self.bias, relu=self.relu)[0]

    def check_input(self, x) -> None:
        if x.shape[1] != self.in_dim:
            raise NetworkError(
                f"{self.name}: input width {x.shape[1]} does not match layer width {self.in_dim}"
            )

    def parameters(self) -> dict[str, Tensor]:
        return {f"{self.name}.weight": self.weight, f"{self.name}.bias": self.bias}

    def state_arrays(self) -> dict[str, np.ndarray]:
        return {f"{self.name}.weight": self.weight.data, f"{self.name}.bias": self.bias.data}


class BatchNorm(Linear):
    """A ``Linear`` layer whose output is batch-normalized per feature
    before the ReLU, ``bn_name`` naming its ``gamma``, ``beta`` and running
    statistics.  Training mode normalizes by batch statistics
    (differentiably) and updates the running estimates; inference mode
    normalizes by the running estimates, a fixed affine map."""

    def __init__(self, in_dim: int, out_dim: int, rng, name: str, bn_name: str,
                 relu: bool = False):
        super().__init__(in_dim, out_dim, rng, name, relu)
        self.bn_name = bn_name
        self.gamma = ag.parameter(np.ones(out_dim), name=f"{bn_name}.gamma")
        self.beta = ag.parameter(np.zeros(out_dim), name=f"{bn_name}.beta")
        self.running_mean = np.zeros(out_dim)
        self.running_var = np.ones(out_dim)

    def __call__(self, x, training: bool):
        self.check_input(x)
        if not training:
            norm = (self.gamma.data, self.beta.data, self.running_mean, self.running_var, BN_EPS)
            return ag.dense_inference(x, self.weight.data, self.bias.data, self.name, norm,
                                      self.relu)
        m = x.shape[0]
        if m < 2:
            raise NetworkError(f"{self.bn_name}: training-mode batch norm needs m >= 2")
        out, mean, var = ag.dense(x, self.weight, self.bias, self.gamma, self.beta, BN_EPS,
                                  relu=self.relu)
        # running stats track the unbiased variance, outside the graph
        self.running_mean = (1.0 - BN_MOMENTUM) * self.running_mean + BN_MOMENTUM * mean
        self.running_var = ((1.0 - BN_MOMENTUM) * self.running_var
                            + BN_MOMENTUM * var * m / (m - 1))
        return out

    def parameters(self) -> dict[str, Tensor]:
        return {**super().parameters(),
                f"{self.bn_name}.gamma": self.gamma, f"{self.bn_name}.beta": self.beta}

    def state_arrays(self) -> dict[str, np.ndarray]:
        name = self.bn_name
        return {**super().state_arrays(), f"{name}.gamma": self.gamma.data,
                f"{name}.beta": self.beta.data, f"{name}.running_mean": self.running_mean,
                f"{name}.running_var": self.running_var}


def _stack(rng, in_dim: int, specs) -> list[Linear]:
    """One layer per (name, width, batch norm name or None, relu) of
    ``specs``, each fed by the one before it, the first by ``in_dim``, in
    the order of the weight draws and of the checkpoint records."""
    layers = []
    for name, width, bn_name, relu in specs:
        layers.append(Linear(in_dim, width, rng, name, relu) if bn_name is None
                      else BatchNorm(in_dim, width, rng, name, bn_name, relu))
        in_dim = width
    return layers


def _run(layers: list[Linear], x, training: bool):
    """``x`` through ``layers``: graph nodes if ``training``, else arrays."""
    for layer in layers:
        x = layer(x, training)
    return x


class _Module:
    """Shared plumbing for layer stacks."""

    layers: list

    def parameters(self) -> dict[str, Tensor]:
        return {k: v for layer in self.layers for k, v in layer.parameters().items()}

    def state_arrays(self) -> dict[str, np.ndarray]:
        return {k: v for layer in self.layers for k, v in layer.state_arrays().items()}

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
        self.layers = _stack(np.random.default_rng(seed), input_dim, [
            (f"{name}.l{i}", width, f"{name}.bn{i}" if spec.batch_norm else None, True)
            for i, width in enumerate(spec.widths, start=1)])

    def forward(self, x, training: bool):
        """Returns (tap activation, final activation)."""
        if len(x.shape) != 2:
            raise NetworkError(f"backbone expects a 2-D batch, got shape {x.shape}")
        tap = _run(self.layers[:self.spec.tap_index], x, training)
        return tap, _run(self.layers[self.spec.tap_index:], tap, training)


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
        self.layers = _stack(np.random.default_rng(seed), input_dim, [
            (f"{name}.l{i}", width, f"{name}.bn{i}" if spec.batch_norm and i < 3 else None,
             i < 3) for i, width in enumerate(spec.widths, start=1)])

    def __call__(self, x, training: bool):
        return _run(self.layers, x, training)


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
        self.members = len(rngs)
        widths = spec.encoder_widths
        self.enc = _stack(rngs, spec.input_dim, [
            (f"{name}.enc{i}", width, None, True) for i, width in enumerate(widths, start=1)])
        self.mu = Linear(widths[-1], spec.latent_dim, rngs, f"{name}.mu")
        self.logvar = Linear(widths[-1], spec.latent_dim, rngs, f"{name}.logvar")
        self.dec = _stack(rngs, spec.latent_dim, [
            *((f"{name}.dec{i}", width, None, True)
              for i, width in enumerate(reversed(widths), start=1)),
            (f"{name}.out", spec.input_dim, None, False)])
        self.layers = [*self.enc, self.mu, self.logvar, *self.dec]

    def encode(self, x, training: bool = True):
        h = _run(self.enc, x, training)
        return self.mu(h, training), self.logvar(h, training)

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
        return self.mu(_run(self.enc, x, False), False)


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
