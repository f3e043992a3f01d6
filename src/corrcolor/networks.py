"""MLP building blocks: tapped backbone, projector heads, and the VAE.

All networks are built from ``Linear`` / ``BatchNorm`` layers over the
autograd engine; a linear layer and a training-mode batch norm are one
graph node each.  Construction takes an explicit seed, weights are
Kaiming-uniform, batch-norm starts at scale 1 / shift 0, and every
module exposes a flat named-parameter dict so checkpointing and the
optimizer can address tensors by name.
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
    def __init__(self, in_dim: int, out_dim: int, rng, name: str):
        bound = np.sqrt(6.0 / in_dim)
        self.name = name
        self.in_dim = in_dim
        self.out_dim = out_dim
        self.weight = ag.parameter(rng.uniform(-bound, bound, size=(in_dim, out_dim)),
                                   name=f"{name}.weight")
        self.bias = ag.parameter(np.zeros(out_dim), name=f"{name}.bias")

    def __call__(self, x: Tensor) -> Tensor:
        if x.shape[1] != self.in_dim:
            raise NetworkError(
                f"{self.name}: input width {x.shape[1]} does not match layer width {self.in_dim}"
            )
        return ag.linear(x, self.weight, self.bias)

    def parameters(self) -> dict[str, Tensor]:
        return {f"{self.name}.weight": self.weight, f"{self.name}.bias": self.bias}

    def state_arrays(self) -> dict[str, np.ndarray]:
        return {f"{self.name}.weight": self.weight.data, f"{self.name}.bias": self.bias.data}


class BatchNorm:
    """Per-feature batch normalization with running statistics.

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

    def __call__(self, x: Tensor, training: bool) -> Tensor:
        if x.shape[1] != self.dim:
            raise NetworkError(f"{self.name}: width {x.shape[1]} != {self.dim}")
        if training:
            m = x.shape[0]
            if m < 2:
                raise NetworkError(f"{self.name}: training-mode batch norm needs m >= 2")
            out, mean, var = ag.batch_norm(x, self.gamma, self.beta, BN_EPS)
            # running stats track the unbiased variance, outside the graph
            self.running_mean = (1.0 - BN_MOMENTUM) * self.running_mean + BN_MOMENTUM * mean
            self.running_var = ((1.0 - BN_MOMENTUM) * self.running_var
                                + BN_MOMENTUM * var * m / (m - 1))
            return out
        scale = 1.0 / np.sqrt(self.running_var + BN_EPS)
        xhat = ag.mul(ag.sub(x, self.running_mean), scale)
        return ag.add(ag.mul(xhat, self.gamma), self.beta)

    def parameters(self) -> dict[str, Tensor]:
        return {f"{self.name}.gamma": self.gamma, f"{self.name}.beta": self.beta}

    def state_arrays(self) -> dict[str, np.ndarray]:
        return {
            f"{self.name}.gamma": self.gamma.data,
            f"{self.name}.beta": self.beta.data,
            f"{self.name}.running_mean": self.running_mean,
            f"{self.name}.running_var": self.running_var,
        }


class _Module:
    """Shared plumbing for layer stacks."""

    layers: list

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

    def load_state_arrays(self, arrays: dict[str, np.ndarray], strict: bool = True) -> None:
        mine = self.state_arrays()
        for name, current in mine.items():
            if name not in arrays:
                if strict:
                    raise NetworkError(f"missing tensor '{name}' in state")
                continue
            incoming = np.asarray(arrays[name], dtype=np.float64)
            if incoming.shape != current.shape:
                raise NetworkError(
                    f"shape mismatch for '{name}': checkpoint {incoming.shape} vs model {current.shape}"
                )
            current[...] = incoming

    def param_count(self) -> int:
        return sum(p.data.size for p in self.parameters().values())


# ---------------------------------------------------------------------
# backbone with tap layer
# ---------------------------------------------------------------------


@dataclass(frozen=True)
class EncoderSpec:
    """Widths of the backbone layers plus the tap location.

    ``widths[i-1]`` is the output width of layer i (1-based); the tap
    exposes the activation of layer ``tap_index``.  By default the tap
    must sit strictly before the final layer; ``allow_tap_at_final``
    relaxes that for the head-location ablation.
    """

    input_dim: int
    widths: tuple[int, ...]
    tap_index: int
    batch_norm: bool = True
    allow_tap_at_final: bool = False

    def __post_init__(self):
        if len(self.widths) == 0:
            raise NetworkError("encoder needs at least one layer")
        limit = len(self.widths) if self.allow_tap_at_final else len(self.widths) - 1
        if not (1 <= self.tap_index <= limit):
            raise NetworkError(
                f"tap index {self.tap_index} invalid for {len(self.widths)} layers "
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

    def __init__(self, spec: EncoderSpec, seed: int, name: str = "backbone"):
        rng = np.random.default_rng(seed)
        self.spec = spec
        self.name = name
        self.layers = []
        self._blocks = []
        prev = spec.input_dim
        for i, width in enumerate(spec.widths, start=1):
            linear = Linear(prev, width, rng, f"{name}.l{i}")
            bn = BatchNorm(width, f"{name}.bn{i}") if spec.batch_norm else None
            self.layers.append(linear)
            if bn is not None:
                self.layers.append(bn)
            self._blocks.append((linear, bn))
            prev = width

    def forward(self, x, training: bool):
        """Returns (tap activation, final activation)."""
        h = ag.astensor(x)
        if h.data.ndim != 2:
            raise NetworkError(f"backbone expects a 2-D batch, got shape {h.shape}")
        tap = None
        for i, (linear, bn) in enumerate(self._blocks, start=1):
            h = linear(h)
            if bn is not None:
                h = bn(h, training)
            h = ag.relu(h)
            if i == self.spec.tap_index:
                tap = h
        return tap, h


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
            raise NetworkError(f"projector takes exactly three layer widths, got {self.widths}")

    @property
    def output_dim(self) -> int:
        return self.widths[2]


class Projector(_Module):
    def __init__(self, spec: ProjectorSpec, input_dim: int, seed: int, name: str = "projector"):
        rng = np.random.default_rng(seed)
        self.spec = spec
        self.name = name
        w1, w2, w3 = spec.widths
        self.l1 = Linear(input_dim, w1, rng, f"{name}.l1")
        self.l2 = Linear(w1, w2, rng, f"{name}.l2")
        self.l3 = Linear(w2, w3, rng, f"{name}.l3")
        self.bn1 = BatchNorm(w1, f"{name}.bn1") if spec.batch_norm else None
        self.bn2 = BatchNorm(w2, f"{name}.bn2") if spec.batch_norm else None
        self.layers = [l for l in (self.l1, self.bn1, self.l2, self.bn2, self.l3) if l is not None]

    def __call__(self, x, training: bool) -> Tensor:
        h = self.l1(ag.astensor(x))
        if self.bn1 is not None:
            h = self.bn1(h, training)
        h = ag.relu(h)
        h = self.l2(h)
        if self.bn2 is not None:
            h = self.bn2(h, training)
        h = ag.relu(h)
        return self.l3(h)


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


def reparameterize(mu: Tensor, logvar: Tensor, eps: np.ndarray) -> Tensor:
    """z = mu + exp(logvar / 2) * eps with eps treated as constant."""
    return ag.add(mu, ag.mul(ag.exp(ag.mul(logvar, 0.5)), eps))


class VAE(_Module):
    def __init__(self, spec: VAESpec, seed: int, name: str = "vae"):
        rng = np.random.default_rng(seed)
        self.spec = spec
        self.name = name
        self.layers = []

        self.enc = []
        prev = spec.input_dim
        for i, width in enumerate(spec.encoder_widths, start=1):
            layer = Linear(prev, width, rng, f"{name}.enc{i}")
            self.enc.append(layer)
            self.layers.append(layer)
            prev = width
        self.mu_head = Linear(prev, spec.latent_dim, rng, f"{name}.mu")
        self.logvar_head = Linear(prev, spec.latent_dim, rng, f"{name}.logvar")
        self.layers += [self.mu_head, self.logvar_head]

        self.dec = []
        prev = spec.latent_dim
        for i, width in enumerate(reversed(spec.encoder_widths), start=1):
            layer = Linear(prev, width, rng, f"{name}.dec{i}")
            self.dec.append(layer)
            self.layers.append(layer)
            prev = width
        self.out_layer = Linear(prev, spec.input_dim, rng, f"{name}.out")
        self.layers.append(self.out_layer)

    def encode(self, x) -> tuple[Tensor, Tensor]:
        h = ag.astensor(x)
        for layer in self.enc:
            h = ag.relu(layer(h))
        return self.mu_head(h), self.logvar_head(h)

    def decode(self, z) -> Tensor:
        h = ag.astensor(z)
        for layer in self.dec:
            h = ag.relu(layer(h))
        return self.out_layer(h)

    def forward(self, x, rng=None, deterministic: bool = False):
        """Returns (reconstruction, mu, logvar, z).

        ``deterministic`` short-circuits sampling with z = mu; otherwise
        eps is drawn from ``rng`` so runs are replayable by seed.
        """
        mu, logvar = self.encode(x)
        if deterministic:
            z = mu
        else:
            if rng is None:
                raise NetworkError("stochastic VAE forward needs an rng")
            eps = rng.standard_normal(mu.shape)
            z = reparameterize(mu, logvar, eps)
        return self.decode(z), mu, logvar, z

    def latent_means(self, x) -> np.ndarray:
        """Deterministic latent coordinates for a raw batch."""
        mu, _ = self.encode(x)
        return mu.data


def vae_loss(recon, x, mu, logvar, beta_kl: float = 1.0) -> Tensor:
    """Mean squared reconstruction error plus beta-weighted Gaussian KL.

    The KL term is 0.5 * sum_dims(mu^2 + e^logvar - 1 - logvar),
    averaged over the batch.
    """
    recon = ag.astensor(recon)
    x = ag.astensor(x)
    if recon.shape != x.shape:
        raise NetworkError(f"reconstruction shape {recon.shape} != input shape {x.shape}")
    mse = ag.tmean(ag.square(ag.sub(recon, x)))
    kl_terms = ag.sub(ag.sub(ag.add(ag.square(mu), ag.exp(logvar)), 1.0), logvar)
    kl = ag.mul(ag.tmean(ag.tsum(kl_terms, axis=1)), 0.5)
    return ag.add(mse, ag.mul(kl, beta_kl))


def vae_spec_for(input_dim: int, encoder: EncoderSpec, latent_dim: int) -> VAESpec:
    """VAE shaped to match a backbone truncated at its tap layer."""
    return VAESpec(input_dim=input_dim,
                   encoder_widths=tuple(encoder.widths[:encoder.tap_index]),
                   latent_dim=latent_dim)
