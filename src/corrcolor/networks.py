"""MLP building blocks: tapped backbone, projector heads, and the VAE.

All networks are built from ``Linear`` / ``BatchNorm`` layers over the
autograd engine; a whole layer (linear, batch norm if any, ReLU if any)
is one ``ag.dense`` graph node in both modes.  The VAE carries a leading
member axis, so that the VAE pair of the target pass trains as one
model.  Construction takes an explicit seed, weights are Kaiming-uniform,
batch-norm starts at scale 1 / shift 0, and every module exposes a flat
named-parameter dict so checkpointing and the optimizer can address
tensors by name.
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

    def __call__(self, x: Tensor, relu: bool = False) -> Tensor:
        """This affine map of ``x``, then a ReLU if ``relu``: one graph node."""
        self.check_input(x)
        return ag.dense(x, self.weight, self.bias, relu=relu)[0]

    def check_input(self, x: Tensor) -> None:
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

    def __call__(self, linear: Linear, x: Tensor, training: bool, relu: bool = False) -> Tensor:
        """``linear``'s map of ``x``, normalized, then a ReLU if ``relu``:
        one graph node."""
        linear.check_input(x)
        m = x.shape[0]
        if training and m < 2:
            raise NetworkError(f"{self.name}: training-mode batch norm needs m >= 2")
        stats = None if training else (self.running_mean, self.running_var)
        out, mean, var = ag.dense(x, linear.weight, linear.bias, self.gamma, self.beta, BN_EPS,
                                  stats, relu)
        if training:
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


def _hidden(linear: Linear, bn: BatchNorm | None, x: Tensor, training: bool) -> Tensor:
    """A hidden layer: linear, batch norm if any, ReLU, as one node."""
    return linear(x, relu=True) if bn is None else bn(linear, x, training, relu=True)


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

    def param_count(self) -> int:
        return sum(p.data.size for p in self.parameters().values())


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
        rng = np.random.default_rng(seed)
        self.spec = spec
        self.name = name
        self.layers = []
        self._blocks = []
        prev = input_dim
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
            h = _hidden(linear, bn, h, training)
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
            raise NetworkError(f"widths must be exactly three layer widths, got {self.widths}")
        _check_widths(self.widths)

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
        h = _hidden(self.l1, self.bn1, ag.astensor(x), training)
        return self.l3(_hidden(self.l2, self.bn2, h, training))


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

        self.enc = []
        prev = spec.input_dim
        for i, width in enumerate(spec.encoder_widths, start=1):
            layer = Linear(prev, width, rngs, f"{name}.enc{i}")
            self.enc.append(layer)
            self.layers.append(layer)
            prev = width
        self.mu_head = Linear(prev, spec.latent_dim, rngs, f"{name}.mu")
        self.logvar_head = Linear(prev, spec.latent_dim, rngs, f"{name}.logvar")
        self.layers += [self.mu_head, self.logvar_head]

        self.dec = []
        prev = spec.latent_dim
        for i, width in enumerate(reversed(spec.encoder_widths), start=1):
            layer = Linear(prev, width, rngs, f"{name}.dec{i}")
            self.dec.append(layer)
            self.layers.append(layer)
            prev = width
        self.out_layer = Linear(prev, spec.input_dim, rngs, f"{name}.out")
        self.layers.append(self.out_layer)

    def _trunk(self, x) -> Tensor:
        """The encoder's hidden layers, shared by the mu and logvar heads."""
        h = ag.astensor(x)
        for layer in self.enc:
            h = layer(h, relu=True)
        return h

    def encode(self, x) -> tuple[Tensor, Tensor]:
        h = self._trunk(x)
        return self.mu_head(h), self.logvar_head(h)

    def decode(self, z) -> Tensor:
        h = ag.astensor(z)
        for layer in self.dec:
            h = layer(h, relu=True)
        return self.out_layer(h)

    def forward(self, x, eps=None):
        """Returns (reconstruction, mu, logvar, z).

        ``eps`` is the sampling noise, one row per row of ``x`` (member s's
        block of rows for member s), and z = mu + exp(logvar / 2) * eps;
        without it z = mu.
        """
        mu, logvar = self.encode(x)
        z = mu if eps is None else ag.reparameterize(mu, logvar, eps)
        return self.decode(z), mu, logvar, z

    def latent_means(self, x) -> np.ndarray:
        """Deterministic latent coordinates of a member-major raw batch:
        ``encode(x)[0]``, without the logvar head."""
        return self.mu_head(self._trunk(x)).data


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
