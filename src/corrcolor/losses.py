"""Correlation matrices and the coloring / whitening objectives.

Embedding batches are normalized per feature column (zero mean, unit
Euclidean norm over the batch), after which the cross-correlation
between two views is a plain matrix product whose entries live in
[-1, 1].  The coloring loss pulls that matrix toward a fixed target;
the whitening loss pulls a second one toward the identity.  A Gaussian
negative log-posterior over the same matrices is provided as an
independent statistical reading of the combined objective: its
gradients are proportional to the loss gradients (factor 1/(2*sigma^2))
when both weighting factors are 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autograd as ag
from .autograd import Tensor

CORRELATION_KINDS = ("cross", "whitening", "target", "auto")
BOUND_SLACK = 1e-9


class LossError(Exception):
    pass


class CollapseError(LossError):
    """An embedding column is constant across the batch."""

    def __init__(self, columns, message=None):
        self.columns = list(columns)
        super().__init__(message or
                         f"zero-variance embedding column(s) {self.columns}: "
                         "batch is constant along these coordinates")


# ---------------------------------------------------------------------
# correlation matrix artifact
# ---------------------------------------------------------------------


@dataclass
class CorrelationMatrix:
    """A d x d correlation matrix with a role tag.

    ``auto`` matrices get their diagonal pinned to exactly 1, which is
    what the construction from unit-norm columns guarantees up to
    rounding.
    """

    values: np.ndarray
    kind: str

    def __post_init__(self):
        if self.kind not in CORRELATION_KINDS:
            raise LossError(f"unknown correlation kind {self.kind!r}")
        self.values = np.array(self.values, dtype=np.float64)
        if self.values.ndim != 2 or self.values.shape[0] != self.values.shape[1]:
            raise LossError(f"correlation matrix must be square, got {self.values.shape}")
        if np.any(np.abs(self.values) > 1.0 + BOUND_SLACK):
            worst = float(np.max(np.abs(self.values)))
            raise LossError(f"correlation entry out of [-1, 1]: magnitude {worst}")
        if self.kind == "auto":
            if np.any(np.abs(self.values.diagonal() - 1.0) > BOUND_SLACK):
                raise LossError("auto-correlation diagonal must be 1")
            np.fill_diagonal(self.values, 1.0)
        self.values.flags.writeable = False

    @property
    def dim(self) -> int:
        return self.values.shape[0]


# ---------------------------------------------------------------------
# normalization and correlation (differentiable)
# ---------------------------------------------------------------------


def find_constant_columns(batch: np.ndarray) -> list[int]:
    """Indices of columns that are exactly constant across the batch."""
    return [int(i) for i in np.flatnonzero(batch.max(axis=0) == batch.min(axis=0))]


def normalize_columns(batch) -> Tensor:
    """Center each column and scale it to unit Euclidean norm.

    A constant column cannot be normalized; that is the complete-collapse
    signature, raised as CollapseError rather than patched over.
    """
    z = ag.astensor(batch)
    if z.data.ndim != 2 or z.shape[0] < 2:
        raise LossError(f"normalization needs an (m >= 2) x d batch, got {z.shape}")
    constant = find_constant_columns(z.data)
    if constant:
        raise CollapseError(constant)
    return ag.unit_columns(z)


def cross_correlation(z1, z2) -> Tensor:
    """Correlation between two column-normalized views: C = Z1^T Z2."""
    z1, z2 = ag.astensor(z1), ag.astensor(z2)
    if z1.shape != z2.shape:
        raise LossError(f"view shapes differ: {z1.shape} vs {z2.shape}")
    return ag.gram(z1, z2)


def auto_correlation(z) -> Tensor:
    """Self-correlation of one column-normalized batch: C' = Z^T Z."""
    z = ag.astensor(z)
    if z.data.ndim != 2 or z.shape[0] < 2:
        raise LossError(f"auto-correlation needs an (m >= 2) x d batch, got {z.shape}")
    return ag.gram(z, z)


# ---------------------------------------------------------------------
# losses
# ---------------------------------------------------------------------


def _lift_matrix(value) -> Tensor:
    if isinstance(value, CorrelationMatrix):
        return ag.astensor(value.values)
    return ag.astensor(value)


def coloring_loss(c, e) -> Tensor:
    """Squared Frobenius distance sum_ij (C_ij - E_ij)^2; E is constant."""
    c = _lift_matrix(c)
    e_values = e.values if isinstance(e, CorrelationMatrix) else np.asarray(e, dtype=np.float64)
    if c.shape != e_values.shape:
        raise LossError(f"correlation/target shapes differ: {c.shape} vs {e_values.shape}")
    return ag.sq_dist(c, e_values)


def whitening_loss(w, alpha: float) -> Tensor:
    """Invariance term sum_i (1 - W_ii)^2 plus alpha-weighted redundancy
    term sum_{i != j} W_ij^2."""
    w = _lift_matrix(w)
    if w.data.ndim != 2 or w.shape[0] != w.shape[1]:
        raise LossError(f"whitening loss needs a square matrix, got {w.shape}")
    eye = np.eye(w.shape[0])
    return ag.sq_dist(w, eye, weight=np.where(eye == 1.0, 1.0, float(alpha)))


def total_loss(loss_w, loss_c, lam: float) -> Tensor:
    """Combined objective: whitening + lambda * coloring."""
    if lam < 0:
        raise LossError(f"lambda must be non-negative, got {lam}")
    return ag.add(ag.astensor(loss_w), ag.mul(ag.astensor(loss_c), float(lam)))


def neg_log_posterior(c, w, e, sigma: float) -> Tensor:
    """Negative log of the Gaussian likelihood over both matrices.

    Every C_ij is read as N(E_ij, sigma^2); W_ii as N(1, sigma^2) and
    W_ij (i != j) as N(0, sigma^2).  Normalization constants are kept,
    so the value is an honest negative log-density, and the gradient
    with respect to either matrix is residual / sigma^2.
    """
    if sigma <= 0:
        raise LossError(f"sigma must be positive, got {sigma}")
    c = _lift_matrix(c)
    w = _lift_matrix(w)
    e_values = e.values if isinstance(e, CorrelationMatrix) else np.asarray(e, dtype=np.float64)
    if c.shape != e_values.shape or w.shape != c.shape:
        raise LossError(f"matrix shapes differ: C {c.shape}, W {w.shape}, E {e_values.shape}")
    d = c.shape[0]
    var2 = 2.0 * sigma * sigma
    log_norm = 0.5 * np.log(2.0 * np.pi * sigma * sigma)

    quad = ag.mul(ag.add(ag.sq_dist(c, e_values), ag.sq_dist(w, np.eye(d))), 1.0 / var2)
    constants = (d * d + d * d) * log_norm  # d^2 coloring terms + d^2 whitening terms
    return ag.add(quad, constants)


# ---------------------------------------------------------------------
# lambda weighting
# ---------------------------------------------------------------------


@dataclass(frozen=True)
class LossConfig:
    """Weights of the combined objective.

    ``lam`` is either static or, when ``lam_schedule`` is given, looked
    up per block of ``lam_block_epochs`` epochs with the last value
    extending past the schedule.  ``variant`` selects whether training
    correlates two views (cross) or one view with itself (auto).
    """

    lam: float = 0.05
    lam_schedule: tuple[float, ...] | None = None
    lam_block_epochs: int = 50
    alpha: float = 0.01
    sigma: float = 1.0
    variant: str = "cross"

    def __post_init__(self):
        if self.lam < 0 or self.alpha < 0:
            raise LossError("lambda and alpha must be non-negative")
        if self.sigma <= 0:
            raise LossError("sigma must be positive")
        if self.variant not in ("cross", "auto"):
            raise LossError(f"unknown variant {self.variant!r}")
        if self.lam_schedule is not None:
            if len(self.lam_schedule) == 0:
                raise LossError("empty lambda schedule")
            if any(v < 0 for v in self.lam_schedule):
                raise LossError("lambda schedule values must be non-negative")
            if self.lam_block_epochs < 1:
                raise LossError("schedule block length must be >= 1")

    def coloring_active(self) -> bool:
        if self.lam_schedule is not None:
            return any(v > 0 for v in self.lam_schedule)
        return self.lam > 0


def lambda_at(config: LossConfig, epoch: int) -> float:
    """Coloring weight for a (0-based) epoch."""
    if epoch < 0:
        raise LossError(f"epoch must be non-negative, got {epoch}")
    if config.lam_schedule is None:
        return config.lam
    block = min(epoch // config.lam_block_epochs, len(config.lam_schedule) - 1)
    return config.lam_schedule[block]
