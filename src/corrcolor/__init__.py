"""Desk-scale self-supervised pretraining testbed built on correlation
coloring and whitening objectives, with collapse diagnostics and a
linear-evaluation harness.

Importing the package pins BLAS to one thread per process before numpy
loads (a run's bits depend on the thread count), in ``os.environ`` so
that spawned workers inherit it.  ``BLAS_PINNED`` records whether this
process's BLAS loaded under the pin: import corrcolor before numpy.
"""

import os as _os
import sys as _sys

BLAS_PINNED = "numpy" not in _sys.modules or _os.environ.get("OPENBLAS_NUM_THREADS") == "1"
_os.environ.update(dict.fromkeys(
    ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), "1"))

from .autograd import Tensor, NonFiniteError, ShapeError, astensor, parameter
from .data import Augmentation, Dataset, SparseDenseSpec, generate_sparse_dense
from .diagnostics import (alignment, covariance_spectrum, effective_rank,
                          embedding_variance)
from .losses import (CollapseError, CorrelationMatrix, LossConfig, auto_correlation,
                     coloring_loss, cross_correlation, lambda_at, neg_log_posterior,
                     normalize_columns, total_loss, whitening_loss)
from .networks import (Backbone, EncoderSpec, Projector, ProjectorSpec, VAE, VAESpec,
                       vae_loss)
from .optim import Adam
from .target import (TargetArtifact, compute_target, compute_target_auto, identity_target,
                     load_target, save_target, train_vae_pair, train_vae_single)
from .training import (ExperimentConfig, Model, TrainingRun, correlation_stage_macs,
                       load_model, pretrain)
from .evaluation import EvalResult, ablation_sweep, linear_eval

__version__ = "0.1.0"
