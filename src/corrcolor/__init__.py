"""Desk-scale self-supervised pretraining testbed built on correlation
coloring and whitening objectives, with collapse diagnostics and a
linear-evaluation harness."""

from .autograd import Tensor, NonFiniteError, ShapeError, astensor, parameter
from .data import (Dataset, ImageAugmentation, SparseDenseSpec, VectorAugmentation,
                   augment_pair, generate_sparse_dense, load_image_set)
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
                       load_model, pretrain, resume_from)
from .evaluation import EvalResult, ablation_sweep, linear_eval

__version__ = "0.1.0"
