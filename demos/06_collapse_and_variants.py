"""Collapse diagnostics and the single-network auto-correlation variant.

Part 1 reproduces, at desk scale, the complete-collapse comparison: in a
deliberately collapse-prone setup (alpha = 0, no batch norm in the
heads), training with the coloring term keeps the output spread while
the plain run degenerates.

Part 2 runs the auto-correlation variant: one network, both views fed,
symmetric correlation matrices, strictly fewer multiply-accumulates in
the correlation stage.
"""

import tempfile

import numpy as np

from corrcolor.data import Augmentation, SparseDenseSpec
from corrcolor.losses import LossConfig
from corrcolor.networks import EncoderSpec, ProjectorSpec
from corrcolor.training import (CollapseAbort, ExperimentConfig, TargetConfig,
                                VAETrainConfig, correlation_stage_macs, prepare_target,
                                pretrain)


def collapse_prone(lam, seed):
    return ExperimentConfig(
        dataset=SparseDenseSpec(num_samples=512, num_classes=4, sparse_dim=6,
                                dense_dim=26, signal=2.0, dense_noise=1.0, seed=3),
        augment=Augmentation(dense_noise_scale=1.0, dense_dropout_prob=0.3,
                             scale_jitter=(0.95, 1.05)),
        encoder=EncoderSpec(widths=(48, 48, 32), tap_index=2),
        coloring_head=ProjectorSpec((32, 32, 16), batch_norm=False),
        whitening_head=ProjectorSpec((32, 32, 16), batch_norm=False),
        loss=LossConfig(lam=lam, alpha=0.0),
        target=TargetConfig(source="vae"),
        vae_train=VAETrainConfig(epochs=20, beta_kl=0.01, batch_size=64),
        batch_size=64, epochs=60, seed=seed)


print("-- collapse comparison (alpha=0, no batch norm in heads) --")
target = prepare_target(collapse_prone(0.05, 0))
for lam in (0.0, 0.05):
    with tempfile.TemporaryDirectory() as tmp:
        try:
            run = pretrain(collapse_prone(lam, 0), target=target, run_dir=tmp)
            print(f"lambda={lam}: final variance {run.final_variance:.3f} "
                  f"(effective rank {run.metrics[-1].effective_rank:.1f})")
        except CollapseAbort as abort:
            print(f"lambda={lam}: complete collapse at epoch {abort.epoch} "
                  f"(variance {abort.run.final_variance:.3f})")

print("\n-- auto-correlation variant --")
auto_config = ExperimentConfig(
    dataset=SparseDenseSpec(num_samples=512, num_classes=4, sparse_dim=6, dense_dim=26,
                            signal=2.0, dense_noise=1.0, seed=3),
    augment=Augmentation(dense_noise_scale=1.0, dense_dropout_prob=0.3,
                         scale_jitter=(0.95, 1.05)),
    encoder=EncoderSpec(widths=(48, 48, 32), tap_index=2),
    coloring_head=ProjectorSpec((32, 32, 16)),
    whitening_head=ProjectorSpec((32, 32, 16)),
    loss=LossConfig(lam=0.05, variant="auto"),
    target=TargetConfig(source="vae"),
    vae_train=VAETrainConfig(epochs=20, beta_kl=0.01, batch_size=64),
    batch_size=64, epochs=30, seed=0)

auto_target = prepare_target(auto_config)
print("auto target symmetric:", np.allclose(auto_target.matrix.values,
                                            auto_target.matrix.values.T))
with tempfile.TemporaryDirectory() as tmp:
    run = pretrain(auto_config, target=auto_target, run_dir=tmp)
print("auto variant completed; final loss", round(run.metrics[-1].loss_total, 3))

m, d = 64, 16
print("correlation-stage MACs per step at m={}, d={}:".format(m, d))
print("  cross:", correlation_stage_macs("cross", m, d, d))
print("  auto: ", correlation_stage_macs("auto", m, d, d))
