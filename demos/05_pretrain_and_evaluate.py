"""End-to-end pretraining and linear evaluation, library-style.

Builds the target, pretrains the dual-view network, inspects the
per-epoch diagnostics, and scores a frozen-encoder linear probe; the
same flow the CLI wires together.
"""

import os
import tempfile

from corrcolor.data import Augmentation, SparseDenseSpec
from corrcolor.diagnostics import write_line_chart_svg
from corrcolor.evaluation import linear_eval
from corrcolor.losses import LossConfig
from corrcolor.networks import EncoderSpec, ProjectorSpec
from corrcolor.training import (EvalConfig, ExperimentConfig, TargetConfig, VAETrainConfig,
                                prepare_target, pretrain)

config = ExperimentConfig(
    dataset=SparseDenseSpec(num_samples=512, num_classes=4, sparse_dim=6, dense_dim=26,
                            signal=2.0, dense_noise=1.0, seed=3),
    augment=Augmentation(dense_noise_scale=1.0, dense_dropout_prob=0.3,
                         scale_jitter=(0.95, 1.05)),
    encoder=EncoderSpec(widths=(48, 48, 32), tap_index=2),
    coloring_head=ProjectorSpec((32, 32, 16)),
    whitening_head=ProjectorSpec((32, 32, 16)),
    loss=LossConfig(lam=0.05, alpha=0.01),
    target=TargetConfig(source="vae"),
    vae_train=VAETrainConfig(epochs=20, beta_kl=0.01, batch_size=64),
    eval=EvalConfig(probe_epochs=40),
    batch_size=64, epochs=30, seed=0)

print("building target from the VAE pair...")
target = prepare_target(config)
print("  dim:", target.dim, " source:", target.source)

with tempfile.TemporaryDirectory() as run_dir:
    print("pretraining", config.epochs, "epochs...")
    run = pretrain(config, target=target, run_dir=run_dir)
    first, last = run.metrics[0], run.metrics[-1]
    print(f"  loss    {first.loss_total:8.3f} -> {last.loss_total:8.3f}")
    print(f"  L_W     {first.loss_w:8.3f} -> {last.loss_w:8.3f}")
    print(f"  L_C     {first.loss_c:8.3f} -> {last.loss_c:8.3f}")
    print(f"  variance {first.variance:7.3f} -> {last.variance:7.3f}")
    print(f"  eff.rank {first.effective_rank:7.2f} -> {last.effective_rank:7.2f}")
    print(f"  alignment {first.alignment:6.3f} -> {last.alignment:6.3f}")
    print("  correlation-stage MACs per step:", run.macs_per_step)

    result = linear_eval(config, run.checkpoint_path)
    print(f"\nfrozen-encoder probe accuracy: {result.accuracy:.3f} "
          f"(chance would be {1 / 4:.3f})")

    chart = os.path.join(tempfile.gettempdir(), "training_curves.svg")
    write_line_chart_svg(chart, {
        "variance": [m.variance for m in run.metrics],
        "effective_rank": [m.effective_rank / 16 for m in run.metrics],
        "loss_w": [m.loss_w / run.metrics[0].loss_w for m in run.metrics],
    }, title="pretraining diagnostics (scaled)")
    print("chart written to", chart)
