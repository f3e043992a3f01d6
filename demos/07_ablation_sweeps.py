"""Ablation sweeps: one pretrain + probe per axis value.

Sweeps over the coloring weight, the projector output dimension, the
tap location, and the target source, mirroring the experiment drivers
used for the directional claims.  Kept tiny here so the whole script
runs in about a minute; bump sizes for real comparisons.
"""

import tempfile

from corrcolor.data import Augmentation, SparseDenseSpec
from corrcolor.evaluation import ablation_sweep
from corrcolor.losses import LossConfig
from corrcolor.networks import EncoderSpec, ProjectorSpec
from corrcolor.training import EvalConfig, ExperimentConfig, TargetConfig, VAETrainConfig

base = ExperimentConfig(
    dataset=SparseDenseSpec(num_samples=512, num_classes=4, sparse_dim=6, dense_dim=26,
                            signal=2.0, dense_noise=1.0, seed=3),
    augment=Augmentation(dense_noise_scale=2.0, dense_dropout_prob=0.5,
                         scale_jitter=(0.95, 1.05)),
    encoder=EncoderSpec(widths=(48, 48, 32), tap_index=2),
    coloring_head=ProjectorSpec((32, 32, 16)),
    whitening_head=ProjectorSpec((32, 32, 16)),
    loss=LossConfig(lam=0.05, alpha=0.01),
    target=TargetConfig(source="vae"),
    vae_train=VAETrainConfig(epochs=20, beta_kl=0.01, batch_size=64),
    eval=EvalConfig(probe_epochs=40),
    batch_size=64, epochs=40, seed=0, share_heads=False)

with tempfile.TemporaryDirectory() as out:
    for axis, values in (
            ("lambda", [0.0, 0.05, 1.0]),
            ("targetSource", ["vae", "autoencoder", "identity"]),
            ("tapIndex", [1, 2, 3]),          # 3 = tap at the final layer
            ("projectorDim", [8, 16])):
        rows = ablation_sweep(base, axis, values, out_dir=out)
        print(f"\n=== axis: {axis} ===")
        for row in rows:
            acc = f"{row['accuracy']:.3f}" if row["status"] == "ok" else row["error"][:50]
            print(f"  {axis}={row['value']!r:<14} seed={row['seed']}: {acc}")
