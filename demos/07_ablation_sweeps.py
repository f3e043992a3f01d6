"""Ablation sweeps: one pretrain + probe per config value.

Sweeps over the coloring weight, the target source, the KL weight of
the target's VAE (at 0 it is a plain autoencoder, the no-prior
control), the tap location (up to the final layer) and the projector
output dimension, mirroring the experiment drivers used for the
directional claims.  Each value is merged into the base config at a
dotted key, exactly as ``--set key=value`` is; without a key, a value
is a whole-config fragment, so coupled keys (both heads' widths) change
together.  Kept tiny here so the whole script runs in about a minute;
bump sizes for real comparisons.
"""

import os
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

# a sweep may run its values on spawned worker processes, which import
# this script: only the main process sweeps
if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as out:
        for axis, values in (
                ("loss.lambda", [0.0, 0.05, 1.0]),
                ("target.source", ["vae", "identity"]),
                ("vae_train.beta_kl", [0, 0.01]),
                ("encoder.tap_index", [1, 2, 3]),
                # no axis: a whole-config fragment sets both heads' output width
                (None, [{"coloring_head": {"widths": [32, 32, d]},
                         "whitening_head": {"widths": [32, 32, d]}} for d in (8, 16)])):
            rows = ablation_sweep(base, axis, values, out_dir=os.path.join(out, axis or "root"))
            print(f"\n=== axis: {axis or '(whole config)'} ===")
            for row in rows:
                acc = f"{row['accuracy']:.3f}" if row["status"] == "ok" else row["error"][:50]
                print(f"  {row['value']:<48} seed={row['seed']}: {acc}")
