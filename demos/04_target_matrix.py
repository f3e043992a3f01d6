"""Building the coloring target: a VAE pair on the two view streams.

Two VAEs are trained, one per augmentation stream, as one two-member
VAE: every batch draws one view pair, view s feeds member s, and one
graph and one optimizer step train both members.  Their deterministic
latents over the whole dataset, column-normalized, give the target
cross-correlation.  Entries linking latent coordinates that encode the
sparse (class) structure survive across views; entries driven by dense
noise cancel out.
"""

import os
import tempfile

import corrcolor  # before numpy: it pins BLAS to one thread, read as numpy loads
import numpy as np

from corrcolor.data import Augmentation, SparseDenseSpec, generate_sparse_dense
from corrcolor.networks import VAESpec
from corrcolor.target import (compute_target, latent_group_split, load_target,
                              save_target, train_vae_pair)
from corrcolor.training import VAETrainConfig

dataset = generate_sparse_dense(SparseDenseSpec(
    num_samples=256, sparse_dim=4, dense_dim=28, signal=2.0, dense_noise=1.0, seed=10))
protocol = Augmentation(dense_noise_scale=1.0, dense_dropout_prob=0.3,
                        scale_jitter=(0.95, 1.05))
vae_spec = VAESpec(input_dim=32, encoder_widths=(24, 16), latent_dim=6)

vae_train = VAETrainConfig(epochs=100, batch_size=32, lr=1e-2, beta_kl=0.01)
vae, info = train_vae_pair(dataset, protocol, vae_spec, vae_train, seed=21)
print("members:", vae.members, "| enc1 weight shape:", vae.enc[0].weight.shape)
for name in ("vae1", "vae2"):
    print("{} reconstruction: untrained {:.3f} -> trained {:.3f}".format(
        name, info[name]["untrained_recon"], info[name]["trained_recon"]))

artifact = compute_target(vae, dataset, protocol, seed=12)
print("\ntarget matrix (rounded):")
print(np.round(artifact.matrix.values, 2))

# Attribute each latent coordinate of the first member (vae1) to the input
# block it tracks.
split = latent_group_split(vae, dataset)
mask = split["sparse_mask"]
print("\nsparse-attributed latent coordinates:", np.flatnonzero(mask))
e = np.abs(artifact.matrix.values)
print("mean |E| among sparse-linked coordinates:", round(e[np.ix_(mask, mask)].mean(), 3))
print("mean |E| among dense-linked coordinates: ", round(e[np.ix_(~mask, ~mask)].mean(), 3))

# Targets persist with their provenance and round-trip bit-exactly.
path = os.path.join(tempfile.gettempdir(), "demo_target.bin")
save_target(artifact, path)
loaded = load_target(path)
print("\nround-trip exact:", np.array_equal(loaded.matrix.values, artifact.matrix.values))
print("provenance keys:", sorted(loaded.provenance))
