"""The synthetic sparse/dense benchmark and the view-pair augmentation.

The benchmark makes the feature-decoupling premise literal: the first
`sparse_dim` coordinates carry the class (a distinct sign pattern per
class), the remaining `dense_dim` coordinates are nuisance noise.
Augmentation perturbs only the dense block (plus a global scale), so two
views of one sample agree on what matters.
"""

import corrcolor  # before numpy: it pins BLAS to one thread, read as numpy loads
import numpy as np

from corrcolor.data import Augmentation, SparseDenseSpec, augment_once, generate_sparse_dense

spec = SparseDenseSpec(num_classes=4, sparse_dim=6, dense_dim=26, num_samples=1000,
                       signal=2.0, sparse_noise=0.1, dense_noise=1.0, seed=0)
dataset = generate_sparse_dense(spec)
print(f"{len(dataset)} samples, {dataset.flat_dim()} features, "
      f"{dataset.num_classes} classes")

# Class structure lives entirely in the sparse block: a closed-form
# least-squares probe separates it, and gets nothing from the dense block.
def probe(x, labels):
    half = len(x) // 2
    onehot = np.eye(labels.max() + 1)[labels[:half]]
    design = np.concatenate([x, np.ones((len(x), 1))], axis=1)
    coef, *_ = np.linalg.lstsq(design[:half], onehot, rcond=None)
    return ((design[half:] @ coef).argmax(1) == labels[half:]).mean()

print("probe on sparse block:", probe(dataset.features[:, :6], dataset.labels))
print("probe on dense block: ", probe(dataset.features[:, 6:], dataset.labels))

# Augmentation: two independent draws of the same sample.
protocol = Augmentation(dense_noise_scale=1.0, dense_dropout_prob=0.3,
                        scale_jitter=(0.95, 1.05))
rng = np.random.default_rng(1)
sample = dataset.features[0]
view1, view2 = (augment_once(sample, protocol, dataset.sparse_dim, rng) for _ in range(2))

print("\nsparse block of sample:", np.round(sample[:6], 2))
print("sparse block of view 1:", np.round(view1[:6], 2), " (scale jitter only)")
print("sparse block of view 2:", np.round(view2[:6], 2))
print("dense block, |view1 - sample| mean:", np.abs(view1[6:] - sample[6:]).mean().round(3))

# Over many pairs the sparse blocks stay correlated across views while
# the dense blocks decorrelate; that asymmetry is what the whole
# framework feeds on.
corr_sparse, corr_dense = [], []
for i in range(500):
    v1, v2 = (augment_once(dataset.features[i], protocol, dataset.sparse_dim, rng)
              for _ in range(2))
    for block, store in ((slice(0, 6), corr_sparse), (slice(6, None), corr_dense)):
        a, b = v1[block] - v1[block].mean(), v2[block] - v2[block].mean()
        denom = np.linalg.norm(a) * np.linalg.norm(b)
        if denom > 0:
            store.append(a @ b / denom)
print("\nmean cross-view correlation, sparse block:", np.mean(corr_sparse).round(3))
print("mean cross-view correlation, dense block: ", np.mean(corr_dense).round(3))
