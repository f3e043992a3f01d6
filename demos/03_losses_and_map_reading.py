"""Correlation matrices, the coloring/whitening losses, and their
Gaussian-likelihood reading.

The combined objective is L = L_W + lambda * L_C where L_C pulls the
coloring-head cross-correlation toward a fixed target matrix and L_W
pulls the whitening-head cross-correlation toward the identity.
"""

import corrcolor  # before numpy: it pins BLAS to one thread, read as numpy loads
import numpy as np

from corrcolor.autograd import astensor, parameter
from corrcolor.losses import (coloring_loss, cross_correlation, neg_log_posterior,
                              normalize_columns, total_loss, whitening_loss)

rng = np.random.default_rng(0)

# Embeddings are normalized per feature column (zero mean, unit norm over
# the batch); the cross-correlation is then just Z1^T Z2 with entries in
# [-1, 1].
z1 = normalize_columns(rng.standard_normal((32, 6)))
z2 = normalize_columns(rng.standard_normal((32, 6)))
c = cross_correlation(z1, z2)
print("correlation entries bounded:", np.abs(c.data).max() <= 1.0)

# Whitening loss: identity is the target...
print("whitening_loss(I):", whitening_loss(astensor(np.eye(6)), alpha=0.01).item())
# ...and the coloring loss vanishes exactly at its target.
e = np.clip(rng.uniform(-0.4, 0.4, (6, 6)), -1, 1)
print("coloring_loss(E, E):", coloring_loss(astensor(e.copy()), e).item())

loss = total_loss(whitening_loss(c, 0.01), coloring_loss(c, e), lam=0.05)
print("combined loss on random embeddings:", round(loss.item(), 4))

# The same objective, read as a Gaussian negative log-posterior: every
# C_ij ~ N(E_ij, sigma^2), W_ii ~ N(1, sigma^2), W_ij ~ N(0, sigma^2).
# With both weighting factors at 1 the gradients agree up to 1/(2 sigma^2).
sigma = 0.7
c_param = parameter(rng.uniform(-0.5, 0.5, (6, 6)))
w_param = parameter(rng.uniform(-0.5, 0.5, (6, 6)))
neg_log_posterior(c_param, w_param, e, sigma).backward()
nlp_grad_c = c_param.grad.copy()
nlp_grad_w = w_param.grad.copy()

c2 = parameter(c_param.data.copy())
w2 = parameter(w_param.data.copy())
total_loss(whitening_loss(w2, alpha=1.0), coloring_loss(c2, e), lam=1.0).backward()

print("gradient ratio wrt C (should be 1/(2 sigma^2) = {:.4f}):".format(1 / (2 * sigma**2)),
      round(float(nlp_grad_c[0, 0] / c2.grad[0, 0]), 4))
print("gradient ratio wrt W:", round(float(nlp_grad_w[0, 0] / w2.grad[0, 0]), 4))
