"""The linear probe trained through autograd graphs.

This is the probe loop as it ran before ``evaluation.probe_accuracy``
computed each minibatch's gradient on arrays: per minibatch, a ``dense``
node and a ``softmax_cross_entropy`` node, then ``loss.backward()``.  It
is the reference the array probe must reproduce bit for bit; it takes
``probe_accuracy``'s arguments and returns the trained weight, bias and
accuracy.
"""

import numpy as np

from corrcolor import autograd as ag
from corrcolor.optim import Adam
from corrcolor.seeding import derive_seed


def graph_probe(features, labels, num_classes, spec, seed):
    n, d = features.shape
    split_rng = np.random.default_rng(derive_seed(seed, "eval-split"))
    order = split_rng.permutation(n)
    n_train = int(round(n * spec.train_fraction))
    train_idx, test_idx = order[:n_train], order[n_train:]

    mu = features[train_idx].mean(axis=0)
    scale = features[train_idx].std() + 1e-8
    features = (features - mu) / scale

    probe_rng = np.random.default_rng(derive_seed(seed, "eval-probe"))
    bound = np.sqrt(6.0 / d)
    weight = ag.parameter(probe_rng.uniform(-bound, bound, size=(d, num_classes)),
                          name="probe.weight")
    bias = ag.parameter(np.zeros(num_classes), name="probe.bias")
    opt = Adam({"probe.weight": weight, "probe.bias": bias}, lr=spec.lr_start)

    x_train, y_train = features[train_idx], labels[train_idx]
    decay = (spec.lr_end / spec.lr_start) ** (1.0 / max(spec.probe_epochs - 1, 1))
    for epoch in range(spec.probe_epochs):
        opt.lr = spec.lr_start * decay ** epoch
        order = probe_rng.permutation(n_train)
        for start in range(0, n_train, spec.batch_size):
            idx = order[start:start + spec.batch_size]
            logits = ag.dense(x_train[idx], weight, bias)[0]
            loss = ag.softmax_cross_entropy(logits, y_train[idx])
            loss.backward()
            opt.step()
            opt.zero_grad()

    logits = ag.dense_inference(features[test_idx], weight.data, bias.data, "probe")
    accuracy = float((logits.argmax(axis=1) == labels[test_idx]).mean())
    return weight.data.copy(), bias.data.copy(), accuracy
