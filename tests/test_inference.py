"""Forward-only passes map arrays to arrays and build no graph.

The five passes: the frozen encoder's features
(``evaluation.encoder_features``), the VAE's latent means, its
reconstruction error on the dataset (``target._dataset_recon_mse``), the
probe (training as well: it builds only its two parameter leaves) and
``diagnose``.  Each gives the numbers the
training-mode graph of the same layers computes where batch norm does
not enter, and a non-finite value names the layer it appeared in.
"""

import json
import os
import tracemalloc

import numpy as np
import pytest

from corrcolor import autograd as ag, cli, evaluation, target
from corrcolor.autograd import NonFiniteError
from corrcolor.cli import main
from corrcolor.config import parse_config
from corrcolor.data import SparseDenseSpec, generate_sparse_dense
from corrcolor.evaluation import probe_accuracy
from corrcolor.networks import Backbone, EncoderSpec, VAE, VAESpec
from corrcolor.optim import Adam
from corrcolor.training import EvalConfig


def next_node_id() -> int:
    """The id the next graph node gets, read without taking it."""
    return int(repr(ag._node_ids)[len("count("):-1])


class TestVAEPasses:
    def test_latent_means_and_recon_error_build_no_node(self):
        dataset = generate_sparse_dense(SparseDenseSpec(num_samples=24, sparse_dim=4,
                                                        dense_dim=12, seed=1))
        vae = VAE(VAESpec(16, (12, 6), latent_dim=4), seed=(3, 4))
        flat = np.tile(dataset.features, (2, 1))
        before = next_node_id()
        latents = vae.latent_means(flat)
        error = target._dataset_recon_mse(vae, dataset)
        recon, mu, logvar, z = vae.forward(flat, training=False)
        assert next_node_id() == before
        assert all(type(a) is np.ndarray for a in (latents, error, recon, mu, logvar, z))
        # the graph of the same layers computes the same bits
        graph = vae.forward(flat)
        assert latents.tobytes() == graph[1].data.tobytes()
        for array, node in zip((recon, mu, logvar, z), graph):
            assert array.tobytes() == node.data.tobytes()
        want = ((graph[0].data - flat) ** 2).reshape(2, -1).mean(axis=1)
        assert error.tobytes() == want.tobytes()


def _recording(monkeypatch, owner, attr: str) -> list[int]:
    """Replace ``owner.attr`` by a wrapper that records the next node id
    each time it returns."""
    marks = []
    original = getattr(owner, attr)

    def wrapped(*args, **kwargs):
        out = original(*args, **kwargs)
        marks.append(next_node_id())
        return out
    monkeypatch.setattr(owner, attr, wrapped)
    return marks


@pytest.fixture
def run_config(tmp_path):
    """A config file whose pretraining run has written its checkpoint."""
    def make(share_heads: bool) -> str:
        path = tmp_path / f"config_{share_heads}.json"
        path.write_text(json.dumps({
            "seed": 3, "batch_size": 16, "epochs": 2, "share_heads": share_heads,
            "output_dir": str(tmp_path / f"run_{share_heads}"),
            "dataset": {"kind": "synthetic", "num_samples": 64, "sparse_dim": 4,
                        "dense_dim": 12},
            "encoder": {"widths": [24, 16, 12], "tap_index": 2},
            "coloring_head": {"widths": [16, 16, 8]},
            "whitening_head": {"widths": [16, 16, 8]},
            "target": {"source": "identity"},
            "eval": {"probe_epochs": 2}}))
        assert main(["pretrain", "--config", str(path)]) == 0
        return str(path)
    return make


class TestRunPasses:
    # each pass loads its model first, which makes parameter nodes; from
    # the load's return on, the pass makes none
    def test_encoder_features_build_no_node(self, monkeypatch, run_config):
        config, _ = parse_config(run_config(True), [])
        marks = _recording(monkeypatch, evaluation, "load_model")
        dataset = evaluation.build_dataset(config)
        checkpoint = os.path.join(config.output_dir, "checkpoint.bin")
        features, _ = evaluation.encoder_features(config, checkpoint, dataset)
        assert type(features) is np.ndarray and features.shape == (64, 12)
        assert next_node_id() == marks[-1]

    @pytest.mark.parametrize("share_heads", [True, False])
    def test_diagnose_builds_no_node(self, monkeypatch, run_config, share_heads):
        path = run_config(share_heads)
        marks = _recording(monkeypatch, cli, "load_model")
        assert main(["diagnose", "--config", path]) == 0
        assert next_node_id() == marks[-1]

    def test_probe_predictions_build_no_node(self, monkeypatch):
        rng = np.random.default_rng(5)
        labels = np.arange(40) % 3
        features = rng.standard_normal((40, 6)) + labels[:, None]
        marks = _recording(monkeypatch, Adam, "step")
        spec = EvalConfig(probe_epochs=3, batch_size=8)
        before = next_node_id()
        accuracy = probe_accuracy(features, labels, 3, spec, seed=1)
        assert 0.0 <= accuracy <= 1.0
        assert len(marks) == 12
        # the weight and bias leaves, then nothing: no step, no prediction
        assert set(marks) == {before + 2}
        assert next_node_id() == before + 2


class TestBackbonePass:
    def test_non_finite_value_names_the_layer(self):
        net = Backbone(EncoderSpec((8, 6, 4), tap_index=2), 5, seed=0)
        net.layers[1].bias.data[3] = np.nan
        with pytest.raises(NonFiniteError, match=r"'backbone.l2' at flat index 3$"):
            net.forward(np.ones((2, 5)), training=False)

    def test_features_pass_peaks_below_half_the_graph_built_peak(self):
        # the c6_auto shapes: 2000 rows of 64 through three 64-wide layers
        # with batch norm; a graph of the same layers keeps every layer's
        # saved arrays until it is dropped, the array pass about two outputs
        net = Backbone(EncoderSpec((64, 64, 64), tap_index=2), 64, seed=0)
        x = np.random.default_rng(1).standard_normal((2000, 64))

        def peak(call) -> int:
            tracemalloc.start()
            try:
                start = tracemalloc.get_traced_memory()[0]
                call()
                return tracemalloc.get_traced_memory()[1] - start
            finally:
                tracemalloc.stop()

        arrays = peak(lambda: net.forward(x, training=False))
        graph = peak(lambda: net.forward(x, training=True))
        assert arrays <= graph / 2, (arrays, graph)
