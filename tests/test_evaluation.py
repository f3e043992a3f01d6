import os

import numpy as np
import pytest

from corrcolor.checkpoint import load_arrays
from corrcolor.data import SparseDenseSpec, generate_sparse_dense
from corrcolor.evaluation import (EvalError, EvalResult, ablation_sweep, linear_eval,
                                  probe_accuracy)
from corrcolor.training import TargetConfig, VAETrainConfig, pretrain

from test_training import tiny_config
from test_data import least_squares_probe_accuracy


@pytest.fixture(scope="module")
def trained_run(tmp_path_factory):
    run_dir = tmp_path_factory.mktemp("pretrain")
    config = tiny_config(epochs=3)
    run = pretrain(config, run_dir=str(run_dir))
    return config, run


class TestProbe:
    def test_chance_level_on_label_free_features(self):
        # features carry no class information: permuted labels
        rng = np.random.default_rng(0)
        features = rng.standard_normal((600, 12))
        labels = np.arange(600) % 2
        labels = labels[rng.permutation(600)]
        acc = probe_accuracy(features, labels, 2, probe_epochs=20, seed=1)
        assert abs(acc - 0.5) <= 0.1

    def test_separable_features_learned(self):
        ds = generate_sparse_dense(SparseDenseSpec(num_samples=600, sparse_dim=4,
                                                   dense_dim=4, seed=3))
        acc = probe_accuracy(ds.features, ds.labels, 2, probe_epochs=30, seed=1)
        sanity = least_squares_probe_accuracy(ds.features, ds.labels)
        assert acc > 0.95
        assert sanity > 0.99

    def test_deterministic_under_seed(self):
        ds = generate_sparse_dense(SparseDenseSpec(num_samples=200, seed=4))
        a = probe_accuracy(ds.features, ds.labels, 2, probe_epochs=5, seed=7)
        b = probe_accuracy(ds.features, ds.labels, 2, probe_epochs=5, seed=7)
        assert a == b

    def test_invalid_split_rejected(self):
        with pytest.raises(EvalError, match="fraction"):
            probe_accuracy(np.ones((10, 2)), np.zeros(10, dtype=int), 2,
                           probe_epochs=1, seed=0, train_fraction=1.5)

    def test_missing_labels_rejected(self):
        with pytest.raises(EvalError):
            probe_accuracy(np.ones((0, 2)), np.zeros(0, dtype=int), 2,
                           probe_epochs=1, seed=0)

    def test_probe_capacity_is_one_affine_map(self):
        # d*k weights + k biases and nothing else
        from corrcolor.optim import Adam
        captured = {}
        original_init = Adam.__init__

        def spy(self, params, **kwargs):
            captured["params"] = {k: v.data.shape for k, v in params.items()}
            original_init(self, params, **kwargs)

        Adam.__init__ = spy
        try:
            ds = generate_sparse_dense(SparseDenseSpec(num_samples=64, seed=5))
            probe_accuracy(ds.features, ds.labels, 2, probe_epochs=1, seed=0)
        finally:
            Adam.__init__ = original_init
        shapes = captured["params"]
        assert set(shapes) == {"probe.weight", "probe.bias"}
        d = ds.features.shape[1]
        assert shapes["probe.weight"] == (d, 2)
        assert shapes["probe.bias"] == (2,)


class TestLinearEval:
    def test_result_fields_and_range(self, trained_run):
        config, run = trained_run
        result = linear_eval(config, run.checkpoint_path)
        assert isinstance(result, EvalResult)
        assert 0.0 <= result.accuracy <= 1.0
        assert result.probe_epochs == config.eval.probe_epochs
        assert result.probe_seed == config.seed

    def test_encoder_frozen(self, trained_run):
        config, run = trained_run
        before, _ = load_arrays(run.checkpoint_path)
        linear_eval(config, run.checkpoint_path)
        after, _ = load_arrays(run.checkpoint_path)
        assert set(before) == set(after)
        for name in before:
            np.testing.assert_array_equal(before[name], after[name])

    def test_deterministic(self, trained_run):
        config, run = trained_run
        a = linear_eval(config, run.checkpoint_path)
        b = linear_eval(config, run.checkpoint_path)
        assert a.accuracy == b.accuracy

    def test_missing_checkpoint_prerequisite(self, trained_run):
        config, _ = trained_run
        from corrcolor.training import PrerequisiteError
        with pytest.raises(PrerequisiteError, match="pretrain"):
            linear_eval(config, "/nonexistent/ckpt.bin")

    def test_transfer_mode_probes_a_different_dataset(self, trained_run):
        # pretrain on one synthetic spec, probe on another of the same width
        config, run = trained_run
        transfer = generate_sparse_dense(SparseDenseSpec(
            num_samples=80, sparse_dim=4, dense_dim=12, signal=1.5, seed=321))
        result = linear_eval(config, run.checkpoint_path, dataset=transfer)
        assert 0.0 <= result.accuracy <= 1.0


class TestAblationSweep:
    def test_lambda_axis_rows(self, tmp_path):
        config = tiny_config(epochs=2)
        rows = ablation_sweep(config, "lambda", [0.0, 0.05], out_dir=str(tmp_path))
        assert len(rows) == 2
        assert all(r["status"] == "ok" for r in rows)
        assert (tmp_path / "sweep.csv").exists()
        assert {r["value"] for r in rows} == {0.0, 0.05}

    def test_target_source_axis(self, tmp_path):
        config = tiny_config(epochs=2, vae_train=VAETrainConfig(epochs=1, batch_size=16))
        rows = ablation_sweep(config, "targetSource", ["vae", "autoencoder"],
                              out_dir=str(tmp_path))
        assert [r["status"] for r in rows] == ["ok", "ok"]

    def test_failures_marked_and_sweep_continues(self, tmp_path):
        config = tiny_config(epochs=2)
        rows = ablation_sweep(config, "tapIndex", [99, 2], out_dir=str(tmp_path))
        assert rows[0]["status"] == "error"
        assert "tap" in rows[0]["error"].lower() or "Error" in rows[0]["error"]
        assert rows[1]["status"] == "ok"

    def test_empty_values_rejected(self):
        with pytest.raises(EvalError, match="at least one"):
            ablation_sweep(tiny_config(), "lambda", [])

    def test_unknown_axis_rejected(self):
        with pytest.raises(EvalError, match="axis"):
            ablation_sweep(tiny_config(), "bogus", [1])

    def test_projector_dim_axis_rebuilds_target(self, tmp_path):
        config = tiny_config(epochs=2, vae_train=VAETrainConfig(epochs=1, batch_size=16),
                             target=TargetConfig(source="vae"))
        rows = ablation_sweep(config, "projectorDim", [6, 8], out_dir=str(tmp_path))
        assert [r["status"] for r in rows] == ["ok", "ok"]
