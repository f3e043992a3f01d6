import concurrent.futures
import json
import os
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

from corrcolor import autograd as ag
from corrcolor import evaluation
from corrcolor.autograd import NonFiniteError
from corrcolor.checkpoint import load_arrays
from corrcolor.config import ConfigError
from corrcolor.data import SparseDenseSpec, generate_sparse_dense
from corrcolor.diagnostics import read_rows
from corrcolor.evaluation import (EvalError, EvalResult, ablation_sweep, linear_eval,
                                  probe_accuracy)
from corrcolor.losses import LossConfig
from corrcolor.networks import ProjectorSpec
from corrcolor.optim import Adam
from corrcolor.training import (EvalConfig, TargetConfig, TrainingError, VAETrainConfig,
                                prepare_target, pretrain)

from graph_probe import graph_probe
from same_bits import assert_same_bits
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
        acc = probe_accuracy(features, labels, 2, EvalConfig(probe_epochs=20), seed=1)
        assert abs(acc - 0.5) <= 0.1

    def test_separable_features_learned(self):
        ds = generate_sparse_dense(SparseDenseSpec(num_samples=600, sparse_dim=4,
                                                   dense_dim=4, seed=3))
        acc = probe_accuracy(ds.features, ds.labels, 2, EvalConfig(probe_epochs=30), seed=1)
        sanity = least_squares_probe_accuracy(ds.features, ds.labels)
        assert acc > 0.95
        assert sanity > 0.99

    def test_deterministic_under_seed(self):
        ds = generate_sparse_dense(SparseDenseSpec(num_samples=200, seed=4))
        a = probe_accuracy(ds.features, ds.labels, 2, EvalConfig(probe_epochs=5), seed=7)
        b = probe_accuracy(ds.features, ds.labels, 2, EvalConfig(probe_epochs=5), seed=7)
        assert a == b

    def test_invalid_split_rejected(self):
        with pytest.raises(TrainingError, match="train_fraction"):
            EvalConfig(probe_epochs=1, train_fraction=1.5)

    def test_missing_labels_rejected(self):
        with pytest.raises(EvalError):
            probe_accuracy(np.ones((0, 2)), np.zeros(0, dtype=int), 2,
                           EvalConfig(probe_epochs=1), seed=0)

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
            probe_accuracy(ds.features, ds.labels, 2, EvalConfig(probe_epochs=1), seed=0)
        finally:
            Adam.__init__ = original_init
        shapes = captured["params"]
        assert set(shapes) == {"probe.weight", "probe.bias"}
        d = ds.features.shape[1]
        assert shapes["probe.weight"] == (d, 2)
        assert shapes["probe.bias"] == (2,)


def _steps(monkeypatch) -> list[bytes]:
    """Record the bytes of every Adam parameter buffer after each step."""
    flats = []
    original = Adam.step

    def recorded(self):
        original(self)
        flats.append(self.flat.tobytes())
    monkeypatch.setattr(Adam, "step", recorded)
    return flats


class TestArrayProbe:
    """The probe's array gradients train the weights the graph-built
    probe (``graph_probe``) trains, bit for bit."""

    @staticmethod
    def data(num_classes):
        rng = np.random.default_rng(num_classes)
        labels = rng.integers(0, num_classes, size=50)
        features = rng.standard_normal((50, 6)) + 0.5 * (labels[:, None] % 3)
        return features, labels

    @pytest.mark.parametrize("num_classes", [2, 8])
    @pytest.mark.parametrize("batch_size", [8, 12])  # 40 train rows: whole, short last
    def test_array_probe_equals_graph_probe(self, monkeypatch, num_classes, batch_size):
        features, labels = self.data(num_classes)
        spec = EvalConfig(probe_epochs=4, batch_size=batch_size, lr_start=0.05)
        steps = _steps(monkeypatch)
        want_w, want_b, want_acc = graph_probe(features, labels, num_classes, spec, seed=2)
        graph_steps = steps[:]
        del steps[:]
        accuracy = probe_accuracy(features, labels, num_classes, spec, seed=2)
        assert len(steps) == 4 * -(-40 // batch_size)
        assert steps == graph_steps
        assert steps[-1] == np.concatenate([want_w.ravel(), want_b]).tobytes()
        assert_same_bits(accuracy, want_acc)

    def test_non_finite_feature_names_the_probe(self, monkeypatch):
        features, labels = self.data(2)
        features[:, 0] = np.nan  # every row: the train statistics turn non-finite
        steps = _steps(monkeypatch)
        with pytest.raises(NonFiniteError, match=r"output of 'probe' at flat index 0$"):
            probe_accuracy(features, labels, 2, EvalConfig(probe_epochs=1), seed=0)
        assert steps == []

    @pytest.mark.parametrize("bad", [-1, 2])
    def test_out_of_range_label_rejected_before_any_step(self, monkeypatch, bad):
        features, labels = self.data(2)
        labels[7] = bad
        steps = _steps(monkeypatch)
        with pytest.raises(EvalError, match=r"label out of range \[0, 2\)"):
            probe_accuracy(features, labels, 2, EvalConfig(probe_epochs=1), seed=0)
        assert steps == []


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
        rows = ablation_sweep(config, "loss.lambda", [0.0, 0.05], out_dir=str(tmp_path))
        assert len(rows) == 2
        assert all(r["status"] == "ok" for r in rows)
        assert (tmp_path / "sweep.csv").exists()
        assert {r["value"] for r in rows} == {"0.0", "0.05"}  # each value's JSON

    def test_target_source_axis(self, tmp_path):
        config = tiny_config(epochs=2, vae_train=VAETrainConfig(epochs=1, batch_size=16))
        rows = ablation_sweep(config, "target.source", ["vae", "autoencoder"],
                              out_dir=str(tmp_path))
        assert [r["status"] for r in rows] == ["ok", "ok"]

    def test_failures_marked_and_sweep_continues(self, tmp_path):
        config = tiny_config(epochs=2)
        rows = ablation_sweep(config, "encoder.tap_index", [99, 2], out_dir=str(tmp_path))
        assert rows[0]["status"] == "error"
        assert "tap" in rows[0]["error"].lower() or "Error" in rows[0]["error"]
        assert rows[1]["status"] == "ok"

    def test_empty_values_rejected(self):
        with pytest.raises(EvalError, match="at least one"):
            ablation_sweep(tiny_config(), "lambda", [])

    def test_unknown_axis_rejected(self):
        with pytest.raises(ConfigError, match="unknown config key 'bogus'"):
            ablation_sweep(tiny_config(), "bogus", [1])

    def test_projector_dim_axis_rebuilds_target(self, tmp_path, monkeypatch):
        config = tiny_config(epochs=2, vae_train=VAETrainConfig(epochs=1, batch_size=16),
                             target=TargetConfig(source="vae"))
        calls = count_target_builds(monkeypatch)
        rows = ablation_sweep(config, None, [
            {"coloring_head": {"widths": [16, 16, d]},
             "whitening_head": {"widths": [16, 16, d]}} for d in (6, 8)],
            out_dir=str(tmp_path))
        assert [r["status"] for r in rows] == ["ok", "ok"]
        assert len(calls) == 2


def count_target_builds(monkeypatch) -> list:
    """The configs of every ``prepare_target`` call the sweep makes."""
    calls = []

    def counted(config, dataset=None):
        calls.append(config)
        return prepare_target(config, dataset)

    monkeypatch.setattr(evaluation, "prepare_target", counted)
    return calls


class TestSweepValuesAreConfigOverrides:
    @pytest.mark.parametrize("axis, value, rule", [
        ("encoder.tap_index", 1.7, "must be an integer"),
        ("loss.lambda", True, "must be a number"),
    ])
    def test_uncoercible_value_is_an_error_row_naming_the_key(self, axis, value, rule):
        (row,) = ablation_sweep(tiny_config(), axis, [value])
        assert row["status"] == "error"
        assert f"'{axis}' {rule}" in row["error"]

    @pytest.mark.parametrize("axis, values, builds", [
        ("loss.lambda", [0.0, 0.05], 1),
        ("vae_train.epochs", [1, 2], 2),
        ("seed", [3, 4, 5], 3),
    ])
    def test_one_target_per_distinct_target_inputs(self, monkeypatch, axis, values, builds):
        config = tiny_config(epochs=1, vae_train=VAETrainConfig(epochs=1, batch_size=16),
                             target=TargetConfig(source="vae"))
        calls = count_target_builds(monkeypatch)
        rows = ablation_sweep(config, axis, values)
        assert [r["status"] for r in rows] == ["ok"] * len(values)
        assert len(calls) == builds
        if axis == "seed":
            assert [r["seed"] for r in rows] == values

    def test_loss_section_value_clears_the_schedule(self, tmp_path):
        config = tiny_config(loss=LossConfig(lam=0.05, lam_schedule=(0.5, 1.0),
                                             lam_block_epochs=1))

        def logged_lambdas(axis, value):
            ablation_sweep(config, axis, [value], out_dir=str(tmp_path / axis))
            rows = read_rows(tmp_path / axis / "v0" / "metrics.csv")
            return [float(r["lambda"]) for r in rows]

        assert logged_lambdas("loss", {"lambda": 0, "lambda_schedule": None}) == [0.0, 0.0]
        assert logged_lambdas("loss.lambda", 0) == [0.5, 1.0]  # the schedule still rules


class TestSweepMatchesHandBuiltConfigs:
    """Each sweep run equals a direct pretrain of the config the sweep
    axes of earlier versions built with ``dataclasses.replace``."""

    @staticmethod
    def hand_built(base, axis, value):
        if axis == "lambda":
            return replace(base, loss=replace(base.loss, lam=float(value), lam_schedule=None))
        if axis == "projectorDim":
            return replace(base, coloring_head=ProjectorSpec((16, 16, value)),
                           whitening_head=ProjectorSpec((16, 16, value)))
        if axis == "tapIndex":
            return replace(base, encoder=replace(base.encoder, tap_index=value,
                                                 allow_tap_at_final=value == 3))
        return replace(base, target=replace(base.target, source=value, path=None))

    @pytest.mark.parametrize("old_axis, values, axis, as_value", [
        ("lambda", [0, 0.05, 1], "loss.lambda", lambda v: v),
        ("projectorDim", [6, 8], None,
         lambda d: {"coloring_head": {"widths": [16, 16, d]},
                    "whitening_head": {"widths": [16, 16, d]}}),
        ("tapIndex", [1, 2, 3], "encoder",
         lambda t: {"tap_index": t, "allow_tap_at_final": t == 3}),
        ("targetSource", ["vae", "autoencoder", "identity"], "target.source", lambda v: v),
    ], ids=["lambda", "projectorDim", "tapIndex", "targetSource"])
    def test_checkpoints_match(self, tmp_path, old_axis, values, axis, as_value):
        base = tiny_config(epochs=2, vae_train=VAETrainConfig(epochs=1, batch_size=16),
                           target=TargetConfig(source="vae"))
        rows = ablation_sweep(base, axis, [as_value(v) for v in values],
                              out_dir=str(tmp_path / "sweep"))
        for i, value in enumerate(values):
            config = self.hand_built(base, old_axis, value)
            run_dir = str(tmp_path / f"direct{i}")
            run = pretrain(config, target=prepare_target(config), run_dir=run_dir)
            assert rows[i]["status"] == "ok"
            assert rows[i]["accuracy"] == linear_eval(config, run.checkpoint_path).accuracy
            swept = (tmp_path / "sweep" / f"v{i}" / "checkpoint.bin").read_bytes()
            assert swept == (tmp_path / f"direct{i}" / "checkpoint.bin").read_bytes()


def set_usable_cores(monkeypatch, cores: int):
    monkeypatch.setattr(ag.os, "sched_getaffinity", lambda pid: set(range(cores)),
                        raising=False)


class _DiesWhenLoaded:
    """A target whose unpickling ends the worker process that loads it."""

    def __reduce__(self):
        return os._exit, (3,)


class TestSweepProcesses:
    @pytest.mark.parametrize("cores, cells, processes", [
        (1, 4, 1), (1, 1, 1), (2, 4, 2), (2, 1, 1),
        (8, 3, 3),  # never more processes than cells
        (8, 12, 8)])
    def test_one_process_per_usable_core_and_no_more_than_the_cells(
            self, monkeypatch, cores, cells, processes):
        set_usable_cores(monkeypatch, cores)
        assert evaluation.sweep_processes(cells) == processes

    def test_one_usable_core_starts_no_worker_process(self, monkeypatch, tmp_path):
        set_usable_cores(monkeypatch, 1)

        def refused(*args, **kwargs):
            raise AssertionError("a worker process was started")
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", refused)
        rows = ablation_sweep(tiny_config(epochs=1), "seed", [3, 4], out_dir=str(tmp_path))
        assert [r["status"] for r in rows] == ["ok", "ok"]

    def test_a_worker_that_dies_is_an_error_row_of_each_cell_not_done(self, monkeypatch):
        monkeypatch.setattr(evaluation, "sweep_processes", lambda cells: 2)
        monkeypatch.setattr(evaluation, "prepare_target", lambda config: _DiesWhenLoaded())
        rows = ablation_sweep(tiny_config(epochs=1), "loss.lambda", [0.0, "bad", 0.05])
        assert [r["status"] for r in rows] == ["error"] * 3
        assert "must be a number" in rows[1]["error"]
        for row in rows[::2]:
            assert row["error"].startswith("BrokenProcessPool: ")


# runs one sweep into argv[1] on one usable core, then into argv[2] on two
_TWO_SWEEPS = """
import os, sys
from corrcolor.evaluation import ablation_sweep
from corrcolor.training import TargetConfig, VAETrainConfig
from test_training import tiny_config

config = tiny_config(epochs=2, vae_train=VAETrainConfig(epochs=1, batch_size=16),
                     target=TargetConfig(source="vae"))
cores = sorted(os.sched_getaffinity(0))[:2]
for n, out in ((1, sys.argv[1]), (2, sys.argv[2])):
    os.sched_setaffinity(0, cores[:n])
    ablation_sweep(config, "seed", [3, 4, 5, 6], out_dir=out)
"""


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity") or ag.usable_cores() < 2,
                    reason="needs two usable cores")
def test_two_processes_write_the_bits_one_writes(tmp_path):
    # a sweep on one core runs in its own process and one on two cores on
    # two workers: every row and run file agrees but metrics.csv's wall
    # clock and the manifest's record of the cores
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [os.path.join(root, "src"), os.path.join(root, "tests")])}
    one, two = tmp_path / "one", tmp_path / "two"
    proc = subprocess.run([sys.executable, "-c", _TWO_SWEEPS, str(one), str(two)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert (one / "sweep.csv").read_bytes() == (two / "sweep.csv").read_bytes()
    rows = read_rows(one / "sweep.csv")
    assert [r["status"] for r in rows] == ["ok"] * 4
    assert len({r["accuracy"] for r in rows}) == 4  # a row given another's run shows
    files = sorted(p.relative_to(one) for p in one.rglob("*") if p.is_file())
    assert files == sorted(p.relative_to(two) for p in two.rglob("*") if p.is_file())
    for rel in files:
        a, b = one / rel, two / rel
        if rel.name == "metrics.csv":
            assert ([{k: v for k, v in r.items() if k != "wall_ms"} for r in read_rows(a)]
                    == [{k: v for k, v in r.items() if k != "wall_ms"} for r in read_rows(b)])
        elif rel.name == "manifest.json":
            manifests = [json.loads(p.read_text()) for p in (a, b)]
            cores = [m.pop("environment")["usable_cores"] for m in manifests]
            assert manifests[0] == manifests[1]
            assert cores == [1, 2]  # the workers' own reading: two workers ran
        else:
            assert a.read_bytes() == b.read_bytes(), rel
