import contextlib
import json
import os
import platform
import threading
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from corrcolor import autograd as ag
from corrcolor import data, training
from corrcolor.checkpoint import load_arrays
from corrcolor.config import parse_config
from corrcolor.data import Augmentation, DataError, SparseDenseSpec, augment_batch_pair
from corrcolor.diagnostics import read_rows
from corrcolor.losses import (LossConfig, coloring_loss, cross_correlation, normalize_columns,
                              total_loss, whitening_loss)
from corrcolor.networks import Backbone, EncoderSpec, NetworkError, ProjectorSpec, VAESpec
from corrcolor.optim import Adam
from corrcolor.seeding import derive_seed
from corrcolor.target import (TrainingDivergedError, identity_target, load_target, save_target,
                              train_vae_pair)
from corrcolor.training import (CollapseAbort, ExperimentConfig, Model,
                                NumericalAbort, OptimizerConfig, PrerequisiteError,
                                TargetConfig, TrainingError, VAETrainConfig, build_dataset,
                                correlation_stage_macs, map_views, prepare_target,
                                pretrain, _check_target, _environment)
from same_bits import assert_same_bits


def tiny_config(**overrides) -> ExperimentConfig:
    defaults = dict(
        dataset=SparseDenseSpec(num_samples=64, sparse_dim=4, dense_dim=12, seed=123),
        augment=Augmentation(dense_noise_scale=0.5, dense_dropout_prob=0.2,
                             scale_jitter=(0.9, 1.1)),
        encoder=EncoderSpec(widths=(24, 16, 12), tap_index=2),
        coloring_head=ProjectorSpec((16, 16, 8)),
        whitening_head=ProjectorSpec((16, 16, 8)),
        loss=LossConfig(lam=0.05),
        target=TargetConfig(source="identity"),
        vae_train=VAETrainConfig(epochs=2, batch_size=16),
        batch_size=16,
        epochs=2,
        seed=0,
    )
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


def metric_rows(run):
    """Metric values excluding wall-clock, for bit-identity comparison."""
    return [(r.epoch, r.lam, r.loss_total, r.loss_w, r.loss_c, r.variance,
             r.effective_rank, r.alignment) for r in run.metrics]


class TestPretrainCross:
    def test_deterministic_loss_sequence(self):
        run_a = pretrain(tiny_config())
        run_b = pretrain(tiny_config())
        assert metric_rows(run_a) == metric_rows(run_b)

    def test_loss_variant_mismatch_rejected(self):
        auto_target = prepare_target(tiny_config(loss=LossConfig(variant="auto")))
        with pytest.raises(TrainingError, match="loss.variant 'cross' needs a target of kind "
                                                "'target', got kind 'auto'"):
            pretrain(tiny_config(), target=auto_target)

    def test_whitening_only_baseline(self):
        run = pretrain(tiny_config(loss=LossConfig(lam=0.0)))
        assert run.status == "completed"
        assert all(r.loss_c == 0.0 for r in run.metrics)
        assert all(r.loss_total == r.loss_w for r in run.metrics)

    def test_tap_at_final_layer(self):
        config = tiny_config(
            encoder=EncoderSpec(widths=(24, 16, 12), tap_index=3),
            coloring_head=ProjectorSpec((16, 16, 8)))
        run = pretrain(config)
        assert run.status == "completed"

    def test_unshared_heads_flag(self, tmp_path):
        # each view gets its own head, drawn from its own seed
        config = tiny_config(share_heads=False)
        model = Model(config, build_dataset(config).flat_dim())
        for first, second in (model.coloring, model.whitening):
            assert first is not second
            assert not np.array_equal(first.layers[0].weight.data,
                                      second.layers[0].weight.data)
        run = pretrain(config, run_dir=str(tmp_path))
        assert run.status == "completed"
        records, _ = load_arrays(run.checkpoint_path)
        for head in ("coloring_b", "whitening_b"):
            assert any(name.startswith(f"{head}.") for name in records)

    def test_auto_variant_shares_heads_whatever_the_flag(self, tmp_path):
        config = tiny_config(loss=LossConfig(lam=0.05, variant="auto"), share_heads=False)
        model = Model(config, build_dataset(config).flat_dim())
        assert model.coloring[0] is model.coloring[1]
        assert model.whitening[0] is model.whitening[1]
        run = pretrain(config, run_dir=str(tmp_path))
        records, _ = load_arrays(run.checkpoint_path)
        assert not any("_b." in name for name in records)

    def test_missing_target_file_is_prerequisite_error(self):
        config = tiny_config(target=TargetConfig(source="vae", path="/nonexistent/t.bin"))
        with pytest.raises(PrerequisiteError, match="compute-target"):
            pretrain(config)

    @pytest.mark.parametrize("source", ["vae", "file"])
    def test_no_target_location_names_the_key(self, source):
        # no target.path and no run directory: there is no file to name
        with pytest.raises(PrerequisiteError, match="'target.path'") as info:
            pretrain(tiny_config(target=TargetConfig(source=source)))
        assert "None" not in str(info.value)

    def test_target_file_defaults_to_the_run_directory(self, tmp_path):
        config = tiny_config(target=TargetConfig(source="file"))
        with pytest.raises(PrerequisiteError, match="target.bin"):
            pretrain(config, run_dir=str(tmp_path))
        save_target(prepare_target(tiny_config()), tmp_path / "target.bin")
        assert pretrain(config, run_dir=str(tmp_path)).status == "completed"

    def test_target_dimension_mismatch_rejected(self, tmp_path):
        config = tiny_config()
        wrong = prepare_target(tiny_config(coloring_head=ProjectorSpec((16, 16, 6))))
        with pytest.raises(TrainingError, match="dimension"):
            pretrain(config, target=wrong)

    def test_batch_too_large_rejected(self):
        with pytest.raises(TrainingError, match="smaller than batch"):
            pretrain(tiny_config(batch_size=128))

    def test_lambda_schedule_recorded_per_epoch(self):
        config = tiny_config(
            loss=LossConfig(lam=0.08, lam_schedule=(0.08, 0.04), lam_block_epochs=2),
            epochs=4)
        run = pretrain(config)
        assert [r.lam for r in run.metrics] == [0.08, 0.08, 0.04, 0.04]


class TestGradientIsolation:
    def test_target_never_updated_and_loss_depends_on_it(self):
        config = tiny_config()
        target = prepare_target(config)
        before = target.matrix.values.copy()
        run1 = pretrain(config, target=target)
        np.testing.assert_array_equal(target.matrix.values, before)

        # perturbing E changes the loss trajectory
        perturbed = prepare_target(tiny_config(target=TargetConfig(source="identity")))
        values = perturbed.matrix.values.copy()
        values[0, 1] = 0.5
        values[1, 0] = 0.5
        from corrcolor.losses import CorrelationMatrix
        perturbed.matrix = CorrelationMatrix(values, "target")
        run2 = pretrain(config, target=perturbed)
        assert [r.loss_c for r in run1.metrics] != [r.loss_c for r in run2.metrics]


class TestDirectionalProgress:
    def test_losses_decrease_over_training(self):
        config = tiny_config(epochs=8, dataset=SparseDenseSpec(
            num_samples=128, sparse_dim=4, dense_dim=12, seed=7))
        run = pretrain(config)
        assert run.metrics[-1].loss_c < run.metrics[0].loss_c
        assert run.metrics[-1].loss_w < run.metrics[0].loss_w

    def test_off_diagonal_whitening_mass_declines_after_peak(self):
        # randomly initialized features start out nearly decorrelated, so
        # mean |off-diagonal W| first rises while the views align, then the
        # redundancy term grinds it back down; the decline is the whitening
        # progress being tested
        def mean_off_diag(checkpoint_path, cfg):
            from corrcolor.data import augment_batch_pair
            from corrcolor.losses import cross_correlation, normalize_columns
            from corrcolor.training import build_dataset, load_model
            dataset = build_dataset(cfg)
            model, _ = load_model(cfg, dataset.flat_dim(), checkpoint_path)
            rng = np.random.default_rng(99)
            v1, v2 = augment_batch_pair(dataset.features[:256], cfg.augment,
                                        dataset.sparse_dim, rng)
            _, f1 = model.backbone.forward(v1, training=True)
            _, f2 = model.backbone.forward(v2, training=True)
            z1 = model.whitening[0](f1, training=True)
            z2 = model.whitening[1](f2, training=True)
            w = cross_correlation(normalize_columns(z1), normalize_columns(z2)).data
            return float(np.abs(w - np.diag(np.diag(w))).mean())

        def stage_config(epochs):
            return ExperimentConfig(
                dataset=SparseDenseSpec(num_samples=512, sparse_dim=4, dense_dim=28,
                                        signal=2.0, seed=1),
                encoder=EncoderSpec(widths=(48, 48, 32), tap_index=2),
                coloring_head=ProjectorSpec((32, 32, 32)),
                whitening_head=ProjectorSpec((32, 32, 32)),
                loss=LossConfig(lam=0.05, alpha=0.1),
                target=TargetConfig(source="identity"),
                batch_size=128, epochs=epochs, seed=0)

        import tempfile
        with tempfile.TemporaryDirectory() as tmp:
            peak_run = pretrain(stage_config(25), run_dir=os.path.join(tmp, "peak"))
            peak = mean_off_diag(peak_run.checkpoint_path, stage_config(25))
            final_run = pretrain(stage_config(80), run_dir=os.path.join(tmp, "final"),
                                 resume=peak_run.checkpoint_path)
            final = mean_off_diag(final_run.checkpoint_path, stage_config(80))
            assert final < peak


def constant_config(make=tiny_config) -> ExperimentConfig:
    """Every sample and every view the zero vector: the first step collapses."""
    config = make()
    return replace(config, dataset=replace(config.dataset, signal=0.0, sparse_noise=0.0,
                                           dense_noise=0.0, seed=1),
                   augment=Augmentation(dense_noise_scale=0.0, dense_dropout_prob=0.0,
                                        scale_jitter=(1.0, 1.0)))


def large_config(**overrides) -> ExperimentConfig:
    """Every layer of pretraining and of VAE training reaches
    ``autograd.QUEUE_MACS``, so backward passes queue their parameter
    gradients on the loop's worker."""
    return tiny_config(**{
        "dataset": SparseDenseSpec(num_samples=512, sparse_dim=8, dense_dim=56, seed=123),
        "encoder": EncoderSpec(widths=(64, 64, 64), tap_index=2),
        "coloring_head": ProjectorSpec((64, 64, 64)),
        "whitening_head": ProjectorSpec((64, 64, 64)),
        "vae_train": VAETrainConfig(epochs=1, batch_size=128),
        "batch_size": 256, **overrides})


class TestCollapseAbort:
    def test_constant_dataset_aborts_with_a_manifest_record(self, tmp_path):
        with pytest.raises(CollapseAbort) as exc_info:
            pretrain(constant_config(), run_dir=str(tmp_path / "run"))
        abort = exc_info.value
        assert abort.run.status == "collapsed"
        assert abort.epoch == 0
        manifest = json.loads((tmp_path / "run" / "manifest.json").read_text())
        assert manifest["status"] == "collapsed"
        record = manifest["abort"]
        assert record == {"epoch": 0, "batch": abort.batch, "cause": str(abort.cause),
                          "columns": abort.cause.columns}
        assert len(record["columns"]) > 0
        # the collapse variance is the last metrics row's
        (last,) = read_rows(tmp_path / "run" / "metrics.csv")
        assert abort.run.final_variance == float(last["variance"]) \
            == abort.run.metrics[-1].variance
        assert str(abort).startswith(f"collapse at epoch 0, batch {abort.batch}: ")
        assert not (tmp_path / "run" / "collapse.json").exists()

    def test_divergence_carries_the_run(self, tmp_path):
        with pytest.raises(NumericalAbort) as exc_info, np.errstate(all="ignore"):
            pretrain(tiny_config(optimizer=OptimizerConfig(lr=1e200)), run_dir=str(tmp_path))
        abort = exc_info.value
        assert abort.run.status == "diverged"
        assert abort.run.epochs_completed == abort.epoch == len(abort.run.metrics)
        assert str(abort) == f"non-finite value at epoch {abort.epoch}, batch {abort.batch}: " \
                             f"{abort.cause}"
        assert json.loads((tmp_path / "manifest.json").read_text())["abort"] == {
            "epoch": abort.epoch, "batch": abort.batch, "cause": str(abort.cause)}


class TestCheckTarget:
    def test_dimension_mismatch_names_both(self, tmp_path):
        path = tmp_path / "target.bin"
        save_target(identity_target(4), path)
        with pytest.raises(TrainingError, match="target dimension 4 != coloring head output 8"):
            _check_target(tiny_config(), load_target(path))

    @pytest.mark.parametrize("variant, need, got", [("cross", "target", "auto"),
                                                    ("auto", "auto", "target")])
    def test_file_source_refuses_the_other_kind(self, tmp_path, variant, need, got):
        path = tmp_path / "target.bin"
        save_target(identity_target(8, got), path)
        config = tiny_config(loss=LossConfig(variant=variant),
                             target=TargetConfig(source="file", path=str(path)))
        with pytest.raises(TrainingError, match=f"loss.variant '{variant}' needs a target of "
                                                f"kind '{need}', got kind '{got}'"):
            prepare_target(config)

    @pytest.mark.parametrize("variant", ["cross", "auto"])
    @pytest.mark.parametrize("samples", [0, 1])
    def test_vae_source_refuses_a_dataset_under_two_samples_before_training(
            self, monkeypatch, variant, samples):
        def untrained(*args, **kwargs):
            raise AssertionError("the VAE trained")

        monkeypatch.setattr(training, "train_vae_pair", untrained)
        monkeypatch.setattr(training, "train_vae_single", untrained)
        config = tiny_config(loss=LossConfig(variant=variant), target=TargetConfig(source="vae"),
                             dataset=SparseDenseSpec(num_samples=samples, sparse_dim=4,
                                                     dense_dim=12, seed=123))
        with pytest.raises(TrainingError, match=f"the dataset has {samples}$"):
            prepare_target(config)


class TestMACModel:
    def test_auto_strictly_below_cross_at_equal_dim(self):
        for m in (16, 128, 256):
            for d in (8, 64, 256):
                auto = correlation_stage_macs("auto", m, d, d)
                cross = correlation_stage_macs("cross", m, d, d)
                assert auto < cross

    def test_counts_recorded_on_runs(self):
        cross_run = pretrain(tiny_config())
        auto_config = tiny_config(loss=LossConfig(lam=0.05, variant="auto"))
        auto_target = prepare_target(auto_config)
        auto_run = pretrain(auto_config, target=auto_target)
        assert 0 < auto_run.macs_per_step < cross_run.macs_per_step

    def test_inactive_coloring_drops_its_cost(self):
        with_coloring = correlation_stage_macs("cross", 64, 8, 8, coloring_active=True)
        without = correlation_stage_macs("cross", 64, 8, 8, coloring_active=False)
        assert without < with_coloring


class TestPretrainAuto:
    def _auto_config(self, **overrides):
        return tiny_config(loss=LossConfig(lam=0.05, variant="auto"), **overrides)

    def test_runs_and_is_deterministic(self):
        config = self._auto_config()
        target = prepare_target(config)
        run_a = pretrain(config, target=target)
        run_b = pretrain(config, target=target)
        assert metric_rows(run_a) == metric_rows(run_b)

    def test_requires_auto_kind_target(self):
        config = self._auto_config()
        cross_target = prepare_target(tiny_config())
        with pytest.raises(TrainingError, match="loss.variant 'auto' needs a target of kind "
                                                "'auto', got kind 'target'"):
            pretrain(config, target=cross_target)

    def test_target_draws_honoured(self):
        one, two = (prepare_target(self._auto_config(target=TargetConfig(source="vae", draws=k)))
                    for k in (1, 2))
        assert not np.array_equal(one.matrix.values, two.matrix.values)
        assert two.provenance["draws"] == 2

    def test_variant_dispatch(self):
        config = self._auto_config()
        run = pretrain(config, target=prepare_target(config))
        assert run.status == "completed"


class TestResume:
    def test_split_run_metrics_bit_identical(self, tmp_path):
        straight_config = tiny_config(epochs=4)
        straight = pretrain(straight_config, run_dir=str(tmp_path / "straight"))

        first_config = tiny_config(epochs=2)
        first = pretrain(first_config, run_dir=str(tmp_path / "first"))
        resumed = pretrain(straight_config, run_dir=str(tmp_path / "second"),
                           resume=first.checkpoint_path)

        assert_same_bits(metric_rows(first) + metric_rows(resumed), metric_rows(straight))
        with open(resumed.checkpoint_path, "rb") as a, open(straight.checkpoint_path, "rb") as b:
            assert a.read() == b.read()

    # a row cut short by the kill: within a later epoch's fields, or within
    # its epoch field, where "16" cut to "1" reads as an earlier epoch
    @pytest.mark.parametrize("torn", [b"", b"16,0.4", b"1"], ids=["none", "fields", "epoch"])
    def test_resume_rewinds_the_records_of_a_killed_continuation(self, tmp_path, monkeypatch,
                                                                 torn):
        # a continuation killed before its checkpoint leaves metrics rows
        # past the checkpoint's epoch, the last perhaps cut short: resuming
        # from the checkpoint drops them, so no epoch is recorded twice
        from corrcolor import training
        run_dir = tmp_path / "run"
        first = pretrain(tiny_config(epochs=12), run_dir=str(run_dir))

        def killed(*args):
            raise KeyboardInterrupt

        with monkeypatch.context() as patch:
            patch.setattr(training, "_save_checkpoint", killed)
            with pytest.raises(KeyboardInterrupt):
                pretrain(tiny_config(epochs=16), run_dir=str(run_dir),
                         resume=first.checkpoint_path)
        assert [int(r["epoch"]) for r in read_rows(run_dir / "metrics.csv")] == list(range(16))
        with open(run_dir / "metrics.csv", "ab") as fh:
            fh.write(torn)
        pretrain(tiny_config(epochs=30), run_dir=str(run_dir), resume=first.checkpoint_path)
        pretrain(tiny_config(epochs=30), run_dir=str(tmp_path / "straight"))

        def rows(directory):
            return [{k: v for k, v in row.items() if k != "wall_ms"}
                    for row in read_rows(directory / "metrics.csv")]

        assert rows(run_dir) == rows(tmp_path / "straight")

    def test_rewind_leaves_a_file_it_keeps_whole_unwritten(self, tmp_path, monkeypatch):
        from corrcolor import training
        run = pretrain(tiny_config(epochs=3), run_dir=str(tmp_path))
        metrics = tmp_path / "metrics.csv"
        before = metrics.read_bytes()
        written = []
        monkeypatch.setattr(training, "write_atomic", lambda path, *a: written.append(path))
        training._rewind_records(str(tmp_path), run.epochs_completed)
        assert written == [] and metrics.read_bytes() == before
        training._rewind_records(str(tmp_path), 2)
        assert written == [str(metrics)]

    def test_load_model_skips_optimizer_moments(self, tmp_path, monkeypatch):
        from corrcolor import training
        from corrcolor.checkpoint import load_arrays
        from corrcolor.training import build_dataset, load_model
        config = tiny_config(epochs=1)
        run = pretrain(config, run_dir=str(tmp_path / "run"))
        loaded = []
        monkeypatch.setattr(training, "load_arrays",
                            lambda *a, **kw: loaded.append(load_arrays(*a, **kw)) or loaded[-1])
        model, _ = load_model(config, build_dataset(config).flat_dim(), run.checkpoint_path)
        ((arrays, _),) = loaded
        assert set(arrays) == set(model.state_arrays())
        everything, _ = load_arrays(run.checkpoint_path)
        moments = {name for name in everything if name.startswith("adam.")}
        assert moments and set(everything) == set(arrays) | moments

    def test_resume_with_changed_lambda_allowed(self, tmp_path):
        first = pretrain(tiny_config(epochs=2), run_dir=str(tmp_path / "a"))
        changed = tiny_config(epochs=4, loss=LossConfig(lam=0.2))
        run = pretrain(changed, run_dir=str(tmp_path / "b"), resume=first.checkpoint_path)
        assert run.status == "completed"
        manifest = json.loads((tmp_path / "b" / "manifest.json").read_text())
        assert manifest["resumed_from"] == first.checkpoint_path
        assert manifest["config"]["loss"]["lambda"] == 0.2

    @staticmethod
    def _restored_state(monkeypatch, checkpoint_path, config, run_dir):
        """Resume ``config`` from ``checkpoint_path``; the run and the
        optimizer's moments and step as restored, before its first step."""
        seen = []
        step = Adam.step

        def first_step_sees(opt):
            if not seen:
                seen.append(({**{f"adam.m.{k}": a.copy() for k, a in opt.m.items()},
                              **{f"adam.v.{k}": a.copy() for k, a in opt.v.items()}},
                             opt.step_count))
            step(opt)

        monkeypatch.setattr(Adam, "step", first_step_sees)
        run = pretrain(config, run_dir=run_dir, resume=checkpoint_path)
        monkeypatch.undo()
        return run, seen[0]

    def test_resume_activating_coloring_starts_its_moments_at_zero(self, tmp_path,
                                                                   monkeypatch):
        first = pretrain(tiny_config(epochs=2, loss=LossConfig(lam=0.0)),
                         run_dir=str(tmp_path / "a"))
        saved, meta = load_arrays(first.checkpoint_path)
        assert not any(name.startswith("adam.m.coloring") for name in saved)
        runs = []
        for name in ("b", "c"):
            run, (moments, step) = self._restored_state(
                monkeypatch, first.checkpoint_path, tiny_config(epochs=4),
                str(tmp_path / name))
            assert step == meta["adam_step"]
            coloring = [k for k in moments if k.startswith(("adam.m.coloring", "adam.v.coloring"))]
            assert coloring and all(not moments[k].any() for k in coloring)
            others = [k for k in moments if k not in coloring]
            assert sorted(others) == sorted(k for k in saved if k.startswith("adam."))
            for k in others:
                np.testing.assert_array_equal(moments[k], saved[k])
            assert run.status == "completed"
            runs.append(run)
        assert metric_rows(runs[0]) == metric_rows(runs[1])

    def test_resume_deactivating_coloring_ignores_its_records(self, tmp_path, monkeypatch):
        first = pretrain(tiny_config(epochs=2), run_dir=str(tmp_path / "a"))
        saved, meta = load_arrays(first.checkpoint_path)
        run, (moments, step) = self._restored_state(
            monkeypatch, first.checkpoint_path,
            tiny_config(epochs=4, loss=LossConfig(lam=0.0)), str(tmp_path / "b"))
        assert step == meta["adam_step"]
        assert any(k.startswith("adam.m.coloring") for k in saved)
        assert moments and not any("coloring" in k for k in moments)
        for k in moments:
            np.testing.assert_array_equal(moments[k], saved[k])
        assert run.status == "completed"

    def test_resume_with_changed_dim_rejected(self, tmp_path):
        first = pretrain(tiny_config(epochs=2), run_dir=str(tmp_path / "a"))
        changed = tiny_config(epochs=4, coloring_head=ProjectorSpec((16, 16, 6)))
        # the narrower head's last weight, the first record that differs
        with pytest.raises(NetworkError, match=r"checkpoint\.bin does not fit the config: "
                                               r"record 'coloring\.l3\.weight': \(16, 8\) in "
                                               r"the checkpoint, \(16, 6\) in the model$"):
            pretrain(changed, resume=first.checkpoint_path)

    def test_resume_missing_checkpoint_prerequisite(self):
        with pytest.raises(PrerequisiteError, match="pretrain"):
            pretrain(tiny_config(epochs=4), resume="/nonexistent/ckpt.bin")

    def test_resume_past_requested_epochs_rejected(self, tmp_path):
        first = pretrain(tiny_config(epochs=2), run_dir=str(tmp_path / "a"))
        with pytest.raises(TrainingError, match="already has"):
            pretrain(tiny_config(epochs=2), resume=first.checkpoint_path)


def _records(module: str, layers, state: bool) -> list[str]:
    """Record names of ``module``'s layers, in layer order; ``state`` adds
    the batch-norm running statistics to its parameters."""
    bn_fields = ("gamma", "beta") + (("running_mean", "running_var") if state else ())
    return [f"{module}.{layer}.{field}" for layer in layers
            for field in (bn_fields if layer.startswith("bn") else ("weight", "bias"))]


class TestCheckpointLayout:
    # the checkpoint byte layout and Adam's flat buffer follow these orders
    BACKBONE = ("l1", "bn1", "l2", "bn2", "l3", "bn3")
    HEAD = ("l1", "bn1", "l2", "bn2", "l3")

    @pytest.mark.parametrize("share_heads, record_order, parameter_order", [
        (True, ("coloring", "whitening"), ("whitening", "coloring")),
        (False, ("coloring", "whitening", "coloring_b", "whitening_b"),
         ("whitening", "whitening_b", "coloring", "coloring_b"))])
    def test_record_and_parameter_names_in_order(self, tmp_path, share_heads, record_order,
                                                 parameter_order):
        run = pretrain(tiny_config(share_heads=share_heads, epochs=1), run_dir=str(tmp_path))
        records, _ = load_arrays(run.checkpoint_path)

        def names(heads, state):
            return _records("backbone", self.BACKBONE, state) + [
                name for head in heads for name in _records(head, self.HEAD, state)]
        parameters = names(parameter_order, state=False)
        assert list(records) == (names(record_order, state=True)
                                 + [f"adam.m.{name}" for name in parameters]
                                 + [f"adam.v.{name}" for name in parameters])


def replayed_stream(config: ExperimentConfig, rng, epochs: int) -> list[np.ndarray]:
    """The stacked view pairs of ``epochs`` epochs drawn serially from
    ``rng``: one permutation per epoch, one pair draw per full batch."""
    dataset = build_dataset(config)
    n, m = len(dataset), config.batch_size
    batches = []
    for _ in range(epochs):
        order = rng.permutation(n)
        for start in range(0, n - m + 1, m):
            v1, v2 = augment_batch_pair(dataset.features[order[start:start + m]], config.augment,
                                        dataset.sparse_dim, rng)
            batches.append(np.concatenate([v1.reshape(m, -1), v2.reshape(m, -1)]))
    return batches


class TestViewPairStream:
    # what the drawing worker hands the steps is the serial stream, and it
    # draws nothing past the last batch, so the checkpointed rng state is
    # the serial one
    @pytest.mark.parametrize("variant", ["cross", "auto"])
    def test_batches_and_rng_state_match_a_serial_replay(self, monkeypatch, tmp_path, variant):
        # 64 samples in batches of 24: two full batches an epoch, 16 dropped
        config = tiny_config(loss=LossConfig(lam=0.05, variant=variant), batch_size=24,
                             epochs=4)
        received = []
        forward = Backbone.forward

        def recorded(backbone, x, training):
            received.append(x.copy())
            return forward(backbone, x, training)

        monkeypatch.setattr(Backbone, "forward", recorded)
        runs = [pretrain(config, run_dir=str(tmp_path / "straight")),
                pretrain(replace(config, epochs=2), run_dir=str(tmp_path / "first"))]
        runs.append(pretrain(config, run_dir=str(tmp_path / "resumed"),
                             resume=runs[1].checkpoint_path))

        rng = np.random.default_rng(derive_seed(config.seed, "pretrain"))
        replay = replayed_stream(config, rng, 2)
        middle = rng.bit_generator.state
        replay += replayed_stream(config, rng, 2)
        assert len(received) == 2 * len(replay) == 16
        for got, want in zip(received, replay + replay):
            assert_same_bits(got, want)
        states = [json.loads(load_arrays(run.checkpoint_path)[1]["rng_state"]) for run in runs]
        assert states == [rng.bit_generator.state, middle, rng.bit_generator.state]


# the message of the DataError a monkeypatched view-pair draw raises
DRAW_ERROR = "view-pair draw failed"


def _fail_third_draw(monkeypatch, config: ExperimentConfig, stage: str) -> tuple[list, int]:
    """Run ``stage`` (pretrain, or the VAE target's training) of ``config``
    with its third view-pair draw failing: the names of the threads the
    draws ran on, and the number of Adam steps taken."""
    threads, steps = [], []
    draw, step = data.draw_views, Adam.step

    def failing(*args):
        threads.append(threading.current_thread().name)
        if len(threads) == 3:
            raise DataError("third draw")
        return draw(*args)

    monkeypatch.setattr(data, "draw_views", failing)
    monkeypatch.setattr(Adam, "step", lambda opt: steps.append(None) or step(opt))
    with pytest.raises(DataError, match="third draw"):
        prepare_target(config) if stage == "vae" else pretrain(config)
    return threads, len(steps)


class TestDrawWorker:
    @pytest.fixture
    def failing_draws(self, monkeypatch) -> list[str]:
        """Every view-pair draw raises DRAW_ERROR; the names of the threads
        the draws ran on."""
        threads = []

        def failing(*args):
            threads.append(threading.current_thread().name)
            raise DataError(DRAW_ERROR)

        monkeypatch.setattr(data, "draw_views", failing)
        return threads

    # a tiny config's layers queue no gradient job, so the worker's thread
    # never starts and every draw runs in the caller
    def test_draw_error_surfaces_from_pretrain(self, failing_draws):
        with pytest.raises(DataError) as info:
            pretrain(tiny_config())
        assert type(info.value) is DataError and str(info.value) == DRAW_ERROR
        assert failing_draws == ["MainThread"]

    def test_draw_error_surfaces_from_vae_training(self, failing_draws):
        config = tiny_config()
        with pytest.raises(DataError) as info:
            train_vae_pair(build_dataset(config), config.augment,
                           VAESpec(input_dim=16, encoder_widths=(16,), latent_dim=4),
                           VAETrainConfig(epochs=1, batch_size=16), seed=0)
        assert type(info.value) is DataError and str(info.value) == DRAW_ERROR
        assert failing_draws == ["MainThread"]

    @pytest.mark.parametrize("stage", ["pretrain", "vae"])
    def test_draw_error_raised_at_the_batch_it_was_drawn_for(self, monkeypatch, stage):
        # the third draw fails: two steps, then the error, as when drawn inline
        config = tiny_config(target=TargetConfig(source="vae" if stage == "vae" else "identity"))
        assert _fail_third_draw(monkeypatch, config, stage) == (["MainThread"] * 3, 2)

    @pytest.mark.parametrize("stage", ["pretrain", "vae"])
    def test_first_queued_job_moves_the_draws_to_the_thread(self, monkeypatch, stage):
        # batches 1 and 2 are drawn inline before the first step, whose
        # backward pass queues a job and starts the thread, which draws
        # batch 3; its error still comes after two steps
        monkeypatch.setattr(ag, "_spare_core", lambda: True)
        config = large_config(target=TargetConfig(source="vae" if stage == "vae" else "identity"))
        assert _fail_third_draw(monkeypatch, config, stage) == (
            ["MainThread", "MainThread", "view-pairs"], 2)

    def test_small_layers_start_no_thread(self, monkeypatch):
        # with a spare core, no layer of a tiny config reaches QUEUE_MACS
        def refuse(thread):
            raise AssertionError(f"thread {thread.name} started")

        monkeypatch.setattr(ag, "_spare_core", lambda: True)
        monkeypatch.setattr(threading.Thread, "start", refuse)
        pretrain(tiny_config())
        prepare_target(tiny_config(target=TargetConfig(source="vae")))

    @pytest.mark.parametrize("end", ["completed", "collapsed", "diverged", "VAE diverged",
                                     "interrupted"])
    def test_worker_joined_at_every_end(self, monkeypatch, tmp_path, end):
        # the large config also queues gradient jobs on the worker
        monkeypatch.setattr(ag, "_spare_core", lambda: True)
        if end == "interrupted":
            monkeypatch.setattr(Adam, "step", interrupt)
        for make, vae_batch in ((tiny_config, 16), (large_config, 128)):
            config, raised = {
                "completed": (make(), None),
                "collapsed": (constant_config(make), CollapseAbort),
                "diverged": (make(optimizer=OptimizerConfig(lr=1e200)), NumericalAbort),
                "VAE diverged": (make(target=TargetConfig(source="vae"), vae_train=VAETrainConfig(
                    epochs=2, batch_size=vae_batch, lr=1e200)), TrainingDivergedError),
                "interrupted": (make(), KeyboardInterrupt),
            }[end]
            before = threading.active_count()
            with (pytest.raises(raised) if raised else contextlib.nullcontext()), \
                    np.errstate(all="ignore"):
                if end == "VAE diverged":
                    prepare_target(config)
                else:
                    pretrain(config, run_dir=str(tmp_path / make.__name__))
            assert threading.active_count() == before


class TestQueuedGradientRuns:
    # a run whose backward passes queue parameter gradients on the worker
    # leaves the bytes of a run that computes them all inline
    def test_straight_split_and_inline_runs_are_identical(self, monkeypatch, tmp_path):
        monkeypatch.setattr(ag, "_spare_core", lambda: True)
        put, queued = ag._Pass.put, []
        monkeypatch.setattr(ag._Pass, "put", lambda *args: queued.append(1) or put(*args))
        config = large_config(target=TargetConfig(source="vae"))
        target = prepare_target(config)
        straight = pretrain(config, target=target, run_dir=str(tmp_path / "straight"))
        first = pretrain(replace(config, epochs=1), target=target,
                         run_dir=str(tmp_path / "split"))
        pretrain(config, target=target, run_dir=str(tmp_path / "split"),
                 resume=first.checkpoint_path)
        queued_jobs = len(queued)
        assert queued_jobs > 0
        monkeypatch.setattr(ag, "QUEUE_MACS", 2**62)
        inline_target = prepare_target(config)
        assert_same_bits(inline_target.matrix.values, target.matrix.values)
        pretrain(config, target=inline_target, run_dir=str(tmp_path / "inline"))
        assert straight.status == "completed" and len(queued) == queued_jobs

        def run_files(name):
            run_dir = tmp_path / name
            metrics = [{k: v for k, v in row.items() if k != "wall_ms"}
                       for row in read_rows(run_dir / "metrics.csv")]
            return (run_dir / "checkpoint.bin").read_bytes(), metrics

        assert run_files("split") == run_files("inline") == run_files("straight")


def interrupt(opt):
    raise KeyboardInterrupt


class TestRunArtifacts:
    def test_run_directory_contents(self, tmp_path):
        run_dir = tmp_path / "run"
        run = pretrain(tiny_config(), run_dir=str(run_dir))
        assert (run_dir / "manifest.json").exists()
        assert (run_dir / "metrics.csv").exists()
        assert (run_dir / "checkpoint.bin").exists()
        manifest = json.loads((run_dir / "manifest.json").read_text())
        assert manifest["status"] == "completed"
        assert manifest["epochs_completed"] == 2
        from corrcolor.diagnostics import read_rows
        rows = read_rows(run_dir / "metrics.csv")
        assert len(rows) == run.epochs_completed

    @pytest.mark.parametrize("pinned, cores", [(True, 2), (True, 1), (False, 2)])
    def test_manifest_records_the_software_environment(self, tmp_path, monkeypatch, pinned,
                                                        cores):
        # every end state records it (see the next test); replay and
        # show-config read only the config block
        monkeypatch.setattr(ag, "BLAS_PINNED", pinned)
        monkeypatch.setattr(ag.os, "sched_getaffinity", lambda pid: set(range(cores)),
                            raising=False)
        ag._spare_core.cache_clear()
        _environment.cache_clear()
        try:
            pretrain(tiny_config(), run_dir=str(tmp_path))
        finally:  # the next reader sees this process's own settings
            ag._spare_core.cache_clear()
            _environment.cache_clear()
        environment = json.loads((tmp_path / "manifest.json").read_text())["environment"]
        assert environment == {
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": {"name": np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"],
                     "version": environment["blas"]["version"]},
            "blas_pinned": pinned, "cpu_count": os.cpu_count(), "usable_cores": cores}
        assert environment["blas"]["version"]

    def test_every_end_state_records_the_same_fields(self, tmp_path):
        def manifest(run_dir):
            return json.loads((run_dir / "manifest.json").read_text())

        def keys(run_dir):
            return set(manifest(run_dir))

        pretrain(tiny_config(), run_dir=str(tmp_path / "completed"))
        completed = keys(tmp_path / "completed")
        with pytest.raises(CollapseAbort):
            pretrain(tiny_config(
                dataset=SparseDenseSpec(num_samples=64, sparse_dim=4, dense_dim=12,
                                        signal=0.0, sparse_noise=0.0, dense_noise=0.0, seed=1),
                augment=Augmentation(dense_noise_scale=0.0, dense_dropout_prob=0.0,
                                     scale_jitter=(1.0, 1.0))),
                run_dir=str(tmp_path / "collapsed"))
        with pytest.raises(NumericalAbort):
            with np.errstate(all="ignore"):
                pretrain(tiny_config(optimizer=OptimizerConfig(lr=1e200)),
                         run_dir=str(tmp_path / "diverged"))
        assert keys(tmp_path / "collapsed") == keys(tmp_path / "diverged") == completed
        resumed = tiny_config(epochs=4, optimizer=OptimizerConfig(lr=1e200))
        with pytest.raises(NumericalAbort):
            with np.errstate(all="ignore"):
                pretrain(resumed, run_dir=str(tmp_path / "resumed"),
                         resume=str(tmp_path / "completed" / "checkpoint.bin"))
        assert keys(tmp_path / "resumed") == completed | {"resumed_from", "resumed_at_epoch"}
        # abort is null only on a completed run; a collapse adds its columns
        aborts = {end: manifest(tmp_path / end)["abort"]
                  for end in ("completed", "collapsed", "diverged", "resumed")}
        assert aborts.pop("completed") is None
        assert set(aborts.pop("collapsed")) == {"epoch", "batch", "cause", "columns"}
        assert [set(abort) for abort in aborts.values()] == [{"epoch", "batch", "cause"}] * 2

    def test_run_failing_otherwise_keeps_its_running_manifest(self, tmp_path, monkeypatch):
        # a failure inside the epoch loop: the first epoch is recorded, the
        # second epoch's report fails
        report = training.compute_report

        def failing(epoch, *args, **kwargs):
            if epoch == 1:
                raise RuntimeError("report failed")
            return report(epoch, *args, **kwargs)

        monkeypatch.setattr(training, "compute_report", failing)
        with pytest.raises(RuntimeError, match="report failed"):
            pretrain(tiny_config(), run_dir=str(tmp_path))
        assert json.loads((tmp_path / "manifest.json").read_text())["status"] == "running"
        assert [int(r["epoch"]) for r in read_rows(tmp_path / "metrics.csv")] == [0]

    def test_manifest_reexecution_reproduces_run(self, tmp_path):
        from corrcolor.config import config_from_dict
        run = pretrain(tiny_config(), run_dir=str(tmp_path / "a"))
        manifest = json.loads((tmp_path / "a" / "manifest.json").read_text())
        rebuilt = config_from_dict(manifest["config"])
        run2 = pretrain(rebuilt, run_dir=str(tmp_path / "b"))
        assert metric_rows(run) == metric_rows(run2)

    def test_prepared_target_roundtrips_through_file(self, tmp_path):
        config = tiny_config(target=TargetConfig(source="vae"),
                             vae_train=VAETrainConfig(epochs=2, batch_size=16))
        artifact = prepare_target(config)
        path = tmp_path / "target.bin"
        save_target(artifact, path)
        file_config = tiny_config(target=TargetConfig(source="file", path=str(path)))
        run = pretrain(file_config)
        assert run.status == "completed"
        loaded = load_target(path)
        np.testing.assert_array_equal(loaded.matrix.values, artifact.matrix.values)


def _nodes_per_step(monkeypatch, run, *overrides):
    """Optimizer steps taken by ``run`` on the shipped config, and the set of
    graph node counts between consecutive steps."""
    path = os.path.join(os.path.dirname(__file__), os.pardir, "configs",
                        "synthetic_small.json")
    config, _ = parse_config(path, list(overrides))
    # every graph node draws one id; ids drawn between two optimizer
    # steps are the nodes one training step builds (plus our own draw)
    ids = []
    step = Adam.step

    def counted_step(opt):
        step(opt)
        ids.append(next(ag._node_ids))

    monkeypatch.setattr(Adam, "step", counted_step)
    run(config)
    return len(ids), {b - a - 1 for a, b in zip(ids, ids[1:])}


class TestGraphSize:
    # every network layer (linear, batch norm, ReLU) is one node
    def test_pretrain_step_on_shipped_config_builds_at_most_25_nodes(self, monkeypatch):
        steps, per_step = _nodes_per_step(monkeypatch, pretrain,
                                          "epochs=2", "target.source=identity")
        assert steps == 2 * 8 and max(per_step) <= 25, per_step

    def test_unshared_cross_step_builds_at_most_31_nodes(self, monkeypatch):
        # each view through its own heads: two more heads of three layers
        steps, per_step = _nodes_per_step(monkeypatch, pretrain, "epochs=2",
                                          "target.source=identity", "share_heads=false")
        assert steps == 2 * 8 and max(per_step) <= 31, per_step

    def test_auto_step_builds_at_most_23_nodes(self, monkeypatch):
        steps, per_step = _nodes_per_step(monkeypatch, pretrain, "epochs=2",
                                          "target.source=identity", "loss.variant=auto")
        assert steps == 2 * 8 and max(per_step) <= 23, per_step

    def test_vae_step_on_shipped_config_builds_at_most_17_nodes(self, monkeypatch):
        # one step trains both members of the stacked VAE pair
        steps, per_step = _nodes_per_step(monkeypatch, prepare_target,
                                          "vae_train.epochs=1", "target.source=vae")
        assert steps == 8 and max(per_step) <= 17, per_step


class TestFusedLayersMatchComposition:
    # every layer built from separate linear, batch-norm and ReLU nodes,
    # as before the layers were fused: training, checkpoint and the
    # inference-mode features must not move by a bit (the features pass
    # builds no node either way; TestDenseInference pins its layer to the
    # composed one)
    @pytest.mark.parametrize("variant, share_heads, batch_norm", [
        ("cross", True, True), ("cross", False, True), ("auto", True, True),
        ("cross", True, False)])
    def test_pretrain_and_features_bit_identical(self, monkeypatch, tmp_path, variant,
                                                 share_heads, batch_norm):
        from composed_layers import composed_dense
        from corrcolor.evaluation import encoder_features
        from corrcolor.training import build_dataset
        config = tiny_config(loss=LossConfig(lam=0.05, variant=variant), share_heads=share_heads,
                             encoder=EncoderSpec(widths=(24, 16, 12), tap_index=2,
                                                 batch_norm=batch_norm))
        target, dataset = prepare_target(config), build_dataset(config)
        results = []
        for layer in (ag.dense, composed_dense):
            monkeypatch.setattr(ag, "dense", layer)
            run = pretrain(config, target=target, run_dir=str(tmp_path / layer.__name__))
            with open(run.checkpoint_path, "rb") as fh:
                checkpoint = fh.read()
            features, _ = encoder_features(config, run.checkpoint_path, dataset)
            results.append((metric_rows(run), checkpoint, features))
        (rows, checkpoint, features), (rows_c, checkpoint_c, features_c) = results
        assert checkpoint == checkpoint_c
        assert_same_bits(rows, rows_c)
        assert_same_bits(features, features_c)


def _traced(call) -> tuple[int, int]:
    """Bytes that ``call()`` leaves allocated, and its peak above the start,
    as tracemalloc (which numpy reports its array data to) counts them."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        call()
        current, peak = tracemalloc.get_traced_memory()
        return current - start, peak - start
    finally:
        tracemalloc.stop()


def _c6_shapes(**overrides) -> ExperimentConfig:
    """Criterion-6 shapes: batch 256, every width 64, unshared heads; one
    batch per epoch."""
    return tiny_config(**{
        "dataset": SparseDenseSpec(num_samples=256, num_classes=8, sparse_dim=8, dense_dim=56,
                                   seed=1),
        "encoder": EncoderSpec(widths=(64, 64, 64), tap_index=2),
        "coloring_head": ProjectorSpec((64, 64, 64)),
        "whitening_head": ProjectorSpec((64, 64, 64)),
        "batch_size": 256, "epochs": 1, "share_heads": False, **overrides})


class TestGraphLifetime:
    # one step's graph is alive at a time, and backward() frees what the
    # backward closures saved
    @staticmethod
    def _loss(model: Model, x: np.ndarray):
        tap, final = model.backbone.forward(x, training=True)
        zw1, zw2 = map_views(model.whitening, final)
        zc1, zc2 = map_views(model.coloring, tap)
        loss_w = whitening_loss(cross_correlation(normalize_columns(zw1),
                                                  normalize_columns(zw2)), 0.01)
        loss_c = coloring_loss(cross_correlation(normalize_columns(zc1),
                                                 normalize_columns(zc2)), np.eye(64))
        return total_loss(loss_w, loss_c, 0.05)

    def _step(self):
        """A built graph after backward(), and the bytes and peak that took."""
        model = Model(_c6_shapes(), 64)
        x = np.random.default_rng(0).standard_normal((512, 64))
        graph = []
        held, peak = _traced(lambda: graph.append(self._loss(model, x)) or graph[0].backward())
        return graph[0], held, peak

    def test_backward_leaves_forward_outputs_and_gradients(self):
        loss, held, _ = self._step()
        nodes, stack, seen = [], [loss], set()
        while stack:
            node = stack.pop()
            if id(node) not in seen:
                seen.add(id(node))
                nodes.append(node)
                stack.extend(node._parents)
        outputs = sum(n.data.nbytes for n in nodes if n._parents)
        grads = sum(n.grad.nbytes for n in nodes if n.grad is not None)
        assert held <= 1.05 * (outputs + grads), (held, outputs, grads)

    @pytest.mark.parametrize("variant", ["cross", "auto"])
    def test_three_steps_peak_as_one(self, variant):
        config = _c6_shapes(loss=LossConfig(lam=0.05, variant=variant))
        pretrain(config)  # first-call allocations are not a step's
        _, one = _traced(lambda: pretrain(config))
        _, three = _traced(lambda: pretrain(replace(config, epochs=3)))
        _, _, step = self._step()
        # a second live graph would add about ``step`` bytes to the peak
        assert three - one < 0.25 * step, (one, three, step)
