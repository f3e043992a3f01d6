import json
import os

import numpy as np
import pytest

from corrcolor import autograd as ag
from corrcolor.config import parse_config
from corrcolor.data import SparseDenseSpec
from corrcolor.losses import LossConfig
from corrcolor.networks import ProjectorSpec
from corrcolor.optim import Adam
from corrcolor.target import load_target, save_target
from corrcolor.training import (AugmentConfig, CollapseAbort, EncoderConfig,
                                ExperimentConfig, PrerequisiteError, TargetConfig,
                                TrainingError, VAETrainConfig, correlation_stage_macs,
                                prepare_target, pretrain, resume_from)


def tiny_config(**overrides) -> ExperimentConfig:
    defaults = dict(
        dataset=SparseDenseSpec(num_samples=64, sparse_dim=4, dense_dim=12, seed=123),
        augment=AugmentConfig(dense_noise_scale=0.5, dense_dropout_prob=0.2,
                              scale_jitter=(0.9, 1.1)),
        encoder=EncoderConfig(widths=(24, 16, 12), tap_index=2),
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
        with pytest.raises(TrainingError, match="needs a target-kind matrix"):
            pretrain(tiny_config(), target=auto_target)

    def test_whitening_only_baseline(self):
        run = pretrain(tiny_config(loss=LossConfig(lam=0.0)))
        assert run.status == "completed"
        assert all(r.loss_c == 0.0 for r in run.metrics)
        assert all(r.loss_total == r.loss_w for r in run.metrics)

    def test_tap_at_final_layer_with_flag(self):
        config = tiny_config(
            encoder=EncoderConfig(widths=(24, 16, 12), tap_index=3,
                                  allow_tap_at_final=True),
            coloring_head=ProjectorSpec((16, 16, 8)))
        run = pretrain(config)
        assert run.status == "completed"

    def test_unshared_heads_flag(self):
        run = pretrain(tiny_config(share_heads=False))
        assert run.status == "completed"

    def test_missing_target_file_is_prerequisite_error(self):
        config = tiny_config(target=TargetConfig(source="vae", path="/nonexistent/t.bin"))
        with pytest.raises(PrerequisiteError, match="compute-target"):
            pretrain(config)

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
            model, _, _ = load_model(cfg, dataset.flat_dim(), checkpoint_path)
            rng = np.random.default_rng(99)
            v1, v2 = augment_batch_pair(dataset.features[:256],
                                        cfg.augment.protocol_for(dataset), rng)
            _, f1 = model.backbone.forward(v1, training=True)
            _, f2 = model.backbone.forward(v2, training=True)
            z1 = model.whitening(f1, training=True)
            z2 = model.whitening(f2, training=True)
            w = cross_correlation(normalize_columns(z1), normalize_columns(z2)).data
            return float(np.abs(w - np.diag(np.diag(w))).mean())

        def stage_config(epochs):
            return ExperimentConfig(
                dataset=SparseDenseSpec(num_samples=512, sparse_dim=4, dense_dim=28,
                                        signal=2.0, seed=1),
                encoder=EncoderConfig(widths=(48, 48, 32), tap_index=2),
                coloring_head=ProjectorSpec((32, 32, 32)),
                whitening_head=ProjectorSpec((32, 32, 32)),
                loss=LossConfig(lam=0.05, alpha=0.1),
                target=TargetConfig(source="identity"),
                batch_size=128, epochs=epochs, seed=0)

        import tempfile
        with tempfile.TemporaryDirectory() as tmp:
            peak_run = pretrain(stage_config(25), run_dir=os.path.join(tmp, "peak"))
            peak = mean_off_diag(peak_run.checkpoint_path, stage_config(25))
            final_run = resume_from(peak_run.checkpoint_path, stage_config(80),
                                    run_dir=os.path.join(tmp, "final"))
            final = mean_off_diag(final_run.checkpoint_path, stage_config(80))
            assert final < peak


class TestCollapseAbort:
    def test_constant_dataset_aborts_with_dump(self, tmp_path):
        config = tiny_config(
            dataset=SparseDenseSpec(num_samples=64, sparse_dim=4, dense_dim=12,
                                    signal=0.0, sparse_noise=0.0, dense_noise=0.0,
                                    seed=1),
            augment=AugmentConfig(dense_noise_scale=0.0, dense_dropout_prob=0.0,
                                  scale_jitter=(1.0, 1.0)))
        with pytest.raises(CollapseAbort) as exc_info:
            pretrain(config, run_dir=str(tmp_path / "run"))
        abort = exc_info.value
        assert abort.run.status == "collapsed"
        assert abort.epoch == 0
        dump = json.loads((tmp_path / "run" / "collapse.json").read_text())
        assert dump["epoch"] == 0
        assert len(dump["columns"]) > 0


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
        with pytest.raises(TrainingError, match="auto-kind"):
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
        resumed = resume_from(first.checkpoint_path, straight_config,
                              run_dir=str(tmp_path / "second"))

        assert metric_rows(first) + metric_rows(resumed) == metric_rows(straight)

    def test_resume_with_changed_lambda_allowed(self, tmp_path):
        first = pretrain(tiny_config(epochs=2), run_dir=str(tmp_path / "a"))
        changed = tiny_config(epochs=4, loss=LossConfig(lam=0.2))
        run = resume_from(first.checkpoint_path, changed, run_dir=str(tmp_path / "b"))
        assert run.status == "completed"
        manifest = json.loads((tmp_path / "b" / "manifest.json").read_text())
        assert manifest["resumed_from"] == first.checkpoint_path
        assert manifest["config"]["loss"]["lam"] == 0.2

    def test_resume_with_changed_dim_rejected(self, tmp_path):
        first = pretrain(tiny_config(epochs=2), run_dir=str(tmp_path / "a"))
        changed = tiny_config(epochs=4, coloring_head=ProjectorSpec((16, 16, 6)))
        with pytest.raises(TrainingError, match="dimension"):
            resume_from(first.checkpoint_path, changed)

    def test_resume_missing_checkpoint_prerequisite(self):
        with pytest.raises(PrerequisiteError, match="pretrain"):
            resume_from("/nonexistent/ckpt.bin", tiny_config(epochs=4))

    def test_resume_past_requested_epochs_rejected(self, tmp_path):
        first = pretrain(tiny_config(epochs=2), run_dir=str(tmp_path / "a"))
        with pytest.raises(TrainingError, match="already has"):
            resume_from(first.checkpoint_path, tiny_config(epochs=2))


class TestImageModality:
    def test_pretrain_on_raw_image_dataset(self, tmp_path):
        from corrcolor.data import save_image_set
        rng = np.random.default_rng(0)
        n, h, w = 48, 8, 8
        labels = np.arange(n) % 2
        images = rng.random((n, h, w)) * 0.3
        images[labels == 1, 2:6, 2:6] += 0.5  # class-1 bright center patch
        images = np.clip(images, 0.0, 1.0)
        path = tmp_path / "toy.img"
        save_image_set(path, images, labels)

        from corrcolor.training import ImageSource
        config = tiny_config(
            dataset=ImageSource(str(path)),
            encoder=EncoderConfig(widths=(32, 24, 16), tap_index=2),
            coloring_head=ProjectorSpec((16, 16, 8)),
            whitening_head=ProjectorSpec((16, 16, 8)),
            augment=AugmentConfig(mirror_prob=0.5, crop_scale=(0.7, 1.0),
                                  brightness_jitter=0.1, contrast_jitter=0.1),
            batch_size=16, epochs=2)
        run = pretrain(config, run_dir=str(tmp_path / "run"))
        assert run.status == "completed"
        assert run.epochs_completed == 2


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
        from corrcolor.diagnostics import read_metrics
        rows = read_metrics(run_dir / "metrics.csv")
        assert len(rows) == run.epochs_completed

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


class TestGraphSize:
    def test_pretrain_step_on_shipped_config_builds_at_most_60_nodes(self, monkeypatch):
        # every graph node draws one id; ids drawn between two optimizer
        # steps are the nodes one training step builds (plus our own draw)
        path = os.path.join(os.path.dirname(__file__), os.pardir, "configs",
                            "synthetic_small.json")
        config, _ = parse_config(path, ["epochs=2", "target.source=identity"])
        ids = []
        step = Adam.step

        def counted_step(opt):
            step(opt)
            ids.append(next(ag._node_ids))

        monkeypatch.setattr(Adam, "step", counted_step)
        pretrain(config)
        per_step = {b - a - 1 for a, b in zip(ids, ids[1:])}
        assert len(ids) == 2 * 8 and max(per_step) <= 60, per_step
