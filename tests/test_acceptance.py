"""Acceptance suite: one test per numbered criterion.

Each test prints a ``criterion N: PASS/FAIL`` line (visible with
``pytest -s`` or in captured output on failure).  Criteria backed by
multi-seed pretraining experiments are marked ``slow``; the exact
numerical criteria run in seconds.
"""

import json
import os
import time

import numpy as np
import pytest

from corrcolor import autograd as ag
from corrcolor.autograd import astensor, parameter
from corrcolor.data import Augmentation, SparseDenseSpec, generate_sparse_dense
from corrcolor.evaluation import ablation_sweep
from corrcolor.losses import (LossConfig, auto_correlation, coloring_loss,
                              cross_correlation, neg_log_posterior, normalize_columns,
                              total_loss, whitening_loss)
from corrcolor.networks import EncoderSpec, ProjectorSpec, VAESpec
from corrcolor.target import compute_target, save_target, train_vae_pair
from corrcolor.training import (CollapseAbort, EvalConfig, ExperimentConfig,
                                OptimizerConfig, TargetConfig, VAETrainConfig,
                                correlation_stage_macs, prepare_target, pretrain)

from test_losses import (oracle_coloring_loss, oracle_cross_correlation,
                         oracle_whitening_loss)
from test_target import oracle_target_matrix
from same_bits import same_bits


def report(number: int, ok: bool, detail: str = ""):
    print(f"criterion {number}: {'PASS' if ok else 'FAIL'} {detail}".rstrip())
    assert ok, f"criterion {number} failed: {detail}"


# ---------------------------------------------------------------------
# 1. exact loss oracles
# ---------------------------------------------------------------------


class TestCriterion1LossOracles:
    def test_loss_oracles_exact(self):
        rng = np.random.default_rng(1)
        # fixed points
        e = rng.uniform(-1, 1, (6, 6))
        exact_zero = coloring_loss(astensor(e.copy()), e).item() == 0.0
        identity_zero = whitening_loss(astensor(np.eye(6)), 0.01).item() == 0.0

        worst = 0.0
        for _ in range(100):
            m = int(rng.integers(3, 12))
            d = int(rng.integers(2, 8))
            z1 = rng.standard_normal((m, d))
            z2 = rng.standard_normal((m, d))
            c_path = cross_correlation(normalize_columns(z1), normalize_columns(z2)).data
            worst = max(worst, np.abs(c_path - oracle_cross_correlation(z1, z2)).max())

            a_path = auto_correlation(normalize_columns(z1)).data
            worst = max(worst, np.abs(a_path - oracle_cross_correlation(z1, z1)).max())

            c = rng.uniform(-1, 1, (d, d))
            e = rng.uniform(-1, 1, (d, d))
            worst = max(worst, abs(coloring_loss(astensor(c.copy()), e).item()
                                   - oracle_coloring_loss(c, e)))
            worst = max(worst, abs(whitening_loss(astensor(c.copy()), 0.01).item()
                                   - oracle_whitening_loss(c, 0.01)))
        report(1, exact_zero and identity_zero and worst < 1e-10,
               f"(max oracle deviation {worst:.2e})")


# ---------------------------------------------------------------------
# 2. gradient suite on full objective through networks
# ---------------------------------------------------------------------


class TestCriterion2GradientSuite:
    def test_full_objective_gradients_match_finite_differences(self):
        start = time.time()
        rng = np.random.default_rng(2)
        worst_rel = 0.0
        # networks with 1, 2 and 3 hidden layers
        for widths, tap in (((10,), 1), ((10, 8), 1), ((12, 10, 8), 2)):
            from corrcolor.networks import Backbone, Projector
            enc = EncoderSpec(widths, tap_index=tap, batch_norm=True,
                              allow_tap_at_final=(tap == len(widths)))
            backbone = Backbone(enc, 6, seed=int(rng.integers(1 << 30)))
            coloring = Projector(ProjectorSpec((6, 6, 4)), enc.tap_dim,
                                 seed=int(rng.integers(1 << 30)), name="c")
            whitening = Projector(ProjectorSpec((6, 6, 4)), enc.output_dim,
                                  seed=int(rng.integers(1 << 30)), name="w")
            e_target = np.clip(rng.uniform(-0.5, 0.5, (4, 4)), -1, 1)
            x = rng.standard_normal((8, 6))
            m = 4

            def objective():
                tap_out, fin = backbone.forward(x, training=True)
                zc = coloring(tap_out, training=True)
                zw = whitening(fin, training=True)
                c = cross_correlation(normalize_columns(ag.rows(zc, 0, m)),
                                      normalize_columns(ag.rows(zc, m, 2 * m)))
                w = cross_correlation(normalize_columns(ag.rows(zw, 0, m)),
                                      normalize_columns(ag.rows(zw, m, 2 * m)))
                return total_loss(whitening_loss(w, 0.01), coloring_loss(c, e_target),
                                  0.05)

            loss = objective()
            loss.backward()
            params = {}
            for mod in (backbone, coloring, whitening):
                params.update(mod.parameters())
            flat = [(name, p, idx) for name, p in sorted(params.items())
                    for idx in range(p.data.size)]
            picks = rng.choice(len(flat), size=20, replace=False)
            h = 1e-5
            for k in picks:
                name, p, idx = flat[k]
                view = p.data.reshape(-1)
                orig = view[idx]
                view[idx] = orig + h
                hi = objective().item()
                view[idx] = orig - h
                lo = objective().item()
                view[idx] = orig
                numeric = (hi - lo) / (2 * h)
                analytic = p.grad.reshape(-1)[idx]
                denom = max(abs(numeric), abs(analytic))
                if denom > 1e-8:
                    worst_rel = max(worst_rel, abs(numeric - analytic) / denom)
        elapsed = time.time() - start
        report(2, worst_rel < 1e-4 and elapsed < 60,
               f"(max relative error {worst_rel:.2e}, {elapsed:.1f}s)")


# ---------------------------------------------------------------------
# 3. MAP correspondence
# ---------------------------------------------------------------------


class TestCriterion3MapCorrespondence:
    def test_gradient_proportionality(self):
        rng = np.random.default_rng(3)
        worst = 0.0
        for _ in range(20):
            d = int(rng.integers(2, 7))
            sigma = float(rng.uniform(0.2, 3.0))
            c_values = rng.uniform(-1, 1, (d, d))
            w_values = rng.uniform(-1, 1, (d, d))
            e = rng.uniform(-1, 1, (d, d))

            c1, w1 = parameter(c_values.copy()), parameter(w_values.copy())
            neg_log_posterior(c1, w1, e, sigma).backward()

            c2, w2 = parameter(c_values.copy()), parameter(w_values.copy())
            total_loss(whitening_loss(w2, alpha=1.0), coloring_loss(c2, e),
                       lam=1.0).backward()

            factor = 1.0 / (2.0 * sigma * sigma)
            worst = max(worst, np.abs(c1.grad - factor * c2.grad).max())
            worst = max(worst, np.abs(w1.grad - factor * w2.grad).max())
        report(3, worst < 1e-10, f"(max gradient deviation {worst:.2e})")


# ---------------------------------------------------------------------
# 4. target reproducibility on a 16-sample toy dataset
# ---------------------------------------------------------------------


class TestCriterion4TargetReproducibility:
    def test_matches_double_loop_and_is_bit_identical(self):
        dataset = generate_sparse_dense(SparseDenseSpec(
            num_samples=16, sparse_dim=4, dense_dim=8, signal=2.0, seed=4))
        protocol = Augmentation(dense_noise_scale=0.5, dense_dropout_prob=0.2,
                                scale_jitter=(0.9, 1.1))
        vae_spec = VAESpec(input_dim=12, encoder_widths=(10,), latent_dim=4)
        vae, _ = train_vae_pair(dataset, protocol, vae_spec,
                                VAETrainConfig(epochs=3, batch_size=8), seed=5)
        first = compute_target(vae, dataset, protocol, seed=6)
        second = compute_target(vae, dataset, protocol, seed=6)
        oracle = oracle_target_matrix(vae, dataset, protocol, seed=6)
        deviation = np.abs(first.matrix.values - oracle).max()
        bit_identical = same_bits(first.matrix.values, second.matrix.values)
        report(4, deviation < 1e-10 and bit_identical,
               f"(oracle deviation {deviation:.2e}, bit-identical={bit_identical})")


# ---------------------------------------------------------------------
# 5-8. experiment-backed directional criteria (slow)
# ---------------------------------------------------------------------
#
# The synthetic benchmark pinned by criterion 6: n=2000 samples,
# projector output d=64, 200 pretraining epochs, three seeds.  The
# remaining dataset/architecture choices are fixed here: 8 classes with
# distinct sign patterns on an 8-dim sparse block, 56 nuisance
# dimensions, strong dense augmentation, and per-view (unshared)
# projector heads so the cross-VAE target is satisfiable by signal
# features alone.

BENCHMARK_SEEDS = (0, 1, 2)


def benchmark_config(lam, seed, variant="cross"):
    return ExperimentConfig(
        dataset=SparseDenseSpec(num_samples=2000, num_classes=8, sparse_dim=8,
                                dense_dim=56, signal=2.0, sparse_noise=0.1,
                                dense_noise=1.0, seed=1),
        augment=Augmentation(dense_noise_scale=2.0, dense_dropout_prob=0.5,
                             scale_jitter=(0.95, 1.05)),
        encoder=EncoderSpec(widths=(64, 64, 64), tap_index=2),
        coloring_head=ProjectorSpec((64, 64, 64)),
        whitening_head=ProjectorSpec((64, 64, 64)),
        loss=LossConfig(lam=lam, variant=variant),
        target=TargetConfig(source="vae"),
        vae_train=VAETrainConfig(epochs=40, lr=3e-3, beta_kl=0.05, batch_size=128),
        eval=EvalConfig(probe_epochs=60, batch_size=128),
        optimizer=OptimizerConfig(lr=3e-3, weight_decay=5e-6),
        batch_size=256, epochs=200, seed=seed, share_heads=False)


@pytest.fixture(scope="module")
def benchmark_results(tmp_path_factory):
    """All benchmark arms, shared across criteria 6-8.

    Targets are built once (fixed seed) and reused across pretraining
    seeds; one sweep runs a pretrain + probe per (arm, seed), one per
    usable core at a time.
    """
    base = tmp_path_factory.mktemp("benchmark")
    paths = {}
    for variant in ("cross", "auto"):
        paths[variant] = str(base / f"{variant}_target.bin")
        save_target(prepare_target(benchmark_config(0.05, 100, variant)), paths[variant])
    arms = {"plain": (0.0, "cross"), "color": (0.05, "cross"), "heavy": (1.0, "cross"),
            "auto": (0.05, "auto")}
    cells = [(name, seed) for name in arms for seed in BENCHMARK_SEEDS]
    fragments = [{"seed": seed, "loss": {"lambda": arms[name][0], "variant": arms[name][1]},
                  "target": {"source": "file", "path": paths[arms[name][1]]}}
                 for name, seed in cells]
    rows = ablation_sweep(benchmark_config(0.05, 0), None, fragments)
    results = {name: {"accuracies": []} for name in arms}
    for (name, _), row in zip(cells, rows):
        assert row["status"] == "ok", row["error"]
        results[name]["accuracies"].append(row["accuracy"])
    for result in results.values():
        result["mean"] = float(np.mean(result["accuracies"]))
    return results


@pytest.mark.slow
class TestCriterion5CollapseAvoidance:
    def test_coloring_preserves_variance_majority_vote(self):
        # deliberately collapse-prone: alpha=0, no batch norm anywhere,
        # strong weight decay pulling toward the constant solution
        def collapse_config(lam, seed):
            return ExperimentConfig(
                dataset=SparseDenseSpec(num_samples=512, num_classes=4, sparse_dim=6,
                                        dense_dim=26, signal=2.0, dense_noise=1.0,
                                        seed=3),
                augment=Augmentation(dense_noise_scale=1.0, dense_dropout_prob=0.3,
                                     scale_jitter=(0.95, 1.05)),
                encoder=EncoderSpec(widths=(48, 48, 32), tap_index=2, batch_norm=False),
                coloring_head=ProjectorSpec((32, 32, 16), batch_norm=False),
                whitening_head=ProjectorSpec((32, 32, 16), batch_norm=False),
                loss=LossConfig(lam=lam, alpha=0.0),
                target=TargetConfig(source="vae"),
                vae_train=VAETrainConfig(epochs=20, beta_kl=0.01, batch_size=64),
                optimizer=OptimizerConfig(lr=3e-3, weight_decay=1e-2),
                batch_size=64, epochs=150, seed=seed)

        start = time.time()
        target = prepare_target(collapse_config(0.05, 0))

        def final_variance(lam, seed):
            try:
                run = pretrain(collapse_config(lam, seed), target=target)
                return run.final_variance
            except CollapseAbort as abort:
                return abort.run.final_variance

        wins = []
        pairs = []
        for seed in BENCHMARK_SEEDS:
            with_coloring = final_variance(0.05, seed)
            without = final_variance(0.0, seed)
            wins.append(with_coloring > without)
            pairs.append((round(with_coloring, 3), round(without, 3)))
        elapsed = time.time() - start
        report(5, sum(wins) >= 2 and elapsed < 900,
               f"(variance with/without coloring per seed: {pairs}, {elapsed:.0f}s)")


@pytest.mark.slow
class TestCriterion6FeatureDecouplingBenefit:
    def test_coloring_mean_accuracy_at_least_whitening_only(self, benchmark_results):
        color = benchmark_results["color"]
        plain = benchmark_results["plain"]
        report(6, color["mean"] >= plain["mean"],
               f"(coloring mean {color['mean']:.4f} vs whitening-only {plain['mean']:.4f}; "
               f"per-seed {color['accuracies']} vs {plain['accuracies']})")


@pytest.mark.slow
class TestCriterion7LambdaSensitivityShape:
    def test_moderate_lambda_beats_heavy(self, benchmark_results):
        color = benchmark_results["color"]
        heavy = benchmark_results["heavy"]
        report(7, color["mean"] > heavy["mean"],
               f"(lambda=0.05 mean {color['mean']:.4f} vs lambda=1.0 {heavy['mean']:.4f})")


@pytest.mark.slow
class TestCriterion8AutoCorrelationVariant:
    def test_macs_strictly_below_and_accuracy_within_five_points(self, benchmark_results):
        auto = benchmark_results["auto"]
        color = benchmark_results["color"]
        config = benchmark_config(0.05, 0)
        auto_macs, cross_macs = (
            correlation_stage_macs(variant, config.batch_size, config.coloring_head.output_dim,
                                   config.whitening_head.output_dim)
            for variant in ("auto", "cross"))
        gap = abs(auto["mean"] - color["mean"])
        report(8, auto_macs < cross_macs and gap <= 0.05,
               f"(MACs {auto_macs} < {cross_macs}; accuracy gap {gap * 100:.2f} points, "
               f"auto {auto['mean']:.4f} vs cross {color['mean']:.4f})")


# ---------------------------------------------------------------------
# 9. determinism and resume
# ---------------------------------------------------------------------


class TestCriterion9DeterminismAndResume:
    def test_split_run_and_manifest_reproduction(self, tmp_path):
        def run_config(epochs):
            return ExperimentConfig(
                dataset=SparseDenseSpec(num_samples=64, sparse_dim=4, dense_dim=12,
                                        seed=9),
                encoder=EncoderSpec(widths=(24, 16, 12), tap_index=2),
                coloring_head=ProjectorSpec((16, 16, 8)),
                whitening_head=ProjectorSpec((16, 16, 8)),
                loss=LossConfig(lam=0.05),
                target=TargetConfig(source="identity"),
                batch_size=16, epochs=epochs, seed=3)

        def rows(run):
            # wall-clock excluded: every numeric training metric compared
            return [(r.epoch, r.lam, r.loss_total, r.loss_w, r.loss_c, r.variance,
                     r.effective_rank, r.alignment) for r in run.metrics]

        straight = pretrain(run_config(4), run_dir=str(tmp_path / "straight"))
        first = pretrain(run_config(2), run_dir=str(tmp_path / "first"))
        resumed = pretrain(run_config(4), run_dir=str(tmp_path / "resumed"),
                           resume=first.checkpoint_path)
        split_ok = rows(first) + rows(resumed) == rows(straight)

        from corrcolor.config import config_from_dict
        manifest = json.loads((tmp_path / "straight" / "manifest.json").read_text())
        replay = pretrain(config_from_dict(manifest["config"]),
                          run_dir=str(tmp_path / "replay"))
        manifest_ok = rows(replay) == rows(straight)
        report(9, split_ok and manifest_ok,
               f"(split-run identical={split_ok}, manifest replay identical={manifest_ok})")


# ---------------------------------------------------------------------
# 10. end-to-end CLI smoke under ten minutes
# ---------------------------------------------------------------------


class TestCriterion10EndToEndSmoke:
    def test_cli_pipeline(self, tmp_path):
        from corrcolor.cli import main
        config = os.path.join(os.path.dirname(__file__), os.pardir, "configs",
                              "synthetic_small.json")
        out = str(tmp_path / "run")
        start = time.time()
        codes = [
            main(["compute-target", "--config", config, "--out", out]),
            main(["pretrain", "--config", config, "--out", out]),
            main(["eval", "--config", config, "--out", out]),
            main(["diagnose", "--config", config, "--out", out, "--svg"]),
        ]
        elapsed = time.time() - start
        artifacts = all(os.path.exists(os.path.join(out, name)) for name in
                        ("target.bin", "checkpoint.bin", "metrics.csv", "eval.csv",
                         "diagnostics.csv", "diagnostics.svg", "manifest.json"))
        report(10, codes == [0, 0, 0, 0] and artifacts and elapsed < 600,
               f"(exit codes {codes}, {elapsed:.0f}s)")
