import threading

import numpy as np
import pytest

from corrcolor import target
from corrcolor.autograd import parameter
from corrcolor.data import (Augmentation, SparseDenseSpec, augment_batch_pair, augment_once,
                            generate_sparse_dense)
from corrcolor.losses import (CollapseError, LossError, auto_correlation, cross_correlation,
                              normalize_columns)
from corrcolor.networks import VAE, ProjectorSpec, VAESpec, vae_loss
from corrcolor.optim import Adam
from corrcolor.seeding import derive_seed
from corrcolor.target import (TargetArtifact, TargetError, TrainingDivergedError,
                              compute_target, compute_target_auto, identity_target,
                              latent_group_split, load_target, save_target, train_vae_pair,
                              train_vae_single)
from corrcolor.training import TrainingError, VAETrainConfig
from same_bits import assert_same_bits


def small_setup(n=32, seed=0):
    ds = generate_sparse_dense(SparseDenseSpec(num_samples=n, sparse_dim=4, dense_dim=12,
                                               seed=seed))
    protocol = Augmentation(dense_noise_scale=0.5, dense_dropout_prob=0.2,
                            scale_jitter=(0.9, 1.1))
    vae_spec = VAESpec(input_dim=16, encoder_widths=(12,), latent_dim=4)
    return ds, protocol, vae_spec


def train(epochs, batch_size=64, lr=1e-3, beta_kl=1.0):
    return VAETrainConfig(epochs=epochs, batch_size=batch_size, lr=lr, beta_kl=beta_kl)


def oracle_target_matrix(vae, dataset, protocol, seed):
    """Literal double loop over the whole dataset with explicit denominators,
    reusing the exact view-pair stream of compute_target."""
    rng = np.random.default_rng(derive_seed(seed, "target-views"))
    n, d = len(dataset), vae.spec.latent_dim
    lat1, lat2 = np.empty((n, d)), np.empty((n, d))
    for k in range(n):
        v1 = augment_once(dataset.features[k], protocol, dataset.sparse_dim, rng).reshape(1, -1)
        v2 = augment_once(dataset.features[k], protocol, dataset.sparse_dim, rng).reshape(1, -1)
        lat1[k], lat2[k] = vae.latent_means(np.concatenate([v1, v2]))
    a = lat1 - lat1.mean(axis=0)
    b = lat2 - lat2.mean(axis=0)
    out = np.zeros((d, d))
    for i in range(d):
        for j in range(d):
            num = sum(a[k, i] * b[k, j] for k in range(n))
            den = np.sqrt(sum(a[k, i] ** 2 for k in range(n))) * \
                np.sqrt(sum(b[k, j] ** 2 for k in range(n)))
            out[i, j] = num / den
    return out


class TestVAEPairTraining:
    def test_training_reduces_reconstruction_loss(self):
        ds, protocol, vae_spec = small_setup()
        _, info = train_vae_pair(ds, protocol, vae_spec, train(1, batch_size=16, lr=3e-3),
                                 seed=1)
        for side in ("vae1", "vae2"):
            assert np.isfinite(info[side]["last_epoch_loss"])
            assert info[side]["trained_recon"] < info[side]["untrained_recon"]

    def test_identical_seed_identical_parameters(self):
        ds, protocol, vae_spec = small_setup()
        a, _ = train_vae_pair(ds, protocol, vae_spec, train(2, batch_size=16), seed=5)
        b, _ = train_vae_pair(ds, protocol, vae_spec, train(2, batch_size=16), seed=5)
        for name, tensor in a.parameters().items():
            np.testing.assert_array_equal(tensor.data, b.parameters()[name].data)

    def test_pair_members_differ(self):
        ds, protocol, vae_spec = small_setup()
        vae, _ = train_vae_pair(ds, protocol, vae_spec, train(1, batch_size=16), seed=5)
        w = vae.parameters()["vae.enc1.weight"].data
        assert vae.members == 2
        assert not np.array_equal(w[0], w[1])

    def test_zero_epochs_rejected(self):
        # the training section rejects it before any VAE is built
        with pytest.raises(TrainingError, match="epochs"):
            train(0)


def _lone_vae(spec, seed):
    """A single VAE without a member axis, so that every layer takes the
    2-D linear path: the VAE the pair was trained as before stacking."""
    vae = VAE(spec, seed=seed)
    for layer in vae.layers:
        layer.weight = parameter(layer.weight.data[0])
        layer.bias = parameter(layer.bias.data[0])
    return vae


def _reference_train(vae, name, dataset, aug, config, seed, deterministic, sides):
    """The sequential per-side loop: one VAE replays the whole pair stream,
    draws both views and keeps the given sides."""
    opt = Adam(vae.parameters(), lr=config.lr)
    pair_rng = np.random.default_rng(derive_seed(seed, "views"))
    model_rng = np.random.default_rng(derive_seed(seed, f"{name}-noise"))
    n = len(dataset)
    first_loss = last_loss = first_recon = last_recon = None
    for _ in range(config.epochs):
        order = pair_rng.permutation(n)
        epoch_loss = epoch_recon = 0.0
        batches = 0
        for start in range(0, n, config.batch_size):
            idx = order[start:start + config.batch_size]
            if len(sides) * idx.size < 2:
                continue
            pair = augment_batch_pair(dataset.features[idx], aug, dataset.sparse_dim, pair_rng)
            views = np.concatenate([pair[s] for s in sides])
            eps = None if deterministic else model_rng.standard_normal(
                (views.shape[0], vae.spec.latent_dim))
            recon, mu, logvar, _ = vae.forward(views, eps)
            loss, _ = vae_loss(recon, views, mu, logvar, beta_kl=config.beta_kl)
            loss.backward()
            opt.step()
            opt.zero_grad()
            epoch_loss += loss.item()
            epoch_recon += float(np.mean((recon.data - views) ** 2))
            batches += 1
        epoch_loss /= batches
        epoch_recon /= batches
        if first_loss is None:
            first_loss, first_recon = epoch_loss, epoch_recon
        last_loss, last_recon = epoch_loss, epoch_recon
    return {"first_epoch_loss": first_loss, "last_epoch_loss": last_loss,
            "first_epoch_recon": first_recon, "last_epoch_recon": last_recon}


def _reference_recon(vae, dataset):
    recon, _, _, _ = vae.forward(dataset.features)
    return float(np.mean((recon.data - dataset.features) ** 2))


def _reference_target(vaes, dataset, aug, seed, draws):
    """The per-VAE latent pass: views drawn sample by sample, one latent
    call per VAE."""
    rng = np.random.default_rng(derive_seed(seed, "target-views"))
    n, acc = len(dataset), None
    for _ in range(draws):
        views = [[augment_once(x, aug, dataset.sparse_dim, rng) for _ in vaes]
                 for x in dataset.features]
        zs = [normalize_columns(vae.latent_means(np.stack([v[k] for v in views]).reshape(n, -1)))
              for k, vae in enumerate(vaes)]
        values = (auto_correlation(*zs) if len(vaes) == 1 else cross_correlation(*zs)).data
        acc = values if acc is None else acc + values
    values = np.clip(acc / draws, -1.0, 1.0)
    if len(vaes) == 1:
        np.fill_diagonal(values, 1.0)
    return values


def _assert_members_equal(stacked, lones):
    for name, tensor in stacked.parameters().items():
        for s, lone in enumerate(lones):
            assert_same_bits(tensor.data[s], lone.parameters()[name].data, f"{name}[{s}]")


class TestStackedPairMatchesSequentialTraining:
    # 33 samples in batches of 8 leave a one-sample last batch, which the
    # pair skips and the single VAE trains on
    @pytest.mark.parametrize("deterministic", [False, True])
    @pytest.mark.parametrize("beta_kl", [0.0, 0.01])
    def test_pair_bit_identical(self, deterministic, beta_kl):
        ds, protocol, vae_spec = small_setup(n=33, seed=3)
        config = train(2, batch_size=8, lr=3e-3, beta_kl=beta_kl)
        vae, info = train_vae_pair(ds, protocol, vae_spec, config, seed=4,
                                   deterministic_latents=deterministic)

        lones = [_lone_vae(vae_spec, derive_seed(4, f"{name}-init")) for name in ("vae1", "vae2")]
        untrained = [_reference_recon(lone, ds) for lone in lones]
        expected = {}
        for side, (name, lone) in enumerate(zip(("vae1", "vae2"), lones)):
            expected[name] = _reference_train(lone, name, ds, protocol, config, 4,
                                              deterministic, sides=(side,))
        for name, lone, before in zip(("vae1", "vae2"), lones, untrained):
            expected[name]["untrained_recon"] = before
            expected[name]["trained_recon"] = _reference_recon(lone, ds)

        _assert_members_equal(vae, lones)
        assert info == expected
        for draws in (1, 2):
            artifact = compute_target(vae, ds, protocol, seed=7, draws=draws)
            assert_same_bits(artifact.matrix.values,
                             _reference_target(lones, ds, protocol, 7, draws))

    @pytest.mark.parametrize("deterministic", [False, True])
    def test_single_bit_identical(self, deterministic):
        ds, protocol, vae_spec = small_setup(n=33, seed=3)
        config = train(2, batch_size=8, lr=3e-3, beta_kl=0.01)
        vae, info = train_vae_single(ds, protocol, vae_spec, config, seed=4,
                                     deterministic_latents=deterministic)
        lone = _lone_vae(vae_spec, derive_seed(4, "vae1-init"))
        untrained = _reference_recon(lone, ds)
        expected = _reference_train(lone, "vae1", ds, protocol, config, 4, deterministic,
                                    sides=(0, 1))
        _assert_members_equal(vae, [lone])
        assert info == {"vae1": {**expected, "untrained_recon": untrained,
                                 "trained_recon": _reference_recon(lone, ds)}}
        artifact = compute_target_auto(vae, ds, protocol, seed=7, draws=2)
        assert_same_bits(artifact.matrix.values, _reference_target([lone], ds, protocol, 7, 2))


@pytest.mark.parametrize("build, members", [(train_vae_pair, ("vae1", "vae2")),
                                             (train_vae_single, ("vae1",))])
def test_both_builders_record_the_same_keys_per_member(build, members):
    ds, protocol, vae_spec = small_setup(n=16)
    _, info = build(ds, protocol, vae_spec, train(1, batch_size=8), seed=2)
    assert tuple(info) == members
    for record in info.values():
        assert list(record) == ["first_epoch_loss", "last_epoch_loss", "first_epoch_recon",
                                "last_epoch_recon", "untrained_recon", "trained_recon"]


class _RecordingGenerator:
    """A generator that appends (member, thread, shape, values) to ``calls``
    for each of its ``standard_normal`` calls."""

    def __init__(self, rng, member, calls):
        self._rng, self._member, self._calls = rng, member, calls

    def standard_normal(self, *args, **kwargs):
        out = self._rng.standard_normal(*args, **kwargs)
        self._calls.append((self._member, threading.current_thread().name, out.shape,
                            out.copy()))
        return out

    def __getattr__(self, name):
        return getattr(self._rng, name)


def _train_recording_noise(monkeypatch, members, seed, deterministic):
    """Train a ``members``-member VAE, recording every call its sampling
    noise generators make."""
    ds, protocol, vae_spec = small_setup(n=37, seed=3)
    names = {derive_seed(seed, f"vae{s}-noise"): s - 1 for s in (1, 2)}
    calls = []
    default_rng = np.random.default_rng
    monkeypatch.setattr(np.random, "default_rng", lambda s=None: _RecordingGenerator(
        default_rng(s), names[s], calls) if s in names else default_rng(s))
    config = train(2, batch_size=8, lr=3e-3, beta_kl=0.01)
    train_fn = train_vae_pair if members == 2 else train_vae_single
    train_fn(ds, protocol, vae_spec, config, seed=seed, deterministic_latents=deterministic)
    monkeypatch.undo()
    return calls, len(ds), config, vae_spec.latent_dim


class TestSamplingNoiseStream:
    # 37 samples in batches of 8 leave a five-sample last batch
    @pytest.mark.parametrize("members", [1, 2])
    def test_drawn_on_the_worker_in_the_serial_order(self, monkeypatch, members):
        calls, n, config, latent = _train_recording_noise(monkeypatch, members, seed=4,
                                                          deterministic=False)
        assert {thread for _, thread, _, _ in calls} == {"view-pairs"}
        # the calls VAE.forward made: per batch, each member's row block in turn
        rngs = [np.random.default_rng(derive_seed(4, f"vae{s}-noise")) for s in (1, 2)]
        expected = []
        for _ in range(config.epochs):
            for start in range(0, n, config.batch_size):
                rows = 2 * min(config.batch_size, n - start) // members
                expected += [(s, (rows, latent), rngs[s].standard_normal((rows, latent)))
                             for s in range(members)]
        assert expected[-1][1][0] == 10 // members  # the short last batch draws too
        assert [(s, shape) for s, _, shape, _ in calls] == [(s, shape)
                                                             for s, shape, _ in expected]
        for (_, _, _, got), (_, _, want) in zip(calls, expected):
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("members", [1, 2])
    def test_autoencoder_draws_no_noise(self, monkeypatch, members):
        calls, _, _, _ = _train_recording_noise(monkeypatch, members, seed=4,
                                                deterministic=True)
        assert calls == []


class TestVAEDivergence:
    def test_non_finite_step_is_divergence(self):
        ds, protocol, vae_spec = small_setup(n=32, seed=0)
        with np.errstate(all="ignore"), \
                pytest.raises(TrainingDivergedError, match="diverged at epoch"):
            train_vae_pair(ds, protocol, vae_spec, train(2, batch_size=16, lr=1e200), seed=1)

    def test_other_step_errors_keep_their_type(self, monkeypatch):
        def failing(*args, **kwargs):
            raise LossError("not a divergence")

        monkeypatch.setattr(target, "vae_loss", failing)
        ds, protocol, vae_spec = small_setup(n=32, seed=0)
        with pytest.raises(LossError, match="not a divergence"):
            train_vae_pair(ds, protocol, vae_spec, train(1, batch_size=16), seed=1)


class TestFusedLayersMatchComposition:
    # the pair trained with every layer built from separate linear and
    # ReLU nodes, as before the layers were fused
    @pytest.mark.parametrize("deterministic", [False, True])
    def test_pair_bit_identical(self, monkeypatch, deterministic):
        from composed_layers import composed_dense
        from corrcolor import autograd as ag
        ds, protocol, vae_spec = small_setup(n=33, seed=3)
        config = train(2, batch_size=8, lr=3e-3, beta_kl=0.01)
        results = []
        for layer in (ag.dense, composed_dense):
            monkeypatch.setattr(ag, "dense", layer)
            vae, info = train_vae_pair(ds, protocol, vae_spec, config, seed=4,
                                       deterministic_latents=deterministic)
            target = compute_target(vae, ds, protocol, seed=7, draws=2).matrix.values
            results.append(({k: p.data.copy() for k, p in vae.parameters().items()}, info,
                            target))
        (params, info, target), (params_c, info_c, target_c) = results
        assert info == info_c
        assert_same_bits(target, target_c)
        for name in params_c:
            assert_same_bits(params[name], params_c[name], name)


class TestComputeTarget:
    def test_matches_literal_double_loop(self):
        ds, protocol, vae_spec = small_setup(n=16, seed=2)
        vae, _ = train_vae_pair(ds, protocol, vae_spec, train(2, batch_size=8), seed=3)
        artifact = compute_target(vae, ds, protocol, seed=7)
        oracle = oracle_target_matrix(vae, ds, protocol, seed=7)
        np.testing.assert_allclose(artifact.matrix.values, oracle, atol=1e-10)

    def test_bit_identical_across_runs(self):
        ds, protocol, vae_spec = small_setup(n=16, seed=2)
        vae, _ = train_vae_pair(ds, protocol, vae_spec, train(2, batch_size=8), seed=3)
        a = compute_target(vae, ds, protocol, seed=7)
        b = compute_target(vae, ds, protocol, seed=7)
        assert_same_bits(a.matrix.values, b.matrix.values)

    def test_degenerate_pipe_has_unit_diagonal(self):
        # the same weights in both members and identical views -> self-correlation diag
        ds, _, vae_spec = small_setup(n=16, seed=2)
        # an augmentation whose draws reproduce the sample exactly
        protocol = Augmentation(0.0, 0.0, (1.0, 1.0))
        vae, _ = train_vae_pair(ds, protocol, vae_spec, train(1, batch_size=8), seed=3)
        for tensor in vae.parameters().values():
            tensor.data[1] = tensor.data[0]
        artifact = compute_target(vae, ds, protocol, seed=9)
        np.testing.assert_allclose(np.diag(artifact.matrix.values), 1.0, atol=1e-9)

    def test_values_bounded(self):
        ds, protocol, vae_spec = small_setup(n=20, seed=4)
        vae, _ = train_vae_pair(ds, protocol, vae_spec, train(1, batch_size=10), seed=5)
        artifact = compute_target(vae, ds, protocol, seed=11)
        assert np.all(np.abs(artifact.matrix.values) <= 1.0)

    def test_collapsed_latent_rejected(self):
        ds, protocol, vae_spec = small_setup(n=12, seed=6)
        vae, _ = train_vae_pair(ds, protocol, vae_spec, train(1, batch_size=6), seed=7)
        # force one latent coordinate of the first member constant
        vae.mu.weight.data[0, :, 2] = 0.0
        vae.mu.bias.data[0, 2] = 0.7
        with pytest.raises(CollapseError, match="latent"):
            compute_target(vae, ds, protocol, seed=8)

    def test_draw_averaging(self):
        ds, protocol, vae_spec = small_setup(n=16, seed=2)
        vae, _ = train_vae_pair(ds, protocol, vae_spec, train(1, batch_size=8), seed=3)
        one = compute_target(vae, ds, protocol, seed=7, draws=1)
        avg = compute_target(vae, ds, protocol, seed=7, draws=3)
        assert not np.array_equal(one.matrix.values, avg.matrix.values)
        assert np.all(np.abs(avg.matrix.values) <= 1.0)

    def test_zero_draws_rejected_on_both_variants(self):
        ds, protocol, vae_spec = small_setup(n=16, seed=2)
        pair, _ = train_vae_pair(ds, protocol, vae_spec, train(1, batch_size=8), seed=3)
        with pytest.raises(TargetError, match="draws"):
            compute_target(pair, ds, protocol, seed=7, draws=0)
        with pytest.raises(TargetError, match="draws"):
            compute_target_auto(VAE(vae_spec, seed=3), ds, protocol, seed=7, draws=0)

    def test_member_count_must_fit_the_kind(self):
        ds, protocol, vae_spec = small_setup(n=16, seed=2)
        with pytest.raises(TargetError, match="2-member"):
            compute_target(VAE(vae_spec, seed=3), ds, protocol, seed=7)
        with pytest.raises(TargetError, match="1-member"):
            compute_target_auto(VAE(vae_spec, seed=(3, 4)), ds, protocol, seed=7)


class TestAutoencoderTarget:
    def test_ae_equals_vae_with_zero_kl_and_deterministic_latents(self):
        # the "autoencoder" source is the VAE pipeline with beta_kl=0 and z = mu
        from corrcolor.networks import EncoderSpec
        from corrcolor.training import (ExperimentConfig, TargetConfig, build_dataset,
                                        prepare_target)
        config = ExperimentConfig(
            dataset=SparseDenseSpec(num_samples=16, sparse_dim=4, dense_dim=12, seed=2),
            encoder=EncoderSpec(widths=(12, 8, 8), tap_index=1),
            coloring_head=ProjectorSpec((8, 8, 4)), target=TargetConfig(source="autoencoder"),
            vae_train=VAETrainConfig(epochs=2, batch_size=8), batch_size=8)
        ta = prepare_target(config)
        ds = build_dataset(config)
        protocol = config.augment
        seed = derive_seed(config.seed, "target")
        vae, _ = train_vae_pair(ds, protocol, VAESpec(16, (12,), 4),
                                train(2, batch_size=8, beta_kl=0.0), seed=seed,
                                deterministic_latents=True)
        tv = compute_target(vae, ds, protocol, seed=seed, source="autoencoder")
        np.testing.assert_array_equal(ta.matrix.values, tv.matrix.values)
        assert ta.source == "autoencoder"

    def test_produces_target_kind_of_correct_dimension(self):
        ds, protocol, vae_spec = small_setup(n=16, seed=2)
        vae, _ = train_vae_pair(ds, protocol, vae_spec, train(1, batch_size=8, beta_kl=0.0),
                                seed=3, deterministic_latents=True)
        artifact = compute_target(vae, ds, protocol, seed=7, source="autoencoder")
        assert artifact.matrix.kind == "target"
        assert artifact.dim == 4
        assert np.all(np.abs(artifact.matrix.values) <= 1.0)


class TestAutoVariantTarget:
    def test_single_vae_target_symmetric_unit_diagonal(self):
        ds, protocol, vae_spec = small_setup(n=16, seed=2)
        vae, _ = train_vae_single(ds, protocol, vae_spec, train(2, batch_size=8), seed=3)
        artifact = compute_target_auto(vae, ds, protocol, seed=7)
        values = artifact.matrix.values
        assert artifact.matrix.kind == "auto"
        np.testing.assert_allclose(values, values.T, atol=1e-12)
        np.testing.assert_array_equal(np.diag(values), np.ones(4))


class TestTargetPersistence:
    def _artifact(self):
        ds, protocol, vae_spec = small_setup(n=16, seed=2)
        vae, _ = train_vae_pair(ds, protocol, vae_spec, train(1, batch_size=8), seed=3)
        return compute_target(vae, ds, protocol, seed=7)

    def test_roundtrip_bit_exact(self, tmp_path):
        artifact = self._artifact()
        path = tmp_path / "target.bin"
        save_target(artifact, path)
        loaded = load_target(path)
        np.testing.assert_array_equal(loaded.matrix.values, artifact.matrix.values)
        assert loaded.source == artifact.source
        assert loaded.provenance == artifact.provenance

    def test_tampered_header_rejected(self, tmp_path):
        artifact = self._artifact()
        path = tmp_path / "target.bin"
        save_target(artifact, path)
        blob = bytearray(path.read_bytes())
        blob[0] ^= 0xFF
        bad = tmp_path / "bad.bin"
        bad.write_bytes(bytes(blob))
        with pytest.raises(TargetError, match="magic"):
            load_target(bad)

    def test_identity_target(self):
        artifact = identity_target(5)
        np.testing.assert_array_equal(artifact.matrix.values, np.eye(5))
        assert artifact.source == "identity"

    def test_provenance_required_for_trained_sources(self):
        from corrcolor.losses import CorrelationMatrix
        with pytest.raises(TargetError, match="provenance"):
            TargetArtifact(CorrelationMatrix(np.eye(3), "target"), "vae", {})


class TestLatentGroupSplit:
    def test_r_squared_fields_and_mask_shape(self):
        ds, protocol, vae_spec = small_setup(n=64, seed=8)
        vae, _ = train_vae_pair(ds, protocol, vae_spec, train(3, batch_size=16), seed=9)
        split = latent_group_split(vae, ds)
        assert split["sparse_mask"].shape == (4,)
        assert np.all(split["r2_sparse"] <= 1.0 + 1e-9)
        assert np.all(split["r2_dense"] <= 1.0 + 1e-9)

    def test_sparse_linked_target_entries_dominate(self):
        # the structural decoupling claim: target entries among
        # sparse-attributed latent coordinates outweigh entries among
        # dense-driven ones (augmentation noise decorrelates across views)
        ds = generate_sparse_dense(SparseDenseSpec(num_samples=256, sparse_dim=4,
                                                   dense_dim=28, seed=10, signal=2.0,
                                                   dense_noise=1.0))
        protocol = Augmentation(dense_noise_scale=1.0, dense_dropout_prob=0.3,
                                scale_jitter=(0.95, 1.05))
        vae_spec = VAESpec(input_dim=32, encoder_widths=(24, 16), latent_dim=6)
        vae, _ = train_vae_pair(ds, protocol, vae_spec,
                                train(100, batch_size=32, lr=1e-2, beta_kl=0.01), seed=21)
        artifact = compute_target(vae, ds, protocol, seed=12)

        split = latent_group_split(vae, ds)
        mask = split["sparse_mask"]
        assert mask.any() and not mask.all(), "attribution found only one group"
        e = np.abs(artifact.matrix.values)
        sparse_block = e[np.ix_(mask, mask)]
        rest = e[np.ix_(~mask, ~mask)]
        assert sparse_block.mean() > rest.mean()
