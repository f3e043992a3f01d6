import numpy as np
import pytest

from corrcolor.data import SparseDenseSpec, VectorAugmentation, generate_sparse_dense
from corrcolor.losses import CollapseError
from corrcolor.networks import VAE, ProjectorSpec, VAESpec
from corrcolor.seeding import derive_seed
from corrcolor.target import (TargetArtifact, TargetError, compute_target,
                              compute_target_auto, identity_target, latent_group_split,
                              load_target, save_target, train_vae_pair, train_vae_single)
from corrcolor.data import augment_once


def small_setup(n=32, seed=0):
    ds = generate_sparse_dense(SparseDenseSpec(num_samples=n, sparse_dim=4, dense_dim=12,
                                               seed=seed))
    protocol = VectorAugmentation(sparse_dim=4, dense_noise_scale=0.5,
                                  dense_dropout_prob=0.2, scale_jitter_range=(0.9, 1.1))
    vae_spec = VAESpec(input_dim=16, encoder_widths=(12,), latent_dim=4)
    return ds, protocol, vae_spec


def oracle_target_matrix(vae1, vae2, dataset, protocol, seed):
    """Literal double loop over the whole dataset with explicit denominators,
    reusing the exact view-pair stream of compute_target."""
    rng = np.random.default_rng(derive_seed(seed, "target-views"))
    n, d = len(dataset), vae1.spec.latent_dim
    lat1, lat2 = np.empty((n, d)), np.empty((n, d))
    for k in range(n):
        v1 = augment_once(dataset.features[k], protocol, rng).reshape(1, -1)
        v2 = augment_once(dataset.features[k], protocol, rng).reshape(1, -1)
        lat1[k] = vae1.latent_means(v1)[0]
        lat2[k] = vae2.latent_means(v2)[0]
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
        _, _, info = train_vae_pair(ds, protocol, vae_spec, epochs=1, seed=1,
                                    batch_size=16, lr=3e-3)
        for side in ("vae1", "vae2"):
            assert np.isfinite(info[side]["last_epoch_loss"])
            assert info[side]["trained_recon"] < info[side]["untrained_recon"]

    def test_identical_seed_identical_parameters(self):
        ds, protocol, vae_spec = small_setup()
        a1, a2, _ = train_vae_pair(ds, protocol, vae_spec, epochs=2, seed=5, batch_size=16)
        b1, b2, _ = train_vae_pair(ds, protocol, vae_spec, epochs=2, seed=5, batch_size=16)
        for pa, pb in ((a1, b1), (a2, b2)):
            for name, tensor in pa.parameters().items():
                np.testing.assert_array_equal(tensor.data, pb.parameters()[name].data)

    def test_pair_members_differ(self):
        ds, protocol, vae_spec = small_setup()
        v1, v2, _ = train_vae_pair(ds, protocol, vae_spec, epochs=1, seed=5, batch_size=16)
        w1 = v1.parameters()["vae1.enc1.weight"].data
        w2 = v2.parameters()["vae2.enc1.weight"].data
        assert not np.array_equal(w1, w2)

    def test_zero_epochs_rejected(self):
        ds, protocol, vae_spec = small_setup()
        with pytest.raises(TargetError, match="epochs"):
            train_vae_pair(ds, protocol, vae_spec, epochs=0, seed=1)


class TestComputeTarget:
    def test_matches_literal_double_loop(self):
        ds, protocol, vae_spec = small_setup(n=16, seed=2)
        vae1, vae2, _ = train_vae_pair(ds, protocol, vae_spec, epochs=2, seed=3,
                                       batch_size=8)
        artifact = compute_target(vae1, vae2, ds, protocol, seed=7)
        oracle = oracle_target_matrix(vae1, vae2, ds, protocol, seed=7)
        np.testing.assert_allclose(artifact.matrix.values, oracle, atol=1e-10)

    def test_bit_identical_across_runs(self):
        ds, protocol, vae_spec = small_setup(n=16, seed=2)
        vae1, vae2, _ = train_vae_pair(ds, protocol, vae_spec, epochs=2, seed=3,
                                       batch_size=8)
        a = compute_target(vae1, vae2, ds, protocol, seed=7)
        b = compute_target(vae1, vae2, ds, protocol, seed=7)
        np.testing.assert_array_equal(a.matrix.values, b.matrix.values)

    def test_degenerate_pipe_has_unit_diagonal(self):
        # same VAE on both sides and identical views -> self-correlation diag
        ds, _, vae_spec = small_setup(n=16, seed=2)
        from corrcolor.data import identity_protocol_for
        protocol = identity_protocol_for(ds)
        vae, _unused, _ = train_vae_pair(ds, protocol, vae_spec, epochs=1, seed=3,
                                         batch_size=8)
        artifact = compute_target(vae, vae, ds, protocol, seed=9)
        np.testing.assert_allclose(np.diag(artifact.matrix.values), 1.0, atol=1e-9)

    def test_values_bounded(self):
        ds, protocol, vae_spec = small_setup(n=20, seed=4)
        vae1, vae2, _ = train_vae_pair(ds, protocol, vae_spec, epochs=1, seed=5,
                                       batch_size=10)
        artifact = compute_target(vae1, vae2, ds, protocol, seed=11)
        assert np.all(np.abs(artifact.matrix.values) <= 1.0)

    def test_collapsed_latent_rejected(self):
        ds, protocol, vae_spec = small_setup(n=12, seed=6)
        vae1, vae2, _ = train_vae_pair(ds, protocol, vae_spec, epochs=1, seed=7,
                                       batch_size=6)
        # force one latent coordinate constant
        vae1.mu_head.weight.data[:, 2] = 0.0
        vae1.mu_head.bias.data[2] = 0.7
        with pytest.raises(CollapseError, match="latent"):
            compute_target(vae1, vae2, ds, protocol, seed=8)

    def test_draw_averaging(self):
        ds, protocol, vae_spec = small_setup(n=16, seed=2)
        vae1, vae2, _ = train_vae_pair(ds, protocol, vae_spec, epochs=1, seed=3,
                                       batch_size=8)
        one = compute_target(vae1, vae2, ds, protocol, seed=7, draws=1)
        avg = compute_target(vae1, vae2, ds, protocol, seed=7, draws=3)
        assert not np.array_equal(one.matrix.values, avg.matrix.values)
        assert np.all(np.abs(avg.matrix.values) <= 1.0)

    def test_zero_draws_rejected_on_both_variants(self):
        ds, protocol, vae_spec = small_setup(n=16, seed=2)
        vae1, vae2, _ = train_vae_pair(ds, protocol, vae_spec, epochs=1, seed=3,
                                       batch_size=8)
        with pytest.raises(TargetError, match="draws"):
            compute_target(vae1, vae2, ds, protocol, seed=7, draws=0)
        with pytest.raises(TargetError, match="draws"):
            compute_target_auto(vae1, ds, protocol, seed=7, draws=0)


class TestAutoencoderTarget:
    def test_ae_equals_vae_with_zero_kl_and_deterministic_latents(self):
        # the "autoencoder" source is the VAE pipeline with beta_kl=0 and z = mu
        from corrcolor.training import (EncoderConfig, ExperimentConfig, TargetConfig,
                                        VAETrainConfig, build_dataset, prepare_target)
        config = ExperimentConfig(
            dataset=SparseDenseSpec(num_samples=16, sparse_dim=4, dense_dim=12, seed=2),
            encoder=EncoderConfig(widths=(12, 8, 8), tap_index=1),
            coloring_head=ProjectorSpec((8, 8, 4)), target=TargetConfig(source="autoencoder"),
            vae_train=VAETrainConfig(epochs=2, batch_size=8), batch_size=8)
        ta = prepare_target(config)
        ds = build_dataset(config)
        protocol = config.augment.protocol_for(ds)
        seed = derive_seed(config.seed, "target")
        v1, v2, _ = train_vae_pair(ds, protocol, VAESpec(16, (12,), 4), epochs=2, seed=seed,
                                   batch_size=8, beta_kl=0.0, deterministic_latents=True)
        tv = compute_target(v1, v2, ds, protocol, seed=seed, source="autoencoder")
        np.testing.assert_array_equal(ta.matrix.values, tv.matrix.values)
        assert ta.source == "autoencoder"

    def test_produces_target_kind_of_correct_dimension(self):
        ds, protocol, vae_spec = small_setup(n=16, seed=2)
        a1, a2, _ = train_vae_pair(ds, protocol, vae_spec, epochs=1, seed=3, batch_size=8,
                                   beta_kl=0.0, deterministic_latents=True)
        artifact = compute_target(a1, a2, ds, protocol, seed=7, source="autoencoder")
        assert artifact.matrix.kind == "target"
        assert artifact.dim == 4
        assert np.all(np.abs(artifact.matrix.values) <= 1.0)


class TestAutoVariantTarget:
    def test_single_vae_target_symmetric_unit_diagonal(self):
        ds, protocol, vae_spec = small_setup(n=16, seed=2)
        vae, _ = train_vae_single(ds, protocol, vae_spec, epochs=2, seed=3, batch_size=8)
        artifact = compute_target_auto(vae, ds, protocol, seed=7)
        values = artifact.matrix.values
        assert artifact.matrix.kind == "auto"
        np.testing.assert_allclose(values, values.T, atol=1e-12)
        np.testing.assert_array_equal(np.diag(values), np.ones(4))


class TestTargetPersistence:
    def _artifact(self):
        ds, protocol, vae_spec = small_setup(n=16, seed=2)
        vae1, vae2, _ = train_vae_pair(ds, protocol, vae_spec, epochs=1, seed=3,
                                       batch_size=8)
        return compute_target(vae1, vae2, ds, protocol, seed=7)

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

    def test_dimension_mismatch_names_both(self, tmp_path):
        artifact = self._artifact()
        path = tmp_path / "target.bin"
        save_target(artifact, path)
        with pytest.raises(TargetError, match="4.*does not match.*8"):
            load_target(path, expect_dim=8)

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
        vae1, _, _ = train_vae_pair(ds, protocol, vae_spec, epochs=3, seed=9,
                                    batch_size=16)
        split = latent_group_split(vae1, ds)
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
        protocol = VectorAugmentation(sparse_dim=4, dense_noise_scale=1.0,
                                      dense_dropout_prob=0.3,
                                      scale_jitter_range=(0.95, 1.05))
        vae_spec = VAESpec(input_dim=32, encoder_widths=(24, 16), latent_dim=6)
        vae1, vae2, _ = train_vae_pair(ds, protocol, vae_spec, epochs=100, seed=21,
                                       batch_size=32, lr=1e-2, beta_kl=0.01)
        artifact = compute_target(vae1, vae2, ds, protocol, seed=12)

        split = latent_group_split(vae1, ds)
        mask = split["sparse_mask"]
        assert mask.any() and not mask.all(), "attribution found only one group"
        e = np.abs(artifact.matrix.values)
        sparse_block = e[np.ix_(mask, mask)]
        rest = e[np.ix_(~mask, ~mask)]
        assert sparse_block.mean() > rest.mean()
