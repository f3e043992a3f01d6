import gc

import numpy as np
import pytest

from corrcolor import autograd as ag
from corrcolor.autograd import astensor
from corrcolor.losses import cross_correlation, normalize_columns, whitening_loss
from corrcolor.networks import (Backbone, BatchNorm, EncoderSpec, NetworkError,
                                Projector, ProjectorSpec, VAE, VAESpec,
                                reparameterize, vae_loss, vae_spec_for)
from corrcolor.optim import Adam


class TestEncoderSpec:
    def test_tap_before_final_by_default(self):
        with pytest.raises(NetworkError, match="tap index"):
            EncoderSpec(64, (64, 64, 32), tap_index=3)

    def test_tap_at_final_with_flag(self):
        spec = EncoderSpec(64, (64, 64, 32), tap_index=3, allow_tap_at_final=True)
        assert spec.tap_dim == 32

    def test_tap_zero_rejected(self):
        with pytest.raises(NetworkError, match="tap index"):
            EncoderSpec(64, (64, 32), tap_index=0)


class TestBackbone:
    def test_tap_and_final_widths(self):
        # input 64, layer widths 64/64/32, tap after layer 2
        spec = EncoderSpec(64, (64, 64, 32), tap_index=2)
        net = Backbone(spec, seed=0)
        x = np.random.default_rng(0).standard_normal((4, 64))
        tap, final = net.forward(x, training=True)
        assert tap.shape == (4, 64)
        assert final.shape == (4, 32)

    def test_tap_at_final_layer_aliases_final(self):
        spec = EncoderSpec(16, (16, 8), tap_index=2, allow_tap_at_final=True)
        net = Backbone(spec, seed=1)
        x = np.random.default_rng(1).standard_normal((4, 16))
        tap, final = net.forward(x, training=True)
        np.testing.assert_array_equal(tap.data, final.data)

    def test_batch_dimension_preserved(self):
        spec = EncoderSpec(8, (8, 4), tap_index=1, batch_norm=False)
        net = Backbone(spec, seed=2)
        tap, final = net.forward(np.ones((4, 8)), training=False)
        assert tap.shape[0] == 4 and final.shape[0] == 4

    def test_tap_matches_truncated_backbone(self):
        spec = EncoderSpec(10, (12, 9, 5), tap_index=2, batch_norm=True)
        full = Backbone(spec, seed=3)
        trunc_spec = EncoderSpec(10, (12, 9), tap_index=1, batch_norm=True)
        trunc = Backbone(trunc_spec, seed=99)
        # copy full's layer parameters into the truncated network
        full_state = full.state_arrays()
        renamed = {}
        for name, arr in full_state.items():
            renamed[name] = arr
        trunc.load_state_arrays({k: v for k, v in renamed.items()
                                 if k in trunc.state_arrays()})
        x = np.random.default_rng(5).standard_normal((6, 10))
        tap, _ = full.forward(x, training=True)
        _, trunc_final = trunc.forward(x, training=True)
        np.testing.assert_array_equal(tap.data, trunc_final.data)

    def test_parameter_count_closed_form(self):
        spec = EncoderSpec(10, (12, 9, 5), tap_index=2, batch_norm=True)
        net = Backbone(spec, seed=0)
        linear = 10 * 12 + 12 + 12 * 9 + 9 + 9 * 5 + 5
        bn = 2 * (12 + 9 + 5)
        assert net.param_count() == linear + bn

    def test_gradcheck_through_backbone(self):
        spec = EncoderSpec(5, (6, 4), tap_index=1, batch_norm=True)
        net = Backbone(spec, seed=7)
        x = np.random.default_rng(8).standard_normal((5, 5))

        def loss_value():
            _, out = net.forward(x, training=True)
            return ag.tsum(ag.square(out))

        loss = loss_value()
        loss.backward()
        from test_autograd import assert_grad_close, numeric_grad
        for name, p in net.parameters().items():
            numeric = numeric_grad(lambda: loss_value().item(), p.data)
            assert_grad_close(p.grad, numeric)


class TestBatchNorm:
    def test_inference_is_pure_affine(self):
        bn = BatchNorm(3, "bn")
        rng = np.random.default_rng(0)
        bn.running_mean = rng.standard_normal(3)
        bn.running_var = rng.uniform(0.5, 2.0, 3)
        x1 = rng.standard_normal((4, 3))
        x2 = rng.standard_normal((7, 3))
        out1 = bn(astensor(x1), training=False).data
        out2 = bn(astensor(x2), training=False).data
        # affine map determined from out1 applies exactly to x2
        scale = (out1[1] - out1[0]) / (x1[1] - x1[0])
        shift = out1[0] - scale * x1[0]
        np.testing.assert_allclose(out2, x2 * scale + shift, atol=1e-10)

    def test_training_mode_normalizes_batch(self):
        bn = BatchNorm(4, "bn")
        x = np.random.default_rng(1).standard_normal((50, 4)) * 3 + 2
        out = bn(astensor(x), training=True).data
        np.testing.assert_allclose(out.mean(axis=0), 0.0, atol=1e-10)
        np.testing.assert_allclose(out.std(axis=0), 1.0, atol=1e-3)

    def test_running_stats_updated_only_in_training(self):
        bn = BatchNorm(2, "bn")
        x = astensor(np.random.default_rng(2).standard_normal((8, 2)))
        before = bn.running_mean.copy()
        bn(x, training=False)
        np.testing.assert_array_equal(bn.running_mean, before)
        bn(x, training=True)
        assert not np.array_equal(bn.running_mean, before)

    def test_batch_of_one_valid_in_inference(self):
        bn = BatchNorm(3, "bn")
        out = bn(astensor(np.ones((1, 3))), training=False)
        assert out.shape == (1, 3)

    def test_batch_of_one_rejected_in_training(self):
        bn = BatchNorm(3, "bn")
        with pytest.raises(NetworkError, match="m >= 2"):
            bn(astensor(np.ones((1, 3))), training=True)


class TestProjector:
    def test_exactly_three_layers(self):
        with pytest.raises(NetworkError, match="three"):
            ProjectorSpec((4, 4))

    def test_affine_composition_on_positive_path(self):
        # no batch norm; hand-picked positive weights keep ReLU open, so the
        # network equals its straight-line affine composition
        spec = ProjectorSpec((3, 3, 2), batch_norm=False)
        proj = Projector(spec, input_dim=3, seed=0, name="p")
        for layer in (proj.l1, proj.l2, proj.l3):
            layer.weight.data[...] = np.eye(3)[:layer.in_dim, :layer.out_dim] * 0.5
            layer.bias.data[...] = 0.25
        x = np.abs(np.random.default_rng(3).standard_normal((4, 3))) + 0.1
        out = proj(astensor(x), training=True).data
        ref = x
        for layer in (proj.l1, proj.l2):
            ref = np.maximum(ref @ layer.weight.data + layer.bias.data, 0.0)
        ref = ref @ proj.l3.weight.data + proj.l3.bias.data
        np.testing.assert_allclose(out, ref, atol=1e-12)

    def test_zero_input_zero_biases_gives_zero(self):
        spec = ProjectorSpec((4, 4, 3), batch_norm=False)
        proj = Projector(spec, input_dim=5, seed=1, name="p")
        out = proj(astensor(np.zeros((2, 5))), training=True).data
        np.testing.assert_array_equal(out, np.zeros((2, 3)))

    def test_single_sample_inference_mode(self):
        spec = ProjectorSpec((4, 4, 3), batch_norm=True)
        proj = Projector(spec, input_dim=5, seed=2, name="p")
        out = proj(astensor(np.ones((1, 5))), training=False)
        assert out.shape == (1, 3)

    def test_width_mismatch_rejected(self):
        proj = Projector(ProjectorSpec((4, 4, 3)), input_dim=5, seed=0, name="p")
        with pytest.raises(NetworkError, match="width"):
            proj(astensor(np.ones((2, 7))), training=True)

    def test_parameter_count_closed_form(self):
        spec = ProjectorSpec((4, 6, 3), batch_norm=True)
        proj = Projector(spec, input_dim=5, seed=0, name="p")
        linear = 5 * 4 + 4 + 4 * 6 + 6 + 6 * 3 + 3
        bn = 2 * (4 + 6)
        assert proj.param_count() == linear + bn


class TestVAE:
    def test_deterministic_mode_uses_mean(self):
        spec = VAESpec(6, (8, 4), latent_dim=3)
        vae = VAE(spec, seed=0)
        x = np.random.default_rng(0).standard_normal((5, 6))
        _, mu, _, z = vae.forward(x, deterministic=True)
        np.testing.assert_array_equal(z.data, mu.data)

    def test_sampling_deterministic_under_seed(self):
        spec = VAESpec(6, (8, 4), latent_dim=3)
        vae = VAE(spec, seed=0)
        x = np.random.default_rng(0).standard_normal((5, 6))
        _, _, _, z1 = vae.forward(x, rng=np.random.default_rng(11))
        _, _, _, z2 = vae.forward(x, rng=np.random.default_rng(11))
        np.testing.assert_array_equal(z1.data, z2.data)

    def test_reparameterize_formula(self):
        mu = astensor([[1.0, -2.0]])
        logvar = astensor([[0.0, np.log(4.0)]])
        eps = np.array([[0.5, 0.5]])
        z = reparameterize(mu, logvar, eps)
        np.testing.assert_allclose(z.data, [[1.5, -1.0]], atol=1e-12)

    def test_untrained_elbo_finite_with_finite_gradients(self):
        spec = VAESpec(10, (12, 6), latent_dim=4)
        vae = VAE(spec, seed=3)
        x = np.random.default_rng(4).standard_normal((8, 10))
        recon, mu, logvar, _ = vae.forward(x, rng=np.random.default_rng(5))
        loss = vae_loss(recon, x, mu, logvar)
        assert np.isfinite(loss.item())
        loss.backward()
        for p in vae.parameters().values():
            assert np.all(np.isfinite(p.grad))

    def test_decoder_mirrors_encoder_shape(self):
        spec = VAESpec(10, (12, 6), latent_dim=4)
        vae = VAE(spec, seed=3)
        x = np.random.default_rng(4).standard_normal((3, 10))
        recon, _, _, _ = vae.forward(x, deterministic=True)
        assert recon.shape == x.shape

    def test_vae_spec_mirrors_backbone_tap(self):
        enc = EncoderSpec(20, (16, 12, 8), tap_index=2)
        spec = vae_spec_for(20, enc, latent_dim=5)
        assert spec.encoder_widths == (16, 12)
        assert spec.latent_dim == 5


class TestVAELoss:
    def test_perfect_reconstruction_zero_loss(self):
        x = np.random.default_rng(0).standard_normal((4, 3))
        zeros = np.zeros((4, 2))
        loss = vae_loss(astensor(x), x, astensor(zeros), astensor(zeros), beta_kl=1.0)
        assert loss.item() == 0.0

    def test_constant_offset_gives_c_squared(self):
        x = np.random.default_rng(1).standard_normal((4, 3))
        c = 0.7
        zeros = np.zeros((4, 2))
        loss = vae_loss(astensor(x + c), x, astensor(zeros), astensor(zeros))
        np.testing.assert_allclose(loss.item(), c * c, atol=1e-12)

    def test_kl_closed_form(self):
        # mean [1, 0], logvar 0 -> KL = 0.5 * sum(mu^2 + var - 1 - logvar) = 0.5
        x = np.zeros((1, 3))
        mu = astensor([[1.0, 0.0]])
        logvar = astensor([[0.0, 0.0]])
        loss = vae_loss(astensor(x), x, mu, logvar, beta_kl=1.0)
        np.testing.assert_allclose(loss.item(), 0.5, atol=1e-12)

    def test_beta_scales_kl_term(self):
        x = np.zeros((1, 3))
        mu = astensor([[1.0, 0.0]])
        logvar = astensor([[0.0, 0.0]])
        loss = vae_loss(astensor(x), x, mu, logvar, beta_kl=2.0)
        np.testing.assert_allclose(loss.item(), 1.0, atol=1e-12)


def _unreachable_after(step) -> int:
    """Objects left in reference cycles by one call of ``step``."""
    gc.collect()
    gc.disable()
    try:
        step()
        return gc.collect()
    finally:
        gc.enable()


class TestGraphsFreeWithoutCycleCollector:
    # a backward closure that captures its own output node makes a cycle;
    # then every step's graph waits for the cyclic collector, and old
    # graphs pile up in its older generations
    def test_backbone_step(self):
        backbone = Backbone(EncoderSpec(10, (12, 8), tap_index=1), seed=0)
        head = Projector(ProjectorSpec((8, 8, 4)), 8, seed=1)
        params = {**backbone.parameters(), **head.parameters()}
        opt = Adam(params)
        x = np.random.default_rng(2).standard_normal((16, 10))

        def step():
            _, final = backbone.forward(x, training=True)
            z = head(final, training=True)
            w = cross_correlation(normalize_columns(ag.rows(z, 0, 8)),
                                  normalize_columns(ag.rows(z, 8, 16)))
            whitening_loss(w, 0.01).backward()
            opt.step()
            opt.zero_grad()

        assert _unreachable_after(step) == 0

    def test_vae_step(self):
        vae = VAE(VAESpec(10, (12, 6), latent_dim=4), seed=3)
        opt = Adam(vae.parameters())
        x = np.random.default_rng(4).standard_normal((8, 10))
        rng = np.random.default_rng(5)

        def step():
            recon, mu, logvar, _ = vae.forward(x, rng=rng)
            vae_loss(recon, x, mu, logvar).backward()
            opt.step()
            opt.zero_grad()

        assert _unreachable_after(step) == 0
