import gc
import hashlib

import numpy as np
import pytest

from corrcolor import autograd as ag, networks
from corrcolor.autograd import ShapeError, astensor
from corrcolor.losses import cross_correlation, normalize_columns, whitening_loss
from corrcolor.networks import (Backbone, BatchNorm, EncoderSpec, NetworkError,
                                Projector, ProjectorSpec, VAE, VAESpec, vae_loss,
                                vae_spec_for)
from corrcolor.optim import Adam
from same_bits import assert_same_bits


class TestEncoderSpec:
    def test_tap_before_final_by_default(self):
        with pytest.raises(NetworkError, match="tap_index"):
            EncoderSpec((64, 64, 32), tap_index=3)

    def test_tap_at_final_with_flag(self):
        spec = EncoderSpec((64, 64, 32), tap_index=3, allow_tap_at_final=True)
        assert spec.tap_dim == 32

    def test_tap_zero_rejected(self):
        with pytest.raises(NetworkError, match="tap_index"):
            EncoderSpec((64, 32), tap_index=0)


class TestBackbone:
    def test_tap_and_final_widths(self):
        # input 64, layer widths 64/64/32, tap after layer 2
        spec = EncoderSpec((64, 64, 32), tap_index=2)
        net = Backbone(spec, 64, seed=0)
        x = np.random.default_rng(0).standard_normal((4, 64))
        tap, final = net.forward(x, training=True)
        assert tap.shape == (4, 64)
        assert final.shape == (4, 32)

    def test_tap_at_final_layer_aliases_final(self):
        spec = EncoderSpec((16, 8), tap_index=2, allow_tap_at_final=True)
        net = Backbone(spec, 16, seed=1)
        x = np.random.default_rng(1).standard_normal((4, 16))
        tap, final = net.forward(x, training=True)
        np.testing.assert_array_equal(tap.data, final.data)

    def test_batch_dimension_preserved(self):
        spec = EncoderSpec((8, 4), tap_index=1, batch_norm=False)
        net = Backbone(spec, 8, seed=2)
        tap, final = net.forward(np.ones((4, 8)), training=False)
        assert tap.shape[0] == 4 and final.shape[0] == 4

    def test_tap_matches_truncated_backbone(self):
        spec = EncoderSpec((12, 9, 5), tap_index=2, batch_norm=True)
        full = Backbone(spec, 10, seed=3)
        trunc_spec = EncoderSpec((12, 9), tap_index=1, batch_norm=True)
        trunc = Backbone(trunc_spec, 10, seed=99)
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
        spec = EncoderSpec((12, 9, 5), tap_index=2, batch_norm=True)
        net = Backbone(spec, 10, seed=0)
        linear = 10 * 12 + 12 + 12 * 9 + 9 + 9 * 5 + 5
        bn = 2 * (12 + 9 + 5)
        assert sum(p.data.size for p in net.parameters().values()) == linear + bn

    def test_gradcheck_through_backbone(self):
        spec = EncoderSpec((6, 4), tap_index=1, batch_norm=True)
        net = Backbone(spec, 5, seed=7)
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


def _identity_bn(dim: int) -> BatchNorm:
    """A batch-normalized layer whose affine map passes its input through
    exactly (x @ I + 0), so that it isolates the normalization."""
    layer = BatchNorm(dim, dim, np.random.default_rng(0), "id", "bn")
    layer.weight.data[...] = np.eye(dim)
    return layer


class TestBatchNorm:
    def test_inference_is_pure_affine(self):
        bn = _identity_bn(3)
        rng = np.random.default_rng(0)
        bn.running_mean = rng.standard_normal(3)
        bn.running_var = rng.uniform(0.5, 2.0, 3)
        bn.gamma.data[...] = rng.uniform(0.5, 1.5, 3)
        bn.beta.data[...] = rng.standard_normal(3)
        x1 = rng.standard_normal((4, 3))
        x2 = rng.standard_normal((7, 3))
        out1 = bn(x1, training=False)
        out2 = bn(x2, training=False)
        # affine map determined from out1 applies exactly to x2
        scale = (out1[1] - out1[0]) / (x1[1] - x1[0])
        shift = out1[0] - scale * x1[0]
        np.testing.assert_allclose(out2, x2 * scale + shift, atol=1e-10)
        # and it is the running-statistics normalization
        expected = ((x2 - bn.running_mean) / np.sqrt(bn.running_var + networks.BN_EPS)
                    * bn.gamma.data + bn.beta.data)
        np.testing.assert_allclose(out2, expected, atol=1e-12)

    def test_training_mode_normalizes_batch(self):
        bn = _identity_bn(4)
        x = np.random.default_rng(1).standard_normal((50, 4)) * 3 + 2
        out = bn(astensor(x), training=True).data
        np.testing.assert_allclose(out.mean(axis=0), 0.0, atol=1e-10)
        np.testing.assert_allclose(out.std(axis=0), 1.0, atol=1e-3)

    def test_running_stats_updated_only_in_training(self):
        bn = _identity_bn(2)
        x = np.random.default_rng(2).standard_normal((8, 2))
        before = bn.running_mean.copy()
        bn(x, training=False)
        np.testing.assert_array_equal(bn.running_mean, before)
        bn(x, training=True)
        assert not np.array_equal(bn.running_mean, before)

    def test_batch_of_one_valid_in_inference(self):
        bn = _identity_bn(3)
        out = bn(np.ones((1, 3)), training=False)
        assert out.shape == (1, 3)

    def test_batch_of_one_rejected_in_training(self):
        bn = _identity_bn(3)
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
        l1, l2, l3 = proj.layers
        for layer in (l1, l2, l3):
            layer.weight.data[...] = np.eye(3)[:layer.in_dim, :layer.out_dim] * 0.5
            layer.bias.data[...] = 0.25
        x = np.abs(np.random.default_rng(3).standard_normal((4, 3))) + 0.1
        out = proj(astensor(x), training=True).data
        ref = x
        for layer in (l1, l2):
            ref = np.maximum(ref @ layer.weight.data + layer.bias.data, 0.0)
        ref = ref @ l3.weight.data + l3.bias.data
        np.testing.assert_allclose(out, ref, atol=1e-12)

    def test_zero_input_zero_biases_gives_zero(self):
        spec = ProjectorSpec((4, 4, 3), batch_norm=False)
        proj = Projector(spec, input_dim=5, seed=1, name="p")
        out = proj(astensor(np.zeros((2, 5))), training=True).data
        np.testing.assert_array_equal(out, np.zeros((2, 3)))

    def test_single_sample_inference_mode(self):
        spec = ProjectorSpec((4, 4, 3), batch_norm=True)
        proj = Projector(spec, input_dim=5, seed=2, name="p")
        out = proj(np.ones((1, 5)), training=False)
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
        assert sum(p.data.size for p in proj.parameters().values()) == linear + bn


class TestVAE:
    def test_deterministic_mode_uses_mean(self):
        spec = VAESpec(6, (8, 4), latent_dim=3)
        vae = VAE(spec, seed=0)
        x = np.random.default_rng(0).standard_normal((5, 6))
        _, mu, _, z = vae.forward(x)
        np.testing.assert_array_equal(z.data, mu.data)

    def test_sampling_deterministic_under_seed(self):
        spec = VAESpec(6, (8, 4), latent_dim=3)
        vae = VAE(spec, seed=0)
        x = np.random.default_rng(0).standard_normal((5, 6))
        _, mu, logvar, z1 = vae.forward(x, np.random.default_rng(11).standard_normal((5, 3)))
        _, _, _, z2 = vae.forward(x, np.random.default_rng(11).standard_normal((5, 3)))
        np.testing.assert_array_equal(z1.data, z2.data)
        eps = np.random.default_rng(11).standard_normal((5, 3))
        assert z1.data.tobytes() == (mu.data + np.exp(logvar.data * 0.5) * eps).tobytes()

    def test_members_are_the_lone_vaes_of_their_seeds(self):
        spec = VAESpec(6, (8, 4), latent_dim=3)
        pair = VAE(spec, seed=(0, 1))
        x = np.random.default_rng(0).standard_normal((10, 6))
        eps = np.random.default_rng(11).standard_normal((10, 3))
        recon, _, _, _ = pair.forward(x, eps)
        for s in range(2):
            block = slice(5 * s, 5 * s + 5)
            lone, _, _, _ = VAE(spec, seed=s).forward(x[block], eps[block])
            np.testing.assert_array_equal(recon.data[block], lone.data)
        # noise for one member's rows only
        with pytest.raises(ShapeError, match="reparameterize: noise"):
            pair.forward(x, eps[:5])

    def test_latent_means_are_the_encoder_means(self, monkeypatch):
        pair = VAE(VAESpec(6, (8, 4), latent_dim=3), seed=(0, 1))
        x = np.random.default_rng(0).standard_normal((10, 6))
        expected = pair.encode(x)[0].data
        monkeypatch.setattr(pair, "logvar", None)  # the latent pass runs no logvar head
        assert pair.latent_means(x).tobytes() == expected.tobytes()

    def test_reparameterize_formula(self):
        mu = astensor([[1.0, -2.0]])
        logvar = astensor([[0.0, np.log(4.0)]])
        eps = np.array([[0.5, 0.5]])
        z = ag.reparameterize(mu, logvar, eps)
        np.testing.assert_allclose(z.data, [[1.5, -1.0]], atol=1e-12)

    def test_untrained_elbo_finite_with_finite_gradients(self):
        spec = VAESpec(10, (12, 6), latent_dim=4)
        vae = VAE(spec, seed=3)
        x = np.random.default_rng(4).standard_normal((8, 10))
        recon, mu, logvar, _ = vae.forward(x, np.random.default_rng(5).standard_normal((8, 4)))
        loss, _ = vae_loss(recon, x, mu, logvar)
        assert np.isfinite(loss.item())
        loss.backward()
        for p in vae.parameters().values():
            assert np.all(np.isfinite(p.grad))

    def test_decoder_mirrors_encoder_shape(self):
        spec = VAESpec(10, (12, 6), latent_dim=4)
        vae = VAE(spec, seed=3)
        x = np.random.default_rng(4).standard_normal((3, 10))
        recon, _, _, _ = vae.forward(x)
        assert recon.shape == x.shape

    def test_vae_spec_mirrors_backbone_tap(self):
        enc = EncoderSpec((16, 12, 8), tap_index=2)
        spec = vae_spec_for(20, enc, latent_dim=5)
        assert spec.encoder_widths == (16, 12)
        assert spec.latent_dim == 5


def _layout(module) -> tuple[list, str]:
    """``state_arrays()`` names and shapes in order, and a sha256 over the
    names and initial values."""
    digest = hashlib.sha256()
    for name, array in module.state_arrays().items():
        digest.update(name.encode())
        digest.update(np.ascontiguousarray(array, dtype=np.float64).tobytes())
    return [(name, a.shape) for name, a in module.state_arrays().items()], digest.hexdigest()


def _bn_layout(name: str, i: int, width: int) -> list:
    return [(f"{name}.bn{i}.{part}", (width,))
            for part in ("gamma", "beta", "running_mean", "running_var")]


def _vae_layout(k: int) -> list:
    layers = [("enc1", 10, 12), ("enc2", 12, 6), ("mu", 6, 4), ("logvar", 6, 4),
              ("dec1", 4, 6), ("dec2", 6, 12), ("out", 12, 10)]
    return [entry for layer, n_in, n_out in layers
            for entry in ((f"vae.{layer}.weight", (k, n_in, n_out)), (f"vae.{layer}.bias", (k, n_out)))]


class TestParameterLayout:
    # record names, their order, shapes and the initial values (so the
    # weight-draw order) as the hand-written stacks laid them out; the
    # checkpoint format and every seeded run depend on them
    def test_backbone_of_unequal_widths(self):
        net = Backbone(EncoderSpec((48, 32, 16), tap_index=3, allow_tap_at_final=True), 20,
                       seed=5)
        want = []
        for i, (n_in, n_out) in enumerate(((20, 48), (48, 32), (32, 16)), start=1):
            want += [(f"backbone.l{i}.weight", (n_in, n_out)), (f"backbone.l{i}.bias", (n_out,))]
            want += _bn_layout("backbone", i, n_out)
        assert _layout(net) == (
            want, "e436b51acce05bd6381556dd22e33de3df3dc94343052abe11a47bdff890addf")

    @pytest.mark.parametrize("batch_norm, name, digest", [
        (True, "coloring", "2f8759c3bc739cf29c31e444a08ebd05db2e06153ce9e2ee58b078b84fe0e148"),
        (False, "whitening", "de8d2783ba1134faa05494ab619e3bb6c29b9aff4411fe630bac378e30dede85")])
    def test_projector_with_and_without_batch_norm(self, batch_norm, name, digest):
        proj = Projector(ProjectorSpec((24, 12, 8), batch_norm=batch_norm), 16,
                         seed=6 if batch_norm else 7, name=name)
        want = []
        for i, (n_in, n_out) in enumerate(((16, 24), (24, 12), (12, 8)), start=1):
            want += [(f"{name}.l{i}.weight", (n_in, n_out)), (f"{name}.l{i}.bias", (n_out,))]
            if batch_norm and i < 3:
                want += _bn_layout(name, i, n_out)
        assert _layout(proj) == (want, digest)

    @pytest.mark.parametrize("seed, digest", [
        (8, "f61464c79d977dd2c5423e457fbcf5a5b9e63968e34a64a6532dcfbe97e578fa"),
        ((8, 9), "284b54ca17124bbbef4bfd936958e4a9a5e43f96fd6961910aee49ce0f1b4efa")])
    def test_vae_of_one_and_two_members(self, seed, digest):
        vae = VAE(VAESpec(10, (12, 6), latent_dim=4), seed=seed)
        assert _layout(vae) == (_vae_layout(np.size(seed)), digest)


class TestVAELoss:
    def test_perfect_reconstruction_zero_loss(self):
        x = np.random.default_rng(0).standard_normal((4, 3))
        zeros = np.zeros((4, 2))
        loss, _ = vae_loss(astensor(x), x, astensor(zeros), astensor(zeros), beta_kl=1.0)
        assert loss.item() == 0.0

    def test_constant_offset_gives_c_squared(self):
        x = np.random.default_rng(1).standard_normal((4, 3))
        c = 0.7
        zeros = np.zeros((4, 2))
        loss, _ = vae_loss(astensor(x + c), x, astensor(zeros), astensor(zeros))
        np.testing.assert_allclose(loss.item(), c * c, atol=1e-12)

    def test_kl_closed_form(self):
        # mean [1, 0], logvar 0 -> KL = 0.5 * sum(mu^2 + var - 1 - logvar) = 0.5
        x = np.zeros((1, 3))
        mu = astensor([[1.0, 0.0]])
        logvar = astensor([[0.0, 0.0]])
        loss, _ = vae_loss(astensor(x), x, mu, logvar, beta_kl=1.0)
        np.testing.assert_allclose(loss.item(), 0.5, atol=1e-12)

    def test_beta_scales_kl_term(self):
        x = np.zeros((1, 3))
        mu = astensor([[1.0, 0.0]])
        logvar = astensor([[0.0, 0.0]])
        loss, _ = vae_loss(astensor(x), x, mu, logvar, beta_kl=2.0)
        np.testing.assert_allclose(loss.item(), 1.0, atol=1e-12)

    @pytest.mark.parametrize("members", [1, 2])
    def test_recon_error_is_the_per_member_mean_squared_error(self, members):
        # read off the objective's squared-distance sums, bit for bit the mean
        rng = np.random.default_rng(members)
        for _ in range(50):
            rows, cols = members * int(rng.integers(1, 40)), int(rng.integers(1, 70))
            x = rng.standard_normal((rows, cols))
            recon = astensor(rng.standard_normal((rows, cols)) * rng.uniform(0.1, 10.0))
            mu = astensor(rng.standard_normal((rows, 3)))
            logvar = astensor(rng.standard_normal((rows, 3)))
            _, error = vae_loss(recon, x, mu, logvar, beta_kl=0.5, members=members)
            expected = ((recon.data - x) ** 2).reshape(members, -1).mean(axis=1)
            assert error.tobytes() == expected.tobytes()


def _composed_reparameterize(mu, logvar, eps):
    """The sample built from elementary nodes: the reference of the fused op."""
    return ag.add(mu, ag.mul(ag.exp(ag.mul(logvar, 0.5)), eps))


def _mean(a):
    """The mean of every entry of ``a``, as one sum and one scaling node."""
    return ag.mul(ag.tsum(a), 1.0 / a.size)


def _composed_vae_loss(recon, x, mu, logvar, beta_kl):
    """The VAE objective built from elementary nodes."""
    mse = _mean(ag.square(ag.sub(recon, astensor(x))))
    kl_terms = ag.sub(ag.sub(ag.add(ag.square(mu), ag.exp(logvar)), 1.0), logvar)
    kl = ag.mul(_mean(ag.tsum(kl_terms, axis=1)), 0.5)
    return ag.add(mse, ag.mul(kl, beta_kl))


class TestFusedObjectiveMatchesComposition:
    @pytest.mark.parametrize("deterministic", [False, True])
    @pytest.mark.parametrize("beta_kl", [0.0, 0.01, 1.0])
    def test_loss_and_gradients_bit_identical(self, monkeypatch, deterministic, beta_kl):
        spec = VAESpec(10, (12, 6), latent_dim=4)
        x = np.random.default_rng(4).standard_normal((16, 10))
        runs = []
        for fused in (True, False):
            if not fused:
                monkeypatch.setattr(ag, "reparameterize", _composed_reparameterize)
            vae = VAE(spec, seed=3)
            opt = Adam(vae.parameters(), lr=1e-2)
            noise = np.random.default_rng(5)
            steps = []
            # a few optimizer steps, so that later steps start from
            # parameters both graphs moved
            for _ in range(3):
                eps = noise.standard_normal((16, 4))
                recon, mu, logvar, _ = vae.forward(x, None if deterministic else eps)
                loss = (vae_loss(recon, x, mu, logvar, beta_kl=beta_kl)[0] if fused
                        else _composed_vae_loss(recon, x, mu, logvar, beta_kl=beta_kl))
                loss.backward()
                steps.append((loss.item(), {k: p.grad.copy()
                                            for k, p in vae.parameters().items()}))
                opt.step()
                opt.zero_grad()
            runs.append(steps)
        for (loss_f, grads_f), (loss_c, grads_c) in zip(*runs):
            assert_same_bits(loss_f, loss_c)
            for name in grads_c:
                assert_same_bits(grads_f[name], grads_c[name], name)


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
        backbone = Backbone(EncoderSpec((12, 8), tap_index=1), 10, seed=0)
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
        eps = np.random.default_rng(5).standard_normal((8, 4))

        def step():
            recon, mu, logvar, _ = vae.forward(x, eps)
            vae_loss(recon, x, mu, logvar)[0].backward()
            opt.step()
            opt.zero_grad()

        assert _unreachable_after(step) == 0
