"""Loss-module checks against independent brute-force loop oracles."""

import numpy as np
import pytest

from corrcolor import autograd as ag
from corrcolor.autograd import astensor, parameter
from corrcolor.losses import (CollapseError, CorrelationMatrix, LossConfig, LossError,
                              auto_correlation, coloring_loss, cross_correlation,
                              find_constant_columns, lambda_at, neg_log_posterior,
                              normalize_columns, total_loss, whitening_loss)

from test_autograd import assert_grad_close, numeric_grad


# -- loop oracles: straight translations with explicit indexing --------


def oracle_cross_correlation(z1: np.ndarray, z2: np.ndarray) -> np.ndarray:
    """Literal element-wise correlation with explicit denominators,
    computed on centered (but not scaled) inputs."""
    a = z1 - z1.mean(axis=0)
    b = z2 - z2.mean(axis=0)
    m, d = a.shape
    out = np.zeros((d, d))
    for i in range(d):
        for j in range(d):
            num = sum(a[k, i] * b[k, j] for k in range(m))
            den = np.sqrt(sum(a[k, i] ** 2 for k in range(m))) * \
                np.sqrt(sum(b[k, j] ** 2 for k in range(m)))
            out[i, j] = num / den
    return out


def oracle_coloring_loss(c: np.ndarray, e: np.ndarray) -> float:
    total = 0.0
    for i in range(c.shape[0]):
        for j in range(c.shape[1]):
            total += (c[i, j] - e[i, j]) ** 2
    return total


def oracle_whitening_loss(w: np.ndarray, alpha: float) -> float:
    total = 0.0
    for i in range(w.shape[0]):
        total += (1.0 - w[i, i]) ** 2
    for i in range(w.shape[0]):
        for j in range(w.shape[1]):
            if i != j:
                total += alpha * w[i, j] ** 2
    return total


class TestNormalizeColumns:
    def test_two_point_column(self):
        out = normalize_columns(np.array([[1.0], [-1.0]]))
        np.testing.assert_allclose(out.data, [[1 / np.sqrt(2)], [-1 / np.sqrt(2)]])

    def test_idempotent(self):
        rng = np.random.default_rng(0)
        z = normalize_columns(rng.standard_normal((8, 4))).data
        again = normalize_columns(z).data
        np.testing.assert_allclose(again, z, atol=1e-12)

    def test_zero_mean_unit_norm(self):
        rng = np.random.default_rng(1)
        out = normalize_columns(rng.standard_normal((8, 4))).data
        assert np.abs(out.mean(axis=0)).max() < 1e-12
        np.testing.assert_allclose(np.linalg.norm(out, axis=0), 1.0, atol=1e-12)

    def test_constant_column_raises_naming_column(self):
        z = np.random.default_rng(2).standard_normal((6, 3))
        z[:, 1] = 4.2
        with pytest.raises(CollapseError, match=r"\[1\]"):
            normalize_columns(z)

    def test_detector_fires_iff_constant(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            z = rng.standard_normal((5, 4))
            cols = rng.choice(4, size=rng.integers(0, 3), replace=False)
            for c in cols:
                z[:, c] = rng.standard_normal()
            assert sorted(find_constant_columns(z)) == sorted(cols.tolist())

    def test_near_constant_column_does_not_fire(self):
        z = np.random.default_rng(4).standard_normal((6, 2))
        z[:, 0] = 1.0
        z[0, 0] = 1.0 + 1e-15
        assert find_constant_columns(z) == []
        normalize_columns(z)  # no error


class TestCrossCorrelation:
    def test_orthonormal_self_correlation_is_identity(self):
        z = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
        zn = normalize_columns(z)
        c = cross_correlation(zn, zn)
        np.testing.assert_allclose(c.data, np.eye(2), atol=1e-12)

    def test_sign_flip_gives_negative_identity(self):
        z = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
        zn = normalize_columns(z)
        zneg = normalize_columns(-z)
        c = cross_correlation(zn, zneg)
        np.testing.assert_allclose(c.data, -np.eye(2), atol=1e-12)

    def test_matches_literal_oracle_on_fixed_pair(self):
        rng = np.random.default_rng(5)
        z1, z2 = rng.standard_normal((3, 2)), rng.standard_normal((3, 2))
        path = cross_correlation(normalize_columns(z1), normalize_columns(z2)).data
        np.testing.assert_allclose(path, oracle_cross_correlation(z1, z2), atol=1e-12)

    def test_oracle_equivalence_100_random_batches(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            m = int(rng.integers(3, 12))
            d = int(rng.integers(2, 7))
            z1, z2 = rng.standard_normal((m, d)), rng.standard_normal((m, d))
            path = cross_correlation(normalize_columns(z1), normalize_columns(z2)).data
            np.testing.assert_allclose(path, oracle_cross_correlation(z1, z2), atol=1e-10)

    def test_bound_property(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            z1, z2 = rng.standard_normal((6, 4)), rng.standard_normal((6, 4))
            c = cross_correlation(normalize_columns(z1), normalize_columns(z2)).data
            assert np.all(np.abs(c) <= 1.0 + 1e-9)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(LossError, match="differ"):
            cross_correlation(np.ones((4, 3)), np.ones((4, 2)))


class TestAutoCorrelation:
    def test_unit_diagonal(self):
        rng = np.random.default_rng(8)
        z = normalize_columns(rng.standard_normal((6, 3)))
        c = auto_correlation(z)
        np.testing.assert_allclose(np.diag(c.data), 1.0, atol=1e-12)

    def test_identical_columns_fully_correlated(self):
        rng = np.random.default_rng(9)
        col = rng.standard_normal(6)
        z = normalize_columns(np.stack([col, col, rng.standard_normal(6)], axis=1))
        c = auto_correlation(z)
        np.testing.assert_allclose(c.data[0, 1], 1.0, atol=1e-12)

    def test_symmetric_and_consistent_with_cross(self):
        rng = np.random.default_rng(10)
        z = normalize_columns(rng.standard_normal((6, 3)))
        c = auto_correlation(z).data
        np.testing.assert_allclose(c, c.T, atol=1e-12)
        np.testing.assert_allclose(c, cross_correlation(z, z).data, atol=1e-12)


class TestColoringLoss:
    def test_exact_match_is_zero(self):
        e = np.random.default_rng(11).uniform(-1, 1, (4, 4))
        assert coloring_loss(astensor(e.copy()), e).item() == 0.0

    def test_single_element_offset(self):
        e = np.zeros((3, 3))
        c = e.copy()
        c[1, 2] = 0.1
        np.testing.assert_allclose(coloring_loss(astensor(c), e).item(), 0.01, atol=1e-15)

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            c = rng.uniform(-1, 1, (4, 4))
            e = rng.uniform(-1, 1, (4, 4))
            np.testing.assert_allclose(coloring_loss(astensor(c), e).item(),
                                       oracle_coloring_loss(c, e), atol=1e-10)


class TestWhiteningLoss:
    def test_identity_is_zero(self):
        assert whitening_loss(astensor(np.eye(5)), alpha=0.01).item() == 0.0

    def test_all_ones_closed_form(self):
        d = 6
        w = np.ones((d, d))
        np.testing.assert_allclose(whitening_loss(astensor(w), 0.01).item(),
                                   0.01 * d * (d - 1), atol=1e-12)

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            w = rng.uniform(-1, 1, (5, 5))
            np.testing.assert_allclose(whitening_loss(astensor(w), 0.01).item(),
                                       oracle_whitening_loss(w, 0.01), atol=1e-10)


class TestTotalLossAndSchedule:
    def test_lambda_zero_reduces_to_whitening(self):
        assert total_loss(astensor(1.7), astensor(9.9), 0.0).item() == 1.7

    def test_weighted_sum(self):
        np.testing.assert_allclose(total_loss(astensor(1.0), astensor(2.0), 0.05).item(),
                                   1.1, atol=1e-15)

    def test_block_schedule_lookup(self):
        config = LossConfig(lam_schedule=(0.08, 0.07, 0.06, 0.05, 0.04),
                            lam_block_epochs=50)
        assert lambda_at(config, 0) == 0.08
        assert lambda_at(config, 120) == 0.06
        assert lambda_at(config, 10_000) == 0.04

    def test_static_default(self):
        config = LossConfig()
        assert config.lam == 0.05
        assert config.alpha == 0.01
        for epoch in (0, 5, 500):
            assert lambda_at(config, epoch) == 0.05

    def test_empty_schedule_rejected(self):
        with pytest.raises(LossError, match="empty"):
            LossConfig(lam_schedule=())

    @pytest.mark.parametrize("given", [{"lam": np.nan}, {"alpha": np.nan},
                                       {"lam_schedule": (0.1, np.nan)},
                                       {"lam_schedule": (np.nan,)}])
    def test_nan_weights_rejected(self, given):
        # NaN fails every comparison: lam > 0 would silently turn coloring off
        with pytest.raises(LossError):
            LossConfig(**given)

    def test_negative_lambda_rejected(self):
        with pytest.raises(LossError):
            total_loss(astensor(1.0), astensor(1.0), -0.5)


class TestNegLogPosterior:
    def test_pure_normalization_constants_at_exact_fit(self):
        rng = np.random.default_rng(14)
        for sigma in (0.5, 1.0, 2.0):
            d = 4
            e = rng.uniform(-1, 1, (d, d))
            value = neg_log_posterior(astensor(e.copy()), astensor(np.eye(d)), e, sigma)
            expected = 2 * d * d * 0.5 * np.log(2 * np.pi * sigma * sigma)
            np.testing.assert_allclose(value.item(), expected, atol=1e-12)

    def test_gradient_wrt_c_is_residual_over_sigma_squared(self):
        rng = np.random.default_rng(15)
        for _ in range(10):
            sigma = rng.uniform(0.3, 3.0)
            c = parameter(rng.uniform(-1, 1, (4, 4)))
            w = astensor(rng.uniform(-1, 1, (4, 4)))
            e = rng.uniform(-1, 1, (4, 4))
            neg_log_posterior(c, w, e, sigma).backward()
            np.testing.assert_allclose(c.grad, (c.data - e) / sigma ** 2, atol=1e-12)

    def test_gradient_wrt_w_proportional_to_whitening_loss_alpha_one(self):
        rng = np.random.default_rng(16)
        for _ in range(10):
            sigma = rng.uniform(0.3, 3.0)
            c = astensor(rng.uniform(-1, 1, (4, 4)))
            e = rng.uniform(-1, 1, (4, 4))

            w1 = parameter(rng.uniform(-1, 1, (4, 4)))
            neg_log_posterior(c, w1, e, sigma).backward()
            w2 = parameter(w1.data.copy())
            whitening_loss(w2, alpha=1.0).backward()
            np.testing.assert_allclose(w1.grad, w2.grad / (2 * sigma ** 2), atol=1e-12)

    def test_sigma_must_be_positive(self):
        with pytest.raises(LossError, match="sigma"):
            neg_log_posterior(np.eye(2), np.eye(2), np.eye(2), 0.0)


class TestGradientsThroughLossPipeline:
    def test_full_objective_matches_finite_differences(self):
        rng = np.random.default_rng(17)
        e = rng.uniform(-0.5, 0.5, (3, 3))
        z1 = parameter(rng.standard_normal((6, 3)))
        z2 = parameter(rng.standard_normal((6, 3)))

        def objective():
            c = cross_correlation(normalize_columns(z1), normalize_columns(z2))
            w = cross_correlation(normalize_columns(z2), normalize_columns(z1))
            return total_loss(whitening_loss(w, 0.01), coloring_loss(c, e), 0.05)

        objective().backward()
        for t in (z1, z2):
            numeric = numeric_grad(lambda: objective().item(), t.data)
            assert_grad_close(t.grad, numeric)


class TestCorrelationMatrixArtifact:
    def test_kind_validation(self):
        with pytest.raises(LossError, match="kind"):
            CorrelationMatrix(np.eye(2), "bogus")

    def test_bound_validation(self):
        bad = np.eye(2) * 1.5
        with pytest.raises(LossError, match="out of"):
            CorrelationMatrix(bad, "target")

    def test_auto_kind_pins_diagonal(self):
        values = np.eye(3)
        values[0, 0] = 1.0 + 5e-10  # rounding-level deviation
        m = CorrelationMatrix(values, "auto")
        assert m.values[0, 0] == 1.0
