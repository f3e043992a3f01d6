import numpy as np
import pytest

from corrcolor.diagnostics import (DiagnosticsError, DiagnosticsReport, METRICS_COLUMNS,
                                   alignment, append_row, covariance_spectrum,
                                   effective_rank, embedding_variance, read_rows,
                                   write_line_chart_svg)
from corrcolor.losses import find_constant_columns


class TestEmbeddingVariance:
    def test_identical_rows_give_zero(self):
        z = np.tile(np.array([0.3, -0.4, 0.5]), (8, 1))
        assert embedding_variance(z) == 0.0

    def test_basis_vectors_near_one(self):
        # oracle: rows = d basis vectors; each coordinate is 1 once and 0
        # elsewhere, so per-coordinate variance is 1/d - 1/d^2 and the
        # rescaled sum is (d - 1)/d
        for d in (4, 8, 16):
            z = np.eye(d)
            expected = (d - 1) / d
            np.testing.assert_allclose(embedding_variance(z), expected, atol=1e-12)
            assert expected > 0.7  # "near 1" at these sizes

    def test_rows_scaled_to_unit_norm_first(self):
        rng = np.random.default_rng(0)
        z = rng.standard_normal((10, 5))
        scales = rng.uniform(0.5, 20.0, size=(10, 1))
        np.testing.assert_allclose(embedding_variance(z * scales),
                                   embedding_variance(z), atol=1e-12)

    def test_zero_norm_row_rejected(self):
        z = np.array([[1.0, 0.0], [0.0, 0.0]])
        with pytest.raises(DiagnosticsError, match="zero-norm"):
            embedding_variance(z)

    def test_single_row_rejected(self):
        with pytest.raises(DiagnosticsError, match="m >= 2"):
            embedding_variance(np.ones((1, 3)))

    def test_zero_variance_iff_all_columns_constant(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            z = rng.standard_normal((6, 4))
            if rng.random() < 0.5:
                z = np.tile(z[0], (6, 1))
            norms = np.linalg.norm(z, axis=1, keepdims=True)
            variance = embedding_variance(z)
            all_constant = len(find_constant_columns(z / norms)) == z.shape[1]
            assert (variance == 0.0) == all_constant


class TestCovarianceSpectrum:
    def test_rank_one_batch(self):
        rng = np.random.default_rng(2)
        direction = rng.standard_normal(5)
        z = np.outer(rng.standard_normal(12), direction)
        spectrum = covariance_spectrum(z)
        assert spectrum[0] > 1e-6
        np.testing.assert_allclose(spectrum[1:], 0.0, atol=1e-10)

    def test_whitened_batch_equal_eigenvalues(self):
        # columns orthogonal with equal norms -> isotropic covariance
        d = 4
        z = np.concatenate([np.eye(d), -np.eye(d)], axis=0)
        spectrum = covariance_spectrum(z)
        np.testing.assert_allclose(spectrum, spectrum[0], atol=1e-12)

    def test_trace_identity(self):
        rng = np.random.default_rng(3)
        z = rng.standard_normal((32, 8))
        spectrum = covariance_spectrum(z)
        total_variance = z.var(axis=0, ddof=1).sum()
        np.testing.assert_allclose(spectrum.sum(), total_variance, atol=1e-10)

    def test_descending_and_non_negative(self):
        rng = np.random.default_rng(4)
        spectrum = covariance_spectrum(rng.standard_normal((20, 6)))
        assert np.all(spectrum >= 0.0)
        assert np.all(np.diff(spectrum) <= 1e-12)


class TestEffectiveRank:
    def test_single_nonzero_eigenvalue(self):
        assert effective_rank(np.array([3.0, 0.0, 0.0])) == pytest.approx(1.0)

    def test_equal_eigenvalues_give_dimension(self):
        for d in (2, 5, 9):
            np.testing.assert_allclose(effective_rank(np.full(d, 0.7)), d, atol=1e-12)

    def test_hand_computed_example(self):
        # [2, 1, 1, 0] -> p = [0.5, 0.25, 0.25], exp(entropy) = 2*sqrt(2)
        np.testing.assert_allclose(effective_rank(np.array([2.0, 1.0, 1.0, 0.0])),
                                   2 * np.sqrt(2.0), atol=1e-12)

    def test_scale_invariance(self):
        rng = np.random.default_rng(5)
        lam = rng.uniform(0.0, 3.0, 7)
        np.testing.assert_allclose(effective_rank(lam), effective_rank(lam * 17.3),
                                   atol=1e-12)

    def test_all_zero_rejected(self):
        with pytest.raises(DiagnosticsError, match="all-zero"):
            effective_rank(np.zeros(4))

    def test_bounded_by_dimension(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            lam = rng.uniform(0.0, 1.0, 6)
            if lam.sum() == 0:
                continue
            er = effective_rank(lam)
            assert 1.0 <= er <= 6.0 + 1e-12


class TestAlignment:
    def test_identical_views(self):
        z = np.random.default_rng(7).standard_normal((5, 4))
        assert alignment(z, z) == pytest.approx(1.0)

    def test_anti_aligned_views(self):
        z = np.random.default_rng(8).standard_normal((5, 4))
        assert alignment(z, -z) == pytest.approx(-1.0)

    def test_orthogonal_views(self):
        rng = np.random.default_rng(9)
        z1 = np.zeros((6, 4))
        z2 = np.zeros((6, 4))
        z1[:, 0] = rng.standard_normal(6)
        z2[:, 1] = rng.standard_normal(6)  # disjoint support -> orthogonal rows
        np.testing.assert_allclose(alignment(z1, z2), 0.0, atol=1e-12)

    def test_zero_norm_row_rejected(self):
        with pytest.raises(DiagnosticsError, match="zero-norm"):
            alignment(np.zeros((2, 3)), np.ones((2, 3)))


class TestMetricsFile:
    def _report(self, epoch):
        return DiagnosticsReport(epoch=epoch, lam=0.05, loss_total=1.0, loss_w=0.9,
                                 loss_c=2.0, variance=0.5, effective_rank=3.0,
                                 alignment=0.8, wall_ms=12.5)

    def test_append_and_read_back(self, tmp_path):
        path = tmp_path / "metrics.csv"
        append_row(path, self._report(0).record())
        append_row(path, self._report(1).record())
        rows = read_rows(path, METRICS_COLUMNS)
        assert len(rows) == 2
        assert tuple(rows[0].keys()) == METRICS_COLUMNS
        assert float(rows[1]["variance"]) == 0.5
        assert int(rows[1]["epoch"]) == 1

    @pytest.mark.parametrize("text, problem", [
        ("", "header lacks column"),
        ("epoch,lambda,loss_total,loss_w,loss_c,vari", "header lacks column"),
        (",".join(METRICS_COLUMNS) + "\r\n0,0.05,1.0\r\n", "shorter than the header"),
    ])
    def test_file_cut_short_is_refused_by_name(self, tmp_path, text, problem):
        path = tmp_path / "metrics.csv"
        path.write_bytes(text.encode())
        with pytest.raises(DiagnosticsError, match=problem) as info:
            read_rows(path, METRICS_COLUMNS)
        assert str(path) in str(info.value)

    def test_svg_chart_written(self, tmp_path):
        path = tmp_path / "chart.svg"
        write_line_chart_svg(path, {"a": [1.0, 2.0, 1.5], "b": [0.0, 0.5, 0.25]},
                             title="test")
        text = path.read_text()
        assert text.startswith("<svg")
        assert text.count("<polyline") == 2
