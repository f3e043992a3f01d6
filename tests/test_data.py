import numpy as np
import pytest

from corrcolor.data import (DataError, FormatError, ImageAugmentation,
                            SparseDenseSpec, VectorAugmentation, augment_batch_pair,
                            augment_once, augment_pair, bilinear_resize,
                            generate_sparse_dense, identity_protocol_for, load_image_set,
                            save_image_set)


def least_squares_probe_accuracy(x: np.ndarray, labels: np.ndarray) -> float:
    """Independent closed-form linear classifier: one-hot least squares,
    fit on the first half and scored on the held-out second half."""
    half = x.shape[0] // 2
    onehot = np.eye(labels.max() + 1)[labels[:half]]
    design = np.concatenate([x, np.ones((x.shape[0], 1))], axis=1)
    coef, *_ = np.linalg.lstsq(design[:half], onehot, rcond=None)
    pred = (design[half:] @ coef).argmax(axis=1)
    return float((pred == labels[half:]).mean())


class TestSparseDenseGeneration:
    def test_noiseless_classes_identical_on_sparse_block(self):
        spec = SparseDenseSpec(num_classes=2, sparse_dim=4, dense_dim=8,
                               num_samples=50, sparse_noise=0.0, dense_noise=0.0, seed=3)
        ds = generate_sparse_dense(spec)
        for k in (0, 1):
            block = ds.features[ds.labels == k, :4]
            assert np.all(block == block[0])

    def test_probe_oracle_separates_sparse_not_dense(self):
        spec = SparseDenseSpec(num_classes=2, sparse_dim=4, dense_dim=60,
                               num_samples=2000, seed=11)
        ds = generate_sparse_dense(spec)
        acc_sparse = least_squares_probe_accuracy(ds.features[:, :4], ds.labels)
        acc_dense = least_squares_probe_accuracy(ds.features[:, 4:], ds.labels)
        assert acc_sparse > 0.99
        assert abs(acc_dense - 0.5) <= 0.05

    def test_determinism(self):
        spec = SparseDenseSpec(seed=42, num_samples=100)
        a = generate_sparse_dense(spec)
        b = generate_sparse_dense(spec)
        np.testing.assert_array_equal(a.features, b.features)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_sparse_dim_below_classes_rejected(self):
        with pytest.raises(DataError, match="sparse_dim"):
            generate_sparse_dense(SparseDenseSpec(num_classes=4, sparse_dim=3))

    def test_many_classes_get_distinct_patterns(self):
        spec = SparseDenseSpec(num_classes=8, sparse_dim=8, dense_dim=4,
                               num_samples=160, sparse_noise=0.0, seed=0)
        ds = generate_sparse_dense(spec)
        patterns = {ds.features[ds.labels == k, :8][0].tobytes() for k in range(8)}
        assert len(patterns) == 8

    def test_dataset_immutable(self):
        ds = generate_sparse_dense(SparseDenseSpec(num_samples=10))
        with pytest.raises(ValueError):
            ds.features[0, 0] = 99.0


class TestVectorAugmentation:
    def test_identity_protocol_bit_exact(self):
        ds = generate_sparse_dense(SparseDenseSpec(num_samples=5, seed=1))
        proto = identity_protocol_for(ds)
        rng = np.random.default_rng(0)
        v1, v2 = augment_pair(ds.features[0], proto, rng)
        np.testing.assert_array_equal(v1, ds.features[0])
        np.testing.assert_array_equal(v2, ds.features[0])

    def test_sparse_block_only_scaled(self):
        ds = generate_sparse_dense(SparseDenseSpec(num_samples=5, seed=2))
        proto = VectorAugmentation(sparse_dim=4, dense_noise_scale=0.5,
                                   dense_dropout_prob=0.3, scale_jitter_range=(0.8, 1.2))
        rng = np.random.default_rng(7)
        sample = ds.features[0]
        for _ in range(20):
            view = augment_once(sample, proto, rng)
            ratios = view[:4] / sample[:4]
            np.testing.assert_allclose(ratios, ratios[0], rtol=1e-12)
            assert 0.8 <= ratios[0] <= 1.2

    def test_positive_pair_sparse_agreement(self):
        # over many pairs, sparse blocks correlate more than dense blocks
        ds = generate_sparse_dense(SparseDenseSpec(num_samples=1000, seed=5))
        proto = VectorAugmentation(sparse_dim=4, dense_noise_scale=0.5,
                                   dense_dropout_prob=0.2, scale_jitter_range=(0.9, 1.1))
        rng = np.random.default_rng(9)
        v1, v2 = augment_batch_pair(ds.features, proto, rng)

        def mean_corr(a, b):
            corrs = []
            for x, y in zip(a, b):
                sx, sy = x - x.mean(), y - y.mean()
                denom = np.linalg.norm(sx) * np.linalg.norm(sy)
                if denom > 0:
                    corrs.append(sx @ sy / denom)
            return np.mean(corrs)

        assert mean_corr(v1[:, :4], v2[:, :4]) > mean_corr(v1[:, 4:], v2[:, 4:])

    def test_protocol_determinism(self):
        ds = generate_sparse_dense(SparseDenseSpec(num_samples=3, seed=1))
        proto = VectorAugmentation(sparse_dim=4)
        a = augment_pair(ds.features[0], proto, np.random.default_rng(123))
        b = augment_pair(ds.features[0], proto, np.random.default_rng(123))
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])

    def test_shape_preserved(self):
        ds = generate_sparse_dense(SparseDenseSpec(num_samples=3, seed=1))
        proto = VectorAugmentation(sparse_dim=4, dense_dropout_prob=0.9)
        v1, v2 = augment_pair(ds.features[0], proto, np.random.default_rng(0))
        assert v1.shape == v2.shape == ds.features[0].shape


class TestImageAugmentation:
    def test_mirror_probability_one_flips(self):
        ramp = np.tile(np.linspace(0.0, 1.0, 8), (8, 1))
        proto = ImageAugmentation(mirror_prob=1.0, crop_scale_range=(1.0, 1.0),
                                  aspect_jitter_range=(1.0, 1.0),
                                  brightness_jitter=0.0, contrast_jitter=0.0)
        view = augment_once(ramp, proto, np.random.default_rng(0))
        np.testing.assert_array_equal(view, ramp[:, ::-1])

    def test_identity_protocol_bit_exact(self):
        rng = np.random.default_rng(4)
        img = rng.random((6, 6))
        proto = ImageAugmentation(0.0, (1.0, 1.0), (1.0, 1.0), 0.0, 0.0)
        view = augment_once(img, proto, np.random.default_rng(0))
        np.testing.assert_array_equal(view, img)

    def test_crop_resamples_to_original_shape(self):
        rng = np.random.default_rng(4)
        img = rng.random((12, 12))
        proto = ImageAugmentation(0.0, (0.5, 0.9), (1.0, 1.0), 0.0, 0.0)
        view = augment_once(img, proto, np.random.default_rng(1))
        assert view.shape == img.shape

    def test_crop_exceeding_bounds_rejected_at_validation(self):
        proto = ImageAugmentation(0.0, (1.0, 1.0), (2.0, 2.0), 0.0, 0.0)
        with pytest.raises(DataError, match="crop range exceeds image bounds"):
            proto.validate_bounds(8, 8)

    def test_invalid_crop_scale_rejected_at_construction(self):
        with pytest.raises(DataError, match="crop scale"):
            ImageAugmentation(crop_scale_range=(0.5, 1.2))

    def test_bilinear_resize_identity(self):
        img = np.arange(16.0).reshape(4, 4)
        np.testing.assert_array_equal(bilinear_resize(img, 4, 4), img)

    def test_bilinear_resize_constant_image(self):
        img = np.full((5, 7), 0.3)
        np.testing.assert_allclose(bilinear_resize(img, 9, 3), 0.3)


class TestImageFileFormat:
    def test_roundtrip_matches_bytes_over_255(self, tmp_path):
        images = np.array([
            [[0.0, 1.0], [0.5, 0.25]],
            [[1.0, 0.0], [0.125, 0.75]],
        ])
        labels = np.array([0, 1])
        path = tmp_path / "two.img"
        save_image_set(path, images, labels)
        ds = load_image_set(path)
        expected = np.round(images * 255.0) / 255.0
        np.testing.assert_allclose(ds.features, expected, atol=1e-12)
        np.testing.assert_array_equal(ds.labels, labels)
        assert ds.modality == "image"

    def test_empty_file_is_valid(self, tmp_path):
        path = tmp_path / "empty.img"
        save_image_set(path, np.zeros((0, 4, 4)), np.zeros(0, dtype=int))
        ds = load_image_set(path)
        assert len(ds) == 0

    def test_bad_magic_reports_offset(self, tmp_path):
        path = tmp_path / "bad.img"
        path.write_bytes(b"XXXX" + b"\x00" * 12)
        with pytest.raises(FormatError, match="byte offset 0"):
            load_image_set(path)

    def test_truncated_body_reports_offset(self, tmp_path):
        path = tmp_path / "img.img"
        save_image_set(path, np.zeros((2, 3, 3)), np.zeros(2, dtype=int))
        blob = path.read_bytes()
        cut = tmp_path / "cut.img"
        cut.write_bytes(blob[:-4])
        (str(cut) + ".labels")
        import shutil
        shutil.copy(str(path) + ".labels", str(cut) + ".labels")
        with pytest.raises(FormatError, match="byte offset"):
            load_image_set(cut)

    def test_mismatched_label_count(self, tmp_path):
        path = tmp_path / "img.img"
        save_image_set(path, np.zeros((2, 3, 3)), np.zeros(2, dtype=int))
        other = tmp_path / "other.img"
        save_image_set(other, np.zeros((3, 3, 3)), np.zeros(3, dtype=int))
        with pytest.raises(FormatError, match="label count"):
            load_image_set(path, labels_path=str(other) + ".labels")
