import re
import sys
import threading

import numpy as np
import pytest

from corrcolor import autograd as ag
from corrcolor.data import (Augmentation, DataError, Dataset, SparseDenseSpec,
                            augment_batch_pair, augment_once, draw_views,
                            generate_sparse_dense, view_pair_batches)
from same_bits import assert_same_bits


# an augmentation whose draws reproduce the sample exactly
IDENTITY = Augmentation(0.0, 0.0, (1.0, 1.0))


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


class TestDataset:
    def test_features_must_be_rows_of_vectors(self):
        labels = np.array([0, 1])
        assert Dataset(np.zeros((2, 5)), labels, 2).flat_dim() == 5
        for shape in ((2,), (2, 3, 4), (2, 1, 3, 4)):
            with pytest.raises(DataError, match=r"features must be \(n, dim\) vectors, got shape"):
                Dataset(np.zeros(shape), labels, 2)

    def test_labels_must_match_the_rows_and_the_classes(self):
        with pytest.raises(DataError, match="3 samples but 2 labels"):
            Dataset(np.zeros((3, 4)), np.array([0, 1]), 2)
        for labels in ([0, 2], [-1, 0]):
            with pytest.raises(DataError, match=re.escape("labels outside [0, 2)")):
                Dataset(np.zeros((2, 4)), np.array(labels), 2)

    # the dataset checks its sparse block once; every draw relies on it
    def test_negative_sparse_dim_rejected(self):
        with pytest.raises(DataError, match=re.escape("sparse_dim must be in [0, 4], got -1")):
            Dataset(np.zeros((2, 4)), np.array([0, 1]), 2, sparse_dim=-1)

    def test_sparse_dim_beyond_the_sample_rejected(self):
        assert Dataset(np.zeros((2, 4)), np.array([0, 1]), 2, sparse_dim=4).sparse_dim == 4
        with pytest.raises(DataError, match=re.escape("sparse_dim must be in [0, 4], got 5")):
            Dataset(np.zeros((2, 4)), np.array([0, 1]), 2, sparse_dim=5)

    def test_digest_is_pinned(self):
        # target files record it as their dataset_digest
        ds = generate_sparse_dense(SparseDenseSpec(num_samples=10, seed=1))
        assert ds.digest() == "8a550bf5eabd67df"


class TestVectorAugmentation:
    def test_identity_protocol_bit_exact(self):
        ds = generate_sparse_dense(SparseDenseSpec(num_samples=5, seed=1))
        proto = IDENTITY
        rng = np.random.default_rng(0)
        for _ in range(2):
            assert_same_bits(augment_once(ds.features[0], proto, ds.sparse_dim, rng),
                             ds.features[0])

    def test_sparse_block_only_scaled(self):
        ds = generate_sparse_dense(SparseDenseSpec(num_samples=5, seed=2))
        proto = Augmentation(dense_noise_scale=0.5, dense_dropout_prob=0.3,
                             scale_jitter=(0.8, 1.2))
        rng = np.random.default_rng(7)
        sample = ds.features[0]
        for _ in range(20):
            view = augment_once(sample, proto, ds.sparse_dim, rng)
            ratios = view[:4] / sample[:4]
            np.testing.assert_allclose(ratios, ratios[0], rtol=1e-12)
            assert 0.8 <= ratios[0] <= 1.2

    def test_positive_pair_sparse_agreement(self):
        # over many pairs, sparse blocks correlate more than dense blocks
        ds = generate_sparse_dense(SparseDenseSpec(num_samples=1000, seed=5))
        proto = Augmentation(dense_noise_scale=0.5, dense_dropout_prob=0.2,
                             scale_jitter=(0.9, 1.1))
        rng = np.random.default_rng(9)
        v1, v2 = augment_batch_pair(ds.features, proto, ds.sparse_dim, rng)

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
        proto = Augmentation()
        a, b = np.random.default_rng(123), np.random.default_rng(123)
        for _ in range(2):
            np.testing.assert_array_equal(augment_once(ds.features[0], proto, ds.sparse_dim, a),
                                          augment_once(ds.features[0], proto, ds.sparse_dim, b))

    def test_shape_preserved(self):
        ds = generate_sparse_dense(SparseDenseSpec(num_samples=3, seed=1))
        proto = Augmentation(dense_dropout_prob=0.9)
        view = augment_once(ds.features[0], proto, ds.sparse_dim, np.random.default_rng(0))
        assert view.shape == ds.features[0].shape

    def test_single_sample_draws_like_a_batch_of_one(self):
        ds = generate_sparse_dense(SparseDenseSpec(num_samples=3, seed=1))
        proto = Augmentation(dense_noise_scale=0.5, dense_dropout_prob=0.3,
                             scale_jitter=(0.8, 1.2))
        x = ds.features[1]
        once = augment_once(x, proto, ds.sparse_dim, np.random.default_rng(11))
        v1, _ = augment_batch_pair(x[None], proto, ds.sparse_dim, np.random.default_rng(11))
        np.testing.assert_array_equal(once, v1[0])


PROTOCOLS = [
    Augmentation(dense_noise_scale=0.5, dense_dropout_prob=0.3, scale_jitter=(0.8, 1.2)),
    Augmentation(dense_noise_scale=0.5, dense_dropout_prob=0.0, scale_jitter=(1.0, 1.0)),
    Augmentation(dense_noise_scale=0.0, dense_dropout_prob=0.3, scale_jitter=(1.0, 1.0)),
    IDENTITY]


class TestDrawViews:
    DATASET = generate_sparse_dense(SparseDenseSpec(num_samples=5, sparse_dim=4, dense_dim=6,
                                                    seed=2))

    # the target pass's views: augment_once on each sample in turn, bit for bit
    @pytest.mark.parametrize("proto", PROTOCOLS)
    @pytest.mark.parametrize("copies", [1, 2])
    def test_one_row_batches_match_augment_once_per_sample(self, proto, copies):
        ds = self.DATASET
        rng = np.random.default_rng(9)
        expected = [[augment_once(x, proto, ds.sparse_dim, rng) for _ in range(copies)]
                    for x in ds.features]
        drawn = np.random.default_rng(9)
        views = draw_views(ds, proto, np.arange(len(ds))[:, None], drawn, copies)
        # copy-major: copy c of every sample, then copy c + 1
        np.testing.assert_array_equal(views, np.swapaxes(expected, 0, 1).reshape(-1, 10))
        assert drawn.bit_generator.state == rng.bit_generator.state

    # a stream's views: one batch draws augment_batch_pair's pair, bit for bit
    @pytest.mark.parametrize("proto", PROTOCOLS)
    def test_one_batch_matches_augment_batch_pair(self, proto):
        ds, idx = self.DATASET, np.array([3, 0, 4])
        rng = np.random.default_rng(9)
        expected = np.concatenate(augment_batch_pair(ds.features[idx], proto, ds.sparse_dim, rng))
        drawn = np.random.default_rng(9)
        np.testing.assert_array_equal(draw_views(ds, proto, idx[None], drawn, 2), expected)
        assert drawn.bit_generator.state == rng.bit_generator.state

    def test_batches_draw_in_turn_and_stack_copy_major(self):
        ds, proto = self.DATASET, PROTOCOLS[0]
        idx = np.array([[4, 1], [0, 2], [3, 3]])
        rng = np.random.default_rng(9)
        pairs = [augment_batch_pair(ds.features[rows], proto, ds.sparse_dim, rng) for rows in idx]
        expected = np.concatenate([pair[c] for c in range(2) for pair in pairs])
        drawn = np.random.default_rng(9)
        np.testing.assert_array_equal(draw_views(ds, proto, idx, drawn, 2), expected)
        assert drawn.bit_generator.state == rng.bit_generator.state


def serial_view_pairs(dataset, aug, rng, batch_size, epochs, min_rows) -> list[list]:
    """The view-pair stream drawn inline, one list of batches per epoch."""
    stream = []
    for _ in range(epochs):
        order = rng.permutation(len(dataset))
        stream.append([])
        for start in range(0, len(dataset), batch_size):
            idx = order[start:start + batch_size]
            if idx.size < min_rows:
                continue
            v1, v2 = augment_batch_pair(dataset.features[idx], aug, dataset.sparse_dim, rng)
            stream[-1].append(np.concatenate([v1, v2]))
    return stream


class TestViewPairBatches:
    # 40 samples in batches of 7: five full batches and a last one of 5
    DATASET = generate_sparse_dense(SparseDenseSpec(num_samples=40, sparse_dim=4, dense_dim=6,
                                                    seed=3))
    AUG = Augmentation(dense_noise_scale=0.5, dense_dropout_prob=0.3, scale_jitter=(0.9, 1.1))

    def _drawn(self, seed: int, min_rows: int, epochs: int = 4):
        rng = np.random.default_rng(seed)
        with view_pair_batches(self.DATASET, self.AUG, rng, 7, epochs, min_rows) as stream:
            items = [list(stream.epoch()) for _ in range(epochs)]
        assert all(eps is None for epoch in items for _, eps in epoch)  # no noise generators
        return [[views for views, _ in epoch] for epoch in items], rng.bit_generator.state

    @pytest.mark.parametrize("min_rows, per_epoch", [(1, 6), (6, 5)])
    def test_stream_and_final_rng_state_are_the_serial_ones(self, min_rows, per_epoch):
        batches, state = self._drawn(0, min_rows)
        rng = np.random.default_rng(0)
        expected = serial_view_pairs(self.DATASET, self.AUG, rng, 7, 4, min_rows)
        assert [len(epoch) for epoch in batches] == [per_epoch] * 4
        for got, want in zip(sum(batches, []), sum(expected, [])):
            np.testing.assert_array_equal(got, want)
        assert state == rng.bit_generator.state

    def test_streams_in_parallel_under_rapid_thread_switching(self):
        # four streams (and four workers) on two cores, switching threads
        # every microsecond: each still reads exactly its serial stream
        results = {}
        consumers = [threading.Thread(target=lambda s=s: results.update({s: self._drawn(s, 1)}))
                     for s in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for consumer in consumers:
                consumer.start()
            for consumer in consumers:
                consumer.join(timeout=60)
                assert not consumer.is_alive()
        finally:
            sys.setswitchinterval(interval)
        for seed in range(4):
            rng = np.random.default_rng(seed)
            expected = serial_view_pairs(self.DATASET, self.AUG, rng, 7, 4, 1)
            batches, state = results[seed]
            for got, want in zip(sum(batches, []), sum(expected, [])):
                np.testing.assert_array_equal(got, want)
            assert state == rng.bit_generator.state

    def test_gradient_jobs_between_draws_change_no_draw(self, monkeypatch):
        # the loop's worker runs the backward passes' parameter-gradient
        # jobs between its draws: the stream and the rng are the serial ones
        monkeypatch.setattr(ag, "_spare_core", lambda: True)
        rng = np.random.default_rng(0)
        grads = np.random.default_rng(1)
        w = ag.parameter(grads.standard_normal((48, 48)))
        x = grads.standard_normal((320, 48))
        assert x.shape[0] * 48 * 48 >= ag.QUEUE_MACS
        with view_pair_batches(self.DATASET, self.AUG, rng, 7, 4, 1) as stream:
            batches = []
            for _ in range(4):
                for views, _ in stream.epoch():
                    ag.tsum(ag.dense(x, w, np.zeros(48), relu=True)[0]).backward(stream)
                    batches.append(views)
        serial = np.random.default_rng(0)
        expected = serial_view_pairs(self.DATASET, self.AUG, serial, 7, 4, 1)
        for got, want in zip(batches, sum(expected, []), strict=True):
            np.testing.assert_array_equal(got, want)
        assert rng.bit_generator.state == serial.bit_generator.state

    def test_leaving_early_joins_the_worker(self):
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="stop"):
            with view_pair_batches(self.DATASET, self.AUG, np.random.default_rng(0), 7, 4,
                                   1) as stream:
                next(stream.epoch())
                raise RuntimeError("stop")
        assert threading.active_count() == before
