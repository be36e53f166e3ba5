import numpy as np
import pytest

from genreclf.data import temporal_average
from genreclf.errors import ConfigError
from genreclf.modalities import ModalitySpec
from genreclf.synth import ORDER_GENRES, synth_mean_encoded, synth_order_encoded
from genreclf.vocab import GENRES, label_vector

SMALL = (ModalitySpec("clip", 16, 12), ModalitySpec("audiotag", 8, 6))


class TestMeanEncoded:
    def test_reproducible(self):
        a = synth_mean_encoded(8, seed=3, specs=SMALL)
        b = synth_mean_encoded(8, seed=3, specs=SMALL)
        for ra, rb in zip(a, b):
            assert ra.id == rb.id and ra.genres == rb.genres
            for k in ra.features:
                assert np.array_equal(ra.features[k], rb.features[k])

    def test_different_seed_differs(self):
        a = synth_mean_encoded(8, seed=3, specs=SMALL)
        b = synth_mean_encoded(8, seed=4, specs=SMALL)
        assert any(not np.array_equal(ra.features["clip"], rb.features["clip"]) for ra, rb in zip(a, b))

    def test_every_record_labelled_and_in_bounds(self):
        records = synth_mean_encoded(64, seed=0, specs=SMALL)
        for r in records:
            assert len(r.genres) >= 1
            assert 19.6 <= r.duration_s <= 214.4
            for spec in SMALL:
                t = r.features[spec.name].shape[0]
                assert 1 <= t <= spec.train_max_len

    def test_zero_noise_mean_equals_signature_sum(self):
        records = synth_mean_encoded(6, seed=1, noise_std=0.0, specs=SMALL)
        for r in records:
            seq = r.features["clip"]
            assert np.allclose(seq, seq[0][None, :])   # every frame identical

    def test_linear_probe_recovers_labels_at_zero_noise(self):
        records = synth_mean_encoded(200, seed=2, noise_std=0.0, specs=SMALL)
        means = np.stack([np.concatenate([temporal_average(r.features[s.name]) for s in SMALL])
                          for r in records]).astype(np.float64)
        targets = np.stack([label_vector(r.genres) for r in records]).astype(np.float64)
        # ridge-free least squares probe on the temporal means
        w, *_ = np.linalg.lstsq(np.hstack([means, np.ones((len(records), 1))]), targets, rcond=None)
        pred = np.hstack([means, np.ones((len(records), 1))]) @ w
        assert np.array_equal(pred > 0.5, targets > 0.5)


    @pytest.mark.parametrize("n, noise_std", [(0, 0.1), (-3, 0.1), (4, float("nan")), (4, float("inf")), (4, -0.1)])
    def test_bad_size_or_noise_refused(self, n, noise_std):
        with pytest.raises(ConfigError, match="n must be >= 1 and noise_std finite and >= 0"):
            synth_mean_encoded(n, seed=0, noise_std=noise_std, specs=SMALL)


class TestOrderEncoded:
    @pytest.mark.parametrize("n", (0, -1))
    def test_bad_size_refused(self, n):
        with pytest.raises(ConfigError, match="n must be >= 1"):
            synth_order_encoded(n, seed=0)

    def test_reproducible(self):
        a = synth_order_encoded(10, seed=5)
        b = synth_order_encoded(10, seed=5)
        for ra, rb in zip(a, b):
            assert ra.genres == rb.genres
            assert np.array_equal(ra.features["clip"], rb.features["clip"])

    def test_swapping_blocks_flips_label(self):
        records = synth_order_encoded(20, seed=6, dim=8, block_len=4)
        for r in records:
            seq = r.features["clip"]
            swapped = np.concatenate([seq[4:], seq[:4]], axis=0)
            # the swapped sequence is exactly the construction for the other label
            assert sorted(map(tuple, seq.tolist())) == sorted(map(tuple, swapped.tolist()))

    def test_frame_multiset_identical_across_classes(self):
        # rebuild record 0 with the opposite block order: same multiset
        records = synth_order_encoded(1, seed=7, dim=8, block_len=4)
        seq = records[0].features["clip"]
        flipped = np.concatenate([seq[4:], seq[:4]], axis=0)
        assert sorted(map(tuple, seq.tolist())) == sorted(map(tuple, flipped.tolist()))
        assert not np.array_equal(seq, flipped)

    def test_temporal_mean_carries_no_label_information(self):
        # the mean is invariant under the block swap that flips the label
        records = synth_order_encoded(30, seed=8, dim=8, block_len=4)
        for r in records:
            seq = r.features["clip"].astype(np.float64)
            flipped = np.concatenate([seq[4:], seq[:4]], axis=0)
            assert np.allclose(seq.mean(axis=0), flipped.mean(axis=0), atol=1e-6)

    def test_labels_binary_over_two_genres(self):
        records = synth_order_encoded(50, seed=9)
        seen = {r.genres for r in records}
        assert seen <= {(ORDER_GENRES[0],), (ORDER_GENRES[1],)}
        assert len(seen) == 2
