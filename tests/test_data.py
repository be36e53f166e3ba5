import json
import os

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from genreclf.data import (VideoRecord, filter_by_duration, load_manifest, make_batch,
                           split_dataset, temporal_average, write_manifest)
from genreclf.errors import DataError, MmfFormatError
from genreclf.mmf import import_npy, read_mmf, write_mmf
from genreclf.modalities import DEFAULT_SPECS, ModalitySpec, default_modalities
from genreclf.rng import SeededRng
from genreclf.vocab import GENRES


def rec(i, duration=100.0, genres=("Action",), features=None):
    return VideoRecord(id=f"v{i:05d}", duration_s=duration, genres=genres, features=features or {})


class TestFilter:
    def test_interior_kept(self):
        kept, stats = filter_by_duration([rec(0, 120.0)])
        assert len(kept) == 1 and stats.kept == 1

    def test_boundaries(self):
        kept, stats = filter_by_duration([rec(0, 19.6), rec(1, 19.59), rec(2, 214.4), rec(3, 214.41)])
        assert [r.duration_s for r in kept] == [19.6, 214.4]
        assert stats.dropped_short == 1 and stats.dropped_long == 1

    def test_missing_duration_counted(self):
        kept, stats = filter_by_duration([rec(0, None), rec(1, 50.0)])
        assert len(kept) == 1
        assert stats.dropped_missing_duration == 1

    def test_custom_bounds(self):
        kept, _ = filter_by_duration([rec(0, 5.0)], lo=1.0, hi=10.0)
        assert len(kept) == 1


class TestSplit:
    def test_full_corpus_counts(self):
        records = [rec(i) for i in range(26412)]
        assignment = split_dataset(records)
        counts = {"train": 0, "val": 0, "test": 0}
        for v in assignment.values():
            counts[v] += 1
        assert counts == {"train": 18488, "val": 2641, "test": 5283}

    def test_ten_records(self):
        assignment = split_dataset([rec(i) for i in range(10)])
        counts = [list(assignment.values()).count(s) for s in ("train", "val", "test")]
        assert counts == [7, 1, 2]

    def test_input_order_irrelevant(self):
        records = [rec(i) for i in range(57)]
        shuffled = [records[i] for i in SeededRng(3).permutation(57)]
        assert split_dataset(records) == split_dataset(shuffled)

    def test_sorted_by_byte_order(self):
        records = [VideoRecord(id=s, duration_s=50.0, genres=("Drama",)) for s in ("b", "A", "a", "B", "0")]
        assignment = split_dataset(records)
        # sorted order: 0, A, B, a, b -> first 3 train, 0 val, rest test
        assert assignment["0"] == "train" and assignment["A"] == "train" and assignment["B"] == "train"
        assert assignment["a"] == "test" and assignment["b"] == "test"

    def test_duplicate_ids_rejected(self):
        with pytest.raises(DataError, match="duplicate"):
            split_dataset([rec(1), rec(1)])


class TestTemporalAverage:
    def test_hand_mean(self):
        assert np.array_equal(temporal_average(np.array([[1.0, 1.0], [3.0, 3.0]])), np.array([2.0, 2.0], dtype=np.float32))

    def test_single_row(self):
        row = np.array([[4.0, 5.0, 6.0]], dtype=np.float32)
        assert np.array_equal(temporal_average(row), row[0])

    def test_empty_gives_zero_vector(self):
        out = temporal_average(np.zeros((0, 7), dtype=np.float32))
        assert out.shape == (7,) and np.all(out == 0)

    def test_masked(self):
        x = np.array([[1.0, 2.0], [100.0, 100.0], [3.0, 4.0]])
        out = temporal_average(x, np.array([True, False, True]))
        assert np.array_equal(out, np.array([2.0, 3.0], dtype=np.float32))

    def test_permutation_invariant_bitwise(self):
        rng = SeededRng(4)
        x = rng.normal((216, 32)).astype(np.float32)
        base = temporal_average(x)
        for seed in range(10):
            perm = SeededRng(seed).permutation(216)
            assert np.array_equal(base, temporal_average(x[perm]))

    @settings(max_examples=300, deadline=None)
    @example((np.zeros((0, 3, 2), np.float32), np.zeros((0, 3), bool)))
    @example((np.ones((2, 0, 3), np.float32), np.zeros((2, 0), bool)))
    @example((np.arange(12, dtype=np.float32).reshape(2, 3, 2), np.array([[False] * 3, [True, False, True]])))
    @given(st.tuples(st.integers(0, 4), st.integers(0, 12), st.integers(1, 6)).flatmap(
        lambda s: st.tuples(hnp.arrays(np.float32, s, elements=st.floats(-1e6, 1e6, width=32)),
                            hnp.arrays(np.bool_, s[:2]))))
    def test_batched_equals_per_row(self, case):
        # any mask: empty batches and sequences, all-False rows, gaps; the
        # direct per-row mean is the loop this batched form replaced
        x, mask = case
        batched = temporal_average(x, mask)
        assert batched.shape == (x.shape[0], x.shape[2]) and batched.dtype == np.float32
        for i in range(x.shape[0]):
            row = temporal_average(x[i], mask[i])
            valid = x[i][mask[i]].astype(np.float64)
            direct = valid.mean(axis=0).astype(np.float32) if len(valid) else np.zeros(x.shape[2], np.float32)
            assert np.array_equal(batched[i], row) and np.array_equal(row, direct)


SMALL_SPECS = (ModalitySpec("clip", 8, 6), ModalitySpec("ocr", 4, 3))


def small_record(i, n_clip, n_ocr, rng):
    return VideoRecord(
        id=f"v{i:03d}", duration_s=60.0, genres=("Action", "Drama"),
        features={"clip": rng.normal((n_clip, 8)).astype(np.float32),
                  "ocr": rng.normal((n_ocr, 4)).astype(np.float32)})


class TestMakeBatch:
    def test_truncation_keeps_head(self):
        rng = SeededRng(0)
        r = small_record(0, 10, 2, rng)
        batch = make_batch([r], SMALL_SPECS)
        assert batch.features["clip"].shape == (1, 6, 8)
        assert np.array_equal(batch.features["clip"][0], r.features["clip"][:6])
        assert batch.masks["clip"].all()

    def test_padding_and_mask(self):
        rng = SeededRng(1)
        r = small_record(0, 4, 1, rng)
        batch = make_batch([r], SMALL_SPECS)
        assert np.array_equal(batch.features["clip"][0, :4], r.features["clip"])
        assert np.all(batch.features["clip"][0, 4:] == 0)
        assert batch.masks["clip"][0].tolist() == [True] * 4 + [False] * 2

    def test_default_modality_shapes(self):
        rng = SeededRng(2)
        records = [VideoRecord(id=f"p{i}", duration_s=60.0, genres=("Action",),
                               features={s.name: np.zeros((5, s.input_dim), dtype=np.float32)
                                         for s in DEFAULT_SPECS})
                   for i in range(32)]
        batch = make_batch(records, DEFAULT_SPECS)
        assert batch.features["clip"].shape == (32, 216, 512)
        assert batch.labels.shape == (32, 21)

    def test_labels_one_hot(self):
        rng = SeededRng(3)
        batch = make_batch([small_record(0, 2, 2, rng)], SMALL_SPECS)
        expected = np.zeros(21, dtype=np.float32)
        expected[GENRES.index("Action")] = 1
        expected[GENRES.index("Drama")] = 1
        assert np.array_equal(batch.labels[0], expected)

    def test_order_preserved(self):
        rng = SeededRng(4)
        records = [small_record(i, 3, 2, rng) for i in range(5)]
        batch = make_batch(records, SMALL_SPECS)
        assert batch.ids == [r.id for r in records]

    def test_dim_mismatch_rejected(self):
        r = VideoRecord(id="bad", duration_s=60.0, genres=("Action",),
                        features={"clip": np.zeros((3, 99), dtype=np.float32),
                                  "ocr": np.zeros((1, 4), dtype=np.float32)})
        with pytest.raises(DataError, match="incompatible"):
            make_batch([r], SMALL_SPECS)

    def test_full_lengths_single_record_unpadded(self):
        rng = SeededRng(5)
        r = small_record(0, 4, 2, rng)
        batch = make_batch([r], SMALL_SPECS, lengths="full")
        assert batch.features["clip"].shape == (1, 4, 8)
        assert batch.masks["clip"].all()


class TestMmf:
    def random_features(self, rng, with_empty=False):
        feats = {
            "clip": rng.normal((rng.randint(1, 9), 8)).astype(np.float32),
            "ocr": rng.normal((rng.randint(1, 5), 4)).astype(np.float32),
        }
        if with_empty:
            feats["asr"] = np.zeros((0, 16), dtype=np.float32)
        return feats

    def test_round_trip_bit_exact(self, tmp_path):
        for seed in range(20):
            rng = SeededRng(seed)
            feats = self.random_features(rng, with_empty=(seed % 3 == 0))
            path = str(tmp_path / f"r{seed}.mmf")
            write_mmf(feats, path)
            back = read_mmf(path)
            assert set(back) == set(feats)
            for k in feats:
                assert back[k].dtype == np.float32
                assert np.array_equal(back[k], feats[k])

    def test_empty_modality_round_trips(self, tmp_path):
        path = str(tmp_path / "e.mmf")
        write_mmf({"clip": np.zeros((0, 12), dtype=np.float32)}, path)
        back = read_mmf(path)
        assert back["clip"].shape == (0, 12)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.mmf"
        path.write_bytes(b"XXXX" + b"\x00" * 16)
        with pytest.raises(MmfFormatError, match="bad magic"):
            read_mmf(str(path))

    def test_truncated_file_reports_offset(self, tmp_path):
        good = tmp_path / "good.mmf"
        write_mmf({"clip": np.ones((3, 4), dtype=np.float32)}, str(good))
        data = good.read_bytes()
        bad = tmp_path / "cut.mmf"
        bad.write_bytes(data[:len(data) - 10])
        with pytest.raises(MmfFormatError, match="truncated.*byte"):
            read_mmf(str(bad))

    def test_unsorted_modalities_rejected(self, tmp_path):
        import struct
        blob = b"MMF1" + struct.pack("<HH", 1, 2)
        for name in ("zz", "aa"):
            blob += struct.pack("<B", 2) + name.encode() + struct.pack("<II", 0, 2)
        path = tmp_path / "unsorted.mmf"
        path.write_bytes(blob)
        with pytest.raises(MmfFormatError, match="sorted"):
            read_mmf(str(path))

    def test_non_utf8_name_reports_offset(self, tmp_path):
        import struct
        blob = b"MMF1" + struct.pack("<HH", 1, 1) + struct.pack("<B", 2) + b"\xff\xfe" + struct.pack("<II", 0, 2)
        path = tmp_path / "latin.mmf"
        path.write_bytes(blob)
        with pytest.raises(MmfFormatError, match="not valid UTF-8 at byte 9"):
            read_mmf(str(path))

    def test_non_finite_rejected(self, tmp_path):
        with pytest.raises(MmfFormatError, match="non-finite"):
            write_mmf({"clip": np.array([[np.inf, 0.0]], dtype=np.float32)}, str(tmp_path / "x.mmf"))

    def test_trailing_bytes_rejected(self, tmp_path):
        good = tmp_path / "t.mmf"
        write_mmf({"clip": np.ones((1, 2), dtype=np.float32)}, str(good))
        bad = tmp_path / "t2.mmf"
        bad.write_bytes(good.read_bytes() + b"junk")
        with pytest.raises(MmfFormatError, match="trailing"):
            read_mmf(str(bad))


class TestNpyImport:
    def _setup(self, tmp_path, arrays, durations=None):
        src = tmp_path / "npy"
        src.mkdir()
        samples = []
        for vid, mods in arrays.items():
            feats = {}
            for mod, arr in mods.items():
                fname = f"{vid}.{mod}.npy"
                np.save(src / fname, arr)
                feats[mod] = fname
            samples.append({"id": vid, "duration_s": (durations or {}).get(vid, 100.0),
                            "genres": ["Action"], "features": feats})
        manifest = tmp_path / "src_manifest.json"
        manifest.write_text(json.dumps({"samples": samples}))
        return str(src), str(manifest), str(tmp_path / "out")

    def test_valid_import(self, tmp_path):
        arrays = {f"vid{i}": {"clip": np.ones((7, 512), dtype=np.float32)} for i in range(3)}
        src, manifest, out = self._setup(tmp_path, arrays)
        summary = import_npy(src, manifest, out, default_modalities())
        assert summary["imported"] == 3 and summary["failed"] == 0
        feats = read_mmf(os.path.join(out, "vid0.mmf"))
        assert feats["clip"].shape == (7, 512)

    def test_float64_narrowed(self, tmp_path):
        src, manifest, out = self._setup(tmp_path, {"v": {"clip": np.ones((2, 512), dtype=np.float64)}})
        summary = import_npy(src, manifest, out, default_modalities())
        assert summary["imported"] == 1
        assert read_mmf(os.path.join(out, "v.mmf"))["clip"].dtype == np.float32

    def test_rank_one_rejected(self, tmp_path):
        src, manifest, out = self._setup(tmp_path, {"v": {"clip": np.ones(512, dtype=np.float32)}})
        summary = import_npy(src, manifest, out, default_modalities())
        assert summary["imported"] == 0 and summary["failed"] == 1
        assert "rank must be 2" in summary["errors"][0]

    def test_fortran_order_rejected(self, tmp_path):
        arr = np.asfortranarray(np.ones((4, 512), dtype=np.float32))
        src, manifest, out = self._setup(tmp_path, {"v": {"clip": arr}})
        summary = import_npy(src, manifest, out, default_modalities())
        assert summary["failed"] == 1
        assert "Fortran" in summary["errors"][0]

    def test_wrong_dtype_rejected(self, tmp_path):
        src, manifest, out = self._setup(tmp_path, {"v": {"clip": np.ones((4, 512), dtype=np.int32)}})
        summary = import_npy(src, manifest, out, default_modalities())
        assert summary["failed"] == 1
        assert "dtype" in summary["errors"][0]

    def test_mixed_import_continues(self, tmp_path):
        arrays = {
            "good": {"clip": np.ones((4, 512), dtype=np.float32)},
            "bad": {"clip": np.ones((4, 99), dtype=np.float32)},
        }
        src, manifest, out = self._setup(tmp_path, arrays)
        summary = import_npy(src, manifest, out, default_modalities())
        assert summary["imported"] == 1 and summary["failed"] == 1


class TestManifest:
    def test_round_trip(self, tmp_path):
        records = [rec(i, 50.0 + i, ("Action", "Drama")) for i in range(4)]
        path = str(tmp_path / "manifest.json")
        write_manifest(records, path)
        back = load_manifest(path)
        assert [r.id for r in back] == [r.id for r in records]
        assert back[0].genres == ("Action", "Drama")

    def test_unknown_genres_dropped(self, tmp_path):
        doc = {"genres": list(GENRES),
               "samples": [{"id": "x", "duration_s": 50.0, "genres": ["Action", "Telenovela"], "path": None}]}
        path = tmp_path / "m.json"
        path.write_text(json.dumps(doc))
        back = load_manifest(str(path))
        assert back[0].genres == ("Action",)

    def test_vocabulary_mismatch_rejected(self, tmp_path):
        doc = {"genres": ["Action"], "samples": []}
        path = tmp_path / "m.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(DataError, match="vocabulary"):
            load_manifest(str(path))

    def test_integer_or_null_duration_accepted(self, tmp_path):
        doc = {"genres": list(GENRES), "samples": [{"id": "a", "duration_s": 50, "genres": ["Action"]},
                                                    {"id": "b", "duration_s": None, "genres": ["Action"]}]}
        path = tmp_path / "m.json"
        path.write_text(json.dumps(doc))
        assert [r.duration_s for r in load_manifest(str(path))] == [50, None]

    def test_record_without_known_genre_rejected(self, tmp_path):
        doc = {"genres": list(GENRES),
               "samples": [{"id": "x", "duration_s": 50.0, "genres": ["Telenovela"], "path": None}]}
        path = tmp_path / "m.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(DataError, match="no known genres"):
            load_manifest(str(path))

    @pytest.mark.parametrize("doc, match", [
        ({"genres": list(GENRES)}, "no \"samples\" list"),
        ([], "no \"samples\" list"),
        ({"genres": list(GENRES), "samples": [{"id": "x", "duration_s": 50.0}]}, "sample 0 has no genres"),
        ({"genres": list(GENRES), "samples": [{"id": "x", "genres": ["Action"]}, {"genres": ["Action"]}]},
         "sample 1 has no id"),
        ({"genres": list(GENRES), "samples": ["x"]}, "sample 0 has no id and no genres"),
        ({"genres": list(GENRES), "samples": [{"id": "x", "duration_s": "50", "genres": ["Action"]}]},
         "record x has a duration_s that is not a number: '50'"),
        ({"genres": list(GENRES), "samples": [{"id": "x", "duration_s": True, "genres": ["Action"]}]},
         "record x has a duration_s that is not a number: True"),
        ({"genres": list(GENRES), "samples": [{"id": "x", "duration_s": [50.0], "genres": ["Action"]}]},
         "record x has a duration_s that is not a number"),
        ({"genres": list(GENRES), "samples": [{"id": "x", "duration_s": float("nan"), "genres": ["Action"]}]},
         "record x has a duration_s that is not a number: nan"),
        ({"genres": list(GENRES), "samples": [{"id": 5, "genres": ["Action"]}]},
         "sample 0 has an id that is not a string: 5"),
        ({"genres": list(GENRES), "samples": [{"id": "x", "genres": 5}]},
         "record x has genres that are not a list: 5"),
        ({"genres": list(GENRES), "samples": [{"id": "x", "genres": "Action"}]},
         "record x has genres that are not a list: 'Action'"),
        ({"genres": list(GENRES), "samples": [{"id": "x", "genres": ["Action"], "path": 7}]},
         "record x has a path that is not a string or null: 7"),
    ], ids=["no-samples", "not-an-object", "no-genres", "no-id", "entry-not-an-object",
            "duration-string", "duration-bool", "duration-list", "duration-nan",
            "id-int", "genres-int", "genres-string", "path-int"])
    def test_missing_keys_are_data_errors(self, tmp_path, doc, match):
        path = tmp_path / "m.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(DataError, match=match):
            load_manifest(str(path))
