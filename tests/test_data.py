import json
import os

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from genreclf.data import (VideoRecord, filter_by_duration, load_manifest, make_batch,
                           split_dataset, temporal_average, write_manifest)
from genreclf.errors import DataError, MmfFormatError
from genreclf.mmf import import_npy, read_mmf, write_atomic, write_json, write_mmf
from genreclf.modalities import DEFAULT_SPECS, ModalitySpec, default_modalities
from genreclf.rng import SeededRng
from genreclf.vocab import GENRES, label_vector


def rec(i, duration=100.0, genres=("Action",), features=None):
    return VideoRecord(id=f"v{i:05d}", duration_s=duration, genres=genres, features=features or {})


def masked_mean(x, mask):
    """The padded reference of a temporal mean: the (..., D) float32 mean of
    the rows of (..., T, D) ``x`` where the (..., T) ``mask`` holds, summed in
    float64 in row order, or zeros where none holds."""
    valid = np.asarray(mask, dtype=bool)[..., None]
    total = np.add.reduce(x, axis=-2, dtype=np.float64, where=valid)
    return (total / np.maximum(valid.sum(axis=-2), 1)).astype(np.float32)


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

    def test_duplicate_ids_named_sorted_first_five(self):
        ids = ["g", "c", "a", "x", "c", "f", "e", "g", "d", "a", "f", "b", "e", "d", "c", "b"]
        records = [VideoRecord(id=i, duration_s=50.0, genres=("Drama",)) for i in ids]
        with pytest.raises(DataError) as info:
            split_dataset(records)
        assert str(info.value) == "duplicate record ids: ['a', 'b', 'c', 'd', 'e']"


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
        mask = np.array([True, False, True])
        assert np.array_equal(masked_mean(x, mask), np.array([2.0, 3.0], dtype=np.float32))
        assert np.array_equal(masked_mean(x, mask), temporal_average(x[mask]))

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
        # empty batches and sequences; with any mask (all-False rows, gaps)
        # the padded reference equals the mean of each row's valid steps,
        # which equals the direct per-row mean
        x, mask = case
        batched, padded = temporal_average(x), masked_mean(x, mask)
        assert batched.shape == padded.shape == (x.shape[0], x.shape[2])
        assert batched.dtype == padded.dtype == np.float32
        for i in range(x.shape[0]):
            assert np.array_equal(batched[i], temporal_average(x[i]))
            row = temporal_average(x[i][mask[i]])
            valid = x[i][mask[i]].astype(np.float64)
            direct = valid.mean(axis=0).astype(np.float32) if len(valid) else np.zeros(x.shape[2], np.float32)
            assert np.array_equal(padded[i], row) and np.array_equal(row, direct)


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
        assert [r.id for r in batch.records] == [r.id for r in records]
        assert batch.labels.tobytes() == np.stack([label_vector(r.genres) for r in records]).tobytes()

    def test_dim_mismatch_rejected(self):
        r = VideoRecord(id="bad", duration_s=60.0, genres=("Action",),
                        features={"clip": np.zeros((3, 99), dtype=np.float32),
                                  "ocr": np.zeros((1, 4), dtype=np.float32)})
        batch = make_batch([r], SMALL_SPECS)   # reads nothing yet
        with pytest.raises(DataError, match="incompatible"):
            batch.heads

    def test_full_lengths_single_record_unpadded(self):
        rng = SeededRng(5)
        r = small_record(0, 4, 2, rng)
        batch = make_batch([r], SMALL_SPECS, lengths="full")
        assert batch.features["clip"].shape == (1, 4, 8)
        assert batch.masks["clip"].all()


class TestBatchHeads:
    @settings(max_examples=300, deadline=None)
    @example(d=1, max_len=3, lens=[0, 5, 2], missing=[False, False, True], lengths="train", scale=1.0)
    @example(d=2, max_len=4, lens=[], missing=[], lengths="full", scale=1.0)
    @given(d=st.integers(1, 5), max_len=st.integers(1, 8), lens=st.lists(st.integers(0, 12), max_size=4),
           missing=st.lists(st.booleans(), min_size=4, max_size=4), lengths=st.sampled_from(("train", "full")),
           scale=st.sampled_from((1e-3, 1.0, 1e3)))
    def test_means_equal_temporal_average_of_padded(self, d, max_len, lens, missing, lengths, scale):
        # heads longer and shorter than train_max_len, empty and missing
        # streams, D = 1 and B = 0; the padded reduce over every row the
        # batch holds is the reference
        rng = SeededRng(len(lens) * 100 + d)
        records = [rec(i, features=None if gone else {"s": (rng.normal((t, d)) * scale).astype(np.float32)})
                   for i, (t, gone) in enumerate(zip(lens, missing))]
        batch = make_batch(records, (ModalitySpec("s", d, max_len),), lengths=lengths)
        got = batch.means("s")
        assert "_padded" not in batch.__dict__
        want = masked_mean(batch.features["s"], batch.masks["s"])
        assert got.shape == (len(lens), d) and got.dtype == np.float32
        assert got.tobytes() == want.tobytes()

    def test_heads_are_views_of_the_records(self):
        rng = SeededRng(6)
        records = [small_record(0, 10, 2, rng), small_record(1, 3, 0, rng)]
        records[1].features["ocr"] = records[1].features["clip"][:, :4].astype(np.float64)
        batch = make_batch(records, SMALL_SPECS)
        assert [h.shape for h in batch.heads["clip"]] == [(6, 8), (3, 8)]
        assert all(np.shares_memory(h, r.features["clip"]) for h, r in zip(batch.heads["clip"], records))
        assert batch.heads["ocr"][1].dtype == np.float32
        assert {name: x.shape for name, x in batch.features.items()} == {"clip": (2, 6, 8), "ocr": (2, 3, 4)}

    def test_padded_tensors_built_once_and_kept(self):
        batch = make_batch([small_record(0, 4, 1, SeededRng(7))], SMALL_SPECS)
        assert "_padded" not in batch.__dict__
        assert batch.features is batch.features and batch.masks is batch.masks
        poked = np.ones_like(batch.features["clip"])
        batch.features["clip"] = poked
        assert batch.features["clip"] is poked


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


    def test_empty_file_is_truncated_at_byte_0(self, tmp_path):
        path = tmp_path / "empty.mmf"
        path.write_bytes(b"")
        with pytest.raises(MmfFormatError, match="truncated while reading magic at byte 0"):
            read_mmf(str(path))


class TestMappedRecords:
    """Path-backed records read their .mmf anew on each access, as read-only
    views of a mapping, and keep nothing between batches."""

    def _on_disk(self, tmp_path, n=3):
        rng = SeededRng(11)
        records = []
        for i in range(n):
            mem = small_record(i, 4 + i, 2, rng)
            path = str(tmp_path / f"{mem.id}.mmf")
            write_mmf(mem.features, path)
            records.append((mem, VideoRecord(mem.id, mem.duration_s, mem.genres, path=path)))
        return records

    def test_features_are_read_only_and_not_cached(self, tmp_path):
        (mem, disk), = self._on_disk(tmp_path, 1)
        feats = disk.get_features()
        assert disk.features is None
        for name, arr in feats.items():
            assert not arr.flags.writeable
            assert np.array_equal(arr, mem.features[name])
            with pytest.raises(ValueError, match="read-only"):
                arr[...] = 0
        assert disk.get_features()["clip"] is not feats["clip"]

    def test_batch_keeps_its_values_when_the_file_is_replaced(self, tmp_path):
        records = self._on_disk(tmp_path)
        batch = make_batch([d for _, d in records], SMALL_SPECS, lengths="full")
        before = {name: [h.copy() for h in heads] for name, heads in batch.heads.items()}
        for mem, disk in records:
            write_mmf({k: np.full_like(v, 7.0) for k, v in mem.features.items()}, disk.path)
        for name, heads in batch.heads.items():
            assert all(np.array_equal(h, b) for h, b in zip(heads, before[name]))
        assert np.all(make_batch([records[0][1]], SMALL_SPECS).heads["clip"][0] == 7.0)

    def test_views_survive_rewrites_because_mmf_writes_never_recycle(self, tmp_path):
        path = str(tmp_path / "v.mmf")
        first = np.arange(12, dtype=np.float32).reshape(3, 4)
        write_mmf({"clip": first}, path)
        view = read_mmf(path)["clip"]
        for k in (1, 2, 3):
            write_mmf({"clip": first + k}, path)
        assert np.array_equal(view, first)
        assert np.array_equal(read_mmf(path)["clip"], first + 3)
        # a recycling writer would overwrite the mapped file in place at its second write
        view = read_mmf(path)["clip"]
        for k in (4, 5):
            write_mmf({"clip": first + k}, str(tmp_path / "next.mmf"))
            write_atomic(path, (tmp_path / "next.mmf").read_bytes(), recycle=True)
        assert np.array_equal(view, first + 5)

    def test_clip_frames_select_rows_of_either_source(self, tmp_path):
        (mem, disk), = self._on_disk(tmp_path, 1)
        idx = np.array([0, 2, 3])
        for r in (mem, disk):
            r.clip_frames = idx
            feats = r.get_features()
            assert np.array_equal(feats["clip"], mem.features["clip"][idx])
            assert feats["ocr"] is not None and np.array_equal(feats["ocr"], mem.features["ocr"])
        assert mem.features["clip"].shape[0] == 4 and disk.features is None


class TestWriteAtomic:
    @pytest.mark.parametrize("recycle", [False, True])
    def test_identical_bytes_leave_the_file_untouched(self, tmp_path, recycle):
        path = str(tmp_path / "f.bin")
        data = bytes(range(256)) * 5000   # spans two comparison chunks
        write_atomic(path, data, recycle=recycle)
        before = os.stat(path)
        write_atomic(path, data, recycle=recycle)
        after = os.stat(path)
        assert (after.st_ino, after.st_mtime_ns) == (before.st_ino, before.st_mtime_ns)
        changed = data[:-1] + b"\x00"
        write_atomic(path, changed, recycle=recycle)
        assert os.stat(path).st_ino != before.st_ino
        with open(path, "rb") as fh:
            assert fh.read() == changed


class TestWriteJson:
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_a_non_finite_number_is_refused_and_nothing_written(self, tmp_path, value):
        with pytest.raises(ValueError, match="not JSON compliant"):
            write_json(str(tmp_path / "doc.json"), {"threshold": value})
        assert list(tmp_path.iterdir()) == []

    def test_a_nan_duration_is_not_written_into_a_manifest(self, tmp_path):
        # load_manifest refuses NaN, which is not standard JSON
        path = tmp_path / "manifest.json"
        with pytest.raises(ValueError, match="not JSON compliant"):
            write_manifest([rec(0, duration=float("nan"))], str(path))
        assert list(tmp_path.iterdir()) == []


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

    def test_entry_whose_file_cannot_be_written_is_skipped(self, tmp_path):
        # a 300-character id names a file past the usual 255-byte limit, so writing its .mmf raises OSError
        src, manifest, out = self._setup(tmp_path, {"good": {"clip": np.ones((2, 512), dtype=np.float32)}})
        with open(manifest) as fh:
            doc = json.load(fh)
        doc["samples"].insert(0, dict(doc["samples"][0], id="v" * 300))
        with open(manifest, "w") as fh:
            json.dump(doc, fh)
        summary = import_npy(src, manifest, out, default_modalities())
        assert summary["imported"] == 1 and summary["failed"] == 1
        assert "v" * 300 in summary["errors"][0]
        assert [r.id for r in load_manifest(os.path.join(out, "manifest.json"))] == ["good"]

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

    @pytest.mark.parametrize("doc, message", [
        ({"genres": list(GENRES)}, "manifest field 'samples' is missing"),
        ([], "manifest is not an object: []"),
        ({"genres": list(GENRES), "samples": [{"id": "x", "duration_s": 50.0}]}, "record x field 'genres' is missing"),
        ({"genres": list(GENRES), "samples": [{"id": "x", "genres": ["Action"]}, {"genres": ["Action"]}]},
         "sample 1 field 'id' is missing"),
        ({"genres": list(GENRES), "samples": ["x"]}, "sample 0 is not an object: 'x'"),
        ({"genres": list(GENRES), "samples": [{"id": "x", "duration_s": "50", "genres": ["Action"]}]},
         "record x field 'duration_s' must be a finite number or null, got '50'"),
        ({"genres": list(GENRES), "samples": [{"id": "x", "duration_s": True, "genres": ["Action"]}]},
         "record x field 'duration_s' must be a finite number or null, got True"),
        ({"genres": list(GENRES), "samples": [{"id": "x", "duration_s": [50.0], "genres": ["Action"]}]},
         "record x field 'duration_s' must be a finite number or null, got [50.0]"),
        ({"genres": list(GENRES), "samples": [{"id": "x", "duration_s": float("nan"), "genres": ["Action"]}]},
         "NaN is not a standard JSON number"),
        ({"genres": list(GENRES), "samples": [{"id": "x", "duration_s": float("inf"), "genres": ["Action"]}]},
         "Infinity is not a standard JSON number"),
        ({"genres": list(GENRES), "samples": [{"id": 5, "genres": ["Action"]}]},
         "sample 0 field 'id' must be a string, got 5"),
        ({"genres": list(GENRES), "samples": [{"id": "x", "genres": 5}]},
         "record x field 'genres' must be a list, got 5"),
        ({"genres": list(GENRES), "samples": [{"id": "x", "genres": "Action"}]},
         "record x field 'genres' must be a list, got 'Action'"),
        ({"genres": list(GENRES), "samples": [{"id": "x", "genres": ["Action"], "path": 7}]},
         "record x field 'path' must be a string or null, got 7"),
    ], ids=["no-samples", "not-an-object", "no-genres", "no-id", "entry-not-an-object",
            "duration-string", "duration-bool", "duration-list", "duration-nan",
            "duration-infinity", "id-int", "genres-int", "genres-string", "path-int"])
    def test_missing_keys_are_data_errors(self, tmp_path, doc, message):
        # the message names the file, the sample (by index until its id is read, then by id) and the field
        path = tmp_path / "m.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(DataError) as info:
            load_manifest(str(path))
        assert str(info.value) == f"{path}: {message}"

    @pytest.mark.parametrize("entry, place", [
        ({"id": "\ud800x", "genres": ["Action"]}, r"""[{"id": "\ud800'"""),
        ({"id": "x", "genres": ["Action"], "path": "a\udfffb.mmf"}, r""""path": "a\udfff'"""),
        ({"id": "x", "genres": ["Action", "\udc00\ud800"]}, r"""["Action", "\udc00\ud800'"""),
    ], ids=["id", "path", "reversed-pair-in-genres"])
    def test_lone_surrogate_is_data_error_naming_the_place(self, tmp_path, entry, place):
        # a JSON escape may decode to half a surrogate pair, which no UTF-8 file can hold
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"genres": list(GENRES), "samples": [entry]}))
        with pytest.raises(DataError) as info:
            load_manifest(str(path))
        assert str(info.value).startswith(f"{path}: a string holds a lone surrogate: ") and place in str(info.value)

    def test_surrogate_pairs_load_and_round_trip(self, tmp_path):
        # write_manifest escapes an id past the BMP as a surrogate pair, which reads back as the one character
        path = str(tmp_path / "m.json")
        ids = ["tr\u00e1iler-\U0001f3ac", "\U00010000"]
        write_manifest([VideoRecord(i, 50.0, ("Action",)) for i in ids], path)
        with open(path) as fh:
            assert "\\ud83c\\udfac" in fh.read()
        assert [r.id for r in load_manifest(path)] == ids
