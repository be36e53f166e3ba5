"""Bounded fuzzing of the readers of feature files, JSON documents, blobs and
report CSVs: whatever the input holds, a bad one is a DataError (or, for a
trainer state, a ConfigError; for a report CSV, a ValueError) and nothing
else, and a run resumed from what reads may stop only on a NumericError."""

import hashlib
import json
import os
import shutil
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from genreclf.checkpoint import read_blob, read_checkpoint, save_checkpoint
from genreclf.cli import _load_train_config, build_parser
from genreclf.data import VideoRecord, load_manifest, split_dataset, write_manifest
from genreclf.errors import ConfigError, DataError, NumericError
from genreclf.metrics import MetricsReport, compute_report, report_from_csv, to_csv
from genreclf.mmf import import_npy, read_mmf, write_mmf
from genreclf.modalities import ModalitySpec, default_modalities
from genreclf.models import ModelConfig, build_model
from genreclf.training import TrainConfig, Trainer
from genreclf.vocab import GENRES
from jsonedit import DROP, edited

# text with lone surrogates too: JSON escapes them ("\ud800"), and they decode to strings no file can hold
TEXT = st.text(st.characters(categories=["L", "N", "P", "Zs", "Cs"]), max_size=6)
JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | TEXT,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(TEXT, inner, max_size=4),
    max_leaves=10)

SAMPLE = st.fixed_dictionaries({}, optional={
    "id": st.text(max_size=4) | TEXT | JSON,
    "genres": st.lists(st.sampled_from(GENRES) | JSON, max_size=3) | JSON,
    "path": st.none() | st.text(max_size=6) | TEXT | JSON,
    "duration_s": st.floats(0.0, 300.0) | JSON,
}) | JSON

ENTRY = st.fixed_dictionaries({
    "name": st.sampled_from(["a", "b"]) | JSON,
    "shape": st.lists(st.integers(0, 3) | st.integers(-1, 2**70), max_size=3) | JSON,
    "offset": st.integers(-4, 40) | st.sampled_from([0, 4, 8, 12]) | JSON,
}) | JSON


# byte edits (position, new byte), then a cut and a tail; new bytes lean to
# the characters JSON is written in, and only a tail may break UTF-8
EDIT_BYTE = st.sampled_from(b'0123456789-+.eE"{}[],: ntfu') | st.integers(0, 127)
BYTE_EDITS = dict(edits=st.lists(st.tuples(st.integers(0, 10**4), EDIT_BYTE), max_size=6),
                  cut=st.none() | st.integers(0, 600), tail=st.just(b"") | st.binary(max_size=8))
DIGITS = frozenset(b"0123456789")


def _mutated(data: bytes, edits, cut, tail) -> bytes:
    """``data`` with each edit's byte written at its position modulo the
    length, a new digit over the digit at its position modulo the digit count
    (so that more mutants of a JSON text still parse), then cut and tail."""
    data = bytearray(data)
    digits = [i for i, b in enumerate(data) if b in DIGITS]
    for at, value in edits:
        where = digits if value in DIGITS and digits else range(len(data))
        data[where[at % len(where)]] = value
    return bytes(data[:cut]) + tail


@settings(max_examples=200, deadline=None)
@example(genres=5, samples=[])
@example(genres=None, samples=[])
@example(genres=list(GENRES), samples=[{"id": "v", "genres": ["Action", [1]], "path": "", "duration_s": 10**30}])
@example(genres=list(GENRES), samples=[{"id": "\ud800x", "genres": ["Action"]}])
@example(genres=list(GENRES), samples=[{"id": "a", "genres": ["Action"]}, {"id": "a", "genres": ["Drama"]}])
@given(genres=st.just(list(GENRES)) | JSON, samples=st.lists(SAMPLE, max_size=3) | JSON)
def test_manifest_of_any_json_loads_or_is_data_error(tmp_path_factory, genres, samples):
    # what loads is split (or refused for a duplicate id) and writes a manifest that loads back the same
    # records; a new file per example: truncating one to rewrite it cost 30-45 ms on an ext4 disk mounted
    # with discard
    work = tmp_path_factory.mktemp("manifest")
    (work / "manifest.json").write_text(json.dumps({"genres": genres, "samples": samples}))
    try:
        records = load_manifest(str(work / "manifest.json"))
    except DataError:
        return
    assert len(records) == len(samples) and all(isinstance(r, VideoRecord) and r.genres for r in records)
    try:
        assert sorted(split_dataset(records)) == sorted(r.id for r in records)
    except DataError:
        assert len({r.id for r in records}) < len(records)
    write_manifest(records, str(work / "again.json"))
    fields = [(r.id, r.duration_s, r.genres) for r in records]
    assert [(r.id, r.duration_s, r.genres) for r in load_manifest(str(work / "again.json"))] == fields


@settings(max_examples=200, deadline=None)
@example(manifest=[{"name": "a", "shape": [1] * 65, "offset": 0}], blob=b"\0" * 4)
@example(manifest=[{"name": "a", "shape": [0, 2**70], "offset": 0}], blob=b"")
@example(manifest=[{"name": "a", "shape": [1], "offset": 0}, {"name": "a", "shape": [1], "offset": 4}], blob=b"\0" * 8)
@given(manifest=st.lists(ENTRY, max_size=4) | JSON, blob=st.binary(max_size=24))
def test_blob_manifest_of_any_json_reads_or_is_data_error(tmp_path_factory, manifest, blob):
    path = tmp_path_factory.mktemp("blob") / "x.bin"
    path.write_bytes(blob)
    try:
        arrays = read_blob(str(path), manifest)
    except DataError:
        return
    assert sum(a.nbytes for a in arrays.values()) == len(blob)
    assert all(a.dtype == np.dtype("<f4") for a in arrays.values())


@pytest.fixture(scope="module")
def mmf_bytes(tmp_path_factory):
    """A valid .mmf file: a stream with rows, an empty one and one of width 1."""
    path = tmp_path_factory.mktemp("mmf") / "v.mmf"
    write_mmf({"asr": np.arange(12, dtype=np.float32).reshape(3, 4), "clip": np.zeros((0, 5), dtype=np.float32),
               "ocr": np.full((2, 1), -1.5, dtype=np.float32)}, str(path))
    return path.read_bytes()


@settings(max_examples=300, deadline=None)
@example(edits=[], cut=0, tail=b"")
@example(edits=[], cut=None, tail=b"\0")
@example(edits=[(12, 0xff), (13, 0xff), (14, 0xff), (15, 0xff)], cut=None, tail=b"")   # asr's T at 2**32 - 1
@example(edits=[(9, 0xff)], cut=None, tail=b"")   # asr's name no longer UTF-8
@given(edits=st.lists(st.tuples(st.integers(0, 120), st.integers(0, 255)), max_size=6),
       cut=st.none() | st.integers(0, 120), tail=st.binary(max_size=8))
def test_mutated_mmf_reads_or_is_data_error(tmp_path_factory, mmf_bytes, edits, cut, tail):
    path = tmp_path_factory.mktemp("mmf") / "x.mmf"
    path.write_bytes(_mutated(mmf_bytes, edits, cut, tail))
    try:
        features = read_mmf(str(path))
    except DataError:
        return
    assert all(isinstance(name, str) and x.dtype == np.dtype("<f4") and x.ndim == 2 for name, x in features.items())
    assert sum(x.nbytes for x in features.values()) < path.stat().st_size


@pytest.fixture(scope="module")
def checkpoint_stem(tmp_path_factory):
    specs = (ModalitySpec("clip", 3, 2), ModalitySpec("ocr", 2, 1, temporal_average=True))
    model = build_model(ModelConfig("multi_transformer", 4, 1, 2, modalities=specs), seed=9)
    stem = str(tmp_path_factory.mktemp("checkpoint") / "ck")
    save_checkpoint(model, stem)
    return stem


def _places(doc, path=()):
    """(path, value) of every place in a JSON document, the root first."""
    yield path, doc
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield from _places(value, path + (key,))


def _edited(doc, picks, values):
    """``doc`` with each pick (place, op) replacing (op 0), deleting (op 1)
    or adding to (op 2) the place at its index modulo the place count; any
    op on the root replaces it."""
    for (at, op), value in zip(picks, values):
        paths = [path for path, _ in _places(doc)]
        path = paths[at % len(paths)]
        if path and op == 1:
            value = DROP
        elif path and op == 2:   # a new item in the list or object that holds the place
            path, value = path[:-1], (lambda parent, new=value, key=f"extra{at}":
                                      parent + [new] if isinstance(parent, list) else {**parent, key: new})
        doc = edited(doc, path, value)
    return doc


PICKS = st.lists(st.tuples(st.integers(0, 10**6), st.integers(0, 2)), max_size=4)


@settings(max_examples=300, deadline=None)
@example(picks=[(0, 0)], values=[[]])
@given(picks=PICKS, values=st.lists(JSON, min_size=4, max_size=4))
def test_mutated_checkpoint_document_reads_or_is_data_error(tmp_path_factory, checkpoint_stem, picks, values):
    with open(checkpoint_stem + ".json") as fh:
        doc = _edited(json.load(fh), picks, values)
    stem = str(tmp_path_factory.mktemp("checkpoint") / "ck")
    with open(checkpoint_stem + ".bin", "rb") as src, open(stem + ".bin", "wb") as dst:
        dst.write(src.read())
    with open(stem + ".json", "w") as fh:
        json.dump(doc, fh)
    try:
        config, arrays = read_checkpoint(stem)
    except DataError:
        return
    assert isinstance(config, ModelConfig)
    assert all(a.dtype == np.dtype("<f4") for a in arrays.values())


@pytest.fixture(scope="module")
def npy_source(tmp_path_factory):
    """A directory of .npy arrays and a valid source manifest of two entries: (dir, manifest document)."""
    src = tmp_path_factory.mktemp("npy")
    np.save(src / "clip.npy", np.ones((3, 512), dtype=np.float32))
    np.save(src / "ocr.npy", np.zeros((2, 768)))
    samples = [{"id": "v0", "duration_s": 61.5, "genres": ["Action", "Drama"],
                "features": {"clip": "clip.npy", "ocr": "ocr.npy"}},
               {"id": "v1", "duration_s": 20, "genres": ["Horror"], "features": {"clip": "clip.npy"}}]
    return str(src), {"samples": samples}


@settings(max_examples=200, deadline=None)
@example(picks=[], values=[None] * 4)
@example(picks=[(0, 0)], values=[[]] * 4)
@example(picks=[(12, 0)], values=["v0"] * 4)   # v1 under v0's id
@given(picks=PICKS, values=st.lists(JSON, min_size=4, max_size=4))
def test_mutated_source_manifest_imports_or_is_data_error(tmp_path_factory, npy_source, picks, values):
    npy_dir, doc = npy_source
    doc = _edited(json.loads(json.dumps(doc)), picks, values)
    work = tmp_path_factory.mktemp("import")
    (work / "src.json").write_text(json.dumps(doc))
    try:
        summary = import_npy(npy_dir, str(work / "src.json"), str(work / "out"), default_modalities())
    except DataError:
        return
    assert summary["imported"] + summary["failed"] == len(doc.get("samples", []))
    assert len(summary["errors"]) == summary["failed"]
    if summary["imported"]:
        assert len(load_manifest(str(work / "out" / "manifest.json"))) == summary["imported"]


@pytest.fixture(scope="module")
def manifest_bytes(tmp_path_factory):
    """A valid manifest: path-backed, in-memory and duration-less records."""
    path = tmp_path_factory.mktemp("manifest") / "manifest.json"
    write_manifest([VideoRecord("v0", 61.5, ("Action", "Drama"), path="v0.mmf"),
                    VideoRecord("v1", 20, ("Horror",)), VideoRecord("v2", None, ("Comedy",))], str(path))
    return path.read_bytes()


@pytest.fixture(scope="module")
def saved_run(tmp_path_factory):
    """A 2-step mlp run with validation saved to a directory: (dir, config, records)."""
    specs = (ModalitySpec("clip", 3, 2), ModalitySpec("ocr", 2, 1))
    rng = np.random.default_rng(5)
    records = [VideoRecord(f"r{i}", 60.0, (GENRES[i],), features={s.name: rng.normal(size=(2, s.input_dim))
                                                                   for s in specs}) for i in range(6)]
    out = str(tmp_path_factory.mktemp("run"))
    config = TrainConfig(model=ModelConfig("mlp", 4, 1, 1, modalities=specs), batch_size=2, max_steps=2,
                         eval_interval=1, checkpoint_dir=out)
    Trainer(config, records[:4], records[4:]).run()
    return out, config, records


@pytest.fixture(scope="module")
def metrics_csv():
    """A report's CSV text with a NaN recall and AP, as UTF-8 bytes."""
    scores = np.linspace(0.05, 0.95, 4 * len(GENRES)).reshape(4, len(GENRES))
    targets = (np.arange(4 * len(GENRES)).reshape(4, len(GENRES)) % 3 == 0).astype(np.float64)
    targets[:, 0] = 0
    return to_csv(compute_report(scores, targets, 0.5)).encode()


NOT_JSON = [(b'{"a": ', "not standard JSON: Expecting value: line 1 column 7"),
            (b'{"a": 1}\n,', "not standard JSON: Extra data: line 2 column 1"),
            (b'{"a": [1e999]}', "1e999 is not a standard JSON number"),
            (b'{"a": ' + b"7" * 5000 + b"}", "not standard JSON: Exceeds the limit"),
            (b"[" * 100000, "not standard JSON: maximum recursion depth exceeded")]


@pytest.mark.parametrize("text, message", NOT_JSON, ids=["cut", "extra", "float-range", "digits", "nested"])
@pytest.mark.parametrize("reader", ("manifest", "checkpoint", "trainer_state", "config"))
def test_text_that_is_not_json_is_data_error_naming_the_place(tmp_path, checkpoint_stem, saved_run, reader, text,
                                                              message):
    """A data file's is a DataError (exit 3); a ``--config`` file's a ConfigError (exit 2)."""
    run_dir, config, records = saved_run
    if reader == "config":
        path, read = tmp_path / "config.json", lambda p: _load_train_config(
            build_parser().parse_args(["train", "--config", p, "--data", "data", "--out", "out"]))
    elif reader == "manifest":
        path, read = tmp_path / "manifest.json", load_manifest
    elif reader == "checkpoint":
        path, read = tmp_path / "ck.json", lambda p: read_checkpoint(p[:-len(".json")])
        shutil.copyfile(checkpoint_stem + ".bin", tmp_path / "ck.bin")
    else:
        path, read = tmp_path / "trainer_state.json", lambda p: Trainer.resume(config, records[:4], (), str(tmp_path))
        for name in ("last.json", "last.bin", "trainer_state.bin"):
            shutil.copyfile(os.path.join(run_dir, name), tmp_path / name)
    path.write_bytes(text)
    with pytest.raises(ConfigError if reader == "config" else DataError) as info:
        read(str(path))
    assert str(info.value).startswith(f"{path}: ") and message in str(info.value)


@settings(max_examples=150, deadline=None)
@given(**BYTE_EDITS)
def test_manifest_bytes_mutated_load_or_are_data_error(tmp_path_factory, manifest_bytes, edits, cut, tail):
    path = tmp_path_factory.mktemp("manifest") / "manifest.json"
    path.write_bytes(_mutated(manifest_bytes, edits, cut, tail))
    try:
        records = load_manifest(str(path))
    except DataError:
        return
    assert all(isinstance(r, VideoRecord) and r.genres and set(r.genres) <= set(GENRES) for r in records)


@settings(max_examples=150, deadline=None)
@given(**BYTE_EDITS)
def test_checkpoint_bytes_mutated_read_or_are_data_error(tmp_path_factory, checkpoint_stem, edits, cut, tail):
    stem = str(tmp_path_factory.mktemp("checkpoint") / "ck")
    shutil.copyfile(checkpoint_stem + ".bin", stem + ".bin")
    with open(checkpoint_stem + ".json", "rb") as src, open(stem + ".json", "wb") as dst:
        dst.write(_mutated(src.read(), edits, cut, tail))
    try:
        config, arrays = read_checkpoint(stem)
    except DataError:
        return
    assert isinstance(config, ModelConfig)
    assert all(a.dtype == np.dtype("<f4") for a in arrays.values())


@settings(max_examples=150, deadline=None)
@given(**BYTE_EDITS)
def test_trainer_state_bytes_mutated_resume_or_are_refused(tmp_path_factory, saved_run, edits, cut, tail):
    # what resumes must save again as standard JSON
    run_dir, config, records = saved_run
    state_dir = tmp_path_factory.mktemp("state")
    for name in ("last.json", "last.bin", "trainer_state.bin"):
        shutil.copyfile(os.path.join(run_dir, name), state_dir / name)
    with open(os.path.join(run_dir, "trainer_state.json"), "rb") as fh:
        (state_dir / "trainer_state.json").write_bytes(_mutated(fh.read(), edits, cut, tail))
    try:
        trainer = Trainer.resume(config, records[:4], records[4:], str(state_dir))
    except (DataError, ConfigError):
        return
    trainer.save_state(str(tmp_path_factory.mktemp("saved")))


@settings(max_examples=100, deadline=None)
@example(name="last.bin", recorded=True, edits=[], cut=None, tail=b"")
@example(name="last.bin", recorded=True, edits=[(3, 0xff), (2, 0xff), (1, 0xff)], cut=None, tail=b"")   # a NaN weight
@example(name="trainer_state.bin", recorded=True, edits=[(3, 0xff)], cut=None, tail=b"")   # a first moment
@example(name="trainer_state.bin", recorded=True, edits=[(83, 0xbf)], cut=None, tail=b"")   # a negative second moment
@example(name="trainer_state.bin", recorded=False, edits=[(0, 1)], cut=None, tail=b"")
@given(name=st.sampled_from(["last.bin", "trainer_state.bin"]), recorded=st.booleans(),
       edits=st.lists(st.tuples(st.integers(0, 10**4), st.integers(0, 255)), max_size=6),
       cut=st.none() | st.integers(0, 2000), tail=st.just(b"") | st.binary(max_size=8))
def test_blob_mutated_resume_and_run_or_are_refused(tmp_path_factory, saved_run, name, recorded, edits, cut, tail):
    # a blob's bytes edited, cut or extended, with its recorded SHA-256 left (the resume refuses it) or updated
    # to match (the layout checks decide); a run that resumes takes a step and a validation, and may then
    # only stop on a non-finite loss. numpy's warnings on hostile weights (an overflow, say) are not escapes
    run_dir, config, records = saved_run
    state_dir = tmp_path_factory.mktemp("state")
    for saved in ("last.json", "last.bin", "trainer_state.bin", "trainer_state.json"):
        shutil.copyfile(os.path.join(run_dir, saved), state_dir / saved)
    blob = bytearray((state_dir / name).read_bytes())
    for at, value in edits:
        blob[at % len(blob)] = value
    blob = bytes(blob[:cut]) + tail
    (state_dir / name).write_bytes(blob)
    if recorded:
        doc = json.loads((state_dir / "trainer_state.json").read_text())
        doc["sha256"][name] = hashlib.sha256(blob).hexdigest()
        (state_dir / "trainer_state.json").write_text(json.dumps(doc))
    again = replace(config, epochs=2, max_steps=3, checkpoint_dir=str(tmp_path_factory.mktemp("out")))
    try:
        trainer = Trainer.resume(again, records[:4], records[4:], str(state_dir))
    except (DataError, ConfigError):
        return
    try:
        with np.errstate(all="ignore"):
            trainer.run()
    except NumericError:
        return
    assert trainer.global_step == 3


def _numbers(doc):
    """The place of every number in a JSON document."""
    return [path for path, value in _places(doc) if type(value) in (int, float)]


HOSTILE_NUMBER = (st.sampled_from([None, -1, 0.5, 2**63, 2**64, 10**20, -2**70, 10**400, 1e308])
                  | st.integers() | st.floats(allow_nan=False))


@settings(max_examples=150, deadline=None)
@example(picks=[], values=[None] * 3)
@example(picks=[0], values=[10**400] * 3)   # version
@example(picks=[4], values=[10**400] * 3)   # adam_t, which overflowed 0.9 ** t at the first step
@example(picks=[4], values=[2**62] * 3)
@example(picks=[28], values=[10**20] * 3)   # best_map, which the save refused as an int past int64
@example(picks=[1, 2], values=[0, 0, None])   # global_step and epoch: the run takes three steps
@given(picks=st.lists(st.integers(0, 10**6), max_size=3), values=st.lists(HOSTILE_NUMBER, min_size=3, max_size=3))
def test_trainer_state_numbers_mutated_resume_run_and_save_or_are_refused(tmp_path_factory, saved_run, picks,
                                                                          values):
    # a run that resumes takes a step and a validation, and saves a state that resumes again
    run_dir, config, records = saved_run
    state_dir = tmp_path_factory.mktemp("state")
    for name in ("last.json", "last.bin", "trainer_state.bin"):
        shutil.copyfile(os.path.join(run_dir, name), state_dir / name)
    with open(os.path.join(run_dir, "trainer_state.json")) as fh:
        doc = json.load(fh)
    for at, value in zip(picks, values):
        places = _numbers(doc)
        doc = edited(doc, places[at % len(places)], value)
    (state_dir / "trainer_state.json").write_text(json.dumps(doc))
    out = str(tmp_path_factory.mktemp("out"))
    again = replace(config, epochs=2, max_steps=3, checkpoint_dir=out)   # the saved run ended its one epoch
    try:
        trainer = Trainer.resume(again, records[:4], records[4:], str(state_dir))
    except (DataError, ConfigError):
        return
    trainer.run()
    Trainer.resume(again, records[:4], records[4:], out)


@settings(max_examples=150, deadline=None)
@given(**BYTE_EDITS)
def test_report_csv_mutated_reads_or_is_value_error(metrics_csv, edits, cut, tail):
    try:
        report = report_from_csv(_mutated(metrics_csv, edits, cut, tail).decode("utf-8", "replace"))
    except ValueError:
        return
    assert isinstance(report, MetricsReport)
