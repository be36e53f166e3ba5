"""Bounded fuzzing of the readers fed by JSON documents: whatever the document
holds, a bad one is a DataError and nothing else."""

import json

import numpy as np
from hypothesis import example, given, settings, strategies as st

from genreclf.checkpoint import read_blob
from genreclf.data import VideoRecord, load_manifest
from genreclf.errors import DataError
from genreclf.vocab import GENRES

JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=10)

SAMPLE = st.fixed_dictionaries({}, optional={
    "id": st.text(max_size=4) | JSON,
    "genres": st.lists(st.sampled_from(GENRES) | JSON, max_size=3) | JSON,
    "path": st.none() | st.text(max_size=6) | JSON,
    "duration_s": st.floats(0.0, 300.0) | JSON,
}) | JSON

ENTRY = st.fixed_dictionaries({
    "name": st.sampled_from(["a", "b"]) | JSON,
    "shape": st.lists(st.integers(0, 3) | st.integers(-1, 2**70), max_size=3) | JSON,
    "offset": st.integers(-4, 40) | st.sampled_from([0, 4, 8, 12]) | JSON,
}) | JSON


@settings(max_examples=200, deadline=None)
@example(genres=5, samples=[])
@example(genres=None, samples=[])
@example(genres=list(GENRES), samples=[{"id": "v", "genres": ["Action", [1]], "path": "", "duration_s": 10**30}])
@given(genres=st.just(list(GENRES)) | JSON, samples=st.lists(SAMPLE, max_size=3) | JSON)
def test_manifest_of_any_json_loads_or_is_data_error(tmp_path_factory, genres, samples):
    # a new file per example: truncating one to rewrite it cost 30-45 ms on an ext4 disk mounted with discard
    path = tmp_path_factory.mktemp("manifest") / "manifest.json"
    path.write_text(json.dumps({"genres": genres, "samples": samples}))
    try:
        records = load_manifest(str(path))
    except DataError:
        return
    assert len(records) == len(samples) and all(isinstance(r, VideoRecord) and r.genres for r in records)


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
