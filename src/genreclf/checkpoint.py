"""Model checkpoints: a JSON metadata document next to a raw parameter blob.

``<stem>.json`` holds the model config, the genre vocabulary, the format
version and a parameter manifest (name / shape / byte offset); ``<stem>.bin``
is the concatenation of all parameters as little-endian float32 in manifest
order. Loading validates the document, names, shapes and blob length. A
blob holds no NaN or infinity: saving one is a NumericError, and reading
one a DataError.

Each file is replaced atomically, the blob first. Every save of one model
writes the same JSON, so a save that fails part way leaves a loadable pair,
and after the first save the JSON is left untouched. Blobs are read by copy,
so their writes recycle: ``<stem>.bin.tmp`` keeps the previous generation
and the next save overwrites it in place (see ``write_atomic``).
"""

import hashlib
import itertools
import math
import os

import numpy as np

from .errors import DataError, NumericError, config_field, is_kind, reading
from .mmf import read_json, write_atomic, write_json
from .models import ModelConfig, build_model
from .vocab import GENRES

CHECKPOINT_FORMAT_VERSION = 1


def _finite(blob: bytes) -> bool:
    """Whether every float32 in ``blob`` is finite. ``min`` and ``max`` carry
    a NaN or an infinity through and allocate nothing the size of the blob."""
    values = np.frombuffer(blob, dtype="<f4")
    return not values.size or bool(np.isfinite(values.min()) and np.isfinite(values.max()))


def write_blob(bin_path: str, arrays: dict[str, np.ndarray]) -> tuple[list[dict], str]:
    """Write ``arrays`` as one little-endian float32 blob; return the manifest
    that ``read_blob`` takes to read them back and the blob's SHA-256. The
    replaced blob is recycled as ``<bin_path>.tmp``, the next write's scratch
    file, which may be deleted at any time."""
    raws = [np.ascontiguousarray(arr, dtype="<f4").tobytes() for arr in arrays.values()]
    blob = b"".join(raws)
    if not _finite(blob):
        raise NumericError(f"{bin_path}: a value to save is not finite")
    write_atomic(bin_path, blob, recycle=True)
    offsets = itertools.accumulate((len(raw) for raw in raws), initial=0)
    return [{"name": name, "shape": list(arr.shape), "offset": offset}
            for (name, arr), offset in zip(arrays.items(), offsets)], hashlib.sha256(blob).hexdigest()


def save_checkpoint(model, stem: str) -> str:
    """Write ``<stem>.bin``, then ``<stem>.json``; return the blob's SHA-256."""
    os.makedirs(os.path.dirname(os.path.abspath(stem)), exist_ok=True)
    manifest, digest = write_blob(stem + ".bin", {name: t.data for name, t in model.params.items()})
    write_json(stem + ".json", {"format_version": CHECKPOINT_FORMAT_VERSION, "config": model.config.to_dict(),
                                "genres": list(GENRES), "parameters": manifest})
    return digest


def read_blob(bin_path: str, manifest: list[dict], sha256: str = None) -> dict[str, np.ndarray]:
    """The arrays ``manifest`` describes in the blob at ``bin_path``, as
    read-only views of one in-memory copy of it. The entries must lie end
    to end from byte 0, in manifest order, and fill the blob, as
    ``write_blob`` lays them out, each under its own name."""
    if not isinstance(manifest, list):
        raise DataError(f"{bin_path}: the parameter manifest is not a list")
    with open(bin_path, "rb") as fh:
        blob = fh.read()
    if sha256 is not None and hashlib.sha256(blob).hexdigest() != sha256:
        raise DataError(f"{bin_path}: the SHA-256 differs from the one recorded at save; a save stopped part way")
    arrays, end = {}, 0
    for i, entry in enumerate(manifest):
        with reading(bin_path):
            name, shape, start = (config_field(entry, key, kind, where=f"manifest entry {i}")
                                  for key, kind in (("name", str), ("shape", list), ("offset", int)))
        if not all(is_kind(n, int) and n >= 0 for n in [start, *shape]):
            raise DataError(f"{bin_path}: {name}: shape {shape!r:.80} and offset {start} must be integers >= 0")
        if name in arrays:
            raise DataError(f"{bin_path}: the manifest names {name!r} twice")
        if start != end:
            raise DataError(f"{bin_path}: {name} starts at byte {start}, not where the entry before it ends ({end})")
        count = math.prod(shape)
        end = start + 4 * count
        if end > len(blob):
            raise DataError(f"{bin_path}: blob too short for {name} (need byte {end}, have {len(blob)})")
        try:
            arrays[name] = np.frombuffer(blob, dtype="<f4", count=count, offset=start).reshape(shape)
        except ValueError as exc:   # more axes than numpy allows, or an axis past its index range
            raise DataError(f"{bin_path}: {name} cannot take the shape {shape!r:.80}: {exc}")
    if end != len(blob):
        raise DataError(f"{bin_path}: the manifest ends at byte {end} but the blob has {len(blob)}")
    if not _finite(blob):
        raise DataError(f"{bin_path}: a stored value is not finite")
    return arrays


def read_checkpoint(stem: str, sha256: str = None) -> tuple[ModelConfig, dict[str, np.ndarray]]:
    """The model config in ``<stem>.json`` and the parameter arrays it
    describes in ``<stem>.bin``, whose SHA-256 must be ``sha256`` if given."""
    path = stem + ".json"
    doc = read_json(path)
    with reading(path):
        if (version := config_field(doc, "format_version", int, where="checkpoint")) != CHECKPOINT_FORMAT_VERSION:
            raise DataError(f"{path}: unsupported checkpoint format version {version}")
        if doc.get("genres") != list(GENRES):
            raise DataError(f"{path}: checkpoint genre vocabulary does not match this build")
        config = ModelConfig.from_dict(config_field(doc, "config", dict, where="checkpoint"))
        parameters = config_field(doc, "parameters", list, where="checkpoint")
    return config, read_blob(stem + ".bin", parameters, sha256)


def load_checkpoint(stem: str):
    """Rebuild the model described by ``<stem>.json`` with the parameters
    stored in ``<stem>.bin``, drawing no initial weights."""
    config, arrays = read_checkpoint(stem)
    with reading(stem + ".json"):
        model = build_model(config, seed=None)
    model.params.load_arrays(arrays)
    return model
