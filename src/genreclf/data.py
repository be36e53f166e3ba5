"""Video records, manifests, duration filtering, deterministic splits and
minibatch assembly."""

import json
import os
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError
from .mmf import read_mmf, write_atomic
from .vocab import GENRES, label_vector

DURATION_LO = 19.6
DURATION_HI = 214.4


@dataclass
class VideoRecord:
    id: str
    duration_s: float | None
    genres: tuple[str, ...]
    features: dict[str, np.ndarray] | None = None
    path: str | None = None

    def get_features(self) -> dict[str, np.ndarray]:
        """In-memory features, reading the .mmf file on first access."""
        if self.features is None:
            if self.path is None:
                raise DataError(f"record {self.id} has neither features nor a path")
            self.features = read_mmf(self.path)
        return self.features


@dataclass
class Batch:
    """Fixed-length padded tensors per modality plus validity masks.

    Pad positions hold zero vectors and mask False; labels are the one-hot
    multi-label matrix over the fixed genre vocabulary.
    """
    features: dict[str, np.ndarray]   # name -> (B, L, D) float32
    masks: dict[str, np.ndarray]      # name -> (B, L) bool
    labels: np.ndarray                # (B, 21) float32
    ids: list[str] = field(default_factory=list)

    @property
    def size(self) -> int:
        return self.labels.shape[0]


@dataclass
class FilterStats:
    kept: int = 0
    dropped_short: int = 0
    dropped_long: int = 0
    dropped_missing_duration: int = 0


def load_manifest(path: str) -> list[VideoRecord]:
    """Read a dataset manifest. Unknown genre names are dropped (the source
    catalog carries more genres than the 21 used here); records left with no
    known genre are rejected."""
    with open(path) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict) or not isinstance(doc.get("samples"), list):
        raise DataError(f"{path}: manifest has no \"samples\" list")
    if tuple(doc.get("genres", ())) != GENRES:
        raise DataError(f"{path}: manifest genre vocabulary does not match the fixed 21-genre list")
    base = os.path.dirname(os.path.abspath(path))
    records = []
    for i, entry in enumerate(doc["samples"]):
        missing = [k for k in ("id", "genres") if not isinstance(entry, dict) or k not in entry]
        if missing:
            raise DataError(f"{path}: sample {i} has no {' and no '.join(missing)}")
        rid, genres = entry["id"], entry["genres"]
        rec_path, duration = entry.get("path"), entry.get("duration_s")
        if not isinstance(rid, str):
            raise DataError(f"{path}: sample {i} has an id that is not a string: {rid!r}")
        if not isinstance(genres, list):
            raise DataError(f"{path}: record {rid} has genres that are not a list: {genres!r}")
        if rec_path is not None and not isinstance(rec_path, str):
            raise DataError(f"{path}: record {rid} has a path that is not a string or null: {rec_path!r}")
        if duration is not None and (type(duration) not in (int, float) or duration != duration):
            raise DataError(f"{path}: record {rid} has a duration_s that is not a number: {duration!r}")
        known = tuple(g for g in genres if g in GENRES)
        if not known:
            raise DataError(f"{path}: record {rid} has no known genres")
        records.append(VideoRecord(
            id=rid,
            duration_s=duration,
            genres=known,
            path=os.path.join(base, rec_path) if rec_path else None,
        ))
    return records


def write_manifest(records: list[VideoRecord], path: str):
    doc = {
        "genres": list(GENRES),
        "samples": [
            {
                "id": r.id,
                "duration_s": r.duration_s,
                "genres": list(r.genres),
                "path": os.path.basename(r.path) if r.path else None,
            }
            for r in records
        ],
    }
    write_atomic(path, json.dumps(doc, indent=1).encode())


def filter_by_duration(records, lo: float = DURATION_LO, hi: float = DURATION_HI):
    """Keep records with lo <= duration_s <= hi (bounds inclusive: the
    fence values themselves are kept). Records without a duration are
    dropped and counted."""
    kept = []
    stats = FilterStats()
    for r in records:
        if r.duration_s is None:
            stats.dropped_missing_duration += 1
        elif r.duration_s < lo:
            stats.dropped_short += 1
        elif r.duration_s > hi:
            stats.dropped_long += 1
        else:
            kept.append(r)
    stats.kept = len(kept)
    return kept, stats


def split_dataset(records) -> dict[str, str]:
    """Deterministic train/val/test assignment from the id set alone.

    Ids are sorted ascending by UTF-8 byte order; the first floor(0.7 n) go
    to train, the next floor(0.1 n) to val, the remainder to test. Computed
    with integer arithmetic so the boundaries are exact.
    """
    ids = [r.id for r in records]
    if len(set(ids)) != len(ids):
        dupes = sorted({i for i in ids if ids.count(i) > 1})
        raise DataError(f"duplicate record ids: {dupes[:5]}")
    ordered = sorted(ids, key=lambda s: s.encode("utf-8"))
    n = len(ordered)
    n_train = (7 * n) // 10
    n_val = n // 10
    assignment = {}
    for i, vid in enumerate(ordered):
        if i < n_train:
            assignment[vid] = "train"
        elif i < n_train + n_val:
            assignment[vid] = "val"
        else:
            assignment[vid] = "test"
    return assignment


def split_records(records) -> dict[str, list[VideoRecord]]:
    assignment = split_dataset(records)
    out = {"train": [], "val": [], "test": []}
    for r in records:
        out[assignment[r.id]].append(r)
    return out


def temporal_average(seq: np.ndarray, mask: np.ndarray = None) -> np.ndarray:
    """Mean over valid time steps, or a zero vector when none are valid.

    ``seq`` is (..., T, D) with an optional (..., T) validity mask; the
    result is (..., D) float32, so a (B, T, D) batch gives (B, D).
    Accumulates in float64 before narrowing back so the result does not
    depend on frame order.
    """
    x = np.asarray(seq)
    valid = np.ones(x.shape[:-1], dtype=bool) if mask is None else np.asarray(mask, dtype=bool)
    total = np.add.reduce(x, axis=-2, dtype=np.float64, where=valid[..., None])
    return (total / np.maximum(valid.sum(axis=-1, keepdims=True), 1)).astype(np.float32)


def make_batch(records, specs, lengths: str = "train") -> Batch:
    """Assemble padded per-modality tensors for a list of records.

    ``lengths="train"`` pads/truncates to each spec's train_max_len (head
    of the sequence kept). ``lengths="full"`` pads to the longest sequence
    in the batch, which for a single record means no padding at all.
    """
    if lengths not in ("train", "full"):
        raise ValueError(f"lengths must be 'train' or 'full', got {lengths!r}")
    feats = {}
    masks = {}
    n = len(records)
    per_record = [r.get_features() for r in records]
    for spec in specs:
        seqs = []
        for r, f in zip(records, per_record):
            seq = f.get(spec.name)
            if seq is None:
                seq = np.zeros((0, spec.input_dim), dtype=np.float32)
            seq = np.asarray(seq, dtype=np.float32)
            if seq.ndim != 2 or seq.shape[1] != spec.input_dim:
                raise DataError(
                    f"record {r.id} modality {spec.name}: shape {seq.shape} incompatible with input_dim {spec.input_dim}")
            seqs.append(seq)
        if lengths == "train":
            limit = spec.train_max_len
        else:
            limit = max((s.shape[0] for s in seqs), default=0)
        limit = max(limit, 0)
        x = np.zeros((n, limit, spec.input_dim), dtype=np.float32)
        m = np.zeros((n, limit), dtype=bool)
        for i, seq in enumerate(seqs):
            t = min(seq.shape[0], limit)
            x[i, :t] = seq[:t]
            m[i, :t] = True
        feats[spec.name] = x
        masks[spec.name] = m
    labels = np.stack([label_vector(r.genres) for r in records]) if n else np.zeros((0, len(GENRES)), dtype=np.float32)
    return Batch(features=feats, masks=masks, labels=labels, ids=[r.id for r in records])
