"""Video records, manifests, duration filtering, deterministic splits and
minibatch assembly."""

import os
from collections import Counter
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DataError, config_field, reading
from .mmf import read_json, read_mmf, write_json
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
    clip_frames: np.ndarray | None = None   # sorted clip rows to keep; None keeps all

    def get_features(self) -> dict[str, np.ndarray]:
        """In-memory features, or the .mmf file's read-only views, read anew
        on each call and not kept; ``clip_frames`` selects clip rows. A batch
        calls it when its heads are first read, not when it is made."""
        features = self.features
        if features is None:
            if self.path is None:
                raise DataError(f"record {self.id} has neither features nor a path")
            features = read_mmf(self.path)
        if self.clip_frames is not None:
            features = {**features, "clip": features["clip"][self.clip_frames]}
        return features


@dataclass
class Batch:
    """A minibatch: its records, their one-hot labels and the stream specs,
    none of which reads a file, plus each record's head per stream.

    ``heads[name][i]`` is a float32 view of record i's sequence, read when
    ``heads`` is first read: a batch whose means all come from memos reads no
    file. Only the batch cuts a stream: a training batch cuts each head at its
    spec's ``train_max_len``, a full-length batch keeps it whole, and ``means``
    averages all a head holds. The padded (B, L, D) ``features`` and (B, L)
    ``masks`` (L the cut, or the longest head of a full batch; pad rows zero
    and False) are built together on first access and then kept; no model
    reads them. Each dict of ``memos``, when set, keeps one record's means by
    stream name, for its later batches to read without reading it.
    """
    records: list[VideoRecord]
    specs: tuple
    lengths: str                      # "train" or "full"; see make_batch
    labels: np.ndarray                # (B, 21) float32
    memos: list[dict] | None = None

    @property
    def size(self) -> int:
        return self.labels.shape[0]

    @cached_property
    def heads(self) -> dict[str, list[np.ndarray]]:
        per_record = [r.get_features() for r in self.records]
        heads = {}
        for spec in self.specs:
            seqs = []
            for r, f in zip(self.records, per_record):
                seq = f.get(spec.name)
                if seq is None:
                    seq = np.zeros((0, spec.input_dim), dtype=np.float32)
                seq = np.asarray(seq)
                if seq.ndim != 2 or seq.shape[1] != spec.input_dim:
                    raise DataError(f"record {r.id} modality {spec.name}: shape {seq.shape} "
                                    f"incompatible with input_dim {spec.input_dim}")
                seqs.append(seq)
            limit = spec.train_max_len if self.lengths == "train" else None
            heads[spec.name] = [s[:limit].astype(np.float32, copy=False) for s in seqs]
        return heads

    @cached_property
    def _padded(self):
        feats, masks = {}, {}
        for spec in self.specs:
            heads = self.heads[spec.name]
            cut = spec.train_max_len if self.lengths == "train" else max(map(len, heads), default=0)
            x = feats[spec.name] = np.zeros((len(heads), cut, spec.input_dim), dtype=np.float32)
            m = masks[spec.name] = np.zeros(x.shape[:2], dtype=bool)
            for i, head in enumerate(heads):
                x[i, :len(head)], m[i, :len(head)] = head, True
        return feats, masks

    features = property(lambda self: self._padded[0])
    masks = property(lambda self: self._padded[1])

    def means(self, name: str) -> np.ndarray:
        """(B, D) float32 ``temporal_average`` of each head. A mean in the
        record's memo under ``name`` is read from it; one computed is stored
        read-only."""
        rows = []
        for i, memo in enumerate(self.memos or [{} for _ in self.records]):
            if name not in memo:
                memo[name] = temporal_average(self.heads[name][i])
                memo[name].flags.writeable = False
            rows.append(memo[name])
        if rows:
            return np.stack(rows)
        return np.zeros((0, next(s.input_dim for s in self.specs if s.name == name)), dtype=np.float32)


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
    doc = read_json(path)
    base = os.path.dirname(os.path.abspath(path))
    records = []
    with reading(path):
        samples = config_field(doc, "samples", list, where="manifest")
        if doc.get("genres") != list(GENRES):
            raise DataError(f"{path}: manifest genre vocabulary does not match the fixed 21-genre list")
        for i, entry in enumerate(samples):
            rid = config_field(entry, "id", str, where=f"sample {i}")
            where = f"record {rid}"
            genres = config_field(entry, "genres", list, where=where)
            rec_path = config_field(entry, "path", str | None, None, where)
            known = tuple(g for g in genres if g in GENRES)
            if not known:
                raise DataError(f"{path}: record {rid} has no known genres")
            records.append(VideoRecord(id=rid, duration_s=config_field(entry, "duration_s", float | None, None, where),
                                       genres=known, path=os.path.join(base, rec_path) if rec_path else None))
    return records


def write_manifest(records: list[VideoRecord], path: str):
    samples = [{"id": r.id, "duration_s": r.duration_s, "genres": list(r.genres),
                "path": os.path.basename(r.path) if r.path else None} for r in records]
    write_json(path, {"genres": list(GENRES), "samples": samples})


def filter_by_duration(records):
    """Keep records with DURATION_LO <= duration_s <= DURATION_HI (bounds
    inclusive: the fence values themselves are kept). Records without a
    duration are dropped and counted."""
    kept = []
    stats = FilterStats()
    for r in records:
        if r.duration_s is None:
            stats.dropped_missing_duration += 1
        elif r.duration_s < DURATION_LO:
            stats.dropped_short += 1
        elif r.duration_s > DURATION_HI:
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
        dupes = sorted(i for i, n in Counter(ids).items() if n > 1)
        raise DataError(f"duplicate record ids: {dupes[:5]}")
    ordered = sorted(ids, key=lambda s: s.encode("utf-8"))
    n_train = (7 * len(ordered)) // 10
    n_val = len(ordered) // 10
    return {vid: "train" if i < n_train else "val" if i < n_train + n_val else "test"
            for i, vid in enumerate(ordered)}


def split_records(records) -> dict[str, list[VideoRecord]]:
    assignment = split_dataset(records)
    out = {"train": [], "val": [], "test": []}
    for r in records:
        out[assignment[r.id]].append(r)
    return out


def temporal_average(seq: np.ndarray) -> np.ndarray:
    """Mean over the time steps of ``seq``, or a zero vector when it has none.

    ``seq`` is (..., T, D) and the result (..., D) float32, so a (B, T, D)
    batch gives (B, D). Accumulates in float64, in row order, before
    narrowing back; float64 sums still depend on that order
    (``[1e20, -1e20, 1]`` averages to 1/3, ``[1, 1e20, -1e20]`` to 0).
    """
    x = np.asarray(seq)
    return (np.add.reduce(x, axis=-2, dtype=np.float64) / max(x.shape[-2], 1)).astype(np.float32)


def make_batch(records, specs, lengths: str = "train") -> Batch:
    """A batch of records whose heads are read on first access; see ``Batch``.

    ``lengths="train"`` cuts every sequence to its spec's train_max_len
    (head of the sequence kept). ``lengths="full"`` keeps the longest
    sequence in the batch whole, which for a single record means no
    padding at all. Nothing is read, copied or padded here.
    """
    if lengths not in ("train", "full"):
        raise ValueError(f"lengths must be 'train' or 'full', got {lengths!r}")
    labels = np.array([label_vector(r.genres) for r in records], dtype=np.float32).reshape(-1, len(GENRES))
    return Batch(records=records, specs=tuple(specs), lengths=lengths, labels=labels)
