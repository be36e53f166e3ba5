"""Self-contained synthetic datasets for exercising the full pipeline.

Two constructions:

* ``synth_mean_encoded``: each genre owns a fixed signature vector per
  modality; a record's frames are the sum of its active genres' signatures
  plus Gaussian noise, so the temporal mean separates the labels linearly
  by construction.

* ``synth_order_encoded``: a binary task where the label is carried only by
  temporal order. Every record's clip sequence is two blocks of frames
  drawn around two fixed marker vectors; block order decides the label, so
  the per-record frame multiset (and hence any temporal mean) is identical
  for both classes.
"""

import numpy as np

from .data import VideoRecord
from .errors import ConfigError
from .modalities import DEFAULT_SPECS
from .rng import SeededRng, derive_seed
from .vocab import GENRES


def synth_mean_encoded(n: int, seed: int, noise_std: float = 0.1, specs=DEFAULT_SPECS) -> list[VideoRecord]:
    """Generate ``n`` mean-separable records. Fully reproducible from
    (n, seed): the same pair always yields the same dataset."""
    if n < 1 or not 0 <= noise_std < np.inf:
        raise ConfigError(f"n must be >= 1 and noise_std finite and >= 0, got {n} and {noise_std}")
    sig_rng = SeededRng(derive_seed(seed, "signatures"))
    signatures = {s.name: sig_rng.normal((len(GENRES), s.input_dim)) for s in specs}
    records = []
    for i in range(n):
        rec_rng = SeededRng(derive_seed(seed, "record", i))
        labels = rec_rng.uniform((len(GENRES),)) < 0.15
        if not labels.any():
            labels[rec_rng.randint(0, len(GENRES))] = True
        genres = tuple(g for g, on in zip(GENRES, labels) if on)
        features = {}
        for s in specs:
            t = rec_rng.randint(1, s.train_max_len + 1)
            base = signatures[s.name][labels].sum(axis=0)
            noise = rec_rng.normal((t, s.input_dim), 0.0, noise_std) if noise_std > 0 else 0.0
            features[s.name] = (base[None, :] + noise).astype(np.float32)
        duration = float(rec_rng.uniform((), 20.0, 200.0))
        records.append(VideoRecord(id=f"synth{i:06d}", duration_s=duration,
                                   genres=genres, features=features))
    return records


ORDER_GENRES = ("Action", "Adventure")   # class 0: marker A first; class 1: marker B first


def synth_order_encoded(n: int, seed: int, dim: int = 16, block_len: int = 8) -> list[VideoRecord]:
    """Generate ``n`` order-labelled records with a clip modality only.

    Two dataset-level marker vectors A and B are drawn once from the seed.
    Each record's sequence is a block of frames around A and a block around
    B (with per-frame jitter of std 0.1); the two blocks appear in either
    order, and that order alone determines the label. Swapping the blocks of
    any record flips its label while leaving the frame multiset untouched.
    """
    if n < 1:
        raise ConfigError(f"n must be >= 1, got {n}")
    marker_rng = SeededRng(derive_seed(seed, "markers"))
    marker_a = marker_rng.normal((dim,))
    marker_b = marker_rng.normal((dim,))
    records = []
    for i in range(n):
        rec_rng = SeededRng(derive_seed(seed, "order-record", i))
        a_first = bool(rec_rng.uniform(()) < 0.5)
        block_a = marker_a[None, :] + rec_rng.normal((block_len, dim), 0.0, 0.1)
        block_b = marker_b[None, :] + rec_rng.normal((block_len, dim), 0.0, 0.1)
        seq = np.concatenate([block_a, block_b] if a_first else [block_b, block_a], axis=0)
        genres = (ORDER_GENRES[0],) if a_first else (ORDER_GENRES[1],)
        duration = float(rec_rng.uniform((), 20.0, 200.0))
        records.append(VideoRecord(id=f"order{i:06d}", duration_s=duration,
                                   genres=genres, features={"clip": seq.astype(np.float32)}))
    return records
