"""Slow experiment-runner properties on planted synthetic signals."""

import json
import os

import numpy as np
import pytest

from genreclf.cli import main
from genreclf.data import split_records, write_manifest
from genreclf.mmf import write_mmf
from genreclf.modalities import ModalitySpec
from genreclf.models import ModelConfig
from genreclf.rng import derive_seed
from genreclf.synth import synth_mean_encoded, synth_order_encoded
from genreclf.training import TrainConfig, Trainer
from references import batched_map

SPECS = {
    "clip": ModalitySpec("clip", 16, 12),
    "musicnet": ModalitySpec("musicnet", 6, 4),
    "audiotag": ModalitySpec("audiotag", 8, 8),
    "ocr": ModalitySpec("ocr", 8, 6),
    "asr": ModalitySpec("asr", 8, 6),
}

# the strict-superset prefix of the ablation table (averaging rows are
# substitutions, not additions, so they sit outside this chain)
ADDITION_CHAIN = [
    ("clip",),
    ("clip", "musicnet"),
    ("clip", "musicnet", "audiotag"),
    ("clip", "musicnet", "audiotag", "ocr"),
    ("clip", "musicnet", "audiotag", "ocr", "asr"),
]


@pytest.mark.slow
def test_adding_informative_modalities_never_hurts_much():
    """Every synthetic modality carries the planted signal, so growing the
    feature set must not lower test mAP by more than noise (0.02),
    averaged over 3 seeds."""
    records = synth_mean_encoded(192, seed=3, noise_std=0.1, specs=tuple(SPECS.values()))
    splits = split_records(records)
    per_row = []
    for row in ADDITION_CHAIN:
        maps = []
        for seed in (0, 1, 2):
            mods = tuple(SPECS[m] for m in row)
            mc = ModelConfig(architecture="multi_transformer", model_dim=16, num_layers=1,
                             num_heads=2, dropout_rate=0.1, modalities=mods)
            cfg = TrainConfig(model=mc, lr=2e-3, batch_size=32, epochs=10_000, max_steps=350,
                              seed=derive_seed(seed, "ablation-chain"))
            trainer = Trainer(cfg, splits["train"])
            trainer.run()
            maps.append(batched_map(trainer.model, splits["test"]))
        per_row.append(float(np.mean(maps)))
    for prev, cur in zip(per_row, per_row[1:]):
        assert cur >= prev - 0.02, per_row


@pytest.mark.slow
def test_frames_sweep_separates_transformer_from_mlp(tmp_path):
    """On order-encoded data the sweep's transformer rows stay >= 0.9 mAP
    while the temporal-averaging MLP rows stay near chance at every
    subsampled frame count."""
    data = str(tmp_path / "data")
    os.makedirs(data)
    records = synth_order_encoded(256, seed=2, dim=16, block_len=16)   # 32 frames each
    for rec in records:
        path = os.path.join(data, f"{rec.id}.mmf")
        write_mmf(rec.features, path)
        rec.path = path
    write_manifest(records, os.path.join(data, "manifest.json"))

    cfg = {"model": {"architecture": "single_transformer", "model_dim": 32, "num_layers": 1,
                     "num_heads": 2, "dropout_rate": 0.0,
                     "modalities": [{"name": "clip", "input_dim": 16, "train_max_len": 32}]},
           "lr": 2e-3, "batch_size": 32, "epochs": 10_000, "max_steps": 800, "seed": 4}
    cfg_path = str(tmp_path / "cfg.json")
    json.dump(cfg, open(cfg_path, "w"))
    out = str(tmp_path / "sweep")
    assert main(["frames-sweep", "--config", cfg_path, "--data", data,
                 "--frames", "16,32", "--out", out]) == 0

    rows = {}
    for line in open(os.path.join(out, "frames_sweep.csv")).read().strip().splitlines()[1:]:
        n, arch, mean_ap = line.split(",")
        rows[(int(n), arch)] = float(mean_ap)
    for n in (16, 32):
        assert rows[(n, "single_transformer")] >= 0.9, rows
        assert rows[(n, "mlp")] <= 0.65, rows
