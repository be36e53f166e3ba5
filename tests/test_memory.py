"""Peak memory of training and evaluation stays flat as the corpus grows.

Each run is a fresh interpreter that trains the mlp preset for one epoch on
an on-disk default-schema corpus and then evaluates the test split; its
``ru_maxrss`` is the measurement. Keeping every decoded record in memory
would add about 0.45 MB per record read, about 245 MB between the two
corpus sizes here.
"""

import os
import shutil
import subprocess
import sys

import numpy as np

from genreclf.data import VideoRecord, write_manifest
from genreclf.mmf import write_mmf
from genreclf.modalities import DEFAULT_SPECS
from genreclf.vocab import GENRES

CHILD = """
import resource, sys
from genreclf.data import load_manifest, split_records
from genreclf.models import ModelConfig
from genreclf.training import TrainConfig, Trainer, evaluate
splits = split_records(load_manifest(sys.argv[1]))
trainer = Trainer(TrainConfig(ModelConfig.preset("mlp"), batch_size=32, epochs=1, seed=1), splits["train"])
trainer.run()
evaluate(trainer.model, splits["test"])
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
"""


def write_corpus(root, n, seed=0):
    """``n`` records of the default schema, stream lengths uniform in
    1..train_max_len, plus one manifest per corpus size asked for."""
    gen = np.random.default_rng(seed)
    entries = []
    for i in range(n):
        feats = {s.name: gen.standard_normal((int(gen.integers(1, s.train_max_len, endpoint=True)), s.input_dim),
                                             dtype=np.float32)
                 for s in DEFAULT_SPECS}
        path = os.path.join(root, f"r{i:05d}.mmf")
        write_mmf(feats, path)
        entries.append(VideoRecord(f"r{i:05d}", 100.0, (GENRES[i % len(GENRES)],), path=path))
    return entries


def peak_rss_mb(manifest):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [os.path.dirname(os.path.dirname(
        __import__("genreclf").__file__)), os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", CHILD, manifest], capture_output=True, text=True, env=env,
                          timeout=300)
    assert done.returncode == 0, done.stderr
    return int(done.stdout.split()[-1]) / 1024   # ru_maxrss is in KiB on Linux


def test_peak_rss_flat_from_100_to_600_records(tmp_path):
    root = str(tmp_path / "corpus")
    os.makedirs(root)
    try:
        entries = write_corpus(root, 600)
        peaks = {}
        for n in (100, 600):
            manifest = os.path.join(root, f"manifest{n}.json")
            write_manifest(entries[:n], manifest)
            peaks[n] = peak_rss_mb(manifest)
    finally:
        shutil.rmtree(root)
    assert abs(peaks[600] - peaks[100]) < 40, peaks
