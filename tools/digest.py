"""Digest of the numbers the package computes, to show that a change keeps
them or to name the ones it moves.

    python tools/digest.py                  # one SHA-256 per value
    python tools/digest.py --against REV    # the values that differ from REV's

A value is one array: one record's logits or scores, a field of an
``evaluate`` report, a trained parameter, a run's losses, its dropout RNG
state, or the bytes of a file a run saved. The matrix:

* the three preset architectures (preset widths, depths and heads over the
  default schema's five streams at small input sizes and caps), the
  transformers with no stream, ``ocr``, and ``ocr`` and ``asr`` averaged;
* float32 and float64 models;
* in-memory and path-backed (.mmf) records, with streams empty, within and
  past their caps (record r00 is past every cap);
* training and full-length batches: logits in eval and train mode, and
  ``predict_scores``; ``evaluate`` over every record;
* a seeded 2-epoch run with validation, and the same run stopped mid-epoch
  and resumed: losses, parameters, RNG states and the
  ``best``/``last``/``trainer_state`` files;
* one ``import_npy`` run (integer, float and null durations, unknown genre
  names, a non-ASCII id, a float64 array and one entry whose array has the
  wrong width): its summary, the bytes of every file it writes and the
  fields of the records ``load_manifest`` reads back from its manifest.

``--against REV`` extracts REV with ``git archive`` into a temporary
directory, computes the same matrix against its ``src`` in a child
interpreter, and lists each value that differs with its largest absolute
and relative difference; the exit status is then 1 when any value differs.
Two trees are compared on one machine, never against a stored file: numpy's
SIMD kernels may change float bits between CPUs.
"""

import argparse
import contextlib
import dataclasses
import functools
import hashlib
import io
import json
import os
import subprocess
import sys
import tarfile
import tempfile

import numpy as np

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
STREAMS = (("clip", 12, 6), ("ocr", 10, 4), ("asr", 8, 5), ("audiotag", 6, 3), ("musicnet", 4, 2))
VARIANTS = (("mlp", ()),) + tuple((arch, averaged) for arch in ("single_transformer", "multi_transformer")
                                  for averaged in ((), ("ocr",), ("ocr", "asr")))
N_RECORDS, N_TRAIN, N_VAL = 12, 8, 2


def make_records(directory: str | None):
    """N_RECORDS seeded records, written to .mmf files in ``directory``
    when given. r00 runs 3 rows past every cap and r01 has empty ocr and asr."""
    from genreclf.data import VideoRecord
    from genreclf.mmf import write_mmf
    from genreclf.vocab import GENRES

    rng = np.random.default_rng(2024)
    records = []
    for i in range(N_RECORDS):
        features = {}
        for name, dim, cap in STREAMS:
            rows = cap + 3 if i == 0 else 0 if i == 1 and name in ("ocr", "asr") else rng.integers(0, cap + 4)
            features[name] = rng.normal(size=(rows, dim)).astype(np.float32)
        genres = tuple(g for g in GENRES if rng.random() < 0.25) or (GENRES[i],)
        rid = f"r{i:02d}"
        if directory is None:
            records.append(VideoRecord(rid, 60.0, genres, features=features))
        else:
            path = os.path.join(directory, rid + ".mmf")
            write_mmf(features, path)
            records.append(VideoRecord(rid, 60.0, genres, path=path))
    return records


@contextlib.contextmanager
def trainer_dtype(dtype):
    """Trainers build their models in ``dtype`` (they build float32 ones)."""
    from genreclf import training

    real = training.build_model
    training.build_model = functools.partial(real, dtype=dtype)
    try:
        yield
    finally:
        training.build_model = real


def scoring_values(model, records, specs) -> dict:
    from genreclf.autograd import no_grad
    from genreclf.data import make_batch
    from genreclf.models import predict_scores
    from genreclf.rng import SeededRng
    from genreclf.training import evaluate

    out = {}
    for lengths in ("train", "full"):
        batch = make_batch(records, specs, lengths=lengths)
        with no_grad():
            rows = {"logits": model.forward(batch, train=False).data,
                    "dropout-logits": model.forward(batch, train=True, rng=SeededRng(7)).data}
        rows["scores"] = predict_scores(model, batch)
        for kind, x in rows.items():
            out.update({f"{lengths}/{kind}/{r.id}": row for r, row in zip(records, x)})
    report = evaluate(model, records)
    for field in ("precision", "recall", "ap", "macro_precision", "macro_recall", "mean_ap"):
        out[f"evaluate/{field}"] = np.asarray(getattr(report, field))
    return out


def run_values(trainer, directory: str) -> dict:
    out = {"losses": np.array(trainer.history.losses, dtype=np.float64),
           "best": np.array([trainer.history.best_step, trainer.history.best_map]),
           "dropout_rng": np.array([trainer.dropout_rng.state()[k] for k in ("seed", "counter")], dtype=np.uint64)}
    out.update({f"param/{name}": t.data for name, t in trainer.model.params.items()})
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name), "rb") as fh:
            out[f"file/{name}"] = np.frombuffer(fh.read(), dtype=np.uint8)
    return out


def training_values(config, records, directory: str) -> dict:
    from genreclf.training import TrainConfig, Trainer

    train, val = records[:N_TRAIN], records[N_TRAIN:N_TRAIN + N_VAL]
    whole = TrainConfig(model=config, lr=1e-3, batch_size=3, epochs=2, eval_interval=2, seed=5,
                        checkpoint_dir=os.path.join(directory, "whole"))
    trainer = Trainer(whole, train, val)
    trainer.run()
    out = {f"run/{k}": v for k, v in run_values(trainer, whole.checkpoint_dir).items()}
    part = dataclasses.replace(whole, max_steps=4, checkpoint_dir=os.path.join(directory, "resumed"))
    Trainer(part, train, val).run()   # stops at step 1 of epoch 2
    resumed = Trainer.resume(dataclasses.replace(part, max_steps=None), train, val, part.checkpoint_dir)
    resumed.run()
    out.update({f"resumed/{k}": v for k, v in run_values(resumed, part.checkpoint_dir).items()})
    return out


def import_values(directory: str) -> dict:
    from genreclf.data import load_manifest
    from genreclf.mmf import import_npy
    from genreclf.modalities import default_modalities

    def as_bytes(doc):
        return np.frombuffer(json.dumps(doc, sort_keys=True).encode(), dtype=np.uint8)

    npy, out = os.path.join(directory, "npy"), os.path.join(directory, "out")
    os.makedirs(npy)
    rng = np.random.default_rng(7)
    for name, arr in (("a.npy", rng.normal(size=(3, 512)).astype(np.float32)), ("b.npy", rng.normal(size=(2, 768))),
                      ("narrow.npy", np.ones((2, 99), dtype=np.float32))):
        np.save(os.path.join(npy, name), arr)
    samples = [
        {"id": "int-duration", "duration_s": 50, "genres": ["Action", "Telenovela"],
         "features": {"clip": "a.npy", "ocr": "b.npy"}},
        {"id": "tr\u00e1iler-\U0001f3ac", "duration_s": 61.5, "genres": ["Drama", "Anime"], "features": {"asr": "b.npy"}},
        {"id": "no-duration", "duration_s": None, "genres": ["Horror"], "features": {}},
        {"id": "wrong-width", "duration_s": 70, "genres": ["Comedy"], "features": {"clip": "narrow.npy"}},
    ]
    with open(os.path.join(directory, "src.json"), "w") as fh:
        json.dump({"samples": samples}, fh)
    values = {"import/summary": as_bytes(import_npy(npy, os.path.join(directory, "src.json"), out,
                                                    default_modalities()))}
    for name in sorted(os.listdir(out)):
        with open(os.path.join(out, name), "rb") as fh:
            values[f"import/file/{name}"] = np.frombuffer(fh.read(), dtype=np.uint8)
    for r in load_manifest(os.path.join(out, "manifest.json")):
        values[f"import/record/{r.id}"] = as_bytes([r.id, r.duration_s, r.genres, os.path.basename(r.path)])
    return values


def compute() -> dict:
    """Every value of the matrix, by name."""
    from genreclf.modalities import ModalitySpec
    from genreclf.models import PRESETS, ModelConfig, build_model

    values = {}
    with tempfile.TemporaryDirectory() as tmp:
        for backing in ("memory", "path"):
            os.makedirs(os.path.join(tmp, "records"), exist_ok=True)
            records = make_records(None if backing == "memory" else os.path.join(tmp, "records"))
            for arch, averaged in VARIANTS:
                specs = tuple(ModalitySpec(n, d, cap, temporal_average=n in averaged) for n, d, cap in STREAMS)
                config = ModelConfig(architecture=arch, modalities=specs, **PRESETS[arch])
                for dtype in (np.float32, np.float64):
                    key = f"{arch}/avg={'+'.join(averaged) or '-'}/{np.dtype(dtype).name}/{backing}"
                    model = build_model(config, seed=11, dtype=dtype)
                    found = scoring_values(model, records, specs)
                    with trainer_dtype(dtype):
                        found.update(training_values(config, records, os.path.join(tmp, key)))
                    values.update({f"{key}/{k}": v for k, v in found.items()})
        values.update(import_values(os.path.join(tmp, "import")))
    return values


def sha256(x: np.ndarray) -> str:
    h = hashlib.sha256(f"{x.dtype.str} {x.shape} ".encode())
    h.update(np.ascontiguousarray(x).tobytes())
    return h.hexdigest()


def difference(a: np.ndarray, b: np.ndarray) -> str:
    if a.dtype != b.dtype or a.shape != b.shape:
        return f"{b.dtype}{b.shape} -> {a.dtype}{a.shape}"
    if a.dtype == np.uint8:
        return f"{np.count_nonzero(a != b)} of {a.size} bytes differ"
    a, b = a.astype(np.float64), b.astype(np.float64)
    same = (a == b) | (np.isnan(a) & np.isnan(b))
    gap = np.where(same, 0.0, np.abs(a - b))
    scale = np.maximum(np.abs(a), np.abs(b))
    rel = np.where(same, 0.0, gap / np.where(scale > 0, scale, 1.0))
    return f"max abs {np.nanmax(gap):.3g}, max rel {np.nanmax(rel):.3g}"


def start_digest(rev: str, tmp: str) -> subprocess.Popen:
    """A child interpreter computing the matrix against ``rev``'s tree,
    extracted into ``tmp``, and saving it to ``tmp``/values.npz."""
    tree = subprocess.run(["git", "-C", REPO, "archive", "--format=tar", rev], check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tree)) as tar:
        tar.extractall(tmp, filter="data")
    return subprocess.Popen([sys.executable, os.path.abspath(__file__), "--src", os.path.join(tmp, "src"),
                             "--save", os.path.join(tmp, "values.npz")], stdout=subprocess.DEVNULL)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--against", metavar="REV", help="list the values that differ from REV's")
    parser.add_argument("--src", default=os.path.join(REPO, "src"), help="the package tree to digest")
    parser.add_argument("--save", metavar="NPZ", help="also write the values to NPZ")
    args = parser.parse_args(argv)
    sys.path.insert(0, args.src)
    with tempfile.TemporaryDirectory() as tmp:
        child = args.against and start_digest(args.against, tmp)   # runs while this tree's matrix is computed
        values = compute()
        if args.save:
            np.savez(args.save, **values)
        if not args.against:
            for name, x in values.items():
                print(f"{sha256(x)}  {name}")
            return 0
        if child.wait():
            sys.exit(f"the digest of {args.against} failed")
        with np.load(os.path.join(tmp, "values.npz")) as z:
            base = {name: z[name] for name in z.files}
    moved = 0
    for name in sorted(values.keys() | base.keys()):
        if name not in base or name not in values:
            print(f"{name}: only in {'this tree' if name in values else args.against}")
        elif sha256(values[name]) != sha256(base[name]):
            print(f"{name}: {difference(values[name], base[name])}")
        else:
            continue
        moved += 1
    print(f"{moved} of {len(values.keys() | base.keys())} values differ from {args.against}")
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main())
