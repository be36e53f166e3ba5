"""Command-line front end.

Subcommands: import, synth, train, eval, predict, ablate, frames-sweep.
Every run writes ``run_manifest.json`` (resolved config + seed + argv) into
its output directory so results are reproducible from the manifest alone.
Exit codes: 0 success, 2 config error, 3 data error, 4 numeric failure.
"""

import argparse
import dataclasses
import os
import sys

import numpy as np

from . import __version__
from .data import (VideoRecord, filter_by_duration, load_manifest,
                   split_records, write_manifest)
from .errors import ConfigError, DataError, NumericError
from .metrics import format_table, to_csv
from .mmf import import_npy, read_json, write_atomic, write_json, write_mmf
from .models import ARCHITECTURES, ModelConfig, predict
from .modalities import default_modalities
from .checkpoint import load_checkpoint
from .rng import SeededRng, derive_seed
from .synth import synth_mean_encoded, synth_order_encoded
from .training import TrainConfig, Trainer, evaluate
from .vocab import GENRES

EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4


def _write_run_manifest(args, resolved: dict, seed: int):
    """Write run_manifest.json into ``args.out`` as standard JSON: callers
    refuse non-finite numbers first, so a NaN left here fails loudly instead
    of being written. ``args.argv`` is the argument list ``main`` parsed."""
    os.makedirs(args.out, exist_ok=True)
    write_json(os.path.join(args.out, "run_manifest.json"), {"command": args.command, "argv": args.argv, "seed": seed,
                                                             "version": __version__, "resolved_config": resolved})


def _load_train_config(args) -> TrainConfig:
    if args.config:
        cfg = TrainConfig.from_dict(read_json(args.config))
    elif args.preset:
        model = ModelConfig.preset(args.preset,
                                   modalities=args.modalities.split(",") if args.modalities else None,
                                   averaged=args.averaged.split(",") if args.averaged else ())
        cfg = TrainConfig(model=model)
    else:
        raise ConfigError("provide --config JSON or --preset")
    flags = {k: getattr(args, k) for k in ("seed", "epochs", "max_steps", "lr", "batch_size", "eval_interval")}
    return dataclasses.replace(cfg, **{k: v for k, v in flags.items() if v is not None})  # flags win over the file


def _load_split_records(data_dir: str):
    manifest = os.path.join(data_dir, "manifest.json")
    if not os.path.exists(manifest):
        raise DataError(f"no manifest.json under {data_dir}")
    records = load_manifest(manifest)
    kept, stats = filter_by_duration(records)
    if not kept:
        raise DataError("duration filter removed every record")
    return split_records(kept), stats


# -- subcommands -----------------------------------------------------------


def cmd_import(args) -> int:
    summary = import_npy(args.npy_dir, args.manifest, args.out, default_modalities())
    for msg in summary["errors"]:
        print(f"warning: {msg}", file=sys.stderr)
    print(f"imported {summary['imported']} videos, {summary['failed']} failed, "
          f"{summary['dropped_genre_labels']} unknown genre labels dropped")
    if summary["imported"] == 0:
        raise DataError("nothing imported")
    _write_run_manifest(args, {"npy_dir": args.npy_dir, "manifest": args.manifest}, args.seed or 0)
    return 0


def cmd_synth(args) -> int:
    seed = args.seed or 0
    if args.n < 1 or not 0 <= args.noise_std < np.inf:
        raise ConfigError(f"--n must be >= 1 and --noise-std finite and >= 0, got {args.n} and {args.noise_std}")
    if args.kind == "mean":
        records = synth_mean_encoded(args.n, seed, noise_std=args.noise_std)
    elif args.kind == "order":
        records = synth_order_encoded(args.n, seed)
    else:
        raise ConfigError(f"unknown synthetic kind {args.kind!r}")
    os.makedirs(args.out, exist_ok=True)
    for rec in records:
        path = os.path.join(args.out, f"{rec.id}.mmf")
        write_mmf(rec.features, path)
        rec.path = path
    write_manifest(records, os.path.join(args.out, "manifest.json"))
    _write_run_manifest(args, {"kind": args.kind, "n": args.n, "noise_std": args.noise_std}, seed)
    print(f"wrote {len(records)} records to {args.out}")
    return 0


def cmd_train(args) -> int:
    cfg = _load_train_config(args)
    cfg.checkpoint_dir = args.out
    splits, stats = _load_split_records(args.data)
    if args.resume:
        trainer = Trainer.resume(cfg, splits["train"], splits["val"], args.resume)
    else:
        trainer = Trainer(cfg, splits["train"], splits["val"])
    _write_run_manifest(args, cfg.to_dict(), cfg.seed)   # after the build, so a refused run writes nothing
    print(f"architecture={cfg.model.architecture} parameters={trainer.model.parameter_count()}")
    print(f"records: train={len(splits['train'])} val={len(splits['val'])} test={len(splits['test'])} "
          f"(dropped: short={stats.dropped_short} long={stats.dropped_long} "
          f"no-duration={stats.dropped_missing_duration})")
    history = trainer.run()
    write_atomic(os.path.join(args.out, "history.csv"), history.to_csv().encode())
    if splits["val"]:
        report = evaluate(trainer.model, splits["val"])
        print(format_table(report))
    if history.losses:
        print(f"final loss={history.losses[-1][1]:.6f} steps={history.losses[-1][0]}")
    else:
        print("no training step taken")
    return 0


def _load_model(args):
    """The checkpoint's model; ``--threshold``, if given, replaces its
    config's threshold, so the one range check of ModelConfig applies."""
    model = load_checkpoint(args.checkpoint)
    if args.threshold is not None:
        model.config = dataclasses.replace(model.config, threshold=args.threshold)
    return model


def cmd_eval(args) -> int:
    model = _load_model(args)
    splits, _ = _load_split_records(args.data)
    records = splits[args.split]
    if not records:
        raise DataError(f"split {args.split!r} is empty")
    report = evaluate(model, records)
    _write_run_manifest(args, {"checkpoint": args.checkpoint, "split": args.split,
                               "threshold": model.config.threshold}, args.seed or 0)
    write_atomic(os.path.join(args.out, "report.csv"), to_csv(report).encode())
    text = format_table(report)
    write_atomic(os.path.join(args.out, "report.txt"), (text + "\n").encode())
    print(text)
    return 0


def cmd_predict(args) -> int:
    model = _load_model(args)
    record = VideoRecord(id=os.path.basename(args.input), duration_s=None, genres=(), path=args.input)
    probs, decisions = predict(model, record)
    for g, p, d in zip(GENRES, probs, decisions):
        marker = "*" if d else " "
        print(f"{marker} {g:<12} {p:.4f}")
    return 0


ABLATION_ROWS = (
    {"modalities": ("clip",), "averaged": ()},
    {"modalities": ("clip", "musicnet"), "averaged": ()},
    {"modalities": ("clip", "musicnet", "audiotag"), "averaged": ()},
    {"modalities": ("clip", "musicnet", "audiotag", "ocr"), "averaged": ()},
    {"modalities": ("clip", "musicnet", "audiotag", "ocr"), "averaged": ("ocr",)},
    {"modalities": ("clip", "musicnet", "audiotag", "ocr", "asr"), "averaged": ()},
    {"modalities": ("clip", "musicnet", "audiotag", "ocr", "asr"), "averaged": ("ocr", "asr")},
)


def _row_label(row) -> str:
    return "+".join(f"{m}*" if m in row["averaged"] else m for m in row["modalities"])


def _train_eval_once(cfg: TrainConfig, splits) -> float:
    trainer = Trainer(cfg, splits["train"], splits["val"])
    trainer.run()
    report = evaluate(trainer.model, splits["test"] or splits["train"])
    return report.mean_ap


def _run_rows(jobs, threads: int):
    """Run (key, cfg, splits) training jobs, optionally in worker processes.
    Seeds are derived per row either way, so results do not depend on the
    execution mode."""
    if threads <= 1:
        return [(key, _train_eval_once(cfg, splits)) for key, cfg, splits in jobs]
    import concurrent.futures
    with concurrent.futures.ProcessPoolExecutor(max_workers=min(threads, len(jobs))) as pool:
        futures = [(key, pool.submit(_train_eval_once, cfg, splits)) for key, cfg, splits in jobs]
        return [(key, f.result()) for key, f in futures]


def cmd_ablate(args) -> int:
    base = _load_train_config(args)
    splits, _ = _load_split_records(args.data)
    _write_run_manifest(args, base.to_dict(), base.seed)
    configured = {s.name: s for s in base.model.modalities}
    jobs = []
    for i, row in enumerate(ABLATION_ROWS):
        modalities = tuple(dataclasses.replace(configured.get(s.name, s), temporal_average=s.name in row["averaged"])
                           for s in default_modalities(row["modalities"]))
        model_cfg = dataclasses.replace(base.model, modalities=modalities)
        cfg = dataclasses.replace(base, model=model_cfg, seed=derive_seed(base.seed, "ablate", i),
                                  checkpoint_dir=None)
        jobs.append((_row_label(row), cfg, splits))
    rows_out = _run_rows(jobs, args.threads)
    for label, mean_ap in rows_out:
        print(f"{label:<40} mAP={mean_ap * 100:.2f}")
    write_atomic(os.path.join(args.out, "ablation.csv"),
                 ("features,mAP\n" + "".join(f"{label},{mean_ap!r}\n" for label, mean_ap in rows_out)).encode())
    return 0


SWEEP_FRAME_COUNTS = (8, 16, 32, 64, 128, 256)


def _subsample_clip(records, n_frames: int, seed: int):
    """Per-record uniform subsample of clip frames, without replacement,
    temporal order preserved. Records with fewer frames keep them all. The
    new records carry the chosen frame index, not the frames."""
    out = []
    for rec in records:
        clip = rec.get_features().get("clip")
        if clip is None:
            raise DataError(f"record {rec.id} has no clip features")
        rng = SeededRng(derive_seed(seed, "frames", rec.id))
        out.append(dataclasses.replace(rec, clip_frames=rng.subsample_sorted(clip.shape[0], n_frames)))
    return out


def cmd_frames_sweep(args) -> int:
    base = _load_train_config(args)
    splits, _ = _load_split_records(args.data)
    frames = args.frames.split(",") if args.frames else SWEEP_FRAME_COUNTS
    if not all(str(x).strip().isdecimal() and int(x) >= 1 for x in frames):
        raise ConfigError(f"--frames must be comma-separated integers >= 1, got {args.frames!r}")
    frame_counts = tuple(int(x) for x in frames)
    if "clip" not in {s.name for s in base.model.modalities}:
        raise ConfigError("frames-sweep needs the clip modality enabled")
    _write_run_manifest(args, {**base.to_dict(), "frames": list(frame_counts)}, base.seed)
    jobs = []
    for n_frames in frame_counts:
        sub = {k: _subsample_clip(v, n_frames, derive_seed(base.seed, "sweep", n_frames)) for k, v in splits.items()}
        for arch in ("mlp", "single_transformer"):
            model_cfg = dataclasses.replace(
                base.model, architecture=arch,
                modalities=tuple(s for s in base.model.modalities if s.name == "clip"))
            cfg = dataclasses.replace(base, model=model_cfg,
                                      seed=derive_seed(base.seed, "sweep-row", n_frames, arch),
                                      checkpoint_dir=None)
            jobs.append(((n_frames, arch), cfg, sub))
    rows = [(key[0], key[1], mean_ap) for key, mean_ap in _run_rows(jobs, args.threads)]
    for n_frames, arch, mean_ap in rows:
        print(f"n={n_frames:<4} {arch:<20} mAP={mean_ap * 100:.2f}")
    write_atomic(os.path.join(args.out, "frames_sweep.csv"),
                 ("frames,model,mAP\n" + "".join(f"{n},{arch},{mean_ap!r}\n" for n, arch, mean_ap in rows)).encode())
    return 0


# -- argument parsing --------------------------------------------------------


def _add_train_args(p: argparse.ArgumentParser):
    p.add_argument("--config", help="TrainConfig JSON file")
    p.add_argument("--preset", choices=ARCHITECTURES)
    p.add_argument("--modalities", help="comma-separated subset, e.g. clip,ocr")
    p.add_argument("--averaged", help="comma-separated temporally averaged modalities")
    p.add_argument("--epochs", type=int)
    p.add_argument("--max-steps", type=int, dest="max_steps")
    p.add_argument("--lr", type=float)
    p.add_argument("--batch-size", type=int, dest="batch_size")
    p.add_argument("--eval-interval", type=int, dest="eval_interval")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="genreclf",
                                     description="Multimodal trailer genre classification")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--threads", type=int, default=1,
                        help="worker processes for ablate / frames-sweep rows")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("import", help="convert NPY feature arrays to .mmf")
    p.add_argument("--npy-dir", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("synth", help="generate a synthetic dataset")
    p.add_argument("--kind", choices=("mean", "order"), required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--noise-std", type=float, default=0.1, dest="noise_std")
    p.add_argument("--out", required=True)

    p = sub.add_parser("train", help="train a model")
    _add_train_args(p)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--resume", metavar="DIR",
                   help="continue the run whose last checkpoint and trainer_state are in DIR")

    p = sub.add_parser("eval", help="evaluate a checkpoint")
    p.add_argument("--checkpoint", required=True, help="checkpoint stem (no extension)")
    p.add_argument("--data", required=True)
    p.add_argument("--split", choices=("train", "val", "test"), default="test")
    p.add_argument("--threshold", type=float, default=None, help="decision threshold (default: the checkpoint's)")
    p.add_argument("--out", required=True)

    p = sub.add_parser("predict", help="score a single .mmf file")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--threshold", type=float, default=None)

    p = sub.add_parser("ablate", help="feature-set ablation table")
    _add_train_args(p)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("frames-sweep", help="frame count vs mAP sweep on clip features")
    _add_train_args(p)
    p.add_argument("--data", required=True)
    p.add_argument("--frames", help="comma-separated frame counts (default 8,16,32,64,128,256)")
    p.add_argument("--out", required=True)
    return parser


_HANDLERS = {
    "import": cmd_import,
    "synth": cmd_synth,
    "train": cmd_train,
    "eval": cmd_eval,
    "predict": cmd_predict,
    "ablate": cmd_ablate,
    "frames-sweep": cmd_frames_sweep,
}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser().parse_args(argv)
    args.argv = argv
    try:
        return _HANDLERS[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (DataError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
