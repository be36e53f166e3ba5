"""Weighted multi-label training loop with deterministic shuffling,
validation-driven checkpointing and bit-exact resume."""

import csv
import io
import json
import math
import os
from dataclasses import asdict, dataclass, field

import numpy as np

from . import autograd as ag
from .autograd import Tensor
from .checkpoint import read_blob, read_checkpoint, save_checkpoint, write_blob
from .data import make_batch
from .errors import ConfigError, DataError, NumericError, config_field
from .metrics import MetricsReport, compute_report
from .mmf import read_json, write_atomic
from .models import ModelConfig, build_model, predict_scores
from .optim import Adam, clip_global_norm
from .rng import SeededRng, derive_seed
from .vocab import NUM_GENRES, label_vector

TRAINER_STATE_VERSION = 2
EVAL_BATCH = 32   # records per scoring forward in ``evaluate`` when no stream is padded: the paper's batch size


def weighted_bce(logits: Tensor, targets: np.ndarray, positive_weight: float = 1.0) -> Tensor:
    """Per sample, -(1/C) * sum_c [ w * y_c * log p_c + (1 - y_c) * log(1 - p_c) ]
    with p = sigmoid(logit), averaged over the batch.

    Computed from logits via softplus so extreme values stay finite:
    the summand equals w * y * softplus(-z) + (1 - y) * softplus(z).
    """
    t = np.asarray(targets)
    if t.shape != logits.shape:
        raise ValueError(f"targets shape {t.shape} != logits shape {logits.shape}")
    if not np.isin(t, (0, 1)).all():
        raise ValueError("targets must be 0 or 1")
    t = t.astype(logits.dtype)
    pos = ag.mul(ag.softplus(ag.mul(logits, -1.0)), t * np.asarray(positive_weight, dtype=logits.dtype))
    neg = ag.mul(ag.softplus(logits), 1.0 - t)
    return ag.tmean(ag.add(pos, neg))


@dataclass
class TrainConfig:
    model: ModelConfig
    lr: float = 1e-5
    batch_size: int = 32
    clip_norm: float = 1.0
    epochs: int = 1
    max_steps: int | None = None
    eval_interval: int = 0          # validation every N steps; 0 disables
    seed: int = 0
    checkpoint_dir: str | None = None

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "TrainConfig":
        return cls(
            model=ModelConfig.from_dict(config_field(d, "model", dict)),
            lr=config_field(d, "lr", float, 1e-5),
            batch_size=config_field(d, "batch_size", int, 32),
            clip_norm=config_field(d, "clip_norm", float, 1.0),
            epochs=config_field(d, "epochs", int, 1),
            max_steps=config_field(d, "max_steps", int, None),
            eval_interval=config_field(d, "eval_interval", int, 0),
            seed=config_field(d, "seed", int, 0),
            checkpoint_dir=config_field(d, "checkpoint_dir", str, None),
        )

    def check(self):
        """Refuse settings the loop cannot run with (lr 0 and max_steps 0 run)."""
        for name, ok, what in (("batch_size", self.batch_size >= 1, ">= 1"), ("epochs", self.epochs >= 0, ">= 0"),
                               ("max_steps", self.max_steps is None or self.max_steps >= 0, ">= 0 or null"),
                               ("eval_interval", self.eval_interval >= 0, ">= 0"),
                               ("lr", 0 <= self.lr < math.inf, "finite and >= 0"),
                               ("clip_norm", 0 < self.clip_norm < math.inf, "finite and > 0")):
            if not ok:
                raise ConfigError(f"{name} must be {what}, got {getattr(self, name)!r}")


@dataclass
class TrainHistory:
    losses: list[tuple[int, float]] = field(default_factory=list)
    evals: list[tuple[int, MetricsReport]] = field(default_factory=list)
    best_step: int = -1
    best_map: float = float("-inf")

    def to_csv(self) -> str:
        buf = io.StringIO()
        w = csv.writer(buf)
        w.writerow(["step", "loss", "val_mAP", "val_P", "val_R"])
        by_step = {s: r for s, r in self.evals}
        for step, loss in self.losses:
            r = by_step.get(step)
            if r is None:
                w.writerow([step, repr(loss), "", "", ""])
            else:
                w.writerow([step, repr(loss), repr(r.mean_ap), repr(r.macro_precision), repr(r.macro_recall)])
        return buf.getvalue()


def _eval_bucket(config: ModelConfig) -> int:
    """Records per scoring forward in ``evaluate``: EVAL_BATCH when the model
    reads no token stream (the mlp, or every stream averaged), else one: a
    bucket of 32 packed token streams was no faster and peaked at 4x the
    memory (553 vs 137 MB, single_transformer preset, capped records)."""
    if config.architecture == "mlp" or all(s.temporal_average for s in config.modalities):
        return EVAL_BATCH
    return 1


def evaluate(model, records, threshold: float = None) -> MetricsReport:
    """Score records at full duration and build a MetricsReport. Leaves
    model parameters untouched.

    Consecutive buckets of ``_eval_bucket`` records are scored with one
    batch and one forward each. Float64 scores equal one-record scores bit
    for bit; float32 scores may differ from them in the last bits.
    """
    if not records:
        raise DataError("evaluate needs at least one record")
    if threshold is None:
        threshold = model.config.threshold
    specs = model.config.modalities
    size = _eval_bucket(model.config)
    scores = np.zeros((len(records), NUM_GENRES), dtype=np.float64)
    for start in range(0, len(records), size):
        scores[start:start + size] = predict_scores(model, make_batch(records[start:start + size], specs,
                                                                      lengths="full"))
    targets = np.stack([label_vector(r.genres) for r in records])
    return compute_report(scores, targets, threshold)


class Trainer:
    """Seeded minibatch loop: forward, weighted BCE, backward, global-norm
    clip, Adam. Epoch order comes from a per-epoch seed derived from
    (config seed, epoch index); the final short minibatch is kept."""

    def __init__(self, config: TrainConfig, train_records, val_records=()):
        config.check()
        self.config = config
        self.train_records = list(train_records)
        self.val_records = list(val_records)
        if not self.train_records:
            raise DataError("no training records")
        self.model = build_model(config.model, seed=config.seed)
        self.adam = Adam(self.model.params, lr=config.lr)
        self.dropout_rng = SeededRng(derive_seed(config.seed, "dropout"))
        self.history = TrainHistory()
        self.global_step = 0
        self.epoch = 0
        self.step_in_epoch = 0

    # -- determinism plumbing -------------------------------------------
    def _epoch_order(self, epoch: int) -> np.ndarray:
        return SeededRng(derive_seed(self.config.seed, "shuffle", epoch)).permutation(len(self.train_records))

    def _step_budget_left(self) -> bool:
        return self.config.max_steps is None or self.global_step < self.config.max_steps

    # -- core -------------------------------------------------------------
    def _train_step(self, batch):
        model = self.model
        logits = model.forward(batch, train=True, rng=self.dropout_rng)
        loss = weighted_bce(logits, batch.labels, model.config.positive_weight)
        loss_val = loss.item()
        if not np.isfinite(loss_val):
            ag.clear_tape()
            raise NumericError(f"non-finite loss {loss_val} at step {self.global_step} on batch ids {batch.ids}")
        model.params.zero_grad()
        ag.backward(loss)
        clip_global_norm([p.grad for p in model.params.tensors()], self.config.clip_norm)
        self.adam.step()
        return loss_val

    def _maybe_eval(self):
        cfg = self.config
        if cfg.eval_interval and self.val_records and self.global_step % cfg.eval_interval == 0:
            report = evaluate(self.model, self.val_records)
            self.history.evals.append((self.global_step, report))
            if report.mean_ap > self.history.best_map:
                self.history.best_map = report.mean_ap
                self.history.best_step = self.global_step
                if cfg.checkpoint_dir:
                    save_checkpoint(self.model, os.path.join(cfg.checkpoint_dir, "best"))

    def run(self) -> TrainHistory:
        cfg = self.config
        bs = cfg.batch_size
        n = len(self.train_records)
        while self.epoch < cfg.epochs and self._step_budget_left():
            order = self._epoch_order(self.epoch)
            starts = list(range(0, n, bs))
            while self.step_in_epoch < len(starts) and self._step_budget_left():
                lo = starts[self.step_in_epoch]
                recs = [self.train_records[j] for j in order[lo:lo + bs]]
                batch = make_batch(recs, cfg.model.modalities, lengths="train")
                loss = self._train_step(batch)
                self.global_step += 1
                self.step_in_epoch += 1
                self.history.losses.append((self.global_step, loss))
                self._maybe_eval()
            if self.step_in_epoch >= len(starts):
                self.step_in_epoch = 0
                self.epoch += 1
        if self.history.best_step < 0:
            # no validation ran: the final parameters are the ones retained
            self.history.best_step = self.global_step
            if cfg.checkpoint_dir:
                save_checkpoint(self.model, os.path.join(cfg.checkpoint_dir, "best"))
        if cfg.checkpoint_dir:
            self.save_state(cfg.checkpoint_dir)
        return self.history

    # -- resume -----------------------------------------------------------
    def save_state(self, out_dir: str):
        os.makedirs(out_dir, exist_ok=True)
        last_digest = save_checkpoint(self.model, os.path.join(out_dir, "last"))
        manifest, state_digest = write_blob(os.path.join(out_dir, "trainer_state.bin"), self.adam.state_arrays())
        state = {
            "version": TRAINER_STATE_VERSION,
            "global_step": self.global_step,
            "epoch": self.epoch,
            "step_in_epoch": self.step_in_epoch,
            "adam_t": self.adam.t,
            "adam_manifest": manifest,
            "dropout_rng": self.dropout_rng.state(),
            "best_step": self.history.best_step,
            # -inf (no validation yet) is stored as null: standard JSON has no infinities
            "best_map": self.history.best_map if np.isfinite(self.history.best_map) else None,
            "losses": self.history.losses,
            "sha256": {"last.bin": last_digest, "trainer_state.bin": state_digest},
        }
        write_atomic(os.path.join(out_dir, "trainer_state.json"), json.dumps(state, allow_nan=False).encode())

    @classmethod
    def resume(cls, config: TrainConfig, train_records, val_records, state_dir: str) -> "Trainer":
        """Continue the run saved in ``state_dir``. ``config.model`` must be
        the model config of the saved ``last`` checkpoint."""
        path = os.path.join(state_dir, "trainer_state.json")
        state = read_json(path)
        if not isinstance(state, dict):
            raise DataError(f"{path}: the trainer state is not a JSON object")
        if state.get("version") != TRAINER_STATE_VERSION:
            raise DataError(f"unsupported trainer state version {state.get('version')}")
        _check_state_fields(state, path)
        saved_model, arrays = read_checkpoint(os.path.join(state_dir, "last"), state["sha256"]["last.bin"])
        if saved_model != config.model:
            raise ConfigError(f"{state_dir}: the saved model config differs from this run's model config")
        t = cls(config, train_records, val_records)
        moments = read_blob(os.path.join(state_dir, "trainer_state.bin"), state["adam_manifest"],
                            state["sha256"]["trainer_state.bin"])
        t.model.params.load_arrays(arrays)
        t.adam.load_state_arrays(moments, state["adam_t"])
        t.dropout_rng = SeededRng.from_state(state["dropout_rng"])
        t.global_step = state["global_step"]
        t.epoch = state["epoch"]
        t.step_in_epoch = state["step_in_epoch"]
        t.history.best_step = state["best_step"]
        t.history.best_map = float("-inf") if state["best_map"] is None else state["best_map"]
        t.history.losses = [tuple(x) for x in state["losses"]]
        return t


def _is_count(v) -> bool:
    return type(v) is int and v >= 0


def _is_number(v) -> bool:
    return type(v) in (int, float)


# trainer_state.json field -> (check, what it must be)
_STATE_FIELDS = {
    "global_step": (_is_count, "an integer >= 0"),
    "epoch": (_is_count, "an integer >= 0"),
    "step_in_epoch": (_is_count, "an integer >= 0"),
    "adam_t": (_is_count, "an integer >= 0"),
    "adam_manifest": (lambda v: isinstance(v, list), "a list"),
    "dropout_rng": (lambda v: isinstance(v, dict) and all(_is_count(v.get(k)) for k in ("seed", "counter")),
                    "{seed: integer >= 0, counter: integer >= 0}"),
    "best_step": (lambda v: type(v) is int, "an integer"),
    "best_map": (lambda v: v is None or _is_number(v), "a number or null"),
    "losses": (lambda v: isinstance(v, list) and all(
        isinstance(x, list) and len(x) == 2 and _is_count(x[0]) and _is_number(x[1]) for x in v),
        "a list of [step, loss] pairs"),
    "sha256": (lambda v: isinstance(v, dict) and all(isinstance(v.get(k), str)
                                                     for k in ("last.bin", "trainer_state.bin")),
               "{last.bin: string, trainer_state.bin: string}"),
}


def _check_state_fields(state: dict, path: str):
    for name, (ok, what) in _STATE_FIELDS.items():
        if name not in state:
            raise DataError(f"{path}: field {name!r} is missing")
        if not ok(state[name]):
            raise DataError(f"{path}: field {name!r} must be {what}, got {state[name]!r:.80}")


def train(config: TrainConfig, train_records, val_records=()):
    """Convenience wrapper: build a Trainer, run it, return (model, history)."""
    trainer = Trainer(config, train_records, val_records)
    history = trainer.run()
    return trainer.model, history
