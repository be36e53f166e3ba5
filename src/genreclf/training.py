"""Weighted multi-label training loop with deterministic shuffling,
validation-driven checkpointing and bit-exact resume."""

import csv
import io
import math
import os
from dataclasses import asdict, dataclass, field

import numpy as np

from . import autograd as ag
from .autograd import Tensor
from .checkpoint import read_blob, read_checkpoint, save_checkpoint, write_blob
from .data import make_batch
from .errors import (ConfigError, DataError, NumericError, config_field, config_fields, is_kind, reading,
                     refuse_unless)
from .metrics import MetricsReport, compute_report, report_from_csv, to_csv
from .mmf import read_json, write_json
from .models import ModelConfig, build_model, predict_scores
from .optim import Adam, clip_global_norm
from .rng import SeededRng, derive_seed
from .vocab import NUM_GENRES, label_vector

TRAINER_STATE_VERSION = 3
EVAL_BATCH = 32   # records per scoring forward in ``evaluate`` when no stream is padded: the paper's batch size


def weighted_bce(logits: Tensor, targets: np.ndarray, positive_weight: float) -> Tensor:
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
        return config_fields(cls, d, "config", model=ModelConfig.from_dict(config_field(d, "model", dict)))

    def __post_init__(self):
        """Refuse settings the loop cannot run with (lr 0 and max_steps 0 run)."""
        refuse_unless("config", ("batch_size", self.batch_size, self.batch_size >= 1, ">= 1"),
                      ("epochs", self.epochs, self.epochs >= 0, ">= 0"),
                      ("max_steps", self.max_steps, self.max_steps is None or self.max_steps >= 0, ">= 0 or null"),
                      ("eval_interval", self.eval_interval, self.eval_interval >= 0, ">= 0"),
                      ("lr", self.lr, 0 <= self.lr < math.inf, "finite and >= 0"),
                      ("clip_norm", self.clip_norm, 0 < self.clip_norm < math.inf, "finite and > 0"))


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


def _is_report_csv(text) -> bool:
    try:
        return isinstance(text, str) and isinstance(report_from_csv(text), MetricsReport)
    except ValueError:
        return False


@dataclass
class TrainerState:
    """``trainer_state.json``: the loop's position, the Adam step count and
    the moments' manifest in ``trainer_state.bin``, the dropout RNG, the
    history so far and the SHA-256 of each blob at save. ``save_state``
    builds it and ``Trainer.resume`` reads it through ``config_fields``; a
    field missing, of another kind or out of its range is a ConfigError."""
    version: int
    global_step: int
    epoch: int
    step_in_epoch: int
    adam_t: int
    adam_manifest: list
    dropout_rng: dict   # SeededRng.state()
    best_step: int
    best_map: float | None   # None before the first validation: standard JSON has no -inf
    losses: list   # [step, loss] pairs
    evals: list   # [step, metrics.to_csv(report)] pairs, one per validation
    sha256: dict   # {"last.bin": hex digest, "trainer_state.bin": hex digest}

    def __post_init__(self):
        def count(value, end=2**63):
            return is_kind(value, int) and 0 <= value < end

        def pairs(value, second):   # [count, x] pairs with second(x) true
            return all(isinstance(p, (list, tuple)) and len(p) == 2 and count(p[0]) and second(p[1]) for p in value)

        refuse_unless("trainer state", *((name, getattr(self, name), ok, what) for name, ok, what in (
            ("version", self.version == TRAINER_STATE_VERSION, str(TRAINER_STATE_VERSION)),
            *((name, count(getattr(self, name)), "an integer in [0, 2**63)")
              for name in ("global_step", "epoch", "step_in_epoch", "adam_t")),
            ("dropout_rng", all(count(self.dropout_rng.get(k), 2**64) for k in ("seed", "counter")),
             "{seed: integer in [0, 2**64), counter: integer in [0, 2**64)}"),
            ("losses", pairs(self.losses, lambda loss: is_kind(loss, float)), "a list of [step, loss] pairs"),
            ("evals", pairs(self.evals, _is_report_csv), "a list of [step, report CSV] pairs"),
            ("sha256", all(isinstance(self.sha256.get(k), str) for k in ("last.bin", "trainer_state.bin")),
             "{last.bin: string, trainer_state.bin: string}"))))


def _eval_bucket(config: ModelConfig) -> int:
    """Records per scoring forward in ``evaluate``: EVAL_BATCH when the model
    reads no token stream (the mlp, or every stream averaged), else one: a
    bucket of 32 packed token streams was no faster and peaked at 4x the
    memory (553 vs 137 MB, single_transformer preset, capped records)."""
    if config.architecture == "mlp" or all(s.temporal_average for s in config.modalities):
        return EVAL_BATCH
    return 1


def evaluate(model, records) -> MetricsReport:
    """Score records at full duration and build a MetricsReport at the
    model config's threshold. Leaves model parameters untouched.

    Consecutive buckets of ``_eval_bucket`` records are scored with one
    batch and one forward each. Float64 scores equal one-record scores bit
    for bit; float32 scores may differ from them in the last bits.
    """
    if not records:
        raise DataError("evaluate needs at least one record")
    specs = model.config.modalities
    size = _eval_bucket(model.config)
    scores = np.zeros((len(records), NUM_GENRES), dtype=np.float64)
    for start in range(0, len(records), size):
        scores[start:start + size] = predict_scores(model, make_batch(records[start:start + size], specs,
                                                                      lengths="full"))
    targets = np.stack([label_vector(r.genres) for r in records])
    return compute_report(scores, targets, model.config.threshold)


class Trainer:
    """Seeded minibatch loop: forward, weighted BCE, backward, global-norm
    clip, Adam. Epoch order comes from a per-epoch seed derived from
    (config seed, epoch index); the final short minibatch is kept.

    ``memos`` holds one dict per training record, which its training batches
    carry as ``Batch.memos``: the mean of each stream the model averages is
    computed once per Trainer, not once per epoch, and kept as 4 * input_dim
    bytes under the stream's name: the mean of the head its batches cut.
    A batch reads its records only when the model reads their rows, so an
    mlp Trainer reads each training file in epoch 1 alone, and misses one
    that changes or vanishes later. A resumed Trainer starts with empty memos.
    Scoring batches carry none, so scoring keeps nothing between batches."""

    def __init__(self, config: TrainConfig, train_records, val_records=()):
        self._setup(config, train_records, val_records, config.seed)

    def _setup(self, config: TrainConfig, train_records, val_records, init_seed: int | None):
        """``__init__`` with the model built from ``init_seed``; None draws no weight."""
        self.config = config
        self.train_records = list(train_records)
        self.val_records = list(val_records)
        if not self.train_records:
            raise DataError("no training records")
        self.model = build_model(config.model, seed=init_seed)
        self.adam = Adam(self.model.params, lr=config.lr)
        self.dropout_rng = SeededRng(derive_seed(config.seed, "dropout"))
        self.memos = [{} for _ in self.train_records]
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
        try:   # a forward that raises, reading a bad record for one, leaves no node on the tape
            logits = model.forward(batch, train=True, rng=self.dropout_rng)
            loss = weighted_bce(logits, batch.labels, model.config.positive_weight)
            loss_val = loss.item()
            if not np.isfinite(loss_val):
                raise NumericError(f"non-finite loss {loss_val} at step {self.global_step} on batch ids {[r.id for r in batch.records]}")
        except BaseException:
            ag.clear_tape()
            raise
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
                picked = order[lo:lo + bs]
                recs = [self.train_records[j] for j in picked]
                batch = make_batch(recs, cfg.model.modalities, lengths="train")
                batch.memos = [self.memos[j] for j in picked]
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
        h = self.history   # the state is checked as it is built, before any file is written
        state = TrainerState(TRAINER_STATE_VERSION, self.global_step, self.epoch, self.step_in_epoch, self.adam.t,
                             [], self.dropout_rng.state(), h.best_step,
                             h.best_map if math.isfinite(h.best_map) else None, h.losses,
                             [(step, to_csv(report)) for step, report in h.evals],
                             {"last.bin": "", "trainer_state.bin": ""})
        os.makedirs(out_dir, exist_ok=True)
        state.sha256["last.bin"] = save_checkpoint(self.model, os.path.join(out_dir, "last"))
        state.adam_manifest, state.sha256["trainer_state.bin"] = write_blob(
            os.path.join(out_dir, "trainer_state.bin"), self.adam.state_arrays())
        write_json(os.path.join(out_dir, "trainer_state.json"), asdict(state))

    @classmethod
    def resume(cls, config: TrainConfig, train_records, val_records, state_dir: str) -> "Trainer":
        """Continue the run saved in ``state_dir``. ``config.model`` must be
        the model config of the saved ``last`` checkpoint."""
        path = os.path.join(state_dir, "trainer_state.json")
        with reading(path):
            state = config_fields(TrainerState, read_json(path), "trainer state")
        saved_model, arrays = read_checkpoint(os.path.join(state_dir, "last"), state.sha256["last.bin"])
        if saved_model != config.model:
            raise ConfigError(f"{state_dir}: the saved model config differs from this run's model config")
        t = cls.__new__(cls)
        t._setup(config, train_records, val_records, None)   # every weight is loaded below
        moments = read_blob(os.path.join(state_dir, "trainer_state.bin"), state.adam_manifest,
                            state.sha256["trainer_state.bin"])
        if not all(name[0] == "m" or (a >= 0).all() for name, a in moments.items()):
            raise DataError(f"{state_dir}: a second Adam moment is negative")
        t.model.params.load_arrays(arrays)
        t.adam.load_state_arrays(moments, state.adam_t)
        t.dropout_rng = SeededRng.from_state(state.dropout_rng)
        t.global_step, t.epoch, t.step_in_epoch = state.global_step, state.epoch, state.step_in_epoch
        t.history = TrainHistory([(step, float(loss)) for step, loss in state.losses],
                                 [(step, report_from_csv(text)) for step, text in state.evals],
                                 state.best_step, -math.inf if state.best_map is None else state.best_map)
        return t


def train(config: TrainConfig, train_records, val_records=()):
    """Convenience wrapper: build a Trainer, run it, return (model, history)."""
    trainer = Trainer(config, train_records, val_records)
    history = trainer.run()
    return trainer.model, history
