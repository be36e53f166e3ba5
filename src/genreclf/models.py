"""The three classifier architectures sharing one interface: per-modality
feature sequences in, 21 genre logits out.

* MLP: temporal mean per modality, channel concat, one hidden layer.
* Single-transformer: every modality projected to a common width, given its
  own learned positions and SEP marker, fused into one sequence behind a
  learned CLS vector, encoded, classified from the CLS output.
* Multi-transformer: one small encoder per modality with its own CLS;
  the per-modality CLS outputs are concatenated channel-wise. Streams
  flagged for temporal averaging skip their encoder and contribute their
  averaged, projected vector directly.

The heads read only the CLS row of the last encoder layer, so that layer
computes that row alone (``cls_only``), with keys and values from every token;
``num_layers`` >= 1, so every encoder stack ends in one. Each sample's tokens
are packed rows of one (N, D) matrix and attend over their own sample alone,
so nothing is computed on padding.

The batch cuts a stream (to its ``train_max_len`` in training, not at all at
scoring) and every model averages exactly the rows the batch holds; only token
streams are cut again, to their positional tables.
"""

from dataclasses import asdict, dataclass, field

import numpy as np

from . import autograd as ag
from .autograd import Tensor, no_grad
from .data import Batch, make_batch, temporal_average  # noqa: F401  (perfbench traces models.temporal_average)
from .errors import ConfigError, DataError, NumericError, config_field, config_fields, refuse_unless
from .modalities import ModalitySpec, default_modalities
from .nn import Linear, ParameterStore, Segments, TransformerEncoderLayer, init_embedding
from .rng import SeededRng, derive_seed
from .vocab import NUM_GENRES

PRESETS = {
    "mlp": {"model_dim": 256, "num_layers": 1, "num_heads": 1},
    "single_transformer": {"model_dim": 256, "num_layers": 2, "num_heads": 8},
    "multi_transformer": {"model_dim": 128, "num_layers": 1, "num_heads": 8},
}
ARCHITECTURES = tuple(PRESETS)


@dataclass(frozen=True)
class ModelConfig:
    architecture: str
    model_dim: int
    num_layers: int
    num_heads: int
    dropout_rate: float = 0.5
    modalities: tuple[ModalitySpec, ...] = field(default_factory=default_modalities)
    positive_weight: float = 0.25
    threshold: float = 0.5

    def __post_init__(self):
        names = [s.name for s in self.modalities]
        refuse_unless("model",
                      ("architecture", self.architecture, self.architecture in PRESETS, f"one of {', '.join(PRESETS)}"),
                      *((key, getattr(self, key), getattr(self, key) >= 1, ">= 1")
                        for key in ("model_dim", "num_layers", "num_heads")),
                      ("dropout_rate", self.dropout_rate, 0 <= self.dropout_rate < 1, "in [0, 1)"),
                      ("threshold", self.threshold, 0 <= self.threshold <= 1, "in [0, 1]"),
                      ("positive_weight", self.positive_weight, 0 < self.positive_weight < np.inf, "finite and > 0"),
                      ("num_heads", self.num_heads, self.architecture == "mlp" or self.num_heads < 1
                       or self.model_dim % self.num_heads == 0, f"a divisor of model_dim {self.model_dim}"),
                      ("modalities", names, len(set(names)) == len(names) >= 1, "a non-empty list with distinct names"))

    @classmethod
    def preset(cls, architecture: str, modalities=None, averaged=(), **overrides) -> "ModelConfig":
        refuse_unless("model", ("architecture", architecture, architecture in PRESETS, f"one of {', '.join(PRESETS)}"))
        kw = dict(PRESETS[architecture])
        kw["modalities"] = default_modalities(modalities, averaged)
        kw.update(overrides)
        return cls(architecture=architecture, **kw)

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        modalities = config_field(d, "modalities", list, where="model")
        return config_fields(cls, d, "model", modalities=tuple(ModalitySpec.from_dict(m) for m in modalities))


def _check_modality(batch: Batch, spec: ModalitySpec):
    width = {s.name: s.input_dim for s in batch.specs}.get(spec.name)
    if width is None:
        raise DataError(f"batch is missing modality {spec.name!r}")
    if width != spec.input_dim:
        raise DataError(f"modality {spec.name}: batch width {width} incompatible with input_dim {spec.input_dim}")


class _Model:
    def __init__(self, config: ModelConfig, seed: int | None, dtype=np.float32):
        self.config = config
        self.params = ParameterStore(dtype=dtype)
        self._build(None if seed is None else SeededRng(derive_seed(seed, "init")))

    def parameter_count(self) -> int:
        return self.params.total_parameter_count()

    def forward(self, batch: Batch, train: bool = False, rng: SeededRng = None) -> Tensor:
        raise NotImplementedError


class _TransformerModel(_Model):
    def _encoder(self, prefix: str, rng: SeededRng) -> list:
        """One encoder stack: ``num_layers`` layers ``<prefix>.<i>``, the last of them ``cls_only``."""
        cfg = self.config
        return [TransformerEncoderLayer(self.params, f"{prefix}.{i}", cfg.model_dim, cfg.num_heads,
                                        cfg.dropout_rate, rng, cls_only=i == cfg.num_layers - 1)
                for i in range(cfg.num_layers)]

    def _pack(self, batch: Batch, parts):
        """Each sample's sequence as packed rows: per (marker, spec) of ``parts``
        that marker, then (unless spec is None) the stream's head cut to its
        table, projected in one GEMM for all samples, plus pos[:L_i]; an averaged
        stream is one token per non-empty head, its uncut mean. -> (x (N, D), Segments)"""
        b, first = batch.size, len(parts)
        blocks = [ag.concat([ag.reshape(self.params[m], (1, -1)) for m, _ in parts], axis=0)]
        index, valid = [], []
        for j, (_, spec) in enumerate(parts):
            index.append(np.full((b, 1), j))
            valid.append(np.ones((b, 1), dtype=bool))
            if spec is None:
                continue
            _check_modality(batch, spec)
            if spec.temporal_average:
                lengths = np.array([min(len(h), 1) for h in batch.heads[spec.name]], dtype=np.int64)
                x, width = batch.means(spec.name)[lengths > 0], 1
            else:
                heads = [h[:spec.train_max_len] for h in batch.heads[spec.name]]
                lengths = np.array([len(h) for h in heads], dtype=np.int64)
                x, width = np.concatenate(heads), spec.train_max_len
            starts = np.cumsum(lengths) - lengths
            pos = ag.take(self.params[f"pos.{spec.name}"], np.arange(len(x)) - np.repeat(starts, lengths))
            blocks.append(ag.add(self.proj[spec.name](Tensor(x)), pos))
            index.append((first + starts)[:, None] + np.arange(width))
            valid.append(np.arange(width) < lengths[:, None])
            first += len(x)
        seg = Segments(np.concatenate(valid, axis=1))
        return ag.take(ag.concat(blocks, axis=0), np.concatenate(index, axis=1).reshape(-1)[seg.rows]), seg

    @staticmethod
    def _encode(layers, x: Tensor, seg: Segments, train: bool, rng: SeededRng) -> Tensor:
        """Each sample's CLS row after ``layers``, the last of which computes only those. (B, D)"""
        for layer in layers:
            x = layer(x, seg, train, rng)
        return ag.take(x, seg.rank)


class MlpModel(_Model):
    """Temporal averaging front end plus a one-hidden-layer classifier."""

    def _build(self, rng: SeededRng):
        total = sum(s.input_dim for s in self.config.modalities)
        self.hidden = Linear(self.params, "hidden", total, self.config.model_dim, rng)
        self.head = Linear(self.params, "head", self.config.model_dim, NUM_GENRES, rng)

    def forward(self, batch: Batch, train: bool = False, rng: SeededRng = None) -> Tensor:
        cols = []
        for spec in self.config.modalities:
            _check_modality(batch, spec)
            cols.append(batch.means(spec.name))
        h = ag.relu(self.hidden(Tensor(np.concatenate(cols, axis=1))))
        h = ag.dropout(h, self.config.dropout_rate, train, rng)
        return self.head(h)


class SingleTransformerModel(_TransformerModel):
    """One fused sequence: [CLS, SEP_m, frames_m, SEP_m', frames_m', ...]."""

    def _build(self, rng: SeededRng):
        cfg = self.config
        self.proj = {}
        for spec in cfg.modalities:
            self.proj[spec.name] = Linear(self.params, f"proj.{spec.name}", spec.input_dim, cfg.model_dim, rng)
            self.params.add(f"pos.{spec.name}", init_embedding(rng, (spec.train_max_len, cfg.model_dim)))
            self.params.add(f"sep.{spec.name}", init_embedding(rng, (cfg.model_dim,)))
        self.params.add("cls", init_embedding(rng, (cfg.model_dim,)))
        self.layers = self._encoder("enc", rng)
        self.head = Linear(self.params, "head", cfg.model_dim, NUM_GENRES, rng)

    def _assemble(self, batch: Batch):
        """Every sample's fused sequence as packed rows. -> (x, Segments)"""
        return self._pack(batch, [("cls", None)] + [(f"sep.{spec.name}", spec) for spec in self.config.modalities])

    def forward(self, batch: Batch, train: bool = False, rng: SeededRng = None) -> Tensor:
        x, seg = self._assemble(batch)
        return self.head(self._encode(self.layers, x, seg, train, rng))


class MultiTransformerModel(_TransformerModel):
    """Per-modality encoders whose CLS outputs are concatenated channel-wise.
    Averaged streams contribute their projected mean vector directly."""

    def _build(self, rng: SeededRng):
        cfg = self.config
        self.proj = {}
        self.encoders = {}
        for spec in cfg.modalities:
            self.proj[spec.name] = Linear(self.params, f"proj.{spec.name}", spec.input_dim, cfg.model_dim, rng)
            if not spec.temporal_average:
                self.params.add(f"pos.{spec.name}", init_embedding(rng, (spec.train_max_len, cfg.model_dim)))
                self.params.add(f"cls.{spec.name}", init_embedding(rng, (cfg.model_dim,)))
                self.encoders[spec.name] = self._encoder(f"enc.{spec.name}", rng)
        self.head = Linear(self.params, "head", cfg.model_dim * len(cfg.modalities), NUM_GENRES, rng)

    def forward(self, batch: Batch, train: bool = False, rng: SeededRng = None) -> Tensor:
        cols = []
        for spec in self.config.modalities:
            if spec.temporal_average:
                _check_modality(batch, spec)
                cols.append(self.proj[spec.name](Tensor(batch.means(spec.name))))
                continue
            x, seg = self._pack(batch, [(f"cls.{spec.name}", spec)])
            cols.append(self._encode(self.encoders[spec.name], x, seg, train, rng))
        return self.head(ag.concat(cols, axis=1))


_MODEL_CLASSES = {
    "mlp": MlpModel,
    "single_transformer": SingleTransformerModel,
    "multi_transformer": MultiTransformerModel,
}


def build_model(config: ModelConfig, seed: int | None, dtype=np.float32) -> _Model:
    """A model initialised from ``seed``; with ``seed`` None every drawn
    weight is zero and nothing is drawn, for parameters loaded next. Sizes
    past what numpy can allocate are a ConfigError."""
    try:
        return _MODEL_CLASSES[config.architecture](config, seed, dtype=dtype)
    except (MemoryError, OverflowError, ValueError) as exc:   # past numpy's size limits, or a width past floats
        streams = ", ".join(f"{s.name} {s.input_dim}x{s.train_max_len}" for s in config.modalities)
        raise ConfigError(f"{config.architecture} with model_dim {config.model_dim} and streams {streams} "
                          f"(input_dim x train_max_len) cannot be allocated: {exc}") from None


def predict_scores(model: _Model, batch: Batch) -> np.ndarray:
    """Eval-mode genre probabilities for a prepared batch. (B, 21) A record
    whose scores are not all finite is a ``NumericError`` naming it."""
    with no_grad():
        logits = model.forward(batch, train=False)
    scores = ag.sigmoid_array(logits.data.astype(np.float64)).astype(np.float32)
    bad = [r.id for r, ok in zip(batch.records, np.isfinite(scores).all(axis=1)) if not ok]
    if bad:
        raise NumericError(f"non-finite scores for record ids {bad}")
    return scores


def predict(model: _Model, record):
    """Probabilities and decisions at the model config's threshold for one
    record at its full duration. A probability equal to the threshold counts
    as positive."""
    batch = make_batch([record], model.config.modalities, lengths="full")
    probs = predict_scores(model, batch)[0]
    return probs, probs >= model.config.threshold
