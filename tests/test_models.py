import dataclasses
import os
import re

import numpy as np
import pytest

import genreclf.autograd as ag
import genreclf.mmf as mmf
import genreclf.training as training
from genreclf.autograd import Tensor, no_grad
from genreclf.checkpoint import load_checkpoint, read_blob, read_checkpoint, save_checkpoint, write_blob
from genreclf.data import Batch, VideoRecord, make_batch, temporal_average
from genreclf.errors import ConfigError, DataError, NumericError
from genreclf.modalities import DEFAULT_SPECS, ModalitySpec
from genreclf.models import ModelConfig, build_model, predict, predict_scores
from genreclf.rng import SeededRng
from genreclf.training import TrainConfig, Trainer, evaluate, weighted_bce
from genreclf.vocab import GENRES
from jsonedit import edited

TOY_SPECS = (
    ModalitySpec("clip", 10, 7),
    ModalitySpec("ocr", 6, 4),
    ModalitySpec("asr", 6, 5, temporal_average=False),
)


def toy_config(arch, averaged=(), dim=8, heads=2, layers=1, dropout=0.0):
    mods = tuple(
        ModalitySpec(s.name, s.input_dim, s.train_max_len, temporal_average=(s.name in averaged))
        for s in TOY_SPECS)
    return ModelConfig(architecture=arch, model_dim=dim, num_layers=layers, num_heads=heads,
                       dropout_rate=dropout, modalities=mods)


def masked_mean(x, mask):
    """The padded reference of a temporal mean: the (B, D) float32 mean of
    the rows of (B, T, D) ``x`` where the (B, T) ``mask`` holds, summed in
    float64 in row order, or zeros where none holds."""
    total = np.add.reduce(x, axis=-2, dtype=np.float64, where=mask[..., None])
    return (total / np.maximum(mask.sum(axis=-1), 1)[:, None]).astype(np.float32)


def toy_records(n, seed=0, specs=TOY_SPECS, max_extra=0):
    rng = SeededRng(seed)
    records = []
    for i in range(n):
        genres = tuple(g for g in GENRES if rng.uniform(()) < 0.2) or ("Drama",)
        feats = {}
        for s in specs:
            t = rng.randint(0, s.train_max_len + 1 + max_extra)
            feats[s.name] = rng.normal((t, s.input_dim)).astype(np.float32)
        records.append(VideoRecord(id=f"t{i:04d}", duration_s=60.0, genres=genres, features=feats))
    return records


ALL_ARCHS = ("mlp", "single_transformer", "multi_transformer")


class TestConfig:
    def test_preset_hyperparameters(self):
        mlp = ModelConfig.preset("mlp")
        assert (mlp.model_dim, mlp.num_layers) == (256, 1)
        single = ModelConfig.preset("single_transformer")
        assert (single.model_dim, single.num_layers, single.num_heads) == (256, 2, 8)
        multi = ModelConfig.preset("multi_transformer")
        assert (multi.model_dim, multi.num_layers, multi.num_heads) == (128, 1, 8)
        for cfg in (mlp, single, multi):
            assert cfg.dropout_rate == 0.5
            assert cfg.positive_weight == 0.25
            assert cfg.threshold == 0.5

    def test_default_modality_dims(self):
        cfg = ModelConfig.preset("multi_transformer")
        dims = {s.name: (s.input_dim, s.train_max_len) for s in cfg.modalities}
        assert dims == {"clip": (512, 216), "ocr": (768, 64), "asr": (768, 86),
                        "audiotag": (128, 140), "musicnet": (64, 18)}

    def test_unknown_architecture_rejected(self):
        with pytest.raises(ConfigError):
            ModelConfig(architecture="cnn", model_dim=8, num_layers=1, num_heads=2)

    def test_heads_must_divide_dim(self):
        with pytest.raises(ConfigError):
            ModelConfig(architecture="single_transformer", model_dim=10, num_layers=1, num_heads=3)

    def test_round_trip_dict(self):
        cfg = toy_config("multi_transformer", averaged=("ocr",))
        assert ModelConfig.from_dict(cfg.to_dict()) == cfg

    CLIP = {"name": "clip", "input_dim": 10, "train_max_len": 7}
    MODEL = {"architecture": "mlp", "model_dim": 8, "num_layers": 1, "num_heads": 1, "modalities": [CLIP]}

    @pytest.mark.parametrize("cls, d", [(ModalitySpec, CLIP), (ModelConfig, MODEL), (TrainConfig, {"model": MODEL})],
                             ids=["modality", "model", "train"])
    def test_missing_optional_field_loads_the_dataclass_default(self, cls, d):
        loaded = cls.from_dict(d)
        optional = [f for f in dataclasses.fields(cls) if f.name not in d]
        assert optional and all(f.default is not dataclasses.MISSING for f in optional)
        for f in optional:
            assert getattr(loaded, f.name) == f.default

    @pytest.mark.parametrize("cls, d, key", [(ModelConfig, MODEL, "dropout_rate"), (TrainConfig, {"model": MODEL}, "lr")])
    def test_integer_past_the_float_range_is_config_error(self, cls, d, key):
        with pytest.raises(ConfigError, match=f"{key}' must be a finite number"):
            cls.from_dict({**d, key: 10 ** 400})

    @pytest.mark.parametrize("overrides", [{"num_heads": 0}, {"model_dim": 0}, {"model_dim": -8},
                                           {"num_layers": 0}, {"num_layers": -1},
                                           {"dropout_rate": 1.0}, {"dropout_rate": 1.5}, {"dropout_rate": -0.1},
                                           {"dropout_rate": float("nan")}, {"threshold": -0.1}, {"threshold": 1.5},
                                           {"threshold": float("nan")}, {"positive_weight": 0.0},
                                           {"positive_weight": -3.0}, {"positive_weight": float("inf")}])
    def test_out_of_range_rejected(self, overrides):
        with pytest.raises(ConfigError, match=next(iter(overrides))):
            ModelConfig.preset("single_transformer", **overrides)

    @pytest.mark.parametrize("key", ["input_dim", "train_max_len"])
    @pytest.mark.parametrize("value", [0, -3])
    @pytest.mark.parametrize("build", [
        lambda key, value: ModalitySpec(**{**TestConfig.CLIP, key: value}),
        lambda key, value: dataclasses.replace(ModalitySpec(**TestConfig.CLIP), **{key: value}),
        lambda key, value: ModalitySpec.from_dict({**TestConfig.CLIP, key: value}),
    ], ids=["direct", "replace", "from_dict"])
    def test_modality_size_below_one_is_refused_where_the_spec_is_built(self, build, key, value):
        with pytest.raises(ConfigError, match=f"^modality 'clip' field '{key}' must be >= 1, got {value}$"):
            build(key, value)

    @pytest.mark.parametrize("arch, overrides, streams", [
        ("mlp", {"model_dim": 10**15}, {}),
        ("multi_transformer", {"model_dim": 10**15}, {}),
        ("single_transformer", {}, {"train_max_len": 10**20}),
        ("multi_transformer", {}, {"train_max_len": 10**20}),
    ])
    @pytest.mark.parametrize("seed", [5, None])
    def test_sizes_past_what_numpy_can_allocate_are_config_error(self, arch, overrides, streams, seed):
        # every size here asks for more than 1 EiB, so the allocation fails at once
        cfg = dataclasses.replace(toy_config(arch), **overrides,
                                  modalities=tuple(dataclasses.replace(s, **streams) for s in TOY_SPECS))
        with pytest.raises(ConfigError, match=f"^{arch} with model_dim .* cannot be allocated"):
            build_model(cfg, seed=seed)

    @pytest.mark.parametrize("path, value", [
        (("model_dim",), "x"), (("model_dim",), True), (("model_dim",), 8.0), (("num_layers",), None),
        (("num_layers",), 0),
        (("num_heads",), "2"), (("dropout_rate",), "0.1"), (("dropout_rate",), float("inf")),
        (("threshold",), False), (("architecture",), 3), (("modalities",), {}), (("modalities", 0), "clip"),
        (("modalities", 0, "name"), 5), (("modalities", 0, "input_dim"), True),
        (("modalities", 0, "train_max_len"), "7"), (("modalities", 0, "temporal_average"), 1),
    ])
    def test_from_dict_field_types_checked(self, path, value):
        d = toy_config("mlp").to_dict()
        d["modalities"] = list(d["modalities"])   # to_dict keeps the tuple, whose items cannot be replaced
        with pytest.raises(ConfigError, match="object" if path == ("modalities", 0) else path[-1]):
            ModelConfig.from_dict(edited(d, path, value))


class TestShapes:
    @pytest.mark.parametrize("arch", ALL_ARCHS)
    def test_logit_shape(self, arch):
        model = build_model(toy_config(arch), seed=0)
        for b in (1, 3):
            batch = make_batch(toy_records(b), TOY_SPECS)
            with no_grad():
                out = model.forward(batch)
            assert out.shape == (b, 21)

    @pytest.mark.parametrize("arch", ALL_ARCHS)
    def test_probabilities_bounded(self, arch):
        model = build_model(toy_config(arch), seed=1)
        batch = make_batch(toy_records(4, seed=2), TOY_SPECS)
        probs = predict_scores(model, batch)
        assert probs.shape == (4, 21)
        assert np.all((probs >= 0) & (probs <= 1))

    @pytest.mark.parametrize("arch", ALL_ARCHS)
    def test_arbitrary_lengths_accepted(self, arch):
        model = build_model(toy_config(arch), seed=3)
        records = toy_records(2, seed=4, max_extra=9)   # some sequences exceed the tables
        batch = make_batch(records, TOY_SPECS, lengths="full")
        with no_grad():
            out = model.forward(batch)
        assert out.shape == (2, 21)

    def test_missing_modality_rejected(self):
        model = build_model(toy_config("mlp"), seed=0)
        batch = make_batch(toy_records(1), TOY_SPECS[:2])
        with pytest.raises(DataError, match="missing modality"):
            model.forward(batch)

    def test_dim_mismatch_rejected(self):
        model = build_model(toy_config("mlp"), seed=0)
        bad_specs = (ModalitySpec("clip", 12, 7),) + TOY_SPECS[1:]
        batch = make_batch(toy_records(1, specs=bad_specs), bad_specs)
        with pytest.raises(DataError, match="incompatible"):
            model.forward(batch)


class TestMlpInvariances:
    def test_frame_permutation_bit_exact(self):
        model = build_model(toy_config("mlp"), seed=5)
        records = toy_records(3, seed=6)
        base = predict_scores(model, make_batch(records, TOY_SPECS, lengths="full"))
        rng = SeededRng(7)
        for r in records:
            for name in r.features:
                t = r.features[name].shape[0]
                if t > 1:
                    r.features[name] = r.features[name][rng.permutation(t)]
        permuted = predict_scores(model, make_batch(records, TOY_SPECS, lengths="full"))
        assert np.array_equal(base, permuted)

    def test_frame_duplication_bit_exact(self):
        model = build_model(toy_config("mlp"), seed=8)
        records = toy_records(3, seed=9)
        base = predict_scores(model, make_batch(records, TOY_SPECS, lengths="full"))
        for r in records:
            for name in r.features:
                r.features[name] = np.repeat(r.features[name], 2, axis=0)
        doubled = predict_scores(model, make_batch(records, TOY_SPECS, lengths="full"))
        assert np.array_equal(base, doubled)

    def test_transformer_is_order_sensitive(self):
        # sanity: the fused transformer must be able to see order the MLP cannot
        model = build_model(toy_config("single_transformer"), seed=10)
        rec = toy_records(1, seed=11)[0]
        rec.features["clip"] = SeededRng(12).normal((6, 10)).astype(np.float32)
        base = predict_scores(model, make_batch([rec], TOY_SPECS, lengths="full"))
        rec.features["clip"] = rec.features["clip"][::-1].copy()
        flipped = predict_scores(model, make_batch([rec], TOY_SPECS, lengths="full"))
        assert not np.allclose(base, flipped)


class TestAssembly:
    def test_fused_length_budget(self):
        # default per-modality training lengths sum to 524; with 5 SEPs and 1 CLS
        # the assembled training length is 530
        lens = [s.train_max_len for s in DEFAULT_SPECS]
        assert sum(lens) == 524
        assert 1 + len(DEFAULT_SPECS) + sum(lens) == 530

    def test_assembled_length_and_mask(self):
        cfg = toy_config("single_transformer")
        model = build_model(cfg, seed=13)
        records = toy_records(2, seed=14)
        batch = make_batch(records, TOY_SPECS)
        seq, seg = model._assemble(batch)
        expected = 1 + sum(1 + s.train_max_len for s in cfg.modalities)
        valid = [1 + sum(1 + min(len(r.features[s.name]), s.train_max_len) for s in cfg.modalities) for r in records]
        assert seg.padded_rows == 2 * expected
        assert seg.offsets.tolist() == [0, min(valid), sum(valid)]   # shortest first
        starts = seg.offsets[seg.rank]
        assert (starts[1] == 0) == (valid[1] < valid[0])
        assert seq.shape == (sum(valid), cfg.model_dim)
        assert seg.rows[starts].tolist() == [0, expected]    # CLS first in each padded row
        assert seq.data[starts].tobytes() == np.stack([model.params["cls"].data] * 2).tobytes()

    def test_averaged_modality_contributes_one_position(self):
        cfg = toy_config("single_transformer", averaged=("ocr",))
        model = build_model(cfg, seed=15)
        batch = make_batch(toy_records(2, seed=16), TOY_SPECS)
        _, seg = model._assemble(batch)
        expected = 1 + (1 + 7) + (1 + 1) + (1 + 5)
        assert seg.padded_rows == 2 * expected

    def test_empty_modality_contributes_only_sep(self):
        cfg = toy_config("single_transformer")
        model = build_model(cfg, seed=17)
        records = toy_records(1, seed=18)
        records[0].features["ocr"] = np.zeros((0, 6), dtype=np.float32)
        batch = make_batch(records, TOY_SPECS, lengths="full")
        seq, seg = model._assemble(batch)
        t_clip = records[0].features["clip"].shape[0]
        t_asr = records[0].features["asr"].shape[0]
        assert seq.shape[0] == 1 + (1 + t_clip) + (1 + 0) + (1 + t_asr)
        # every stream is laid out at its cap; the empty stream packs to just its SEP
        assert seg.padded_rows == 1 + sum(1 + s.train_max_len for s in cfg.modalities)
        with no_grad():
            out = model.forward(batch)
        assert out.shape == (1, 21)


def padded_logits(model, batch, train=False, rng=None):
    """The padded forward pass the packed models replaced, built from their
    parameters: each token stream zero-padded to its batch length cut to its
    positional table, each averaged stream the mean of every row the batch
    holds, pad keys sent to -inf before the softmax, every layer
    computed over all rows with dropout drawn over the whole (B, T, D)
    tensor, and the CLS row read at the end."""
    p, b = model.params, batch.size

    def marker(name):
        return ag.reshape(ag.take(ag.reshape(p[name], (1, -1)), np.zeros(b, dtype=int)), (b, 1, -1))

    def stream(spec):
        if spec.temporal_average:
            x = np.stack([temporal_average(h) for h in batch.heads[spec.name]])[:, None, :]
            m = np.array([[len(h) > 0] for h in batch.heads[spec.name]])
        else:
            x = batch.features[spec.name][:, :spec.train_max_len]
            m = batch.masks[spec.name][:, :spec.train_max_len]
        tokens = model.proj[spec.name](Tensor(x))
        return ag.add(tokens, ag.take(p[f"pos.{spec.name}"], np.arange(x.shape[1]))), m

    def layer_of(layer, x, mask):
        attn, (b, t, d) = layer.attn, x.shape

        def split(z):
            return ag.transpose(ag.reshape(z, (b, t, attn.heads, attn.head_dim)), (0, 2, 1, 3))

        scores = ag.mul(ag.matmul(split(attn.q(x)), ag.transpose(split(attn.k(x)), (0, 1, 3, 2))),
                        1.0 / np.sqrt(attn.head_dim))
        ctx = ag.matmul(ag.softmax_rows(ag.add(scores, np.where(mask, 0.0, -np.inf)[:, None, None, :])),
                        split(attn.v(x)))
        a = attn.out(ag.reshape(ag.transpose(ctx, (0, 2, 1, 3)), (b, t, d)))
        x = ag.layer_norm(ag.add(x, ag.dropout(a, layer.dropout_rate, train, rng)), layer.ln1_g, layer.ln1_b)
        f = ag.dropout(layer.ff2(ag.relu(layer.ff1(x))), layer.dropout_rate, train, rng)
        return ag.layer_norm(ag.add(x, f), layer.ln2_g, layer.ln2_b)

    def encode(layers, segs, masks):
        x, mask = ag.concat(segs, axis=1), np.concatenate(masks, axis=1)
        for layer in layers:
            x = layer_of(layer, x, mask)
        return ag.take(ag.reshape(x, (-1, x.shape[2])), np.arange(b) * x.shape[1])

    ones = np.ones((b, 1), dtype=bool)
    if model.config.architecture == "single_transformer":
        segs, masks = [marker("cls")], [ones]
        for spec in model.config.modalities:
            tokens, m = stream(spec)
            segs += [marker(f"sep.{spec.name}"), tokens]
            masks += [ones, m]
        return model.head(encode(model.layers, segs, masks))
    cols = []
    for spec in model.config.modalities:
        if spec.temporal_average:
            cols.append(model.proj[spec.name](Tensor(batch.means(spec.name))))
        else:
            tokens, m = stream(spec)
            cols.append(encode(model.encoders[spec.name], [marker(f"cls.{spec.name}"), tokens], [ones, m]))
    return model.head(ag.concat(cols, axis=1))


def mixed_records():
    """Five records of mixed lengths: the second has an empty ocr stream,
    the fourth a clip stream longer than its table."""
    records = toy_records(5, seed=20, max_extra=3)
    records[1].features["ocr"] = np.zeros((0, 6), dtype=np.float32)
    records[3].features["clip"] = SeededRng(21).normal((11, 10)).astype(np.float32)
    return records


PACKED_MODELS = [(arch, averaged) for arch in ("single_transformer", "multi_transformer")
                 for averaged in ((), ("ocr",))]


def step_of(model, batch, forward):
    """Loss, logits, every parameter gradient and the final dropout counter
    of one train-mode step through ``forward``."""
    rng = SeededRng(73)
    model.params.zero_grad()
    logits = forward(model, batch, train=True, rng=rng)
    loss = weighted_bce(logits, batch.labels, 0.25)
    ag.backward(loss)
    return loss.data, logits.data, {n: t.grad for n, t in model.params.items()}, rng.counter


class TestPacking:
    """The packed models compute what the padded ones did, and no sample
    sees another: pad content has no row to reach them through."""

    @pytest.mark.parametrize("arch, averaged", PACKED_MODELS)
    def test_batch_composition_invariance(self, arch, averaged):
        config = toy_config(arch, averaged=averaged, layers=2)
        model = build_model(config, seed=19, dtype=np.float64)
        records = mixed_records()
        with no_grad():
            mixed = model.forward(make_batch(records, config.modalities)).data
            for i, rec in enumerate(records):
                for lengths in ("train", "full"):
                    alone = model.forward(make_batch([rec], config.modalities, lengths=lengths)).data
                    assert alone.tobytes() == mixed[i:i + 1].tobytes()

    # Every pad of the padded pass adds exact zeros, so float64 moves only
    # through summation order (softmax row sums, and the length-sorted rows
    # of each weight gradient): at most 3.1e-15 relative over 20 model and
    # data seeds.
    PADDED_RTOL = 1e-12

    @pytest.mark.parametrize("lengths", ("train", "full"))
    @pytest.mark.parametrize("arch, averaged", PACKED_MODELS)
    def test_float64_matches_padded_reference(self, arch, averaged, lengths):
        config = toy_config(arch, averaged=averaged, layers=2, dropout=0.3)
        model = build_model(config, seed=22, dtype=np.float64)
        batch = make_batch(mixed_records(), config.modalities, lengths=lengths)
        got = step_of(model, batch, lambda m, *a, **k: m.forward(*a, **k))
        want = step_of(model, batch, padded_logits)

        def rel(a, b):
            return np.abs(a - b).max() / np.abs(b).max() if np.abs(b).max() > 0 else np.abs(a).max()

        assert rel(got[0], want[0]) <= self.PADDED_RTOL
        assert rel(got[1], want[1]) <= self.PADDED_RTOL
        assert got[2].keys() == want[2].keys()
        for name in got[2]:
            assert rel(got[2][name], want[2][name]) <= self.PADDED_RTOL, name
        assert got[3] == want[3] > 0

    @pytest.mark.parametrize("arch, averaged", PACKED_MODELS)
    def test_float32_within_criterion_6(self, arch, averaged):
        config = toy_config(arch, averaged=averaged, layers=2)
        model = build_model(config, seed=23)
        batch = make_batch(mixed_records(), config.modalities)
        with no_grad():
            got = ag.sigmoid_array(model.forward(batch).data)
            want = ag.sigmoid_array(padded_logits(model, batch).data)
        assert got.dtype == want.dtype == np.float32
        assert np.abs(got - want).max() <= 1e-5


def spy_batches(monkeypatch):
    """Every batch the training module makes, in order."""
    batches = []

    def spy(*args, **kwargs):
        batches.append(make_batch(*args, **kwargs))
        return batches[-1]
    monkeypatch.setattr(training, "make_batch", spy)
    return batches


class TestPaddingOnDemand:
    @pytest.mark.parametrize("arch, averaged", [("mlp", ()), ("multi_transformer", ("clip", "ocr", "asr"))])
    def test_averaged_models_build_no_padded_tensor(self, arch, averaged, monkeypatch):
        batches = spy_batches(monkeypatch)
        records = toy_records(7, seed=81, max_extra=4)
        config = TrainConfig(model=toy_config(arch, averaged=averaged), lr=1e-3, batch_size=3, max_steps=2,
                             eval_interval=1)
        trainer = Trainer(config, records[:5], records[5:])
        trainer.run()
        evaluate(trainer.model, records)
        assert len(batches) == 2 + 2 * 1 + 1
        assert not any("_padded" in b.__dict__ for b in batches)

    @pytest.mark.parametrize("arch", ("single_transformer", "multi_transformer"))
    def test_token_streams_build_no_padded_tensor(self, arch):
        batch = make_batch(toy_records(3, seed=82), TOY_SPECS)
        build_model(toy_config(arch, averaged=("ocr",), dropout=0.3), seed=83).forward(batch, True, SeededRng(1))
        ag.clear_tape()
        assert "_padded" not in batch.__dict__

    @pytest.mark.parametrize("arch", ("single_transformer", "multi_transformer"))
    def test_averaged_stream_reads_the_head_mean(self, arch, monkeypatch):
        # the padded reduce the averaged branches replaced, over the whole
        # batch length on both architectures, although ocr's heads run past
        # its positional table (4 rows)
        config = toy_config(arch, averaged=("ocr",), dropout=0.3)
        records = toy_records(4, seed=84, max_extra=5)
        records[2].features["ocr"] = np.zeros((0, 6), dtype=np.float32)
        assert max(len(r.features["ocr"]) for r in records) > 4
        model = build_model(config, seed=85, dtype=np.float64)
        batch = make_batch(records, config.modalities, lengths="full")
        got = model.forward(batch, train=True, rng=SeededRng(86)).data
        if arch == "single_transformer":   # an empty head adds no ocr token
            rows = [1 + sum(1 + min(len(r.features[s.name]), 1 if s.temporal_average else s.train_max_len)
                            for s in config.modalities) for r in records]
            assert np.diff(model._assemble(batch)[1].offsets).tolist() == sorted(rows)
            ag.clear_tape()
        monkeypatch.setattr(Batch, "means", lambda self, name: masked_mean(self.features[name], self.masks[name]))
        assert got.tobytes() == model.forward(batch, train=True, rng=SeededRng(86)).data.tobytes()


@pytest.mark.parametrize("arch", ("single_transformer", "multi_transformer"))
def test_scoring_averages_every_row_of_an_averaged_stream(arch):
    # rows appended past ocr's cap (4) move the score, which is the score of
    # the whole stream's mean; a training batch cuts them off again
    model = build_model(toy_config(arch, averaged=("ocr",)), seed=87)
    record = toy_records(1, seed=88)[0]
    record.features["ocr"] = SeededRng(89).normal((4, 6)).astype(np.float32)
    ocr = np.concatenate([record.features["ocr"], SeededRng(90).normal((3, 6)).astype(np.float32)])
    longer, mean = (dataclasses.replace(record, features={**record.features, "ocr": x})
                    for x in (ocr, temporal_average(ocr)[None]))
    scores = [predict(model, r)[0] for r in (record, longer, mean)]
    assert not np.array_equal(scores[0], scores[1])
    assert scores[1].tobytes() == scores[2].tobytes()
    cut = [predict_scores(model, make_batch([r], TOY_SPECS)) for r in (record, longer)]
    assert cut[0].tobytes() == cut[1].tobytes() == scores[0].tobytes()


class TestBatchEquivalence:
    @pytest.mark.parametrize("arch", ("single_transformer", "multi_transformer"))
    def test_padded_batch_equals_single_sample(self, arch):
        model = build_model(toy_config(arch), seed=22)
        records = toy_records(16, seed=23)
        batch = make_batch(records, TOY_SPECS)
        batched = predict_scores(model, batch)
        for i, rec in enumerate(records):
            single = predict_scores(model, make_batch([rec], TOY_SPECS, lengths="full"))
            assert np.max(np.abs(batched[i] - single[0])) < 1e-5


class FullLayer:
    """Reference for a class-attention layer: the same parameters computed
    over every packed row (every row queries, each row's dropout mask drawn
    at its padded position), then each sequence's first row kept, in packed
    order."""

    def __init__(self, layer):
        self.layer = layer

    def __call__(self, x, seg, train=False, rng=None):
        layer, attn = self.layer, self.layer.attn

        def dropout(z):
            return ag.dropout(z, layer.dropout_rate, train, rng, seg.rows, seg.padded_rows)

        a = attn.out(ag.attention(attn.q(x), attn.k(x), attn.v(x), attn.heads, seg.offsets))
        x = ag.layer_norm(ag.add(x, dropout(a)), layer.ln1_g, layer.ln1_b)
        f = dropout(layer.ff2(ag.relu(layer.ff1(x))))
        return ag.take(ag.layer_norm(ag.add(x, f), layer.ln2_g, layer.ln2_b), seg.offsets[:-1])


def last_layers(model):
    """(layer list, index) of every model's last encoder layer."""
    stacks = [model.layers] if hasattr(model, "layers") else list(model.encoders.values())
    return [(stack, len(stack) - 1) for stack in stacks]


def class_attention_records():
    """Four records; the second has no asr frames, so its asr sequence is
    its CLS row alone."""
    records = toy_records(4, seed=71)
    records[1].features["asr"] = np.zeros((0, 6), dtype=np.float32)
    return records


def train_step(model, batch):
    """Train-mode loss bytes, every parameter gradient's bytes and the final
    dropout counter of one step."""
    rng = SeededRng(73)
    model.params.zero_grad()
    loss = weighted_bce(model.forward(batch, train=True, rng=rng), batch.labels, 0.25)
    ag.backward(loss)
    return loss.data.tobytes(), {n: t.grad.tobytes() for n, t in model.params.items()}, rng.counter


class TestClassAttention:
    @pytest.mark.parametrize("averaged", ((), ("ocr",)))
    @pytest.mark.parametrize("arch", ("single_transformer", "multi_transformer"))
    def test_float64_bit_identical_to_full_layer(self, arch, averaged):
        config = toy_config(arch, averaged=averaged, layers=2, dropout=0.3)
        batch = make_batch(class_attention_records(), config.modalities)
        assert len(batch.heads["asr"][1]) == 0
        model = build_model(config, seed=72, dtype=np.float64)
        got = train_step(model, batch)
        for stack, i in last_layers(model):
            assert stack[i].cls_only and not any(layer.cls_only for layer in stack[:i])
            stack[i] = FullLayer(stack[i])
        want = train_step(model, batch)
        assert got[0] == want[0]
        assert got[1] == want[1]
        assert got[2] == want[2] > 0

    @pytest.mark.parametrize("arch", ("single_transformer", "multi_transformer"))
    def test_last_layer_queries_one_row(self, arch, monkeypatch):
        config = toy_config(arch, layers=2)
        model = build_model(config, seed=74)
        batch = make_batch(class_attention_records(), config.modalities)
        queries = []
        attention = ag.attention

        def spy(q, k, v, heads, offsets, one_query=False):
            queries.append((q.shape, k.shape, heads, len(offsets)))
            return attention(q, k, v, heads, offsets, one_query)

        monkeypatch.setattr(ag, "attention", spy)
        predict_scores(model, batch)
        b, h, d = batch.size, config.num_heads, config.model_dim
        layers = 2 * (1 if arch == "single_transformer" else len(config.modalities))
        assert len(queries) == layers
        for first, last in zip(queries[::2], queries[1::2]):
            n = first[1][0]
            assert first == ((n, d), (n, d), h, b + 1)
            assert last == ((b, d), (n, d), h, b + 1)

    # Largest |float32 - float64| logit, measured with OpenBLAS: 3.1e-7
    # (single_transformer) and 4.8e-7 (multi_transformer) on this case, at
    # most 4.8e-7 and 5.5e-7 over 40 model and data seeds; the float32
    # full-layer path gave 4.8e-7 and 5.2e-7 there. The bound leaves a
    # margin for other BLAS kernels.
    FLOAT32_LOGIT_BOUND = 2e-6

    @pytest.mark.parametrize("arch", ("single_transformer", "multi_transformer"))
    def test_float32_drift_from_float64(self, arch):
        config = toy_config(arch, layers=2, dim=16)
        batch = make_batch(toy_records(8, seed=75), config.modalities)
        logits = {}
        for dtype in (np.float32, np.float64):
            with no_grad():
                logits[dtype] = build_model(config, seed=76, dtype=dtype).forward(batch).data
        drift = np.abs(logits[np.float32].astype(np.float64) - logits[np.float64]).max()
        assert drift < self.FLOAT32_LOGIT_BOUND


class TestMultiTransformer:
    def test_head_width_five_modalities(self):
        cfg = ModelConfig.preset("multi_transformer")
        model = build_model(cfg, seed=24)
        assert model.params["head.w"].shape == (5 * 128, 21)

    def test_averaging_keeps_head_width(self):
        cfg = ModelConfig.preset("multi_transformer", averaged=("ocr", "asr"))
        model = build_model(cfg, seed=25)
        assert model.params["head.w"].shape == (5 * 128, 21)
        assert "enc.ocr.0.attn.q.w" not in model.params
        assert "cls.ocr" not in model.params

    def test_disabling_modality_shrinks_head(self):
        cfg = ModelConfig.preset("multi_transformer", modalities=("clip", "audiotag"))
        model = build_model(cfg, seed=26)
        assert model.params["head.w"].shape == (2 * 128, 21)


class TestPredict:
    def _trivial_model(self):
        model = build_model(toy_config("mlp"), seed=27)
        model.params["head.w"].data[:] = 0.0
        model.params["head.b"].data[:] = 0.0
        return model

    def test_zero_logits_all_positive_at_half(self):
        model = self._trivial_model()
        rec = toy_records(1, seed=28)[0]
        model.config = dataclasses.replace(model.config, threshold=0.5)
        probs, decisions = predict(model, rec)
        assert np.allclose(probs, 0.5)
        assert decisions.all()          # >= convention at the boundary

    def test_large_logit_probability(self):
        model = self._trivial_model()
        model.params["head.b"].data[0] = 10.0
        rec = toy_records(1, seed=29)[0]
        probs, decisions = predict(model, rec)
        assert probs[0] == pytest.approx(1.0 / (1.0 + np.exp(-10.0)), abs=1e-6)
        assert decisions[0]

    def test_threshold_one_never_positive_below_one(self):
        model = self._trivial_model()
        model.config = dataclasses.replace(model.config, threshold=1.0)
        rec = toy_records(1, seed=30)[0]
        probs, decisions = predict(model, rec)
        assert (probs < 1.0).all() and not decisions.any()


class TestParameterCounts:
    def test_deterministic_and_config_pure(self):
        for arch in ALL_ARCHS:
            cfg = ModelConfig.preset(arch)
            a = build_model(cfg, seed=0).parameter_count()
            b = build_model(cfg, seed=999).parameter_count()
            assert a == b

    def test_mlp_preset_count(self):
        # 2240*256 + 256 + 256*21 + 21, from the default modality dims
        assert build_model(ModelConfig.preset("mlp"), seed=0).parameter_count() == \
            2240 * 256 + 256 + 256 * 21 + 21

    def test_single_preset_count(self):
        d = 256
        proj = sum(s.input_dim * d + d for s in DEFAULT_SPECS)
        pos = sum(s.train_max_len for s in DEFAULT_SPECS) * d
        sep_cls = 5 * d + d
        attn = 4 * d * d + 3 * d           # q(w+b), k(w), v(w+b), out(w+b)
        ffn = d * 4 * d + 4 * d + 4 * d * d + d
        ln = 4 * d
        head = d * 21 + 21
        expected = proj + pos + sep_cls + 2 * (attn + ffn + ln) + head
        assert build_model(ModelConfig.preset("single_transformer"), seed=0).parameter_count() == expected


class TestCheckpoint:
    @pytest.mark.parametrize("arch", ALL_ARCHS)
    def test_round_trip_identical_scores(self, tmp_path, arch):
        model = build_model(toy_config(arch, averaged=("ocr",)), seed=31)
        stem = str(tmp_path / "ck")
        save_checkpoint(model, stem)
        loaded = load_checkpoint(stem)
        assert loaded.config == model.config
        batch = make_batch(toy_records(3, seed=32), TOY_SPECS)
        assert np.array_equal(predict_scores(model, batch), predict_scores(loaded, batch))

    def test_blob_round_trip_bit_exact(self, tmp_path):
        model = build_model(toy_config("single_transformer"), seed=33)
        stem = str(tmp_path / "ck")
        save_checkpoint(model, stem)
        loaded = load_checkpoint(stem)
        for name, t in model.params.items():
            assert np.array_equal(t.data, loaded.params[name].data)

    def test_truncated_blob_rejected(self, tmp_path):
        model = build_model(toy_config("mlp"), seed=34)
        stem = str(tmp_path / "ck")
        save_checkpoint(model, stem)
        blob = open(stem + ".bin", "rb").read()
        open(stem + ".bin", "wb").write(blob[:-8])
        with pytest.raises(DataError, match="too short"):
            load_checkpoint(stem)

    @pytest.mark.parametrize("edit, message", [
        (lambda m, blob: (m[:2] + [{**m[2], "offset": 12}], blob), r"c starts at byte 12, not .* \(28\)"),
        (lambda m, blob: (m + [m[0]], blob), "names 'a' twice"),
        (lambda m, blob: (m, blob + b"\0"), "the manifest ends at byte 40 but the blob has 41"),
    ], ids=["overlap", "duplicate-name", "trailing-byte"])
    def test_blob_entries_must_lie_end_to_end(self, tmp_path, edit, message):
        path = str(tmp_path / "x.bin")
        manifest, _ = write_blob(path, {"a": np.arange(3.0), "b": np.ones((2, 2)), "c": np.zeros(3)})
        with open(path, "rb") as fh:
            manifest, blob = edit(manifest, fh.read())
        with open(path, "wb") as fh:
            fh.write(blob)
        with pytest.raises(DataError, match=message):
            read_blob(path, manifest)

    @pytest.mark.parametrize("failing_write, survivor_seed", [(1, 35), (2, 36)], ids=["in-blob", "in-json"])
    def test_failed_save_leaves_a_loadable_pair(self, tmp_path, monkeypatch, failing_write, survivor_seed):
        # The blob is written before its JSON, and the two JSON documents
        # differ only in the threshold, which the parameter manifest does not
        # depend on: a save cut short in the blob keeps the old pair, one cut
        # short in the JSON has already committed the new blob.
        stem = str(tmp_path / "best")
        save_checkpoint(build_model(toy_config("mlp"), seed=35), stem)
        opened = []

        class HalfWrite:
            def __init__(self, fh):
                self.fh = fh

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def write(self, data):
                self.fh.write(data[:len(data) // 2])
                raise OSError("disk full")

        def failing_open(path, mode="r"):
            fh = open(path, mode)
            if not set(mode) & set("wa+"):
                return fh
            opened.append(path)
            return HalfWrite(fh) if len(opened) == failing_write else fh

        monkeypatch.setattr(mmf, "open", failing_open, raising=False)
        with pytest.raises(OSError, match="disk full"):
            save_checkpoint(build_model(dataclasses.replace(toy_config("mlp"), threshold=0.25), seed=36), stem)
        monkeypatch.undo()
        loaded = load_checkpoint(stem)
        for name, t in build_model(toy_config("mlp"), seed=survivor_seed).params.items():
            assert np.array_equal(t.data, loaded.params[name].data)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_value_is_neither_saved_nor_read(self, tmp_path, value):
        # the largest float32s on either side are kept, though their sum and difference overflow
        path = tmp_path / "x.bin"
        top = float(np.finfo(np.float32).max)
        arrays = {"a": np.array([top, -top, 0.0]), "b": np.array([[1.0, value], [top, top]])}
        with pytest.raises(NumericError, match=re.escape(f"{path}: a value to save is not finite")):
            write_blob(str(path), arrays)
        assert list(tmp_path.iterdir()) == []
        manifest, _ = write_blob(str(path), {**arrays, "b": np.full((2, 2), top)})
        assert np.array_equal(read_blob(str(path), manifest)["a"], arrays["a"])
        blob = bytearray(path.read_bytes())
        blob[16:20] = np.float32(value).tobytes()   # b[0, 1]
        path.write_bytes(blob)
        with pytest.raises(DataError, match=f"^{re.escape(str(path))}: a stored value is not finite$"):
            read_blob(str(path), manifest)

    def test_blob_arrays_are_read_only_and_loaded_parameters_writable(self, tmp_path):
        model = build_model(toy_config("single_transformer"), seed=37)
        stem = str(tmp_path / "ck")
        save_checkpoint(model, stem)
        _, arrays = read_checkpoint(stem)
        assert arrays and not any(a.flags.writeable for a in arrays.values())
        loaded = load_checkpoint(stem)
        for name, t in model.params.items():
            data = loaded.params[name].data
            assert data.flags.writeable and data.flags.c_contiguous
            assert data.dtype == t.data.dtype and data.tobytes() == t.data.tobytes()

    def test_changing_saves_reload_bit_for_bit_and_recycle_the_replaced_blob(self, tmp_path):
        stem = str(tmp_path / "best")
        inodes = []
        for seed, dim in ((40, 8), (41, 8), (42, 4)):   # the last blob is shorter than the one it overwrites
            model = build_model(toy_config("mlp", dim=dim), seed=seed)
            save_checkpoint(model, stem)
            assert_same_parameters(load_checkpoint(stem), model)
            assert os.path.getsize(stem + ".bin") == 4 * model.parameter_count()
            if inodes:
                assert os.stat(stem + ".bin.tmp").st_ino == inodes[-1]
            inodes.append(os.stat(stem + ".bin").st_ino)
            assert not os.path.exists(stem + ".bin.swap")
        assert inodes[0] == inodes[2] != inodes[1]   # two files take turns; none is freed

    def test_hard_linked_snapshot_keeps_its_bytes(self, tmp_path):
        stem = str(tmp_path / "best")
        snapshot = tmp_path / "snapshot.bin"
        for seed in (43, 44):
            save_checkpoint(build_model(toy_config("mlp"), seed=seed), stem)
        os.link(stem + ".bin", snapshot)
        kept = snapshot.read_bytes()
        for seed in (45, 46, 47):
            save_checkpoint(build_model(toy_config("mlp"), seed=seed), stem)
            assert snapshot.read_bytes() == kept
        scratch = os.stat(stem + ".bin.tmp")
        assert scratch.st_nlink == 1 and scratch.st_ino != os.stat(snapshot).st_ino

    @pytest.mark.parametrize("step, survivor_seed", [("scratch", 49), ("link", 49), ("replace", 50)],
                             ids=["half-written-scratch", "after-link", "after-replace"])
    def test_recycled_write_stopped_at_each_step(self, tmp_path, monkeypatch, step, survivor_seed):
        stem = str(tmp_path / "best")
        for seed in (48, 49):   # the second save leaves a scratch file to recycle
            save_checkpoint(build_model(toy_config("mlp"), seed=seed), stem)
        real_open, real_replace = open, os.replace

        def stop():
            raise OSError(f"injected failure {step}")

        class HalfWrite:
            def __init__(self, fh):
                self.fh = fh

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def write(self, data):
                self.fh.write(data[:len(data) // 2])
                stop()

        def open_(path, mode="r"):
            fh = real_open(path, mode)
            return HalfWrite(fh) if path == stem + ".bin.tmp" else fh

        def replace(src, dst):
            # the move over the blob follows the link; the rename back follows that move
            if src == stem + {"link": ".bin.tmp", "replace": ".bin.swap"}[step]:
                stop()
            real_replace(src, dst)

        if step == "scratch":
            monkeypatch.setattr(mmf, "open", open_, raising=False)
        else:
            monkeypatch.setattr(os, "replace", replace)
        with pytest.raises(OSError, match="injected"):
            save_checkpoint(build_model(toy_config("mlp"), seed=50), stem)
        monkeypatch.undo()
        assert_same_parameters(load_checkpoint(stem), build_model(toy_config("mlp"), seed=survivor_seed))
        model = build_model(toy_config("mlp"), seed=51)
        save_checkpoint(model, stem)
        assert_same_parameters(load_checkpoint(stem), model)
        assert not os.path.exists(stem + ".bin.swap")
        assert os.stat(stem + ".bin.tmp").st_nlink == 1


def assert_same_parameters(loaded, model):
    for name, t in model.params.items():
        assert loaded.params[name].data.tobytes() == t.data.tobytes()
