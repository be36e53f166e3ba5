"""Acceptance suite: one test per criterion, run with stated tolerances.

Each test prints a single PASS line on success (run pytest with -s or -rA
to see them). Criterion 10 needs the externally released full-scale feature
set and is skipped unless MOVIENET_FEATURES_DIR is set.
"""

import os

import numpy as np
import pytest

import genreclf.autograd as ag
from genreclf.autograd import Tensor
from genreclf.data import VideoRecord, filter_by_duration, make_batch, split_dataset, split_records
from genreclf.gradcheck import grad_check
from genreclf.metrics import average_precision, precision_recall_at
from genreclf.mmf import import_npy, read_mmf, write_mmf
from genreclf.modalities import ModalitySpec, default_modalities
from genreclf.models import ModelConfig, build_model, predict_scores
from genreclf.nn import Linear, MultiHeadSelfAttention, ParameterStore, Segments, TransformerEncoderLayer
from genreclf.rng import SeededRng
from genreclf.synth import ORDER_GENRES, synth_mean_encoded, synth_order_encoded
from genreclf.training import TrainConfig, Trainer, train, weighted_bce
from genreclf.vocab import GENRE_INDEX, GENRES
from references import batched_map, brute_force_ap

GRAD_TOL = 1e-4          # criterion 1
LOSS_CASE_TOL = 1e-5     # criterion 3
PLAIN_BCE_TOL = 1e-7     # criterion 3
LEARN_MAP = 0.95         # criterion 4
LEARN_STEPS = 2000       # criterion 4
ORDER_TRANSFORMER_MIN = 0.90   # criterion 5
ORDER_MLP_MAX = 0.65           # criterion 5
PAD_EQUIV_TOL = 1e-5     # criterion 6


def ok(n, msg):
    print(f"ACCEPTANCE {n}: PASS - {msg}")


# -- criterion 1: gradient correctness ------------------------------------

TOY_SPECS = (ModalitySpec("clip", 5, 4), ModalitySpec("ocr", 3, 3))


def toy_model_config(arch):
    return ModelConfig(architecture=arch, model_dim=8, num_layers=1, num_heads=2,
                       dropout_rate=0.0, modalities=TOY_SPECS)


def toy_batch(b, seed, max_len_bonus=0):
    rng = SeededRng(seed)
    records = []
    for i in range(b):
        genres = tuple(g for g in GENRES if rng.uniform(()) < 0.2) or ("Drama",)
        feats = {s.name: rng.normal((rng.randint(1, s.train_max_len + 1 + max_len_bonus), s.input_dim)).astype(np.float32)
                 for s in TOY_SPECS}
        records.append(VideoRecord(id=f"a{i}", duration_s=60.0, genres=genres, features=feats))
    return make_batch(records, TOY_SPECS), records


def test_criterion_1_gradients():
    worst = {}

    store = ParameterStore(dtype=np.float64)
    lin = Linear(store, "lin", 5, 3, SeededRng(0))
    x = Tensor(SeededRng(1).normal((3, 5)), dtype=np.float64)
    scale = np.arange(9.0).reshape(3, 3)
    worst["linear"] = grad_check(lambda: ag.tsum(ag.mul(lin(x), scale)), store.tensors(), eps=1e-5)

    store = ParameterStore(dtype=np.float64)
    attn = MultiHeadSelfAttention(store, "attn", 8, 2, SeededRng(2))
    sa = Segments(np.array([[True] * 5, [True, True, True, False, False]]))
    xa = Tensor(SeededRng(3).normal((10, 8))[sa.rows], dtype=np.float64)
    wa = SeededRng(4).normal((8, 8))
    worst["attention"] = grad_check(lambda: ag.tsum(ag.mul(attn(xa, sa), wa)), store.tensors(), eps=1e-5)

    store = ParameterStore(dtype=np.float64)
    enc = TransformerEncoderLayer(store, "enc", 8, 2, 0.0, SeededRng(5))
    se = Segments(np.array([[True] * 4, [True, True, False, False]]))
    xe = Tensor(SeededRng(6).normal((8, 8))[se.rows], dtype=np.float64)
    we = SeededRng(7).normal((6, 8))
    worst["encoder_layer"] = grad_check(lambda: ag.tsum(ag.mul(enc(xe, se), we)), store.tensors(), eps=1e-5)

    g = Tensor(SeededRng(8).normal((6,)), requires_grad=True, dtype=np.float64)
    bshift = Tensor(SeededRng(9).normal((6,)), requires_grad=True, dtype=np.float64)
    xn = Tensor(SeededRng(10).normal((3, 6)), dtype=np.float64)
    wn = SeededRng(11).normal((3, 6))
    worst["layer_norm"] = grad_check(lambda: ag.tsum(ag.mul(ag.layer_norm(xn, g, bshift), wn)),
                                     [g, bshift], eps=1e-5)

    xd = Tensor(SeededRng(12).normal((5, 5)), requires_grad=True, dtype=np.float64)
    worst["dropout"] = grad_check(
        lambda: ag.tsum(ag.dropout(xd, 0.5, train=True, rng=SeededRng(77))), [xd], eps=1e-5)

    xs = Tensor(SeededRng(13).normal((3, 4)), requires_grad=True, dtype=np.float64)
    ws = SeededRng(14).normal((3, 4))
    worst["softmax"] = grad_check(lambda: ag.tsum(ag.mul(ag.softmax_rows(xs), ws)), [xs], eps=1e-5)

    batch, _ = toy_batch(2, seed=15)
    for arch in ("mlp", "single_transformer", "multi_transformer"):
        model = build_model(toy_model_config(arch), seed=16, dtype=np.float64)

        def f(model=model):
            return weighted_bce(model.forward(batch), batch.labels, 0.25)

        worst[arch] = grad_check(f, model.params.tensors(), eps=1e-5)

    for name, err in worst.items():
        assert err < GRAD_TOL, f"{name}: rel err {err:.3e}"
    ok(1, f"gradients match finite differences, worst rel err "
          f"{max(worst.values()):.2e} < {GRAD_TOL} ({', '.join(worst)})")


# -- criterion 2: metric oracle equivalence --------------------------------

def test_criterion_2_metric_oracle():
    rng = SeededRng(0)
    checked = 0
    while checked < 1000:
        n = rng.randint(1, 13)
        scores = np.round(rng.uniform((n,)), 1)
        targets = (rng.uniform((n,)) < 0.4).astype(int)
        if targets.sum() == 0:
            continue
        assert average_precision(scores, targets) == pytest.approx(
            brute_force_ap(scores, targets), abs=1e-12)
        checked += 1

    scores = SeededRng(1).uniform((60, 21))
    targets = (SeededRng(2).uniform((60, 21)) < 0.3).astype(int)
    p, r, _ = precision_recall_at(scores, targets, 0.5)
    for c in range(21):
        tp = sum(1 for i in range(60) if scores[i, c] >= 0.5 and targets[i, c])
        fp = sum(1 for i in range(60) if scores[i, c] >= 0.5 and not targets[i, c])
        fn = sum(1 for i in range(60) if scores[i, c] < 0.5 and targets[i, c])
        assert p[c] == pytest.approx(tp / (tp + fp) if tp + fp else 0.0, abs=1e-12)
        assert r[c] == pytest.approx(tp / (tp + fn), abs=1e-12)
    ok(2, "AP exact vs brute force on 1000 instances; P/R match confusion counts")


# -- criterion 3: loss correctness ------------------------------------------

def test_criterion_3_loss():
    logits = np.zeros((1, 21), dtype=np.float64)
    targets = np.zeros((1, 21))
    targets[0, 0] = 1.0
    loss = weighted_bce(Tensor(logits), targets, 0.25).item()
    closed_form = (np.log(2.0) / 21.0) * (0.25 * 1 + 20)
    assert loss == pytest.approx(closed_form, abs=1e-12)
    assert loss == pytest.approx(0.66840, abs=LOSS_CASE_TOL)

    rng = SeededRng(3)
    z = rng.normal((16, 21), 0.0, 2.0)
    y = (rng.uniform((16, 21)) < 0.3).astype(np.float64)
    ours = weighted_bce(Tensor(z, dtype=np.float64), y, 1.0).item()
    p = 1.0 / (1.0 + np.exp(-z))
    plain = float((-(y * np.log(p) + (1 - y) * np.log(1 - p))).mean())
    assert ours == pytest.approx(plain, abs=PLAIN_BCE_TOL)

    extreme = weighted_bce(Tensor(np.array([[-1e6]], dtype=np.float32)), np.array([[0.0]]), 0.25).item()
    assert np.isfinite(extreme) and extreme < 1e-6
    ok(3, f"weighted BCE matches the closed form (0.66840 case at {LOSS_CASE_TOL}) "
          f"and plain BCE at w=1 to {PLAIN_BCE_TOL}")


# -- criterion 4: planted-signal learnability -------------------------------

LEARN_SPECS = (ModalitySpec("clip", 16, 12), ModalitySpec("ocr", 8, 6), ModalitySpec("asr", 8, 6),
               ModalitySpec("audiotag", 8, 8), ModalitySpec("musicnet", 6, 4))


@pytest.mark.slow
def test_criterion_4_planted_signal_learnability():
    records = synth_mean_encoded(512, seed=0, noise_std=0.1, specs=LEARN_SPECS)
    reached = {}
    for arch in ("mlp", "single_transformer", "multi_transformer"):
        model_cfg = ModelConfig(architecture=arch, model_dim=32, num_layers=1, num_heads=2,
                                dropout_rate=0.1, modalities=LEARN_SPECS)
        cfg = TrainConfig(model=model_cfg, lr=1e-3, batch_size=32, epochs=10_000,
                          max_steps=0, seed=0)
        trainer = Trainer(cfg, records)
        hit = None
        for budget in (500, 1000, 1500, LEARN_STEPS):
            trainer.config.max_steps = budget
            trainer.run()
            mean_ap = batched_map(trainer.model, records)
            if mean_ap >= LEARN_MAP:
                hit = (trainer.global_step, mean_ap)
                break
        assert hit is not None, f"{arch}: training mAP below {LEARN_MAP} after {LEARN_STEPS} steps"
        reached[arch] = hit
    summary = ", ".join(f"{a} mAP {m:.3f}@{s} steps" for a, (s, m) in reached.items())
    ok(4, f"all architectures reach training mAP >= {LEARN_MAP} within {LEARN_STEPS} steps ({summary})")


# -- criterion 5: order-sensitivity separation ------------------------------

@pytest.mark.slow
def test_criterion_5_order_sensitivity():
    records = synth_order_encoded(384, seed=0, dim=16, block_len=8)
    splits = split_records(records)
    spec = (ModalitySpec("clip", 16, 16),)
    ia, ib = GENRE_INDEX[ORDER_GENRES[0]], GENRE_INDEX[ORDER_GENRES[1]]

    def accuracy(model, recs):
        hits = 0
        for r in recs:
            probs = predict_scores(model, make_batch([r], spec, lengths="full"))[0]
            pred = ORDER_GENRES[0] if probs[ia] >= probs[ib] else ORDER_GENRES[1]
            hits += (pred == r.genres[0])
        return hits / len(recs)

    results = {}
    for arch in ("single_transformer", "mlp"):
        model_cfg = ModelConfig(architecture=arch, model_dim=32, num_layers=1, num_heads=2,
                                dropout_rate=0.0, modalities=spec)
        cfg = TrainConfig(model=model_cfg, lr=2e-3, batch_size=32, epochs=10_000,
                          max_steps=800, seed=0)
        model, _ = train(cfg, splits["train"])
        results[arch] = accuracy(model, splits["test"])

    assert results["single_transformer"] >= ORDER_TRANSFORMER_MIN, results
    assert results["mlp"] <= ORDER_MLP_MAX, results
    ok(5, f"order task: transformer acc {results['single_transformer']:.3f} >= {ORDER_TRANSFORMER_MIN}, "
          f"temporal-mean MLP acc {results['mlp']:.3f} <= {ORDER_MLP_MAX}")


# -- criterion 6: padding / batching equivalence -----------------------------

def test_criterion_6_padding_equivalence():
    worst = 0.0
    for arch in ("single_transformer", "multi_transformer"):
        model = build_model(toy_model_config(arch), seed=42)
        batch, records = toy_batch(100, seed=43)
        batched = predict_scores(model, batch)
        for i, rec in enumerate(records):
            single = predict_scores(model, make_batch([rec], TOY_SPECS, lengths="full"))
            worst = max(worst, float(np.max(np.abs(batched[i] - single[0]))))
    assert worst < PAD_EQUIV_TOL
    ok(6, f"padded-batch vs single-sample max |dp| = {worst:.2e} < {PAD_EQUIV_TOL} over 100 samples x 2 archs")


# -- criterion 7: split / filter reproduction --------------------------------

def test_criterion_7_split_and_filter():
    records = [VideoRecord(id=f"v{i:06d}", duration_s=100.0, genres=("Drama",)) for i in range(26412)]
    assignment = split_dataset(records)
    counts = {"train": 0, "val": 0, "test": 0}
    for split in assignment.values():
        counts[split] += 1
    assert counts == {"train": 18488, "val": 2641, "test": 5283}

    fences = [VideoRecord(id="a", duration_s=19.6, genres=("Drama",)),
              VideoRecord(id="b", duration_s=19.59, genres=("Drama",)),
              VideoRecord(id="c", duration_s=214.4, genres=("Drama",)),
              VideoRecord(id="d", duration_s=214.41, genres=("Drama",))]
    kept, stats = filter_by_duration(fences)
    assert [r.id for r in kept] == ["a", "c"]
    assert stats.dropped_short == 1 and stats.dropped_long == 1
    ok(7, "26412 ids split exactly 18488/2641/5283; duration fences 19.6/214.4 inclusive")


# -- criterion 8: format round-trip ------------------------------------------

def test_criterion_8_formats(tmp_path):
    for seed in range(25):
        rng = SeededRng(seed)
        feats = {"clip": rng.normal((rng.randint(0, 9), 8)).astype(np.float32),
                 "ocr": rng.normal((rng.randint(0, 5), 4)).astype(np.float32)}
        path = str(tmp_path / f"r{seed}.mmf")
        write_mmf(feats, path)
        back = read_mmf(path)
        for k in feats:
            assert np.array_equal(back[k], feats[k])

    src = tmp_path / "npy"
    src.mkdir()
    import json
    cases = {"rank1": np.ones(512, dtype=np.float32),
             "fortran": np.asfortranarray(np.ones((4, 512), dtype=np.float32)),
             "intdtype": np.ones((4, 512), dtype=np.int32)}
    samples = []
    for vid, arr in cases.items():
        np.save(src / f"{vid}.npy", arr)
        samples.append({"id": vid, "duration_s": 60.0, "genres": ["Action"],
                        "features": {"clip": f"{vid}.npy"}})
    manifest = tmp_path / "src.json"
    manifest.write_text(json.dumps({"samples": samples}))
    summary = import_npy(str(src), str(manifest), str(tmp_path / "out"), default_modalities())
    assert summary["imported"] == 0 and summary["failed"] == 3
    joined = " ".join(summary["errors"])
    assert "rank" in joined and "Fortran" in joined and "dtype" in joined
    ok(8, "MMF write/read bit-exact incl. empty modalities; NPY import rejects rank/order/dtype")


# -- criterion 9: determinism -------------------------------------------------

def test_criterion_9_determinism(tmp_path):
    specs = (ModalitySpec("clip", 12, 8), ModalitySpec("audiotag", 6, 5))
    records = synth_mean_encoded(24, seed=5, noise_std=0.1, specs=specs)
    model_cfg = ModelConfig(architecture="single_transformer", model_dim=16, num_layers=1,
                            num_heads=2, dropout_rate=0.1, modalities=specs)

    def cfg(**kw):
        base = dict(model=model_cfg, lr=1e-3, batch_size=8, epochs=3, seed=11)
        base.update(kw)
        return TrainConfig(**base)

    m1, h1 = train(cfg(), records)
    m2, h2 = train(cfg(), records)
    assert h1.losses == h2.losses
    for k, t in m1.params.items():
        assert np.array_equal(t.data, m2.params[k].data)

    part = str(tmp_path / "part")
    train(cfg(max_steps=4, checkpoint_dir=part), records)   # interrupt mid-epoch (3 steps/epoch)
    resumed = Trainer.resume(cfg(), records, (), part)
    h3 = resumed.run()
    assert h3.losses == h1.losses
    for k, t in m1.params.items():
        assert np.array_equal(t.data, resumed.model.params[k].data)
    ok(9, "same seed => bit-identical loss history and parameters; resume == uninterrupted")


# -- criterion 10: optional full-scale reproduction ---------------------------

@pytest.mark.skipif("MOVIENET_FEATURES_DIR" not in os.environ,
                    reason="full-scale reproduction needs the released feature set "
                           "(set MOVIENET_FEATURES_DIR); runtime is hours on a multicore CPU")
def test_criterion_10_full_reproduction():
    from genreclf.data import load_manifest
    data_dir = os.environ["MOVIENET_FEATURES_DIR"]
    records = load_manifest(os.path.join(data_dir, "manifest.json"))
    kept, _ = filter_by_duration(records)
    splits = split_records(kept)
    cfg = TrainConfig(model=ModelConfig.preset("multi_transformer", averaged=("ocr", "asr")),
                      lr=1e-5, batch_size=32,
                      epochs=int(os.environ.get("MOVIENET_EPOCHS", "20")),
                      eval_interval=2000, seed=0)
    trainer = Trainer(cfg, splits["train"], splits["val"])
    trainer.run()
    from genreclf.training import evaluate
    report = evaluate(trainer.model, splits["test"])
    assert report.mean_ap >= 0.630
    assert abs(report.macro_precision - 0.8200) <= 0.05
    assert abs(report.macro_recall - 0.3833) <= 0.05
    ok(10, f"full-scale multi-transformer test mAP {report.mean_ap:.4f} >= 0.63")
