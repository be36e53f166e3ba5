import hashlib
import json
import os
import shutil
from dataclasses import replace
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import genreclf.autograd as ag
import genreclf.checkpoint as checkpoint
import genreclf.data as data
import genreclf.mmf as mmf
import genreclf.training as training
from genreclf.autograd import Tensor, backward, no_grad
from genreclf.data import VideoRecord, make_batch
from genreclf.errors import ConfigError, DataError, NumericError
from genreclf.gradcheck import grad_check
from genreclf.metrics import compute_report, to_csv
from genreclf.models import ARCHITECTURES, ModelConfig, build_model, predict_scores
from genreclf.mmf import read_json, write_mmf
from genreclf.modalities import ModalitySpec
from genreclf.rng import SeededRng
from genreclf.synth import synth_mean_encoded
from genreclf.training import TrainConfig, Trainer, evaluate, train, weighted_bce
from genreclf.vocab import label_vector
from jsonedit import DROP, edited

SMALL_SPECS = (ModalitySpec("clip", 12, 8), ModalitySpec("audiotag", 6, 5))
STATE_FIELDS = ("global_step", "epoch", "step_in_epoch", "adam_t", "adam_manifest", "dropout_rng",
                "best_step", "best_map", "losses", "sha256", "evals")


def small_config(arch="mlp", **overrides):
    mods = overrides.pop("modalities", SMALL_SPECS)
    base = {"mlp": dict(model_dim=16, num_layers=1, num_heads=1),
            "single_transformer": dict(model_dim=16, num_layers=1, num_heads=2),
            "multi_transformer": dict(model_dim=16, num_layers=1, num_heads=2)}[arch]
    base.update(overrides)
    return ModelConfig(architecture=arch, modalities=mods, dropout_rate=base.pop("dropout_rate", 0.1), **base)


def naive_weighted_bce(logits, targets, w):
    """Direct probability-space reference (safe for moderate logits only)."""
    p = 1.0 / (1.0 + np.exp(-logits.astype(np.float64)))
    per_elem = -(w * targets * np.log(p) + (1 - targets) * np.log(1 - p))
    return per_elem.mean()


class TestWeightedBce:
    def test_perfect_predictions_zero_loss(self):
        logits = np.array([[40.0, -40.0], [-40.0, 40.0]], dtype=np.float32)
        targets = np.array([[1, 0], [0, 1]], dtype=np.float32)
        loss = weighted_bce(Tensor(logits), targets, 1.0)
        assert loss.item() < 1e-6

    def test_hand_case_one_positive_of_21(self):
        # one positive among 21, every probability 0.5, w = 0.25:
        # (ln 2 / 21) * (0.25 + 20)
        logits = np.zeros((1, 21), dtype=np.float64)
        targets = np.zeros((1, 21))
        targets[0, 0] = 1.0
        loss = weighted_bce(Tensor(logits), targets, 0.25).item()
        expected = (np.log(2.0) / 21.0) * (0.25 * 1 + 20)
        assert loss == pytest.approx(expected, abs=1e-9)
        assert loss == pytest.approx(0.66840, abs=1e-5)

    def test_reduces_to_plain_bce_at_w1(self):
        rng = SeededRng(0)
        logits = rng.normal((8, 21), 0.0, 2.0)
        targets = (rng.uniform((8, 21)) < 0.3).astype(np.float64)
        loss = weighted_bce(Tensor(logits, dtype=np.float64), targets, 1.0).item()
        assert loss == pytest.approx(naive_weighted_bce(logits, targets, 1.0), abs=1e-7)

    def test_matches_naive_reference_weighted(self):
        rng = SeededRng(1)
        logits = rng.normal((6, 21), 0.0, 3.0)
        targets = (rng.uniform((6, 21)) < 0.3).astype(np.float64)
        loss = weighted_bce(Tensor(logits, dtype=np.float64), targets, 0.25).item()
        assert loss == pytest.approx(naive_weighted_bce(logits, targets, 0.25), abs=1e-9)

    def test_extreme_logit_stays_finite(self):
        logits = np.array([[-1e6, 1e6]], dtype=np.float32)
        targets = np.array([[0.0, 1.0]])
        loss = weighted_bce(Tensor(logits), targets, 0.25).item()
        assert np.isfinite(loss) and loss < 1e-6

    def test_invalid_targets_rejected(self):
        with pytest.raises(ValueError, match="0 or 1"):
            weighted_bce(Tensor(np.zeros((1, 3))), np.array([[0.0, 0.5, 1.0]]), 1.0)

    def test_batch_permutation_invariant(self):
        rng = SeededRng(2)
        logits = rng.normal((10, 21))
        targets = (rng.uniform((10, 21)) < 0.3).astype(np.float64)
        base = weighted_bce(Tensor(logits, dtype=np.float64), targets, 0.25).item()
        perm = SeededRng(3).permutation(10)
        shuffled = weighted_bce(Tensor(logits[perm], dtype=np.float64), targets[perm], 0.25).item()
        assert base == pytest.approx(shuffled, abs=1e-12)

    def test_gradient_matches_finite_differences(self):
        rng = SeededRng(4)
        w = Tensor(rng.normal((5, 21), 0.0, 0.5), requires_grad=True, dtype=np.float64)
        x = rng.normal((3, 5))
        targets = (rng.uniform((3, 21)) < 0.3).astype(np.float64)

        def f():
            return weighted_bce(ag.matmul(Tensor(x, dtype=np.float64), w), targets, 0.25)

        assert grad_check(f, [w], eps=1e-6) < 1e-4

    def test_lower_weight_weakens_positive_gradient(self):
        rng = SeededRng(5)
        logits_np = rng.normal((4, 21))
        targets = (rng.uniform((4, 21)) < 0.4).astype(np.float64)
        norms = []
        for w in (0.1, 0.25, 0.5, 1.0):
            logits = Tensor(logits_np, requires_grad=True, dtype=np.float64)
            # positive-label path of the loss only
            pos_term = ag.tmean(ag.mul(ag.softplus(ag.mul(logits, -1.0)), targets * w))
            backward(pos_term)
            norms.append(float(np.linalg.norm(logits.grad)))
        assert norms == sorted(norms)
        assert norms[0] < norms[-1]


def mean_records(n=40, seed=0, noise=0.1):
    return synth_mean_encoded(n, seed=seed, noise_std=noise, specs=SMALL_SPECS)


@pytest.fixture(scope="module")
def saved_epoch(tmp_path_factory):
    """(directory, records) of a saved 1-epoch run, to be copied before it is edited."""
    records = mean_records(16, seed=69)
    out = str(tmp_path_factory.mktemp("saved_epoch"))
    train(TrainConfig(model=small_config(), lr=1e-3, batch_size=8, epochs=1, seed=71, checkpoint_dir=out), records)
    return out, records


class TestTrainer:
    def test_lr_zero_parameters_fixed(self):
        cfg = TrainConfig(model=small_config(), lr=0.0, batch_size=8, epochs=2, seed=1)
        trainer = Trainer(cfg, mean_records(20))
        before = trainer.model.params.to_arrays()
        trainer.run()
        after = trainer.model.params.to_arrays()
        for k in before:
            assert np.array_equal(before[k], after[k])

    @pytest.mark.parametrize("field, value", [("batch_size", 0), ("epochs", -1), ("max_steps", -1),
                                              ("eval_interval", -1), ("lr", -1e-3), ("lr", float("inf")),
                                              ("clip_norm", 0.0), ("clip_norm", float("nan"))])
    def test_out_of_range_config_refused(self, field, value):
        with pytest.raises(ConfigError, match=field):
            TrainConfig(model=small_config(), **{field: value})
        with pytest.raises(ConfigError, match=field):   # a replace builds the config anew
            replace(TrainConfig(model=small_config()), **{field: value})

    def test_no_step_run_keeps_initial_parameters(self):
        trainer = Trainer(TrainConfig(model=small_config(), lr=0.0, max_steps=0), mean_records(4))
        before = trainer.model.params.to_arrays()
        assert trainer.run().losses == [] and trainer.global_step == 0
        assert all(np.array_equal(v, trainer.model.params.to_arrays()[k]) for k, v in before.items())

    def test_path_backed_records_keep_no_features(self, tmp_path):
        records = []
        for r in mean_records(12):
            path = str(tmp_path / f"{r.id}.mmf")
            write_mmf(r.features, path)
            records.append(VideoRecord(r.id, r.duration_s, r.genres, path=path))
        cfg = TrainConfig(model=small_config(), lr=1e-3, batch_size=4, epochs=2, eval_interval=2, seed=2,
                          checkpoint_dir=str(tmp_path / "run"))
        trainer = Trainer(cfg, records[:8], records[8:10])
        trainer.run()
        evaluate(trainer.model, records[10:])
        assert len(trainer.history.evals) == 2   # 4 steps, validating every 2
        assert all(r.features is None for r in records)

    def test_same_seed_identical_loss_curves(self):
        cfg = TrainConfig(model=small_config(), lr=1e-3, batch_size=8, epochs=2, seed=7)
        _, h1 = train(cfg, mean_records(24))
        _, h2 = train(cfg, mean_records(24))
        assert h1.losses == h2.losses

    def test_same_seed_identical_parameters(self):
        cfg = TrainConfig(model=small_config("single_transformer"), lr=1e-3, batch_size=8,
                          epochs=1, seed=9)
        m1, _ = train(cfg, mean_records(16))
        m2, _ = train(cfg, mean_records(16))
        for k, t in m1.params.items():
            assert np.array_equal(t.data, m2.params[k].data)

    def test_different_seed_differs(self):
        recs = mean_records(16)
        cfg_a = TrainConfig(model=small_config(), lr=1e-3, batch_size=8, epochs=1, seed=1)
        cfg_b = TrainConfig(model=small_config(), lr=1e-3, batch_size=8, epochs=1, seed=2)
        _, h1 = train(cfg_a, recs)
        _, h2 = train(cfg_b, recs)
        assert h1.losses != h2.losses

    def test_last_incomplete_minibatch_used(self):
        cfg = TrainConfig(model=small_config(), lr=1e-3, batch_size=8, epochs=1, seed=3)
        _, hist = train(cfg, mean_records(20))   # 20 = 8 + 8 + 4
        assert len(hist.losses) == 3

    def test_max_steps_respected(self):
        cfg = TrainConfig(model=small_config(), lr=1e-3, batch_size=4, epochs=10, max_steps=5, seed=4)
        _, hist = train(cfg, mean_records(20))
        assert len(hist.losses) == 5

    @pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
    def test_non_finite_loss_aborts_with_ids(self):
        records = mean_records(8)
        records[0].features["clip"][0, 0] = np.float32(3e38)
        cfg = TrainConfig(model=small_config(), lr=1e-3, batch_size=8, epochs=1, seed=5)
        trainer = Trainer(cfg, records)
        trainer.model.params["hidden.w"].data[:] = 3e38
        with pytest.raises(NumericError, match="batch ids"):
            trainer.run()

    @pytest.mark.parametrize("fault", ("missing stream", "truncated file"))
    def test_step_that_raises_leaves_an_empty_tape(self, tmp_path, fault):
        # the clip encoder records nodes before the fault surfaces in the ocr stream or the first read
        records = memo_records(tmp_path, n=4)
        specs = MEMO_SPECS
        if fault == "missing stream":
            specs = MEMO_SPECS[:1]
        else:
            with open(records[2].path, "r+b") as f:
                f.truncate(40)
        cfg = TrainConfig(model=small_config("multi_transformer", modalities=MEMO_SPECS), lr=1e-3, seed=6)
        trainer = Trainer(cfg, records)
        with pytest.raises(DataError):
            trainer._train_step(make_batch(records, specs))
        assert ag.tape_size() == 0

    def test_checkpoint_resume_bit_exact(self, tmp_path):
        records = mean_records(24, seed=11)
        full_cfg = TrainConfig(model=small_config(), lr=1e-3, batch_size=8, epochs=3, seed=13)
        _, full_hist = train(full_cfg, records)

        part_dir = str(tmp_path / "part")
        part_cfg = TrainConfig(model=small_config(), lr=1e-3, batch_size=8, epochs=1, seed=13,
                               checkpoint_dir=part_dir)
        train(part_cfg, records)

        resume_cfg = TrainConfig(model=small_config(), lr=1e-3, batch_size=8, epochs=3, seed=13)
        resumed = Trainer.resume(resume_cfg, records, (), part_dir)
        resumed_hist = resumed.run()
        assert resumed_hist.losses == full_hist.losses

        fresh_cfg = TrainConfig(model=small_config(), lr=1e-3, batch_size=8, epochs=3, seed=13)
        uninterrupted, _ = train(fresh_cfg, records)
        for k, t in uninterrupted.params.items():
            assert np.array_equal(t.data, resumed.model.params[k].data)

    def test_mid_epoch_resume_bit_exact(self, tmp_path):
        records = mean_records(24, seed=21)
        full_cfg = TrainConfig(model=small_config(), lr=1e-3, batch_size=8, epochs=2, seed=23)
        full_model, full_hist = train(full_cfg, records)

        part_dir = str(tmp_path / "mid")
        part_cfg = TrainConfig(model=small_config(), lr=1e-3, batch_size=8, epochs=2,
                               max_steps=4, seed=23, checkpoint_dir=part_dir)
        train(part_cfg, records)   # stops mid-epoch (epoch has 3 steps)

        resume_cfg = TrainConfig(model=small_config(), lr=1e-3, batch_size=8, epochs=2, seed=23)
        resumed = Trainer.resume(resume_cfg, records, (), part_dir)
        resumed_hist = resumed.run()
        assert resumed_hist.losses == full_hist.losses
        for k, t in full_model.params.items():
            assert np.array_equal(t.data, resumed.model.params[k].data)

    def test_trainer_state_is_standard_json(self, tmp_path):
        records = mean_records(24, seed=41)
        full_model, full_hist = train(
            TrainConfig(model=small_config(), lr=1e-3, batch_size=8, epochs=2, seed=43), records)

        part_dir = str(tmp_path / "noval")
        train(TrainConfig(model=small_config(), lr=1e-3, batch_size=8, epochs=2, max_steps=2, seed=43,
                          checkpoint_dir=part_dir), records)   # no validation: best_map stays -inf

        state = read_json(os.path.join(part_dir, "trainer_state.json"))   # NaN or Infinity raise
        assert state["best_map"] is None

        resumed = Trainer.resume(TrainConfig(model=small_config(), lr=1e-3, batch_size=8, epochs=2, seed=43),
                                 records, (), part_dir)
        assert resumed.history.best_map == float("-inf")
        assert resumed.run().losses == full_hist.losses
        for k, t in full_model.params.items():
            assert np.array_equal(t.data, resumed.model.params[k].data)

    def test_resume_rejects_another_model_config(self, tmp_path):
        records = mean_records(16, seed=51)
        part_dir = str(tmp_path / "part")
        train(TrainConfig(model=small_config(), lr=1e-3, batch_size=8, epochs=1, seed=53,
                          checkpoint_dir=part_dir), records)
        other = TrainConfig(model=small_config(model_dim=24), lr=1e-3, batch_size=8, epochs=2, seed=53)
        with pytest.raises(ConfigError, match="saved model config differs"):
            Trainer.resume(other, records, (), part_dir)

    def test_resume_builds_one_model(self, tmp_path, monkeypatch):
        records = mean_records(16, seed=55)
        part_dir = str(tmp_path / "part")
        train(TrainConfig(model=small_config(), lr=1e-3, batch_size=8, epochs=1, seed=57,
                          checkpoint_dir=part_dir), records)
        built = []

        def counting_build(*args, **kwargs):
            built.append(args)
            return build_model(*args, **kwargs)

        monkeypatch.setattr(training, "build_model", counting_build)
        monkeypatch.setattr(checkpoint, "build_model", counting_build)
        Trainer.resume(TrainConfig(model=small_config(), lr=1e-3, batch_size=8, epochs=2, seed=57),
                       records, (), part_dir)
        assert len(built) == 1

    @pytest.mark.parametrize("arch", ARCHITECTURES)
    def test_resume_draws_no_initial_weight(self, tmp_path, monkeypatch, arch):
        records = mean_records(24, seed=59)
        cfg = partial(TrainConfig, model=small_config(arch), lr=1e-3, batch_size=8, epochs=2, seed=59)
        full_model, full_hist = train(cfg(), records)
        part_dir = str(tmp_path / "part")
        train(cfg(max_steps=2, checkpoint_dir=part_dir), records)
        draws = []

        def counting(name):
            draw = getattr(SeededRng, name)

            def wrapper(self, *args, **kwargs):
                draws.append(name)
                return draw(self, *args, **kwargs)
            return wrapper

        for name in ("uniform", "normal"):
            monkeypatch.setattr(SeededRng, name, counting(name))
        resumed = Trainer.resume(cfg(), records, (), part_dir)
        monkeypatch.undo()
        assert draws == []
        assert resumed.run().losses == full_hist.losses
        for k, t in full_model.params.items():
            assert np.array_equal(t.data, resumed.model.params[k].data)

    @pytest.mark.parametrize("failing", ["last.json", "trainer_state.bin", "trainer_state.json"])
    def test_torn_snapshot_is_refused(self, tmp_path, monkeypatch, failing):
        # a resumed run reaches step 4 and its save stops at ``failing``: last.bin
        # then holds step-4 parameters while trainer_state.json still describes step 2
        records = mean_records(24, seed=61)
        part_dir = str(tmp_path / "part")
        train(TrainConfig(model=small_config(), lr=1e-3, batch_size=8, epochs=2, max_steps=2, seed=63,
                          checkpoint_dir=part_dir), records)
        resumed = Trainer.resume(TrainConfig(model=small_config(), lr=1e-3, batch_size=8, epochs=2, max_steps=4,
                                             seed=63, checkpoint_dir=part_dir), records, (), part_dir)
        write_atomic = mmf.write_atomic

        def stop_at(path, data, **kwargs):
            if os.path.basename(path) == failing:
                raise OSError(f"injected failure writing {path}")
            write_atomic(path, data, **kwargs)

        monkeypatch.setattr(checkpoint, "write_atomic", stop_at)
        monkeypatch.setattr(mmf, "write_atomic", stop_at)   # under write_json
        with pytest.raises(OSError, match="injected"):
            resumed.run()
        assert resumed.global_step == 4
        with pytest.raises(DataError, match="last.bin: the SHA-256 differs"):
            Trainer.resume(TrainConfig(model=small_config(), lr=1e-3, batch_size=8, epochs=2, seed=63),
                           records, (), part_dir)

    def test_save_the_state_refuses_leaves_the_directory_as_it_was(self, tmp_path):
        # a state resumed at the last Adam step count that fits trains one step, past which the count no longer
        # fits: the save is refused before it writes a file, so the directory still resumes
        records = mean_records(16, seed=77)
        part_dir = str(tmp_path / "part")
        cfg = partial(TrainConfig, model=small_config(), lr=1e-3, batch_size=8, epochs=5, seed=79,
                      checkpoint_dir=part_dir)
        train(cfg(max_steps=1), records)
        path = os.path.join(part_dir, "trainer_state.json")
        with open(path) as fh:
            state = json.load(fh)
        state["adam_t"] = 2**63 - 1
        with open(path, "w") as fh:
            json.dump(state, fh)
        before = {path.name: path.read_bytes() for path in (tmp_path / "part").iterdir()}
        resumed = Trainer.resume(cfg(max_steps=2), records, (), part_dir)
        with pytest.raises(ConfigError, match="'adam_t' must be an integer in"):
            resumed.run()
        assert resumed.global_step == 2
        assert {path.name: path.read_bytes() for path in (tmp_path / "part").iterdir()} == before
        assert Trainer.resume(cfg(max_steps=2), records, (), part_dir).adam.t == 2**63 - 1

    def test_resumed_parameters_and_moments_are_writable_copies(self, tmp_path):
        records = mean_records(24, seed=69)
        part_dir = str(tmp_path / "part")
        cfg = TrainConfig(model=small_config(), lr=1e-3, batch_size=8, epochs=2, max_steps=2, seed=71,
                          checkpoint_dir=part_dir)
        saved = Trainer(cfg, records)
        saved.run()
        resumed = Trainer.resume(cfg, records, (), part_dir)
        for name, t in saved.model.params.items():
            for before, after in ((t.data, resumed.model.params[name].data),
                                  (saved.adam.m[name], resumed.adam.m[name]),
                                  (saved.adam.v[name], resumed.adam.v[name])):
                assert after.flags.writeable and after.flags.c_contiguous
                assert after.dtype == before.dtype and after.tobytes() == before.tobytes()

    def test_adam_state_of_another_step_is_refused(self, tmp_path):
        # same parameter names and shapes, so the manifest offsets still fit
        records = mean_records(24, seed=65)
        dirs = [str(tmp_path / f"steps{n}") for n in (2, 3)]
        for n, out in zip((2, 3), dirs):
            train(TrainConfig(model=small_config(), lr=1e-3, batch_size=8, epochs=2, max_steps=n, seed=67,
                              checkpoint_dir=out), records)
        os.replace(os.path.join(dirs[1], "trainer_state.bin"), os.path.join(dirs[0], "trainer_state.bin"))
        with pytest.raises(DataError, match="trainer_state.bin: the SHA-256 differs"):
            Trainer.resume(TrainConfig(model=small_config(), lr=1e-3, batch_size=8, epochs=2, seed=67),
                           records, (), dirs[0])

    @pytest.mark.parametrize("moment, value, message", [
        ("v", -0.5, "part: a second Adam moment is negative"),
        ("v", np.inf, "trainer_state.bin: a stored value is not finite"),
        ("m", np.nan, "trainer_state.bin: a stored value is not finite")], ids=["v--0.5", "v-inf", "m-nan"])
    def test_adam_moment_the_saver_cannot_write_is_refused(self, tmp_path, moment, value, message):
        # with its SHA-256 updated to match: a negative second moment would put NaN into the parameter at the
        # next step, through the square root
        records = mean_records(16, seed=83)
        part_dir = str(tmp_path / "part")
        cfg = partial(TrainConfig, model=small_config(), lr=1e-3, batch_size=8, epochs=2, seed=85,
                      checkpoint_dir=part_dir)
        train(cfg(max_steps=1), records)
        path = os.path.join(part_dir, "trainer_state.json")
        with open(path) as fh:
            state = json.load(fh)
        entry = next(e for e in state["adam_manifest"] if e["name"].startswith(moment + "."))
        blob = bytearray((tmp_path / "part" / "trainer_state.bin").read_bytes())
        blob[entry["offset"]:entry["offset"] + 4] = np.float32(value).tobytes()
        (tmp_path / "part" / "trainer_state.bin").write_bytes(blob)
        state["sha256"]["trainer_state.bin"] = hashlib.sha256(blob).hexdigest()
        with open(path, "w") as fh:
            json.dump(state, fh)
        with pytest.raises(DataError, match=message):
            Trainer.resume(cfg(max_steps=2), records, (), part_dir)

    def test_a_step_to_a_non_finite_weight_saves_nothing(self, tmp_path):
        # the saved first moment of the head bias is 3e38 and its second moment 0, with the SHA-256 updated:
        # the next step divides the first by 0.19 and moves the bias to infinity, so the run stops at its save
        records = mean_records(16, seed=87)
        cfg = partial(TrainConfig, model=small_config(), lr=1e-3, batch_size=8, epochs=3, seed=89)
        part, out = tmp_path / "part", tmp_path / "out"
        train(cfg(max_steps=1, checkpoint_dir=str(part)), records)
        state = json.loads((part / "trainer_state.json").read_text())
        blob = bytearray((part / "trainer_state.bin").read_bytes())
        for entry in state["adam_manifest"]:
            if entry["name"] in ("m.head.b", "v.head.b"):
                size = 4 * int(np.prod(entry["shape"]))
                moment = 3e38 if entry["name"][0] == "m" else 0.0
                blob[entry["offset"]:entry["offset"] + size] = np.full(size // 4, moment, "<f4").tobytes()
        (part / "trainer_state.bin").write_bytes(blob)
        state = edited(state, ("sha256", "trainer_state.bin"), hashlib.sha256(blob).hexdigest())
        (part / "trainer_state.json").write_text(json.dumps(state))
        trainer = Trainer.resume(cfg(max_steps=2, checkpoint_dir=str(out)), records, (), str(part))
        with np.errstate(over="ignore"), pytest.raises(NumericError, match="last.bin: a value to save is not finite"):
            trainer.run()
        assert trainer.global_step == 2 and not np.isfinite(trainer.model.params["head.b"].data).all()
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("keys, value", [
        *[((key,), DROP) for key in STATE_FIELDS],
        (("dropout_rng", "seed"), DROP), (("dropout_rng", "counter"), DROP),
        (("sha256", "last.bin"), DROP), (("sha256", "trainer_state.bin"), DROP),
        (("global_step",), "2"), (("epoch",), 1.0), (("step_in_epoch",), None), (("adam_t",), True),
        (("global_step",), -1), (("adam_manifest",), {}), (("dropout_rng",), [1, 2]),
        (("dropout_rng", "counter"), -5), (("dropout_rng", "seed"), 1.5), (("best_step",), 0.5),
        (("dropout_rng", "counter"), 2**70), (("dropout_rng", "seed"), 2**64),
        (("best_map",), "0.5"), (("best_map",), False), (("losses",), {}), (("losses",), [[1]]),
        (("losses",), [[1, "0.3"]]), (("sha256",), "abc"), (("sha256", "last.bin"), 5),
        (("adam_t",), 10**400), (("best_map",), 10**400), (("losses",), [[1, 10**400]]),
        (("adam_t",), 2**63), (("global_step",), 2**63), (("losses",), [[-1, 0.5]]),
        (("evals",), {}), (("evals",), [[1, 0.5]]), (("evals",), [[1, "step,loss"]]), (("evals",), [["1", ""]]),
    ], ids=lambda v: "missing" if v is DROP else ".".join(v) if isinstance(v, tuple) else f"{v!r:.40}")
    def test_malformed_state_field_is_data_error(self, saved_epoch, tmp_path, keys, value):
        saved, records = saved_epoch
        part = shutil.copytree(saved, tmp_path / "part")
        state = json.loads((part / "trainer_state.json").read_text())
        (part / "trainer_state.json").write_text(json.dumps(edited(state, keys, value)))
        with pytest.raises(DataError, match=f"field '{keys[0]}'"):
            Trainer.resume(TrainConfig(model=small_config(), lr=1e-3, batch_size=8, epochs=2, seed=71),
                           records, (), str(part))

    def test_best_map_written_as_an_integer_resumes_runs_and_saves(self, tmp_path):
        records = mean_records(16, seed=73)
        part_dir = str(tmp_path / "part")
        cfg = partial(TrainConfig, model=small_config(), lr=1e-3, batch_size=4, epochs=2, eval_interval=1, seed=75)
        train(cfg(max_steps=2, checkpoint_dir=part_dir), records[:12], records[12:])
        path = os.path.join(part_dir, "trainer_state.json")
        with open(path) as fh:
            state = json.load(fh)
        state["best_map"] = 10**20
        with open(path, "w") as fh:
            json.dump(state, fh)
        resumed = Trainer.resume(cfg(max_steps=4, checkpoint_dir=str(tmp_path / "out")), records[:12], records[12:],
                                 part_dir)
        assert resumed.history.best_map == 1e20
        resumed.run()
        assert resumed.global_step == 4 and resumed.history.best_step == state["best_step"]
        assert read_json(str(tmp_path / "out" / "trainer_state.json"))["best_map"] == 1e20

    def test_resume_keeps_the_validation_history(self, tmp_path):
        records = mean_records(16, seed=77)
        cfg = partial(TrainConfig, model=small_config(), lr=1e-3, batch_size=4, epochs=2, eval_interval=1, seed=79)
        _, whole = train(cfg(), records[:12], records[12:])
        part_dir = str(tmp_path / "part")
        train(cfg(max_steps=2, checkpoint_dir=part_dir), records[:12], records[12:])
        resumed = Trainer.resume(cfg(), records[:12], records[12:], part_dir).run()
        assert [step for step, _ in resumed.evals] == list(range(1, 7))
        assert resumed.to_csv() == whole.to_csv()
        assert [to_csv(r) for _, r in resumed.evals] == [to_csv(r) for _, r in whole.evals]

    def test_best_checkpoint_tracks_validation_map(self, tmp_path):
        records = mean_records(32, seed=31)
        cfg = TrainConfig(model=small_config(), lr=5e-3, batch_size=8, epochs=4, seed=33,
                          eval_interval=4, checkpoint_dir=str(tmp_path / "ck"))
        trainer = Trainer(cfg, records[:24], records[24:])
        hist = trainer.run()
        assert hist.evals
        maps = {step: r.mean_ap for step, r in hist.evals}
        assert hist.best_map == max(maps.values())
        assert maps[hist.best_step] == hist.best_map
        import os
        assert os.path.exists(str(tmp_path / "ck" / "best.json"))

    def test_history_csv_shape(self):
        cfg = TrainConfig(model=small_config(), lr=1e-3, batch_size=8, epochs=1, seed=35)
        _, hist = train(cfg, mean_records(16))
        lines = hist.to_csv().strip().splitlines()
        assert lines[0] == "step,loss,val_mAP,val_P,val_R"
        assert len(lines) == 1 + len(hist.losses)


class TestEvaluate:
    def test_empty_records_rejected(self):
        model = build_model(small_config(), seed=0)
        with pytest.raises(DataError):
            evaluate(model, [])

    def test_perfect_model_scores_one(self):
        # a model stub that outputs the targets exactly
        records = mean_records(10, seed=41)
        model = build_model(small_config(), seed=0)

        class Oracle:
            config = model.config

            def forward(self, batch, train=False, rng=None):
                return Tensor((batch.labels * 20.0 - 10.0).astype(np.float32))

        report = evaluate(Oracle(), records)
        assert report.macro_precision == 1.0
        assert report.macro_recall == 1.0
        assert report.mean_ap == 1.0

    def test_constant_model_ap_equals_prevalence(self):
        records = mean_records(20, seed=43)
        model = build_model(small_config(), seed=0)

        class Constant:
            config = model.config

            def forward(self, batch, train=False, rng=None):
                return Tensor(np.zeros((batch.labels.shape[0], 21), dtype=np.float32))

        report = evaluate(Constant(), records)
        targets = np.stack([label_vector(r.genres) for r in records]).astype(np.float64)
        for c in range(21):
            if targets[:, c].sum() > 0:
                assert report.ap[c] == pytest.approx(targets[:, c].mean(), abs=1e-12)

    def test_evaluation_is_side_effect_free(self):
        records = mean_records(6, seed=45)
        model = build_model(small_config("multi_transformer"), seed=1)
        before = model.params.to_arrays()
        evaluate(model, records)
        after = model.params.to_arrays()
        for k in before:
            assert np.array_equal(before[k], after[k])


def sized_records(rows, seed):
    """One SMALL_SPECS record per (clip rows, audiotag rows) pair."""
    rng = SeededRng(seed)
    records = []
    for i, counts in enumerate(rows):
        genres = tuple(g for g in ("Action", "Drama", "Horror") if rng.uniform(()) < 0.5) or ("Comedy",)
        feats = {s.name: rng.normal((t, s.input_dim)).astype(np.float32) for s, t in zip(SMALL_SPECS, counts)}
        records.append(VideoRecord(id=f"b{i:03d}", duration_s=60.0, genres=genres, features=feats))
    return records


def random_rows(n, seed):
    """Rows from none to past each positional table (clip 8, audiotag 5):
    the first record's audiotag stream is empty, the last one's clip stream
    longer than its table."""
    rng = SeededRng(seed)
    rows = [(int(rng.randint(0, 12)), int(rng.randint(0, 8))) for _ in range(n)]
    rows[0], rows[-1] = (rows[0][0], 0), (11, rows[-1][1])
    return rows


def evaluated(model, records, monkeypatch):
    """``evaluate``'s report and the score matrix it was computed from."""
    seen = []
    real = training.compute_report
    monkeypatch.setattr(training, "compute_report", lambda s, t, th: seen.append(s.copy()) or real(s, t, th))
    report = evaluate(model, records)
    return report, seen[-1]


def one_by_one(model, records):
    """Per-record scores at full duration: what ``evaluate`` scored before buckets."""
    return np.concatenate([predict_scores(model, make_batch([r], model.config.modalities, lengths="full"))
                           for r in records]).astype(np.float64)


def spy_buckets(monkeypatch):
    """The record ids of every batch the training module makes; each must be full length."""
    buckets = []
    real = training.make_batch

    def spy(records, specs, lengths):
        assert lengths == "full"
        buckets.append([r.id for r in records])
        return real(records, specs, lengths=lengths)
    monkeypatch.setattr(training, "make_batch", spy)
    return buckets


BUCKET_MODELS = [("mlp", ()), ("single_transformer", ()), ("single_transformer", ("audiotag",)),
                 ("single_transformer", ("clip", "audiotag")), ("multi_transformer", ()),
                 ("multi_transformer", ("audiotag",)), ("multi_transformer", ("clip", "audiotag"))]


def bucket_config(arch, averaged=()):
    mods = tuple(ModalitySpec(s.name, s.input_dim, s.train_max_len, s.name in averaged) for s in SMALL_SPECS)
    return small_config(arch, modalities=mods, **({} if arch == "mlp" else {"num_layers": 2}))


class TestBucketedEvaluate:
    """``evaluate`` scores consecutive buckets of EVAL_BATCH records when no
    stream is padded, and one record at a time otherwise."""

    def test_bucket_size_is_the_paper_batch(self):
        assert training.EVAL_BATCH == 32

    @pytest.mark.parametrize("arch, averaged, size", [
        ("mlp", (), 32), ("single_transformer", ("clip", "audiotag"), 32),
        ("multi_transformer", ("clip", "audiotag"), 32), ("single_transformer", (), 1), ("single_transformer", ("audiotag",), 1), ("multi_transformer", ("clip",), 1)])
    def test_only_models_without_token_streams_score_in_buckets(self, arch, averaged, size, monkeypatch):
        buckets = spy_buckets(monkeypatch)
        model = build_model(bucket_config(arch, averaged), seed=11)
        records = sized_records(random_rows(70, seed=12), seed=13)
        evaluate(model, records)
        ids = [r.id for r in records]
        assert buckets == [ids[i:i + size] for i in range(0, 70, size)]

    @pytest.mark.parametrize("n", (1, 31, 32, 33, 65))
    @pytest.mark.parametrize("arch, averaged", BUCKET_MODELS)
    def test_float64_bit_identical_to_one_record_at_a_time(self, arch, averaged, n, monkeypatch):
        model = build_model(bucket_config(arch, averaged), seed=n, dtype=np.float64)
        records = sized_records(random_rows(n, seed=n), seed=n + 1)
        report, scores = evaluated(model, records, monkeypatch)
        want = one_by_one(model, records)
        assert scores.tobytes() == want.tobytes()
        targets = np.stack([label_vector(r.genres) for r in records])
        assert to_csv(report) == to_csv(compute_report(want, targets, model.config.threshold))

    @pytest.mark.parametrize("arch, averaged", BUCKET_MODELS)
    def test_float32_within_criterion_6(self, arch, averaged, monkeypatch):
        model = build_model(bucket_config(arch, averaged), seed=5)
        records = sized_records(random_rows(65, seed=6), seed=7)
        _, scores = evaluated(model, records, monkeypatch)
        assert np.abs(scores - one_by_one(model, records)).max() <= 1e-5

    @pytest.mark.parametrize("arch, averaged", BUCKET_MODELS)
    def test_two_calls_give_byte_identical_reports(self, arch, averaged):
        model = build_model(bucket_config(arch, averaged), seed=8)
        records = sized_records(random_rows(40, seed=9), seed=10)
        assert to_csv(evaluate(model, records)) == to_csv(evaluate(model, records))

    def test_path_backed_and_clip_frames_records(self, tmp_path, monkeypatch):
        import genreclf.data as data
        records = sized_records(random_rows(40, seed=14), seed=15)
        for i, r in enumerate(records):
            if i % 3:
                path = str(tmp_path / f"{r.id}.mmf")
                write_mmf(r.features, path)
                records[i] = VideoRecord(r.id, r.duration_s, r.genres, path=path)
            if i % 4 == 0:
                records[i].clip_frames = np.arange(0, len(r.features["clip"]), 2)
        buckets, mapped = spy_buckets(monkeypatch), []
        real = data.read_mmf
        monkeypatch.setattr(data, "read_mmf", lambda path: mapped.append(path) or real(path))
        for arch, averaged in BUCKET_MODELS:
            model = build_model(bucket_config(arch, averaged), seed=16, dtype=np.float64)
            buckets.clear()
            mapped.clear()
            _, scores = evaluated(model, records, monkeypatch)
            assert sum(buckets, []) == [r.id for r in records]
            assert sorted(mapped) == sorted(r.path for r in records if r.path)   # each file mapped once
            assert scores.tobytes() == one_by_one(model, records).tobytes()
        assert all(r.features is None for r in records if r.path)

    @pytest.mark.parametrize("arch, averaged", BUCKET_MODELS)
    def test_a_feature_that_is_not_a_table_is_data_error(self, arch, averaged):
        records = sized_records(random_rows(3, seed=18), seed=19)
        records[1].features["clip"] = np.float32(1.0)
        with pytest.raises(DataError, match="incompatible with input_dim"):
            evaluate(build_model(bucket_config(arch, averaged), seed=20), records)

    @settings(max_examples=25, deadline=None)
    @given(arch=st.sampled_from(BUCKET_MODELS),
           rows=st.lists(st.tuples(st.integers(0, 12), st.integers(0, 8)), min_size=1, max_size=70))
    def test_float64_bit_identical_for_any_lengths(self, arch, rows):
        model = build_model(bucket_config(*arch), seed=len(rows), dtype=np.float64)
        records = sized_records(rows, seed=17)
        want = one_by_one(model, records)
        targets = np.stack([label_vector(r.genres) for r in records])
        assert to_csv(evaluate(model, records)) == to_csv(compute_report(want, targets, model.config.threshold))


@pytest.mark.parametrize("arch", ARCHITECTURES)
def test_float32_preset_stays_float32(arch, monkeypatch):
    """A float32 model trains and scores in float32 throughout: every tape
    node, every gradient and the logits, with no ordered float64 product."""
    def ordered_product(a, b):
        raise AssertionError(f"float64 matmul on {a.dtype} @ {b.dtype} in a float32 model")

    nodes, grad_dtypes, logits = [], set(), []
    record, bce = ag._record, training.weighted_bce

    def spy_record(out, fn):
        # backward releases each node's gradient once the node has run, so
        # its dtype is taken as the node receives it
        def bwd(g):
            grad_dtypes.add(g.dtype)
            return fn(g)
        nodes.append(out)
        return record(out, bwd)

    def spy_bce(z, targets, positive_weight):
        logits.append(z)
        return bce(z, targets, positive_weight)

    monkeypatch.setattr(ag, "_matmul_ordered", ordered_product)
    monkeypatch.setattr(ag, "_record", spy_record)
    monkeypatch.setattr(training, "weighted_bce", spy_bce)

    config = ModelConfig.preset(arch)
    records = synth_mean_encoded(2, seed=51, specs=config.modalities)
    trainer = Trainer(TrainConfig(model=config, lr=1e-3, batch_size=2, max_steps=1, seed=53), records)
    trainer.run()
    assert len(trainer.history.losses) == 1 and len(logits) == 1 and nodes
    assert logits[0].dtype == np.float32
    assert {n.dtype for n in nodes} == {np.dtype(np.float32)}
    assert grad_dtypes == {np.dtype(np.float32)}
    assert all(n.grad is None for n in nodes)
    grads = [p.grad for p in trainer.model.params.tensors()]
    assert all(g is not None and g.dtype == np.float32 for g in grads)

    batch = make_batch(records[:1], config.modalities, lengths="full")
    with no_grad():
        assert trainer.model.forward(batch).dtype == np.float32
    assert predict_scores(trainer.model, batch).dtype == np.float32


MEMO_SPECS = (ModalitySpec("clip", 12, 8), ModalitySpec("ocr", 10, 6, True), ModalitySpec("asr", 9, 7, True))
MEMO_FILES = ("best.bin", "best.json", "last.bin", "last.json", "trainer_state.bin", "trainer_state.json")


def memo_records(tmp_path, n=20, seed=81):
    """``n`` on-disk MEMO_SPECS records whose streams run from empty to past
    their training length."""
    rng = SeededRng(seed)
    records = []
    for i in range(n):
        feats = {s.name: rng.normal((int(rng.randint(0, s.train_max_len + 4)), s.input_dim)).astype(np.float32)
                 for s in MEMO_SPECS}
        path = str(tmp_path / f"m{i:03d}.mmf")
        write_mmf(feats, path)
        records.append(VideoRecord(f"m{i:03d}", 60.0, (("Action", "Drama", "Horror")[i % 3],), path=path))
    return records


class ForgetfulTrainer(Trainer):
    """Empties every memo before each step, so each step averages its records anew."""

    def _train_step(self, batch):
        for memo in self.memos:
            memo.clear()
        return super()._train_step(batch)


def memo_run(trainer_cls, records, out_dir, arch, **overrides):
    """A 3-epoch run with validation and checkpoints: the trainer and its saved files' bytes."""
    cfg = TrainConfig(model=small_config(arch, modalities=MEMO_SPECS), lr=1e-3, batch_size=6, epochs=3,
                      eval_interval=2, seed=83, checkpoint_dir=out_dir, **overrides)
    trainer = trainer_cls(cfg, records[:14], records[14:])
    trainer.run()
    return trainer, {f: open(os.path.join(out_dir, f), "rb").read() for f in MEMO_FILES}


class TestStreamMeanMemo:
    """Each training record's stream means are computed once per Trainer and
    kept in its memo; scoring keeps nothing."""

    @pytest.mark.parametrize("dtype", (np.float32, np.float64))
    @pytest.mark.parametrize("arch", ARCHITECTURES)
    def test_memo_changes_no_bit(self, tmp_path, monkeypatch, arch, dtype):
        monkeypatch.setattr(training, "build_model", partial(build_model, dtype=dtype))
        records = memo_records(tmp_path)
        kept, kept_files = memo_run(Trainer, records, str(tmp_path / "kept"), arch)
        anew, anew_files = memo_run(ForgetfulTrainer, records, str(tmp_path / "anew"), arch)
        assert len(kept.history.losses) == 9 and kept.history.losses == anew.history.losses
        assert kept.dropout_rng.state() == anew.dropout_rng.state()
        for name, t in kept.model.params.items():
            assert t.data.dtype == dtype and t.data.tobytes() == anew.model.params[name].data.tobytes()
        assert kept_files == anew_files

    @pytest.mark.parametrize("arch, averaged", [("mlp", ("clip", "ocr", "asr")),
                                                ("single_transformer", ("ocr", "asr")),
                                                ("multi_transformer", ("ocr", "asr"))])
    def test_each_mean_is_computed_once_and_kept_alone(self, tmp_path, monkeypatch, arch, averaged):
        records = memo_records(tmp_path)
        calls = []
        real = data.temporal_average
        monkeypatch.setattr(data, "temporal_average", lambda seq: calls.append(len(seq)) or real(seq))
        cfg = TrainConfig(model=small_config(arch, modalities=MEMO_SPECS), lr=1e-3, batch_size=6, epochs=3, seed=85)
        trainer = Trainer(cfg, records[:14])
        trainer.run()
        assert len(trainer.history.losses) == 9
        assert len(calls) == 14 * len(averaged)   # once per record and stream, not once per epoch
        specs = {s.name: s for s in MEMO_SPECS}
        for r, memo in zip(trainer.train_records, trainer.memos):
            feats = r.get_features()
            # keyed by stream name: each is the mean of the head the training batch cut
            assert sorted(memo) == sorted(averaged)
            for name, mean in memo.items():
                assert mean.dtype == np.float32 and mean.shape == (specs[name].input_dim,)
                assert not mean.flags.writeable and mean.flags.owndata
                assert not any(np.shares_memory(mean, view) for view in feats.values())
                assert mean.tobytes() == real(feats[name][:specs[name].train_max_len]).tobytes()
        snapshot = [dict(memo) for memo in trainer.memos]
        evaluate(trainer.model, records)
        assert all(memo.keys() == before.keys() and all(memo[k] is before[k] for k in memo)
                   for memo, before in zip(trainer.memos, snapshot))
        assert len(calls) > 14 * len(averaged)   # scoring averaged anew

    @pytest.mark.parametrize("arch", ARCHITECTURES)
    def test_resume_starts_empty_and_stays_bit_exact(self, tmp_path, arch):
        records = memo_records(tmp_path)
        whole, whole_files = memo_run(Trainer, records, str(tmp_path / "whole"), arch)
        part_dir = str(tmp_path / "part")
        part, _ = memo_run(Trainer, records, part_dir, arch, max_steps=4)
        resumed = Trainer.resume(replace(part.config, max_steps=None), records[:14], records[14:], part_dir)
        assert len(resumed.memos) == 14 and all(memo == {} for memo in resumed.memos)
        resumed.run()
        assert resumed.history.losses == whole.history.losses
        for name, t in whole.model.params.items():
            assert t.data.tobytes() == resumed.model.params[name].data.tobytes()
        for f in ("last.bin", "last.json", "trainer_state.bin", "trainer_state.json"):
            assert open(os.path.join(part_dir, f), "rb").read() == whole_files[f], f


class TestReadsOnDemand:
    """A batch reads a record's file only when the model reads its rows."""

    def test_mlp_reads_each_training_file_in_epoch_one_alone(self, tmp_path, monkeypatch):
        records = memo_records(tmp_path)
        train_paths, val_paths = [r.path for r in records[:14]], [r.path for r in records[14:]]
        cfg = TrainConfig(model=small_config("mlp", modalities=MEMO_SPECS), lr=1e-3, batch_size=6, epochs=3,
                          eval_interval=2, seed=89)
        trainer = Trainer(cfg, records[:14], records[14:])
        reads, real = [], data.read_mmf
        monkeypatch.setattr(data, "read_mmf", lambda path: reads.append((trainer.epoch, path)) or real(path))
        trainer.run()
        assert len(trainer.history.losses) == 9 and len(trainer.history.evals) == 4
        assert sorted(p for e, p in reads if p in train_paths) == sorted(train_paths)
        assert {e for e, p in reads if p in train_paths} == {0}
        assert sorted(p for e, p in reads if p in val_paths) == sorted(val_paths * 4)
        assert {e for e, p in reads if p in val_paths} == {0, 1, 2}
        del reads[:]
        evaluate(trainer.model, records)
        assert sorted(p for _, p in reads) == sorted(train_paths + val_paths)

    @pytest.mark.parametrize("arch", ARCHITECTURES)
    def test_path_backed_run_equals_in_memory_run_bit_for_bit(self, tmp_path, arch):
        disk = memo_records(tmp_path)
        memory = [replace(r, path=None, features={k: np.array(v) for k, v in r.get_features().items()})
                  for r in disk]
        on_disk, disk_files = memo_run(Trainer, disk, str(tmp_path / "disk"), arch)
        in_memory, memory_files = memo_run(Trainer, memory, str(tmp_path / "memory"), arch)
        assert len(on_disk.history.losses) == 9 and on_disk.history.losses == in_memory.history.losses
        for name, t in on_disk.model.params.items():
            assert t.data.tobytes() == in_memory.model.params[name].data.tobytes()
        assert disk_files == memory_files


@pytest.mark.parametrize("arch", ARCHITECTURES)
def test_load_checkpoint_draws_no_initial_weights(tmp_path, monkeypatch, arch):
    saved = build_model(small_config(arch), seed=87)
    checkpoint.save_checkpoint(saved, str(tmp_path / "m"))

    def no_draws(self, ks):
        raise AssertionError("load_checkpoint drew initial weights")
    monkeypatch.setattr(SeededRng, "_outputs", no_draws)
    loaded = checkpoint.load_checkpoint(str(tmp_path / "m"))
    assert loaded.params.names() == saved.params.names()
    for name, t in saved.params.items():
        got = loaded.params[name].data
        assert got.flags.writeable and got.flags.c_contiguous
        assert got.dtype == np.float32 and got.tobytes() == t.data.tobytes()
