import json
import os
import shutil

import numpy as np
import pytest

from genreclf.cli import main
from genreclf.metrics import report_from_csv
from genreclf.mmf import read_mmf
from genreclf.vocab import GENRES

DROP = object()   # marks a key or list item to delete from a JSON document


@pytest.fixture(scope="module")
def mean_data(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("mean_data"))
    assert main(["synth", "--kind", "mean", "--n", "10", "--out", out]) == 0
    return out


@pytest.fixture(scope="module")
def order_data(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("order_data"))
    assert main(["--seed", "1", "synth", "--kind", "order", "--n", "10", "--out", out]) == 0
    return out


def small_train_config(tmp_path, arch="mlp", **overrides):
    """Full-size input dims (matching the synthetic data) with a small model."""
    mods = [
        {"name": "clip", "input_dim": 512, "train_max_len": 216},
        {"name": "ocr", "input_dim": 768, "train_max_len": 64},
        {"name": "asr", "input_dim": 768, "train_max_len": 86},
        {"name": "audiotag", "input_dim": 128, "train_max_len": 140},
        {"name": "musicnet", "input_dim": 64, "train_max_len": 18},
    ]
    doc = {
        "model": {"architecture": arch, "model_dim": 16, "num_layers": 1, "num_heads": 2,
                  "dropout_rate": 0.1, "modalities": mods},
        "lr": 1e-3, "batch_size": 4, "epochs": 1, "max_steps": 2, "seed": 3,
    }
    doc.update(overrides)
    path = str(tmp_path / "config.json")
    with open(path, "w") as fh:
        json.dump(doc, fh)
    return path


class TestSynth:
    def test_writes_files_and_manifest(self, mean_data):
        files = sorted(os.listdir(mean_data))
        assert "manifest.json" in files and "run_manifest.json" in files
        assert sum(f.endswith(".mmf") for f in files) == 10
        doc = json.load(open(os.path.join(mean_data, "manifest.json")))
        assert tuple(doc["genres"]) == GENRES
        assert len(doc["samples"]) == 10

    def test_run_manifest_records_seed_and_config(self, mean_data):
        doc = json.load(open(os.path.join(mean_data, "run_manifest.json")))
        assert doc["command"] == "synth"
        assert doc["seed"] == 0
        assert doc["resolved_config"]["kind"] == "mean"

    @pytest.mark.parametrize("flags", [["--n", "0"], ["--n", "-2"], ["--noise-std", "nan"], ["--noise-std", "inf"],
                                       ["--noise-std", "-0.1"]])
    def test_out_of_range_flag_is_config_error(self, tmp_path, capsys, flags):
        out = tmp_path / "ds"
        rc = main(["synth", "--kind", "mean", "--n", "3", *flags, "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 2
        assert "config error" in err and flags[0] in err and "Traceback" not in err
        assert not out.exists()


class TestImport:
    def _sources(self, tmp_path, specs):
        src = tmp_path / "npy"
        src.mkdir()
        samples = []
        for i, ok in enumerate((True, True, False)):
            vid = f"vid{i}"
            arr = np.ones((5, 512 if ok else 99), dtype=np.float32)
            np.save(src / f"{vid}.clip.npy", arr)
            samples.append({"id": vid, "duration_s": 100.0, "genres": ["Action"],
                            "features": {"clip": f"{vid}.clip.npy"}})
        manifest = tmp_path / "src.json"
        manifest.write_text(json.dumps({"samples": samples}))
        return str(src), str(manifest)

    def test_mixed_import_exits_zero_with_warnings(self, tmp_path, capsys):
        src, manifest = self._sources(tmp_path, None)
        out = str(tmp_path / "out")
        assert main(["import", "--npy-dir", src, "--manifest", manifest, "--out", out]) == 0
        captured = capsys.readouterr()
        assert "imported 2 videos, 1 failed" in captured.out
        assert "warning" in captured.err

    def test_all_fail_nonzero_exit(self, tmp_path):
        src = tmp_path / "empty"
        src.mkdir()
        manifest = tmp_path / "src.json"
        manifest.write_text(json.dumps({"samples": []}))
        rc = main(["import", "--npy-dir", str(src), "--manifest", str(manifest),
                   "--out", str(tmp_path / "out")])
        assert rc == 3


    GOOD = {"id": "good", "duration_s": 100.0, "genres": ["Action"], "features": {"clip": "v.clip.npy"}}

    @pytest.mark.parametrize("entry, label", [
        ({"genres": ["Action"], "features": {"clip": "v.clip.npy"}}, "sample 0"),
        (5, "sample 0"),
        (["v"], "sample 0"),
        ({**GOOD, "genres": 5}, "good"),
        ({**GOOD, "features": ["v.clip.npy"]}, "good"),
        ({**GOOD, "features": {"clip": 5}}, "good/clip"),
        ({**GOOD, "id": 5}, "sample 0"),
        ({**GOOD, "id": ""}, "sample 0"),
        ({**GOOD, "id": "."}, "."),
        ({**GOOD, "id": ".."}, ".."),
        ({**GOOD, "id": "../escaped"}, "../escaped"),
        ({**GOOD, "id": "sub/dir"}, "sub/dir"),
        ({**GOOD, "id": "nul\0byte"}, "nul\0byte"),
    ], ids=["no-id", "entry-int", "entry-list", "genres-int", "features-list", "feature-path-int", "id-int",
            "id-empty", "id-dot", "id-dotdot", "id-escapes-out", "id-with-slash", "id-with-nul"])
    def test_malformed_entry_is_collected_data_error(self, tmp_path, capsys, entry, label):
        src = tmp_path / "src"
        src.mkdir()
        np.save(src / "v.clip.npy", np.ones((5, 512), dtype=np.float32))
        manifest = src / "src.json"
        outs = []
        for samples, rc, summary in (([entry], 3, "imported 0 videos, 1 failed"),
                                     ([entry, self.GOOD], 0, "imported 1 videos, 1 failed")):
            manifest.write_text(json.dumps({"samples": samples}))
            outs.append(tmp_path / f"out{len(outs)}")
            assert main(["import", "--npy-dir", str(src), "--manifest", str(manifest), "--out", str(outs[-1])]) == rc
            captured = capsys.readouterr()
            assert summary in captured.out
            assert f"warning: {label}: " in captured.err and "Traceback" not in captured.err
        outside = {p for p in tmp_path.rglob("*") if not any(out in p.parents for out in outs)}
        assert outside == {src, src / "v.clip.npy", manifest, *outs}

    def test_duplicate_id_imports_first_entry_once(self, tmp_path, capsys):
        src = tmp_path / "src"
        src.mkdir()
        np.save(src / "first.npy", np.ones((5, 512), dtype=np.float32))
        np.save(src / "second.npy", np.full((7, 512), 2.0, dtype=np.float32))
        samples = [{**self.GOOD, "id": "a", "features": {"clip": name}} for name in ("first.npy", "second.npy")]
        manifest = tmp_path / "src.json"
        manifest.write_text(json.dumps({"samples": samples}))
        out = tmp_path / "out"
        assert main(["import", "--npy-dir", str(src), "--manifest", str(manifest), "--out", str(out)]) == 0
        captured = capsys.readouterr()
        assert "imported 1 videos, 1 failed" in captured.out
        assert "warning: a: duplicate id" in captured.err and "Traceback" not in captured.err
        doc = json.loads((out / "manifest.json").read_text())
        assert [s["id"] for s in doc["samples"]] == ["a"]
        assert np.array_equal(read_mmf(str(out / "a.mmf"))["clip"], np.ones((5, 512), dtype=np.float32))

    @pytest.mark.parametrize("doc", [[], {"samples": {}}, {"samples": 5}, "samples"],
                             ids=["top-level-list", "samples-object", "samples-int", "top-level-string"])
    def test_malformed_source_manifest_is_data_error(self, tmp_path, capsys, doc):
        manifest = tmp_path / "src.json"
        manifest.write_text(json.dumps(doc))
        rc = main(["import", "--npy-dir", str(tmp_path), "--manifest", str(manifest),
                   "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert rc == 3
        assert "not an object with a list of samples" in err and "Traceback" not in err


class TestTrain:
    def test_train_writes_history_and_checkpoints(self, mean_data, tmp_path):
        cfg = small_train_config(tmp_path)
        out = str(tmp_path / "run")
        assert main(["train", "--config", cfg, "--data", mean_data, "--out", out]) == 0
        names = set(os.listdir(out))
        assert {"history.csv", "run_manifest.json", "best.json", "best.bin",
                "last.json", "last.bin", "trainer_state.json", "trainer_state.bin"} <= names

    def test_seed_repeatability_of_history(self, mean_data, tmp_path):
        cfg = small_train_config(tmp_path)
        outs = []
        for name in ("a", "b"):
            out = str(tmp_path / name)
            assert main(["--seed", "7", "train", "--config", cfg, "--data", mean_data, "--out", out]) == 0
            outs.append(open(os.path.join(out, "history.csv")).read())
        assert outs[0] == outs[1]

    def test_preset_resolution_printed(self, mean_data, tmp_path, capsys):
        out = str(tmp_path / "preset_run")
        rc = main(["train", "--preset", "mlp", "--data", mean_data, "--out", out,
                   "--max-steps", "1", "--batch-size", "4"])
        assert rc == 0
        assert "architecture=mlp parameters=579093" in capsys.readouterr().out

    def test_preset_fields_in_run_manifest(self, mean_data, tmp_path):
        out = str(tmp_path / "preset_multi")
        rc = main(["train", "--preset", "multi_transformer", "--data", mean_data, "--out", out,
                   "--max-steps", "1", "--batch-size", "2"])
        assert rc == 0
        doc = json.load(open(os.path.join(out, "run_manifest.json")))
        model = doc["resolved_config"]["model"]
        assert model["model_dim"] == 128 and model["num_layers"] == 1 and model["num_heads"] == 8

    def test_single_preset_dims(self, tmp_path):
        from genreclf.models import ModelConfig
        cfg = ModelConfig.preset("single_transformer")
        assert cfg.model_dim == 256 and cfg.num_layers == 2

    def test_missing_config_is_config_error(self, mean_data, tmp_path):
        rc = main(["train", "--data", mean_data, "--out", str(tmp_path / "x")])
        assert rc == 2

    def test_manifest_entry_without_genres_is_data_error(self, tmp_path, capsys):
        data = tmp_path / "data"
        data.mkdir()
        doc = {"genres": list(GENRES), "samples": [{"id": "v0", "duration_s": 50.0, "path": None}]}
        (data / "manifest.json").write_text(json.dumps(doc))
        rc = main(["train", "--preset", "mlp", "--data", str(data), "--out", str(tmp_path / "x")])
        err = capsys.readouterr().err
        assert rc == 3
        assert "sample 0 has no genres" in err and "Traceback" not in err

    def test_non_numeric_duration_is_data_error(self, tmp_path, capsys):
        data = tmp_path / "data"
        data.mkdir()
        doc = {"genres": list(GENRES), "samples": [{"id": "v0", "duration_s": "50", "genres": ["Action"]}]}
        (data / "manifest.json").write_text(json.dumps(doc))
        rc = main(["train", "--preset", "mlp", "--data", str(data), "--out", str(tmp_path / "x")])
        err = capsys.readouterr().err
        assert rc == 3
        assert "record v0 has a duration_s that is not a number" in err and "Traceback" not in err

    def test_non_string_id_is_data_error(self, tmp_path, capsys):
        data = tmp_path / "data"
        data.mkdir()
        doc = {"genres": list(GENRES), "samples": [{"id": 5, "duration_s": 50.0, "genres": ["Action"]}]}
        (data / "manifest.json").write_text(json.dumps(doc))
        rc = main(["train", "--preset", "mlp", "--data", str(data), "--out", str(tmp_path / "x")])
        err = capsys.readouterr().err
        assert rc == 3
        assert "sample 0 has an id that is not a string" in err and "Traceback" not in err


class TestConfigChecks:
    @pytest.mark.parametrize("flags", [["--batch-size", "0"], ["--epochs", "-1"], ["--max-steps", "-1"],
                                       ["--eval-interval", "-2"], ["--lr", "-0.001"], ["--lr", "nan"],
                                       ["--modalities", "nope"], ["--modalities", ","],
                                       ["--modalities", "clip", "--averaged", "ocr"]])
    def test_out_of_range_flag_is_config_error(self, mean_data, tmp_path, capsys, flags):
        rc = main(["train", "--preset", "mlp", *flags, "--data", mean_data, "--out", str(tmp_path / "x")])
        err = capsys.readouterr().err
        assert rc == 2
        assert flags[0][2:].replace("-", "_") in err and "Traceback" not in err

    @pytest.mark.parametrize("path, value", [
        (("model", "model_dim"), "x"), (("model", "num_heads"), 0), (("model", "dropout_rate"), 1.5),
        (("model", "modalities", 0, "input_dim"), 51.2), (("model", "architecture"), None),
        (("batch_size",), "x"), (("batch_size",), True), (("batch_size",), 0), (("max_steps",), 1.5),
        (("lr",), "1e-3"), (("clip_norm",), 0), (("clip_norm",), -1.0), (("seed",), "3"), (("model",), []),
    ])
    def test_malformed_config_field_is_config_error(self, mean_data, tmp_path, capsys, path, value):
        cfg = small_train_config(tmp_path)
        doc = json.load(open(cfg))
        target = doc
        for k in path[:-1]:
            target = target[k]
        target[path[-1]] = value
        with open(cfg, "w") as fh:
            json.dump(doc, fh)
        rc = main(["train", "--config", cfg, "--data", mean_data, "--out", str(tmp_path / "x")])
        err = capsys.readouterr().err
        assert rc == 2
        assert "config error" in err and path[-1] in err and "Traceback" not in err

    @pytest.mark.parametrize("arch, field, value", [
        ("single_transformer", "train_max_len", 0), ("mlp", "train_max_len", -2),
        ("mlp", "input_dim", 0), ("multi_transformer", "input_dim", -512),
    ])
    def test_modality_size_below_one_is_config_error(self, mean_data, tmp_path, capsys, arch, field, value):
        cfg = small_train_config(tmp_path, arch=arch)
        doc = json.load(open(cfg))
        doc["model"]["modalities"][0][field] = value
        json.dump(doc, open(cfg, "w"))
        rc = main(["train", "--config", cfg, "--data", mean_data, "--out", str(tmp_path / "x")])
        err = capsys.readouterr().err
        assert rc == 2
        assert f"'clip' field '{field}' must be >= 1" in err and "Traceback" not in err

    def test_modality_outside_the_schema_is_config_error(self, mean_data, tmp_path, capsys):
        cfg = small_train_config(tmp_path)
        doc = json.load(open(cfg))
        doc["model"]["modalities"] = [{"name": "nope", "input_dim": 8, "train_max_len": 4}]
        json.dump(doc, open(cfg, "w"))
        rc = main(["train", "--config", cfg, "--data", mean_data, "--out", str(tmp_path / "x")])
        err = capsys.readouterr().err
        assert rc == 2
        assert "config error" in err and "'nope'" in err and "Traceback" not in err
        assert not os.path.exists(tmp_path / "x" / "best.bin")

    def test_threshold_outside_the_unit_interval_in_a_config_is_config_error(self, mean_data, tmp_path, capsys):
        cfg = small_train_config(tmp_path)
        doc = json.load(open(cfg))
        doc["model"]["threshold"] = 7.0
        json.dump(doc, open(cfg, "w"))
        rc = main(["train", "--config", cfg, "--data", mean_data, "--out", str(tmp_path / "x")])
        err = capsys.readouterr().err
        assert rc == 2
        assert "threshold must be in [0, 1], got 7.0" in err and "Traceback" not in err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("arch", ["mlp", "single_transformer", "multi_transformer"])
    def test_num_layers_below_one_is_config_error(self, mean_data, tmp_path, capsys, arch):
        cfg = small_train_config(tmp_path, arch=arch)
        doc = json.load(open(cfg))
        doc["model"]["num_layers"] = 0
        json.dump(doc, open(cfg, "w"))
        rc = main(["train", "--config", cfg, "--data", mean_data, "--out", str(tmp_path / "x")])
        err = capsys.readouterr().err
        assert rc == 2
        assert "config error" in err and "num_layers" in err and "Traceback" not in err
        assert not (tmp_path / "x" / "best.json").exists()

    @pytest.mark.parametrize("flags", [["--max-steps", "0"], ["--epochs", "0"]])
    def test_run_without_steps_exits_zero(self, mean_data, tmp_path, capsys, flags):
        out = str(tmp_path / "x")
        assert main(["train", "--preset", "mlp", *flags, "--data", mean_data, "--out", out]) == 0
        assert "no training step taken" in capsys.readouterr().out
        assert os.path.exists(os.path.join(out, "best.bin"))


class TestResume:
    def _saved(self, mean_data, tmp_path, steps):
        cfg = small_train_config(tmp_path, max_steps=steps)
        out = str(tmp_path / f"steps{steps}")
        assert main(["train", "--config", cfg, "--data", mean_data, "--out", out]) == 0
        return out

    def _resume_edited(self, mean_data, tmp_path, capsys, edit):
        """Exit code and stderr of resuming a 1-step run whose trainer state ``edit`` changed."""
        part = self._saved(mean_data, tmp_path, 1)
        path = os.path.join(part, "trainer_state.json")
        state = json.load(open(path))
        edit(state)
        with open(path, "w") as fh:
            json.dump(state, fh)
        capsys.readouterr()
        rc = main(["train", "--config", small_train_config(tmp_path), "--data", mean_data,
                   "--out", str(tmp_path / "resumed"), "--resume", part])
        return rc, capsys.readouterr().err

    def test_resume_reproduces_uninterrupted_history(self, mean_data, tmp_path):
        full = self._saved(mean_data, tmp_path, 3)
        part = self._saved(mean_data, tmp_path, 1)
        out = str(tmp_path / "resumed")
        cfg = small_train_config(tmp_path, max_steps=3)
        assert main(["train", "--config", cfg, "--data", mean_data, "--out", out, "--resume", part]) == 0
        for name in ("last.bin", "trainer_state.bin"):
            assert open(os.path.join(out, name), "rb").read() == open(os.path.join(full, name), "rb").read()

    @pytest.mark.parametrize("key, value", [("sha256", DROP), ("losses", "1.0"), ("dropout_rng", {"seed": 1})],
                             ids=["sha256-missing", "losses-string", "rng-without-counter"])
    def test_malformed_state_is_data_error(self, mean_data, tmp_path, capsys, key, value):
        def edit(state):
            if value is DROP:
                del state[key]
            else:
                state[key] = value
        rc, err = self._resume_edited(mean_data, tmp_path, capsys, edit)
        assert rc == 3
        assert f"field {key!r}" in err and "Traceback" not in err

    @pytest.mark.parametrize("edit, message", [
        (lambda entry: entry.update(name="m.nope"), "extra=['m.nope']"),
        (lambda entry: entry.update(shape=[int(np.prod(entry["shape"]))]), "shape mismatch for m."),
    ], ids=["renamed", "flattened"])
    def test_adam_moments_not_matching_the_model_are_data_error(self, mean_data, tmp_path, capsys, edit, message):
        rc, err = self._resume_edited(mean_data, tmp_path, capsys, lambda state: edit(state["adam_manifest"][0]))
        assert rc == 3
        assert message in err and "Traceback" not in err

    def test_non_standard_json_numbers_are_data_error(self, mean_data, tmp_path, capsys):
        def edit(state):
            state["best_map"] = float("nan")
            state["losses"][0][1] = float("inf")
        rc, err = self._resume_edited(mean_data, tmp_path, capsys, edit)
        assert rc == 3
        assert "is not a standard JSON number" in err and "Traceback" not in err


@pytest.fixture(scope="module")
def trained(mean_data, tmp_path_factory):
    tmp = tmp_path_factory.mktemp("trained")
    cfg = small_train_config(tmp)
    out = str(tmp / "run")
    assert main(["train", "--config", cfg, "--data", mean_data, "--out", out]) == 0
    return out


class TestEvalPredict:
    def test_eval_outputs_report(self, mean_data, trained, tmp_path):
        out = str(tmp_path / "eval")
        rc = main(["eval", "--checkpoint", os.path.join(trained, "best"),
                   "--data", mean_data, "--split", "test", "--out", out])
        assert rc == 0
        report = report_from_csv(open(os.path.join(out, "report.csv")).read())
        assert report.threshold == 0.5
        assert report.n_samples == 2      # test split of 10 records
        text = open(os.path.join(out, "report.txt")).read()
        assert "AVERAGE" in text

    def test_eval_split_sizes_match_assignment(self, mean_data, trained, tmp_path):
        for split, expect in (("train", 7), ("val", 1), ("test", 2)):
            out = str(tmp_path / f"eval_{split}")
            rc = main(["eval", "--checkpoint", os.path.join(trained, "best"),
                       "--data", mean_data, "--split", split, "--out", out])
            assert rc == 0
            report = report_from_csv(open(os.path.join(out, "report.csv")).read())
            assert report.n_samples == expect

    def test_predict_prints_all_genres(self, mean_data, trained, capsys):
        mmf = next(os.path.join(mean_data, f) for f in sorted(os.listdir(mean_data)) if f.endswith(".mmf"))
        rc = main(["predict", "--checkpoint", os.path.join(trained, "best"), "--input", mmf])
        assert rc == 0
        out = capsys.readouterr().out
        for g in GENRES:
            assert g in out

    @pytest.mark.parametrize("keys, value", [
        ((), []),
        (("parameters",), DROP),
        (("parameters",), {}),
        (("config",), DROP),
        (("config",), "mlp"),
        (("config", "architecture"), DROP),
        (("config", "modalities", 0), "clip"),
        (("parameters", 0, "name"), DROP),
        (("parameters", 0, "shape"), DROP),
        (("parameters", 0, "offset"), DROP),
        (("parameters", 0, "offset"), -4),
        (("parameters", 0, "shape"), [-1, 2]),
        (("parameters", 0, "shape"), "16"),
        (("parameters", 0), "hidden.w"),
        (("parameters", 0), DROP),
        (("config", "num_layers"), 0),
    ], ids=["top-level-list", "no-parameters", "parameters-not-a-list", "no-config", "config-not-an-object",
            "config-without-architecture", "modality-not-an-object", "entry-without-name",
            "entry-without-shape", "entry-without-offset", "negative-offset", "negative-shape",
            "shape-not-a-list", "entry-not-an-object", "missing-parameter", "no-encoder-layers"])
    def test_malformed_checkpoint_is_data_error(self, mean_data, trained, tmp_path, capsys, keys, value):
        stem = str(tmp_path / "ck")
        shutil.copy(os.path.join(trained, "best.bin"), stem + ".bin")
        doc = json.load(open(os.path.join(trained, "best.json")))
        if not keys:
            doc = value
        else:
            target = doc
            for k in keys[:-1]:
                target = target[k]
            if value is DROP:
                del target[keys[-1]]
            else:
                target[keys[-1]] = value
        with open(stem + ".json", "w") as fh:
            json.dump(doc, fh)
        rc = main(["eval", "--checkpoint", stem, "--data", mean_data, "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert rc == 3
        assert "data error" in err and "Traceback" not in err

    @pytest.mark.parametrize("key, value, named", [("name", "nope", "'nope'"),
                                                   ("train_max_len", 0, "'train_max_len'")])
    def test_checkpoint_modality_the_schema_refuses_is_data_error(self, mean_data, trained, tmp_path, capsys,
                                                                  key, value, named):
        stem = str(tmp_path / "ck")
        shutil.copy(os.path.join(trained, "best.bin"), stem + ".bin")
        doc = json.load(open(os.path.join(trained, "best.json")))
        doc["config"]["modalities"][0][key] = value
        json.dump(doc, open(stem + ".json", "w"))
        rc = main(["eval", "--checkpoint", stem, "--data", mean_data, "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert rc == 3
        assert "data error" in err and named in err and "Traceback" not in err

    @staticmethod
    def _checkpoint_with_threshold(trained, tmp_path, threshold):
        stem = str(tmp_path / "ck")
        shutil.copy(os.path.join(trained, "best.bin"), stem + ".bin")
        doc = json.load(open(os.path.join(trained, "best.json")))
        doc["config"]["threshold"] = threshold
        json.dump(doc, open(stem + ".json", "w"))
        return stem

    @pytest.mark.parametrize("command", ("eval", "predict"))
    def test_checkpoint_threshold_outside_the_unit_interval_is_data_error(self, mean_data, trained, tmp_path,
                                                                          capsys, command):
        stem = self._checkpoint_with_threshold(trained, tmp_path, 7.0)
        out = tmp_path / "out"
        where = (["--data", mean_data, "--out", str(out)] if command == "eval"
                 else ["--input", os.path.join(mean_data, "synth000000.mmf")])
        rc = main([command, "--checkpoint", stem] + where)
        err = capsys.readouterr().err
        assert rc == 3
        assert "data error" in err and "threshold must be in [0, 1]" in err and "Traceback" not in err
        assert not out.exists()

    def test_eval_defaults_to_the_checkpoint_threshold(self, mean_data, trained, tmp_path):
        stem = self._checkpoint_with_threshold(trained, tmp_path, 0.3)
        for flags, want in (([], 0.3), (["--threshold", "0.7"], 0.7)):
            out = tmp_path / f"out{want}"
            assert main(["eval", "--checkpoint", stem, "--data", mean_data, "--out", str(out)] + flags) == 0
            assert report_from_csv((out / "report.csv").read_text()).threshold == want
            assert json.load(open(out / "run_manifest.json"))["resolved_config"]["threshold"] == want

    def test_predict_on_an_empty_file_is_data_error(self, trained, tmp_path, capsys):
        empty = tmp_path / "empty.mmf"
        empty.write_bytes(b"")
        rc = main(["predict", "--checkpoint", os.path.join(trained, "best"), "--input", str(empty)])
        err = capsys.readouterr().err
        assert rc == 3
        assert "truncated while reading magic at byte 0" in err and "Traceback" not in err

    @pytest.mark.parametrize("command", ("eval", "predict"))
    @pytest.mark.parametrize("threshold", ("nan", "inf", "-0.1", "1.5"))
    def test_threshold_outside_the_unit_interval_is_config_error(self, mean_data, trained, tmp_path, capsys,
                                                                 command, threshold):
        out = tmp_path / "out"
        where = (["--data", mean_data, "--out", str(out)] if command == "eval"
                 else ["--input", os.path.join(mean_data, "synth000000.mmf")])
        rc = main([command, "--checkpoint", os.path.join(trained, "best"), "--threshold", threshold] + where)
        err = capsys.readouterr().err
        assert rc == 2
        assert "config error" in err and "threshold" in err and "Traceback" not in err
        assert not out.exists()

    def test_run_manifest_refuses_a_non_finite_number(self, tmp_path):
        from genreclf.cli import _write_run_manifest
        with pytest.raises(ValueError, match="not JSON compliant"):
            _write_run_manifest(str(tmp_path), "eval", {"threshold": float("nan")}, 0)
        assert not (tmp_path / "run_manifest.json").exists()

    @pytest.mark.parametrize("threshold", ("0", "1"))
    def test_threshold_at_the_ends_of_the_interval_is_taken(self, mean_data, trained, tmp_path, threshold):
        out = tmp_path / "out"
        assert main(["eval", "--checkpoint", os.path.join(trained, "best"), "--threshold", threshold,
                     "--data", mean_data, "--out", str(out)]) == 0
        assert json.load(open(out / "run_manifest.json"))["resolved_config"]["threshold"] == float(threshold)

    def test_missing_checkpoint_is_error(self, mean_data, tmp_path):
        rc = main(["eval", "--checkpoint", str(tmp_path / "nope"),
                   "--data", mean_data, "--out", str(tmp_path / "out")])
        assert rc != 0


class TestAblate:
    def test_seven_rows(self, mean_data, tmp_path):
        cfg = small_train_config(tmp_path, arch="multi_transformer", max_steps=1, batch_size=2)
        out = str(tmp_path / "ablate")
        assert main(["ablate", "--config", cfg, "--data", mean_data, "--out", out]) == 0
        lines = open(os.path.join(out, "ablation.csv")).read().strip().splitlines()
        assert lines[0] == "features,mAP"
        rows = [l.split(",")[0] for l in lines[1:]]
        assert rows == ["clip", "clip+musicnet", "clip+musicnet+audiotag",
                        "clip+musicnet+audiotag+ocr", "clip+musicnet+audiotag+ocr*",
                        "clip+musicnet+audiotag+ocr+asr", "clip+musicnet+audiotag+ocr*+asr*"]

    def test_rows_keep_the_configured_modality_specs(self, order_data, tmp_path, monkeypatch):
        import genreclf.cli as cli
        from genreclf.modalities import SPEC_BY_NAME
        seen = []
        real = cli._train_eval_once
        monkeypatch.setattr(cli, "_train_eval_once", lambda cfg, splits: seen.append(cfg.model) or real(cfg, splits))
        mods = [{"name": "clip", "input_dim": 16, "train_max_len": 12, "temporal_average": True}]
        doc = {"model": {"architecture": "multi_transformer", "model_dim": 8, "num_layers": 1, "num_heads": 2,
                         "modalities": mods}, "lr": 1e-3, "batch_size": 4, "max_steps": 1, "seed": 5}
        cfg = str(tmp_path / "cfg.json")
        json.dump(doc, open(cfg, "w"))
        assert main(["ablate", "--config", cfg, "--data", order_data, "--out", str(tmp_path / "ablate")]) == 0
        sizes = {name: (s.input_dim, s.train_max_len) for name, s in SPEC_BY_NAME.items()} | {"clip": (16, 12)}
        assert len(seen) == len(cli.ABLATION_ROWS)
        for model, row in zip(seen, cli.ABLATION_ROWS):
            assert [s.name for s in model.modalities] == [n for n in SPEC_BY_NAME if n in row["modalities"]]
            for s in model.modalities:
                assert (s.input_dim, s.train_max_len) == sizes[s.name]
                assert s.temporal_average == (s.name in row["averaged"])


    def test_worker_count_is_capped_at_the_number_of_rows(self, monkeypatch):
        import concurrent.futures
        import genreclf.cli as cli

        class InlineExecutor:
            """Records max_workers and runs each job at submit; starts no process."""
            seen = []

            def __init__(self, max_workers):
                self.seen.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, *args):
                future = concurrent.futures.Future()
                future.set_result(fn(*args))
                return future

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlineExecutor)
        monkeypatch.setattr(cli, "_train_eval_once", lambda cfg, splits: cfg / 10)
        jobs = [(f"row{i}", i, None) for i in range(3)]
        assert cli._run_rows(jobs, 64) == [("row0", 0.0), ("row1", 0.1), ("row2", 0.2)]
        assert cli._run_rows(jobs, 2) == [("row0", 0.0), ("row1", 0.1), ("row2", 0.2)]
        assert InlineExecutor.seen == [3, 2]


class TestFramesSweep:
    def test_csv_rows(self, order_data, tmp_path):
        mods = [{"name": "clip", "input_dim": 16, "train_max_len": 16}]
        doc = {"model": {"architecture": "single_transformer", "model_dim": 16, "num_layers": 1,
                         "num_heads": 2, "dropout_rate": 0.0, "modalities": mods},
               "lr": 1e-3, "batch_size": 4, "epochs": 1, "max_steps": 2, "seed": 5}
        cfg = str(tmp_path / "cfg.json")
        json.dump(doc, open(cfg, "w"))
        out = str(tmp_path / "sweep")
        rc = main(["frames-sweep", "--config", cfg, "--data", order_data,
                   "--frames", "4,8", "--out", out])
        assert rc == 0
        lines = open(os.path.join(out, "frames_sweep.csv")).read().strip().splitlines()
        assert lines[0] == "frames,model,mAP"
        assert len(lines) == 1 + 2 * 2     # 2 frame counts x 2 models
        assert all(l.split(",")[1] in ("mlp", "single_transformer") for l in lines[1:])

    def test_subsample_is_an_index_on_path_backed_records(self, order_data):
        from genreclf.cli import _load_split_records, _subsample_clip
        records = _load_split_records(order_data)[0]["train"]
        sub = _subsample_clip(records, 4, seed=9)
        for r, s in zip(records, sub):
            assert s.features is None and s.path == r.path and s.id == r.id
            clip = r.get_features()["clip"]
            assert list(s.clip_frames) == sorted(set(s.clip_frames)) and len(s.clip_frames) == min(4, len(clip))
            assert np.array_equal(s.get_features()["clip"], clip[s.clip_frames])
        assert all(r.features is None and r.clip_frames is None for r in records)

    @pytest.mark.parametrize("frames", ["x", "-3", "0", "8,0", "8,", "1.5"])
    def test_frame_count_below_one_or_not_an_integer_is_config_error(self, order_data, tmp_path, capsys, frames):
        out = tmp_path / "sweep"
        rc = main(["frames-sweep", "--preset", "mlp", "--modalities", "clip", "--data", order_data,
                   "--frames", frames, "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 2
        assert "config error" in err and "--frames" in err and "Traceback" not in err
        assert not out.exists()

    def test_default_frame_counts(self):
        from genreclf.cli import SWEEP_FRAME_COUNTS
        assert SWEEP_FRAME_COUNTS == (8, 16, 32, 64, 128, 256)
