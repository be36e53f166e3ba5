import json
import os
import shutil

import numpy as np
import pytest

from genreclf.cli import main
from genreclf.metrics import report_from_csv
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
    ], ids=["top-level-list", "no-parameters", "parameters-not-a-list", "no-config", "config-not-an-object",
            "config-without-architecture", "modality-not-an-object", "entry-without-name",
            "entry-without-shape", "entry-without-offset", "negative-offset", "negative-shape",
            "shape-not-a-list", "entry-not-an-object", "missing-parameter"])
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

    def test_default_frame_counts(self):
        from genreclf.cli import SWEEP_FRAME_COUNTS
        assert SWEEP_FRAME_COUNTS == (8, 16, 32, 64, 128, 256)
