import json
import math
import os
import shutil
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from string import Template

import numpy as np
import pytest

import genreclf
from genreclf.cli import main
from genreclf.data import load_manifest
from genreclf.metrics import report_from_csv
from genreclf.mmf import read_mmf
from genreclf.vocab import GENRES
from jsonedit import DROP, edited


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


def train_config(arch="mlp", **overrides):
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
    return doc


def small_train_config(tmp_path, arch="mlp", **overrides):
    """The path of ``train_config`` written to ``tmp_path/config.json``."""
    path = str(tmp_path / "config.json")
    with open(path, "w") as fh:
        json.dump(train_config(arch, **overrides), fh)
    return path


@pytest.fixture(scope="module")
def trained(mean_data, tmp_path_factory):
    tmp = tmp_path_factory.mktemp("trained")
    cfg = small_train_config(tmp)
    out = str(tmp / "run")
    assert main(["train", "--config", cfg, "--data", mean_data, "--out", out]) == 0
    return out


@pytest.fixture(scope="module")
def saved(mean_data, tmp_path_factory):
    """A 1-step run, with the config.json (max_steps 2) that resumes it."""
    out = tmp_path_factory.mktemp("saved")
    cfg = small_train_config(out)
    assert main(["train", "--config", cfg, "--max-steps", "1", "--data", mean_data, "--out", str(out)]) == 0
    return str(out)


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

    def test_run_manifest_records_the_parsed_argv(self, mean_data):
        doc = json.load(open(os.path.join(mean_data, "run_manifest.json")))
        assert doc["argv"] == ["synth", "--kind", "mean", "--n", "10", "--out", mean_data]


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

    GOOD = {"id": "good", "duration_s": 100.0, "genres": ["Action"], "features": {"clip": "v.clip.npy"}}

    @pytest.mark.parametrize("entry, warning", [
        ({"genres": ["Action"], "features": {"clip": "v.clip.npy"}}, "{src}: sample 0 field 'id' is missing"),
        (5, "{src}: sample 0 is not an object: 5"),
        (["v"], "{src}: sample 0 is not an object: ['v']"),
        ({**GOOD, "genres": 5}, "{src}: sample 0 field 'genres' must be a list, got 5"),
        ({**GOOD, "features": ["v.clip.npy"]},
         "{src}: sample 0 field 'features' must be an object, got ['v.clip.npy']"),
        ({**GOOD, "features": {"clip": 5}}, "good/clip: cannot read 5"),
        ({**GOOD, "id": 5}, "{src}: sample 0 field 'id' must be a string, got 5"),
        ({**GOOD, "id": ""}, "{src}: sample 0 field 'id' must be a file name, got ''"),
        ({**GOOD, "id": "."}, "{src}: sample 0 field 'id' must be a file name, got '.'"),
        ({**GOOD, "id": ".."}, "{src}: sample 0 field 'id' must be a file name, got '..'"),
        ({**GOOD, "id": "../escaped"}, "{src}: sample 0 field 'id' must be a file name, got '../escaped'"),
        ({**GOOD, "id": "sub/dir"}, "{src}: sample 0 field 'id' must be a file name, got 'sub/dir'"),
        ({**GOOD, "id": "nul\0byte"}, "{src}: sample 0 field 'id' must be a file name, got 'nul\\x00byte'"),
    ], ids=["no-id", "entry-int", "entry-list", "genres-int", "features-list", "feature-path-int", "id-int",
            "id-empty", "id-dot", "id-dotdot", "id-escapes-out", "id-with-slash", "id-with-nul"])
    def test_malformed_entry_is_collected_data_error(self, tmp_path, capsys, entry, warning):
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
            assert f"warning: {warning.format(src=manifest)}" in captured.err and "Traceback" not in captured.err
        outside = {p for p in tmp_path.rglob("*") if not any(out in p.parents for out in outs)}
        assert outside == {src, src / "v.clip.npy", manifest, outs[1]}   # the refused import made no out0

    def test_out_that_cannot_be_made_is_one_data_error(self, tmp_path, capsys):
        np.save(tmp_path / "v.clip.npy", np.ones((5, 512), dtype=np.float32))
        manifest = tmp_path / "src.json"
        manifest.write_text(json.dumps({"samples": [self.GOOD, {**self.GOOD, "id": "other"}]}))
        out = tmp_path / "out"
        out.write_text("a file")
        assert main(["import", "--npy-dir", str(tmp_path), "--manifest", str(manifest), "--out", str(out)]) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("data error: ") and captured.err.count("\n") == 1
        assert out.read_text() == "a file"

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

    def test_duration_that_is_not_a_number_is_skipped(self, tmp_path, capsys):
        src = tmp_path / "src"
        src.mkdir()
        np.save(src / "v.clip.npy", np.ones((5, 512), dtype=np.float32))
        manifest = tmp_path / "src.json"
        manifest.write_text(json.dumps({"samples": [{**self.GOOD, "id": "bad", "duration_s": "ninety"}, self.GOOD]}))
        out = tmp_path / "out"
        assert main(["import", "--npy-dir", str(src), "--manifest", str(manifest), "--out", str(out)]) == 0
        captured = capsys.readouterr()
        assert "imported 1 videos, 1 failed" in captured.out
        warning = f"warning: {manifest}: sample 0 field 'duration_s' must be a finite number or null, got 'ninety'"
        assert warning in captured.err
        assert not (out / "bad.mmf").exists()
        assert [r.id for r in load_manifest(str(out / "manifest.json"))] == ["good"]


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


class TestConfigChecks:
    @pytest.mark.parametrize("flags", [["--max-steps", "0"], ["--epochs", "0"]])
    def test_run_without_steps_exits_zero(self, mean_data, tmp_path, capsys, flags):
        out = str(tmp_path / "x")
        assert main(["train", "--preset", "mlp", *flags, "--data", mean_data, "--out", out]) == 0
        assert "no training step taken" in capsys.readouterr().out
        assert os.path.exists(os.path.join(out, "best.bin"))


class TestResume:
    def test_resume_reproduces_uninterrupted_history(self, mean_data, saved, tmp_path):
        cfg = small_train_config(tmp_path, max_steps=3)
        full, out = str(tmp_path / "full"), str(tmp_path / "resumed")
        assert main(["train", "--config", cfg, "--data", mean_data, "--out", full]) == 0
        assert main(["train", "--config", cfg, "--data", mean_data, "--out", out, "--resume", saved]) == 0
        for name in ("last.bin", "trainer_state.bin"):
            assert open(os.path.join(out, name), "rb").read() == open(os.path.join(full, name), "rb").read()

    def test_resume_keeps_the_validation_history(self, mean_data, tmp_path):
        # the history.csv of a run resumed at step 2 equals the uninterrupted run's, validation columns included
        cfg = small_train_config(tmp_path, max_steps=4, batch_size=2, eval_interval=1)
        whole, part = str(tmp_path / "whole"), str(tmp_path / "part")
        assert main(["train", "--config", cfg, "--data", mean_data, "--out", whole]) == 0
        assert main(["train", "--config", cfg, "--max-steps", "2", "--data", mean_data, "--out", part]) == 0
        assert main(["train", "--config", cfg, "--data", mean_data, "--out", part, "--resume", part]) == 0
        history = open(os.path.join(whole, "history.csv"), "rb").read()
        assert len(history.splitlines()) == 5 and b",," not in history
        assert open(os.path.join(part, "history.csv"), "rb").read() == history


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

    def test_eval_defaults_to_the_checkpoint_threshold(self, mean_data, trained, tmp_path):
        stem = str(tmp_path / "ck")
        shutil.copy(os.path.join(trained, "best.bin"), stem + ".bin")
        doc = json.load(open(os.path.join(trained, "best.json")))
        json.dump(edited(doc, ("config", "threshold"), 0.3), open(stem + ".json", "w"))
        for flags, want in (([], 0.3), (["--threshold", "0.7"], 0.7)):
            out = tmp_path / f"out{want}"
            assert main(["eval", "--checkpoint", stem, "--data", mean_data, "--out", str(out)] + flags) == 0
            assert report_from_csv((out / "report.csv").read_text()).threshold == want
            assert json.load(open(out / "run_manifest.json"))["resolved_config"]["threshold"] == want

    @pytest.mark.parametrize("threshold", ("0", "1"))
    def test_threshold_at_the_ends_of_the_interval_is_taken(self, mean_data, trained, tmp_path, threshold):
        out = tmp_path / "out"
        assert main(["eval", "--checkpoint", os.path.join(trained, "best"), "--threshold", threshold,
                     "--data", mean_data, "--out", str(out)]) == 0
        assert json.load(open(out / "run_manifest.json"))["resolved_config"]["threshold"] == float(threshold)


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

    def test_default_frame_counts(self):
        from genreclf.cli import SWEEP_FRAME_COUNTS
        assert SWEEP_FRAME_COUNTS == (8, 16, 32, 64, 128, 256)


@dataclass(frozen=True)
class Refusal:
    """A command that ``main`` refuses. ``$tmp`` in a string is the case's
    tmp_path and ``$name`` the module fixture ``name``; a ``copy`` fixture is
    first copied under ``$tmp`` and ``$name`` is then the copy. ``edit`` is
    (file, path, value) for ``edited``; ``write`` is (file, bytes, or a
    function of the old bytes). Stderr must be one line that starts with
    ``head`` (a ``head`` that ends in a newline is the whole line) and holds
    each of ``parts``; no path in ``absent`` may exist."""
    id: str
    argv: str
    code: int
    head: str
    parts: tuple = ()
    absent: tuple = ()
    copy: str | None = None
    edit: tuple | None = None
    write: tuple | None = None


def _config(arch, path, value):
    """A ``write`` of ``train_config(arch)`` edited at ``path`` to ``$tmp/config.json``."""
    return "$tmp/config.json", json.dumps(edited(train_config(arch), path, value)).encode()


def _manifest(*samples, genres=GENRES):
    """A ``write`` of a dataset manifest to ``$tmp/data/manifest.json``."""
    return "$tmp/data/manifest.json", json.dumps({"genres": genres, "samples": list(samples)}).encode()


IMPORT = "import --npy-dir $tmp --manifest $tmp/src.json --out $tmp/out"
TRAIN_MANIFEST = "train --preset mlp --data $tmp/data --out $tmp/x"
TRAIN_CONFIG = "train --config $tmp/config.json --data $mean_data --out $tmp/x"
RESUME = "train --config $saved/config.json --data $mean_data --out $tmp/resumed --resume $saved"
RUN = {"eval": ("eval --checkpoint $trained/best --data $mean_data --out $tmp/out", ("$tmp/out",)),
       "predict": ("predict --checkpoint $trained/best --input $mean_data/synth000000.mmf", ())}
SAMPLE = {"id": "v0", "duration_s": 50.0, "genres": ["Action"]}
REFUSALS = [
    *(Refusal(f"synth-flag-flags{i}", f"synth --kind mean --n 3 {flags} --out $tmp/ds", 2, "config error: ",
              (flags.split()[0],), ("$tmp/ds",))
      for i, flags in enumerate(["--n 0", "--n -2", "--noise-std nan", "--noise-std inf", "--noise-std -0.1"])),
    Refusal("import-all-fail", IMPORT, 3, "data error: nothing imported\n", absent=("$tmp/out",),
            write=("$tmp/src.json", b'{"samples": []}')),
    *(Refusal(f"import-source-{id}", IMPORT, 3, f"data error: $tmp/src.json: {message}\n", absent=("$tmp/out",),
              write=("$tmp/src.json", json.dumps(doc).encode()))
      for id, doc, message in [
          ("top-level-list", [], "source manifest is not an object: []"),
          ("samples-object", {"samples": {}}, "source manifest field 'samples' must be a list, got {}"),
          ("samples-int", {"samples": 5}, "source manifest field 'samples' must be a list, got 5"),
          ("top-level-string", "samples", "source manifest is not an object: 'samples'")]),
    # the id "\ud800" would name a .mmf file that cannot be encoded
    Refusal("import-lone-surrogate", IMPORT, 3, "data error: $tmp/src.json: a string holds a lone surrogate: ",
            absent=("$tmp/out",), write=("$tmp/src.json", json.dumps({"samples": [
                {"id": "\ud800", "duration_s": 100.0, "genres": ["Action"], "features": {"clip": "v.npy"}}
            ]}).encode())),
    Refusal("train-manifest-not-utf8", TRAIN_MANIFEST, 3, "data error: ", ("manifest.json: not UTF-8 text",),
            ("$tmp/x",), write=("$tmp/data/manifest.json", b"\xff\xfe{}")),
    # the first step reads the file, after the run manifest is written
    Refusal("train-truncated-feature-file", "train --preset mlp --max-steps 3 --data $mean_data --out $tmp/x", 3,
            "data error: ", ("synth000000.mmf",), ("$tmp/x/best.bin", "$tmp/x/history.csv"), copy="mean_data",
            write=("$mean_data/synth000000.mmf", lambda old: old[:40])),
    Refusal("train-without-config", "train --data $mean_data --out $tmp/x", 2,
            "config error: provide --config JSON or --preset\n", absent=("$tmp/x",)),
    Refusal("train-entry-without-genres", TRAIN_MANIFEST, 3,
            "data error: $tmp/data/manifest.json: record v0 field 'genres' is missing\n", absent=("$tmp/x",),
            write=_manifest({"id": "v0", "duration_s": 50.0, "path": None})),
    *(Refusal(f"train-genres-not-a-list-{genres}", TRAIN_MANIFEST, 3, "data error: ",
              ("manifest genre vocabulary does not match",), ("$tmp/x",), write=_manifest(SAMPLE, genres=genres))
      for genres in (5, True, None)),
    Refusal("train-duration-not-a-number", TRAIN_MANIFEST, 3,
            "data error: $tmp/data/manifest.json: record v0 field 'duration_s' must be a finite number or null, "
            "got '50'\n", absent=("$tmp/x",), write=_manifest({**SAMPLE, "duration_s": "50"})),
    Refusal("train-id-not-a-string", TRAIN_MANIFEST, 3,
            "data error: $tmp/data/manifest.json: sample 0 field 'id' must be a string, got 5\n", absent=("$tmp/x",),
            write=_manifest({**SAMPLE, "id": 5})),
    # a JSON escape of half a surrogate pair decodes to a string that cannot be encoded, so ids cannot be sorted
    # by their UTF-8 bytes for the split, nor paths opened
    *(Refusal(f"train-lone-surrogate-{field}", "train --preset mlp --max-steps 1 --data $mean_data --out $tmp/x", 3,
              "data error: $mean_data/manifest.json: a string holds a lone surrogate: ", absent=("$tmp/x",),
              copy="mean_data", edit=("$mean_data/manifest.json", ("samples", 0, field), lambda s: "\ud800" + s))
      for field in ("id", "path")),
    *(Refusal(f"train-flag-flags{i}", f"train --preset mlp {flags} --data $mean_data --out $tmp/x", 2,
              "config error: ", (flags.split()[0][2:].replace("-", "_"),), ("$tmp/x",))
      for i, flags in enumerate(["--batch-size 0", "--epochs -1", "--max-steps -1", "--eval-interval -2",
                                 "--lr -0.001", "--lr nan", "--modalities nope", "--modalities ,",
                                 "--modalities clip --averaged ocr"])),
    *(Refusal(f"config-field-{id}", TRAIN_CONFIG, 2, "config error: ", (path[-1],), ("$tmp/x",),
              write=_config("mlp", path, value))
      for id, path, value in [
          ("path0-x", ("model", "model_dim"), "x"), ("path1-0", ("model", "num_heads"), 0),
          ("path2-1.5", ("model", "dropout_rate"), 1.5),
          ("path3-51.2", ("model", "modalities", 0, "input_dim"), 51.2),
          ("path4-None", ("model", "architecture"), None), ("path5-x", ("batch_size",), "x"),
          ("path6-True", ("batch_size",), True), ("path7-0", ("batch_size",), 0), ("path8-1.5", ("max_steps",), 1.5),
          ("path9-1e-3", ("lr",), "1e-3"), ("path10-0", ("clip_norm",), 0), ("path11--1.0", ("clip_norm",), -1.0),
          ("path12-3", ("seed",), "3"), ("path13-value13", ("model",), [])]),
    *(Refusal(f"config-modality-size-{arch}-{field}-{value}", TRAIN_CONFIG, 2, "config error: ",
              (f"'clip' field '{field}' must be >= 1",), ("$tmp/x",),
              write=_config(arch, ("model", "modalities", 0, field), value))
      for arch, field, value in [("single_transformer", "train_max_len", 0), ("mlp", "train_max_len", -2),
                                 ("mlp", "input_dim", 0), ("multi_transformer", "input_dim", -512)]),
    Refusal("config-modality-outside-schema", TRAIN_CONFIG, 2, "config error: ", ("'nope'",), ("$tmp/x",),
            write=_config("mlp", ("model", "modalities"), [{"name": "nope", "input_dim": 8, "train_max_len": 4}])),
    Refusal("config-threshold", TRAIN_CONFIG, 2, "config error: ", ("threshold must be in [0, 1], got 7.0",),
            ("$tmp/x",), write=_config("mlp", ("model", "threshold"), 7.0)),
    *(Refusal(f"config-num-layers-{arch}", TRAIN_CONFIG, 2, "config error: ", ("num_layers",), ("$tmp/x",),
              write=_config(arch, ("model", "num_layers"), 0))
      for arch in ("mlp", "single_transformer", "multi_transformer")),
    # every size here asks for more than 1 EiB, so the allocation fails at once
    *(Refusal(f"config-too-large-{id}", TRAIN_CONFIG, 2, f"config error: {arch} with model_dim",
              ("cannot be allocated",), ("$tmp/x",), write=_config(arch, ("model", *path), value))
      for id, arch, path, value in [
          ("mlp-path0-1000000000000000", "mlp", ("model_dim",), 10**15),
          ("multi_transformer-path1-1000000000000000", "multi_transformer", ("model_dim",), 10**15),
          ("single_transformer-path2-100000000000000000000", "single_transformer",
           ("modalities", 0, "train_max_len"), 10**20),
          ("multi_transformer-path3-100000000000000000000", "multi_transformer",
           ("modalities", 0, "train_max_len"), 10**20),
          *((f"{arch}-input_dim-past-2**64", arch, ("modalities", 0, "input_dim"), 10**20)
            for arch in ("mlp", "single_transformer", "multi_transformer")),
          ("mlp-input_dim-of-401-digits", "mlp", ("modalities", 0, "input_dim"), 10**400)]),
    *(Refusal(f"resume-state-{id}", RESUME, 3, "data error: ", (f"field {path[0]!r}",), ("$tmp/resumed",),
              copy="saved", edit=("$saved/trainer_state.json", path, value))
      for id, path, value in [
          ("sha256-missing", ("sha256",), DROP), ("losses-string", ("losses",), "1.0"),
          ("rng-without-counter", ("dropout_rng",), {"seed": 1}),
          ("rng-counter-past-uint64", ("dropout_rng",), {"seed": 1, "counter": 2**70}),
          ("adam-t-of-401-digits", ("adam_t",), 10**400)]),
    *(Refusal(f"resume-moments-{id}", RESUME, 3, "data error: ", (message,), ("$tmp/resumed",), copy="saved",
              edit=("$saved/trainer_state.json", ("adam_manifest", 0, key), value))
      for id, key, value, message in [("renamed", "name", "m.nope", "extra=['m.nope']"),
                                      ("flattened", "shape", lambda shape: [math.prod(shape)],
                                       "shape mismatch for m.")]),
    # each v.* entry points at its m.* bytes; the blob and its SHA-256 are untouched
    Refusal("resume-overlapping-moments", RESUME, 3, "data error: ", ("trainer_state.bin: v.", "starts at byte"),
            ("$tmp/resumed",), copy="saved", edit=("$saved/trainer_state.json", ("adam_manifest",), lambda entries: [
                {**entry, "offset": entries[i - i % 2]["offset"]} for i, entry in enumerate(entries)])),
    Refusal("resume-state-not-utf8", RESUME, 3, "data error: ", ("trainer_state.json: not UTF-8 text",),
            ("$tmp/resumed",), copy="saved", write=("$saved/trainer_state.json", lambda old: b"\xff\xfe" + old)),
    Refusal("resume-non-standard-numbers", RESUME, 3, "data error: ", ("is not a standard JSON number",),
            ("$tmp/resumed",), copy="saved", edit=("$saved/trainer_state.json", (), lambda state: edited(
                state, ("losses", 0, 1), math.inf) | {"best_map": math.nan})),
    *(Refusal(f"checkpoint-{id}", RUN["eval"][0], 3, "data error: ", absent=("$tmp/out",), copy="trained",
              edit=("$trained/best.json", path, value))
      for id, path, value in [
          ("top-level-list", (), []), ("no-parameters", ("parameters",), DROP),
          ("parameters-not-a-list", ("parameters",), {}), ("no-config", ("config",), DROP),
          ("config-not-an-object", ("config",), "mlp"),
          ("config-without-architecture", ("config", "architecture"), DROP),
          ("modality-not-an-object", ("config", "modalities", 0), "clip"),
          ("entry-without-name", ("parameters", 0, "name"), DROP),
          ("entry-without-shape", ("parameters", 0, "shape"), DROP),
          ("entry-without-offset", ("parameters", 0, "offset"), DROP),
          ("negative-offset", ("parameters", 0, "offset"), -4), ("negative-shape", ("parameters", 0, "shape"), [-1, 2]),
          ("shape-not-a-list", ("parameters", 0, "shape"), "16"),
          ("entry-not-an-object", ("parameters", 0), "hidden.w"),
          ("missing-parameter", ("parameters", 0), DROP), ("no-encoder-layers", ("config", "num_layers"), 0)]),
    *(Refusal(f"checkpoint-modality-{key}-{value}-{named}", RUN["eval"][0], 3, "data error: ", (named,),
              ("$tmp/out",), copy="trained", edit=("$trained/best.json", ("config", "modalities", 0, key), value))
      for key, value, named in [("name", "nope", "'nope'"), ("train_max_len", 0, "'train_max_len'")]),
    *(Refusal(f"checkpoint-threshold-{command}", RUN[command][0], 3, "data error: ", ("threshold must be in [0, 1]",),
              RUN[command][1], copy="trained", edit=("$trained/best.json", ("config", "threshold"), 7.0))
      for command in ("eval", "predict")),
    # the manifest still fits the blob, so only building the model fails, asking for more than 1 EiB
    *(Refusal(f"checkpoint-too-large-{id}-{command}", RUN[command][0], 3,
              "data error: $trained/best.json: mlp with model_dim", ("cannot be allocated",), RUN[command][1],
              copy="trained", edit=("$trained/best.json", ("config", *path), value))
      for id, path, value in [("model_dim", ("model_dim",), 10**15),
                              ("input_dim-past-2**64", ("modalities", 0, "input_dim"), 10**20),
                              ("input_dim-of-401-digits", ("modalities", 0, "input_dim"), 10**400)]
      for command in ("eval", "predict")),
    *(Refusal(f"checkpoint-non-finite-value-{command}", RUN[command][0], 3,
              "data error: $trained/best.bin: a stored value is not finite\n", absent=RUN[command][1], copy="trained",
              write=("$trained/best.bin", lambda old: np.float32(np.nan).tobytes() + old[4:]))
      for command in ("eval", "predict")),
    # a feature file's last float, a value every model reads, made NaN: synth000009 is a test record, synth000007
    # the validation record and predict names a record by its file name
    *(Refusal(f"non-finite-scores-{command}", argv, 4, f"numeric failure: non-finite scores for record ids ['{id}']\n",
              absent=absent, copy="mean_data",
              write=(f"$mean_data/{id.removesuffix('.mmf')}.mmf", lambda old: old[:-4] + np.float32(np.nan).tobytes()))
      for command, argv, absent, id in [
          ("eval", RUN["eval"][0], RUN["eval"][1], "synth000009"),
          ("predict", RUN["predict"][0], RUN["predict"][1], "synth000000.mmf"),
          ("train", "train --preset mlp --max-steps 1 --eval-interval 1 --data $mean_data --out $tmp/x",
           ("$tmp/x/history.csv",), "synth000007")]),
    Refusal("predict-empty-file", "predict --checkpoint $trained/best --input $tmp/empty.mmf", 3, "data error: ",
            ("truncated while reading magic at byte 0",), write=("$tmp/empty.mmf", b"")),
    *(Refusal(f"threshold-flag-{threshold}-{command}", f"{RUN[command][0]} --threshold {threshold}", 2,
              "config error: ", ("threshold",), RUN[command][1])
      for threshold in ("nan", "inf", "-0.1", "1.5") for command in ("eval", "predict")),
    Refusal("eval-missing-checkpoint", "eval --checkpoint $tmp/nope --data $mean_data --out $tmp/out", 3,
            "data error: [Errno 2] No such file or directory: '$tmp/nope.json'\n", absent=("$tmp/out",)),
    *(Refusal(f"frames-{frames}", "frames-sweep --preset mlp --modalities clip --data $order_data "
                                  f"--frames {frames} --out $tmp/sweep", 2, "config error: ", ("--frames",),
              ("$tmp/sweep",))
      for frames in ("x", "-3", "0", "8,0", "8,", "1.5")),
]


class _Names(dict):
    """``tmp`` and each module fixture's path by name, looked up on first use."""

    def __init__(self, request, tmp_path):
        super().__init__(tmp=str(tmp_path))
        self.request = request

    def __missing__(self, name):
        self[name] = str(self.request.getfixturevalue(name))
        return self[name]


@pytest.mark.parametrize("row", REFUSALS, ids=lambda row: row.id)
def test_refused_command(row, request, tmp_path, capsys):
    names = _Names(request, tmp_path)

    def at(text):
        return Template(text).substitute(names)

    if row.copy:
        names[row.copy] = str(shutil.copytree(names[row.copy], tmp_path / row.copy))
    if row.edit:
        file, path, value = row.edit
        doc = json.loads(Path(at(file)).read_text())
        Path(at(file)).write_text(json.dumps(edited(doc, path, value)))
    if row.write:
        file, data = Path(at(row.write[0])), row.write[1]
        file.parent.mkdir(parents=True, exist_ok=True)
        file.write_bytes(data(file.read_bytes()) if callable(data) else data)
    rc = main([at(arg) for arg in row.argv.split()])
    err = capsys.readouterr().err
    assert rc == row.code
    assert err.startswith(at(row.head)) and err.endswith("\n") and err.count("\n") == 1
    assert all(at(part) in err for part in row.parts) and "Traceback" not in err
    assert [path for path in map(at, row.absent) if os.path.exists(path)] == []


@pytest.mark.parametrize("argv, code, message", [
    ("train --preset mlp --batch-size 0 --data $mean_data --out run", 2, "config error: batch_size"),
    ("train --preset mlp --data utf16 --out run", 3, "manifest.json: not UTF-8 text"),
    ("eval --checkpoint $trained/best --data $mean_data --threshold nan --out run", 2, "config error: threshold"),
], ids=["config-error", "data-error", "eval-threshold-nan"])
def test_module_entry_point_exits_with_the_code_and_no_traceback(request, tmp_path, argv, code, message):
    # a fresh interpreter, as the console script runs, rather than main() in this one
    (tmp_path / "utf16").mkdir()
    (tmp_path / "utf16" / "manifest.json").write_bytes(b"\xff\xfe{}")
    src = os.path.dirname(os.path.dirname(genreclf.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    args = Template(argv).substitute(_Names(request, tmp_path)).split()
    proc = subprocess.run([sys.executable, "-m", "genreclf.cli", *args], cwd=tmp_path, env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == code
    assert message in proc.stderr and "Traceback" not in proc.stderr
    assert not (tmp_path / "run").exists()
