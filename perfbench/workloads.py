"""The benchmark's workloads and the output checks that feed its failure count.

Each workload makes its inputs from the seed, then sets up the program
several times (the set-up time reported is the median), measures for the
requested number of seconds, and ends with checked operations outside the
timed phase. Operations are optimizer steps and scored records; an
operation fails when it raises or when its output fails a check.

Training goes through ``training.Trainer.run`` and scoring through
``training.evaluate``. The benchmark sees them only by wrapping names the
program looks up: ``training.make_batch`` (a train-length batch starts a
step), ``Trainer._train_step`` (the step ends, with its loss),
``training.evaluate`` and ``training.predict_scores`` (one stamp per scored
record). A timed training run ends by the clock: once the time is up, the
step that sees it sets the trainer's ``max_steps`` to end the run after it.

* ``mlp_disk``: the mlp preset at batch size 32 on an on-disk .mmf corpus,
  for at least two epochs, validating every ``VAL_INTERVAL`` steps (saving
  the best checkpoint) and saving the final checkpoint and trainer state,
  then scoring the test split. Most of its time is in data, mmf, optim,
  metrics and checkpoint.
* ``multi_train``: the multi_transformer preset at batch size 8 on
  in-memory records; forward, backward, dropout and Adam, no evaluation.
* ``single_eval``: the single_transformer preset loaded from a checkpoint,
  scoring full-duration records one at a time; every stream is longer than
  its positional table, so each record is a 530-token fused sequence.
"""

import math
import os
import resource
import statistics
import sys
import time
import traceback
from contextlib import contextmanager

import numpy as np

import genreclf.autograd as ag
import genreclf.checkpoint as checkpoint
import genreclf.data as data
import genreclf.mmf as mmf
import genreclf.models as models
import genreclf.training as training
from genreclf.modalities import DEFAULT_SPECS
from genreclf.rng import SeededRng
from genreclf.vocab import GENRES

import reference
from spans import Patches

SETUPS = 3                # at least this many set-ups,
SETUP_SECONDS = 4.0       # and more while they have taken less than this
GENRE_PROB = 0.15
NOISE_STD = 0.1
EPOCHS = 10 ** 6          # timed training runs end by the clock, not by epochs

MLP_CORPUS = 640          # records on disk: 448 train, 64 val, 128 test
MLP_BATCH = 32
MLP_MIN_EPOCHS = 2
VAL_INTERVAL = 10         # optimizer steps between validations
TRAIN_SHARE = 0.75        # of the measured seconds, on mlp_disk
MIN_TIMED_OPS = 2         # timed steps or records, however slow they are
MULTI_POOL = 64
MULTI_BATCH = 8
SINGLE_POOL = 16

# Output-check tolerances. The reference is float64 throughout, while the
# program runs in float32 (with some ops promoted to float64 by numpy). With
# every op in float32 the deviations stay about 30x below these (loss 3e-8,
# logits 3e-6, scores 2e-7); a wrong attention scale (1/d instead of
# 1/sqrt(d)) exceeds them 10x, and a wrong layer-norm eps exceeds SCORE_TOL.
# SCORE_TOL also leaves room for padded batch scoring, which may differ from
# single-record scores by up to 1e-5. The gradient check only sees errors in
# the gradients that dominate its norm.
LOSS_TOL = 1e-6           # absolute, on the weighted BCE loss
LOGIT_TOL = 1e-4          # absolute, per logit
SCORE_TOL = 3e-5          # absolute, per probability
GRAD_RTOL = 1e-2          # relative, directional derivative vs gradient norm
FD_STEP = 1e-3            # central-difference step along the unit gradient

def synth_records(seed, n, long=False):
    """Yield ``n`` mean-separable records, built as ``synth.synth_mean_encoded``
    builds them (per-genre signatures plus N(0, 0.1) noise) but drawn with
    numpy's PCG64, so a corpus of hundreds of records takes a second.
    Stream lengths are uniform in 1..train_max_len, or, with ``long``, in
    train_max_len+1..1.5*train_max_len so every stream outruns its
    positional table."""
    gen = np.random.default_rng(seed)
    signatures = {s.name: gen.standard_normal((len(GENRES), s.input_dim), dtype=np.float32)
                  for s in DEFAULT_SPECS}
    for i in range(n):
        labels = gen.random(len(GENRES)) < GENRE_PROB
        if not labels.any():
            labels[gen.integers(len(GENRES))] = True
        features = {}
        for s in DEFAULT_SPECS:
            lo, hi = (s.train_max_len + 1, s.train_max_len * 3 // 2) if long else (1, s.train_max_len)
            x = gen.standard_normal((int(gen.integers(lo, hi, endpoint=True)), s.input_dim), dtype=np.float32)
            x *= NOISE_STD
            x += signatures[s.name][labels].sum(axis=0)
            features[s.name] = x
        yield data.VideoRecord(id=f"rec{i:06d}", duration_s=float(gen.uniform(20.0, 200.0)),
                               genres=tuple(g for g, on in zip(GENRES, labels) if on), features=features)


def flush(path):
    """Write a file's dirty pages to disk now, so that write-back does not
    run during the measured phases; the pages stay in the page cache."""
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def padding_share(records, specs):
    """Share of feature elements that are padding in train-length batches."""
    valid = total = 0
    for r in records:
        for s in specs:
            valid += min(len(r.features[s.name]), s.train_max_len) * s.input_dim
            total += s.train_max_len * s.input_dim
    return 1.0 - valid / total


class Bench:
    """One workload run: operation counts, timings, outputs and problems,
    collected by wrappers around the program's training and scoring calls."""

    def __init__(self, seed, seconds, workdir, tracer=None):
        self.seed = seed
        self.seconds = seconds
        self.workdir = workdir
        self.tracer = tracer
        self.set_phase("prepare")
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.losses = []           # every loss, in operation order
        self.scores = []           # every evaluate call's (n, 21) probabilities
        self.setup_s = []          # each set-up, without the package import
        self.step_s = []           # timed optimizer steps, from batch to update
        self.record_s = []         # timed scored records, from the per-record stamps
        self.call_record_s = []    # timed evaluate calls, seconds per record
        self.unstamped_calls = 0   # evaluate calls whose stamps did not match their records
        self.trained = 0           # records trained in the timed phase
        self.scored = 0            # records scored in the timed phase
        self.evaluate_s = 0.0      # timed seconds inside evaluate
        self.wall = {"train": 0.0, "eval": 0.0}
        self.properties = {}
        self.check_errors = {}     # largest deviations from the reference
        self._batch = None         # (start, records) of the train-length batch last made
        self.step_records = None   # the records of the last optimizer step, if seen
        self._stop = None          # (deadline, min_epochs) of a run that ends by the clock
        self._stamps = []
        self._outputs = []
        self._patches = Patches()
        self._install()

    # -- wrappers -----------------------------------------------------------
    def _install(self):
        make_batch = training.make_batch
        train_step = training.Trainer._train_step
        evaluate = training.evaluate
        predict_scores = training.predict_scores

        def batch_made(records, specs, lengths="train"):
            if lengths == "train":
                self._batch = (time.perf_counter(), records)
            return make_batch(records, specs, lengths=lengths)

        def step_taken(trainer, batch):
            # a step starts at its batch, or here if the batch was made elsewhere
            start, self.step_records = self._batch or (time.perf_counter(), None)
            self._batch = None
            self.attempted += 1
            try:
                loss = train_step(trainer, batch)
            except Exception:
                self.failed += 1
                raise
            self._stepped(trainer, batch, loss, time.perf_counter() - start)
            return loss

        def evaluated(model, records, *args, **kwargs):
            self.attempted += len(records)
            self._stamps, self._outputs = [], []
            t0 = time.perf_counter()
            try:
                report = evaluate(model, records, *args, **kwargs)
            except Exception:
                self.failed += len(records)
                raise
            self._evaluated(records, report, t0, time.perf_counter() - t0)
            return report

        def stamped(model, batch):
            out = predict_scores(model, batch)
            self._stamps.append(time.perf_counter())
            self._outputs.append(out)
            return out

        self._patches.replace(training, "make_batch", batch_made)
        self._patches.replace(training.Trainer, "_train_step", step_taken)
        self._patches.replace(training, "evaluate", evaluated)
        self._patches.replace(training, "predict_scores", stamped)

    def _stepped(self, trainer, batch, loss, seconds):
        self.losses.append(loss)
        if self.phase != "timed":
            return
        self.step_s.append(seconds)
        self.trained += batch.size
        if self._stop is not None:
            deadline, min_epochs = self._stop
            if (time.perf_counter() >= deadline and trainer.epoch >= min_epochs
                    and len(self.step_s) >= MIN_TIMED_OPS):
                trainer.config.max_steps = trainer.global_step + 1

    def _evaluated(self, records, report, t0, elapsed):
        """Check an evaluate call and, in the timed phase, record its times.
        The per-record stamps are used only if there is one per record."""
        n = len(records)
        if report.n_samples != n:
            self.failed += n
            self.problem(f"evaluate of {n} records: report n_samples {report.n_samples}")
            return
        stamped = len(self._stamps) == n and all(o.shape == (1, len(GENRES)) for o in self._outputs)
        if stamped:
            probs = np.concatenate(self._outputs)
            bad = ~(np.isfinite(probs) & (probs >= 0.0) & (probs <= 1.0)).all(axis=1)
            if bad.any():
                self.failed += int(bad.sum())
                self.problem(f"{int(bad.sum())} scored records have probabilities outside [0, 1]")
            self.scores.append(probs)
        if self.phase != "timed":
            return
        self.scored += n
        self.evaluate_s += elapsed
        self.call_record_s.append(elapsed / n)
        if stamped:
            self.record_s.extend(np.diff([t0] + self._stamps).tolist())
        else:
            self.unstamped_calls += 1

    def close(self):
        self._patches.restore()

    # -- phases -----------------------------------------------------------
    def set_phase(self, name):
        self.phase = name
        if self.tracer is not None:
            self.tracer.phase = name

    def set_up(self, setup):
        """Run ``setup`` at least ``SETUPS`` times and until ``SETUP_SECONDS``
        have passed; keep the last result."""
        spent = 0.0
        while len(self.setup_s) < SETUPS or spent < SETUP_SECONDS:
            self.set_phase("setup")
            t0 = time.perf_counter()
            result = setup()
            dt = time.perf_counter() - t0
            spent += dt
            self.setup_s.append(dt)
        self.set_phase("check")
        return result

    @contextmanager
    def timed(self, kind):
        self.set_phase("timed")
        t0 = time.perf_counter()
        try:
            yield t0
        finally:
            self.wall[kind] += time.perf_counter() - t0
            self.set_phase("check")

    def problem(self, message):
        if len(self.problems) < 20:
            self.problems.append(message)
            print(message, file=sys.stderr)

    # -- operations -------------------------------------------------------
    def train(self, trainer, max_steps=None, deadline=None, min_epochs=0):
        """``trainer.run()`` up to ``max_steps`` steps in all, or until the
        first step that ends after ``deadline`` in epoch ``min_epochs`` or
        later. Returns False if the run raised."""
        assert max_steps is not None or deadline is not None
        trainer.config.max_steps = max_steps
        self._stop = None if deadline is None else (deadline, min_epochs)
        try:
            trainer.run()
        except Exception:
            ag.clear_tape()
            self.problem(f"training raised at step {trainer.global_step + 1}:\n{traceback.format_exc()}")
            return False
        finally:
            self._stop = None
        return True

    def score(self, model, records):
        """``training.evaluate`` over ``records``. Returns the report, or
        None if it raised."""
        try:
            return training.evaluate(model, records)
        except Exception:
            self.problem(f"evaluate raised:\n{traceback.format_exc()}")
            return None

    # -- checks -----------------------------------------------------------
    def check_step(self, trainer):
        """One more step of ``trainer`` checked against the float64
        reference: loss and logits before the step, the pre-clip gradient
        along its own direction by central differences, and the Adam update."""
        model, adam = trainer.model, trainer.adam
        cfg = model.config
        before = model.params.to_arrays()
        rng_state = trainer.dropout_rng.state()
        moments = ({k: v.astype(np.float64) for k, v in adam.m.items()},
                   {k: v.astype(np.float64) for k, v in adam.v.items()}, adam.t)
        seen = {}
        bce, clip = training.weighted_bce, training.clip_global_norm

        def keep_logits(logits, *args, **kwargs):
            seen["logits"] = logits.data.copy()
            return bce(logits, *args, **kwargs)

        def keep_grads(grads, *args, **kwargs):
            seen["grads"] = {name: p.grad.astype(np.float64) for name, p in model.params.items()}
            return clip(grads, *args, **kwargs)

        patches = Patches()
        patches.replace(training, "weighted_bce", keep_logits)
        patches.replace(training, "clip_global_norm", keep_grads)
        try:
            ok = self.train(trainer, max_steps=trainer.global_step + 1)
        finally:
            patches.restore()
        if not ok:
            return
        if seen.keys() != {"logits", "grads"} or self.step_records is None:
            self.failed += 1
            self.problem("check step: the step did not go through training.make_batch, "
                         "weighted_bce and clip_global_norm")
            return
        loss, records = self.losses[-1], self.step_records
        grads = seen["grads"]
        ref_batch = reference.batch(records, cfg.modalities, "train")

        def ref_loss(params):
            z = reference.logits(cfg, params, ref_batch, SeededRng.from_state(rng_state))
            return reference.weighted_bce(z, ref_batch.labels, cfg.positive_weight), z

        expected, z_ref = ref_loss(before)
        norm = math.sqrt(sum(float(np.sum(g * g)) for g in grads.values()))
        plus = ref_loss({n: before[n] + FD_STEP * g / norm for n, g in grads.items()})[0]
        minus = ref_loss({n: before[n] - FD_STEP * g / norm for n, g in grads.items()})[0]
        slope = (plus - minus) / (2 * FD_STEP)
        self.check_errors.update(loss=abs(loss - expected),
                                 logits=float(np.max(np.abs(seen["logits"] - z_ref))),
                                 gradient=abs(slope - norm) / norm)
        errors = []
        if self.check_errors["loss"] > LOSS_TOL:
            errors.append(f"loss {loss!r} vs reference {expected!r}")
        if self.check_errors["logits"] > LOGIT_TOL:
            errors.append(f"logits differ from the reference by {self.check_errors['logits']}")
        if self.check_errors["gradient"] > GRAD_RTOL:
            errors.append(f"directional derivative {slope!r} vs gradient norm {norm!r}")
        errors += self._adam_errors(adam, trainer.config.clip_norm, before, grads, norm, moments,
                                    model.params.to_arrays())
        if errors:
            self.failed += 1
            self.problem("check step: " + "; ".join(errors))

    @staticmethod
    def _adam_errors(adam, clip_norm, before, grads, norm, moments, after):
        """The first parameter whose update differs from a float64 Adam step
        on the clipped gradients, as a list of at most one message."""
        m0, v0, t0 = moments
        t = t0 + 1
        scale = min(1.0, clip_norm / norm)
        for name, g in grads.items():
            g = g * scale
            m = adam.beta1 * m0[name] + (1 - adam.beta1) * g
            v = adam.beta2 * v0[name] + (1 - adam.beta2) * g * g
            update = adam.lr * (m / (1 - adam.beta1 ** t)) / (np.sqrt(v / (1 - adam.beta2 ** t)) + adam.eps)
            want = before[name] - update
            tol = 4 * np.spacing(np.abs(want).astype(np.float32)) + 1e-3 * np.abs(update)
            if (np.abs(after[name] - want) > tol).any():
                return [f"Adam update of {name} differs from the reference"]
        return []

    def check_scores(self, model, record):
        """Score one record with ``models.predict_scores`` and compare its
        shape, range and values with the float64 reference."""
        self.attempted += 1
        try:
            got = models.predict_scores(model, data.make_batch([record], model.config.modalities, lengths="full"))
        except Exception:
            self.failed += 1
            self.problem(f"predict_scores raised:\n{traceback.format_exc()}")
            return
        self.scores.append(got)
        if got.shape != (1, len(GENRES)) or not ((got >= 0.0) & (got <= 1.0)).all():
            self.failed += 1
            self.problem(f"scores of shape {got.shape}, not (1, {len(GENRES)}) in [0, 1]")
            return
        want = reference.scores(model.config, model.params.to_arrays(),
                                reference.batch([record], model.config.modalities, "full"))
        self.check_errors["scores"] = float(np.max(np.abs(got - want)))
        if self.check_errors["scores"] > SCORE_TOL:
            self.failed += 1
            self.problem(f"scores differ from the reference by {self.check_errors['scores']}")

    def check_reload(self, stem, params):
        """A checkpoint must reload to bit-identical parameters."""
        loaded = checkpoint.load_checkpoint(stem).params.to_arrays()
        same = loaded.keys() == params.keys() and all(
            loaded[n].shape == p.shape and loaded[n].tobytes() == p.tobytes() for n, p in params.items())
        if not same:
            self.problem(f"checkpoint {os.path.basename(stem)} does not reload bit for bit")

    # -- results ----------------------------------------------------------
    def metrics(self, import_s):
        """Every metric of the run by name; absent where it does not apply.
        ``setup_s`` is ``import_s``, the package import time, plus the
        median set-up."""
        out = {"setup_s": import_s + statistics.median(self.setup_s),
               "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
               "failed_ratio": self.failed / max(self.attempted, 1)}
        timed_s = self.wall["train"] + self.wall["eval"]
        out["records_per_s"] = (self.trained + self.scored) / timed_s
        if self.step_s:
            out["train_records_per_s"] = self.trained / self.wall["train"]
            out["train_step_s.p50"] = statistics.median(self.step_s)
        if self.scored:
            out["eval_records_per_s"] = self.scored / self.evaluate_s
        if self.record_s and not self.unstamped_calls:
            out["eval_record_s.p50"] = statistics.median(self.record_s)
            if len(self.record_s) >= 100:
                out["eval_record_s.p90"] = float(np.percentile(self.record_s, 90))
        if self.step_s:
            out["step_s.p50"] = out["train_step_s.p50"]
        elif self.call_record_s:
            out["step_s.p50"] = statistics.median(self.call_record_s)
        return out


# -- workloads ---------------------------------------------------------------


def mlp_disk(bench):
    corpus = os.path.join(bench.workdir, "corpus")
    os.makedirs(corpus)
    entries, share = [], []
    for rec in synth_records(bench.seed, MLP_CORPUS):
        path = os.path.join(corpus, rec.id + ".mmf")
        mmf.write_mmf(rec.features, path)
        flush(path)
        share.append(padding_share([rec], DEFAULT_SPECS))
        entries.append(data.VideoRecord(rec.id, rec.duration_s, rec.genres, path=path))
    manifest = os.path.join(corpus, "manifest.json")
    data.write_manifest(entries, manifest)
    flush(manifest)
    config = training.TrainConfig(models.ModelConfig.preset("mlp"), batch_size=MLP_BATCH, epochs=EPOCHS,
                                  eval_interval=VAL_INTERVAL, seed=bench.seed)
    bench.properties.update(
        corpus_records=MLP_CORPUS,
        corpus_bytes_on_disk=sum(os.path.getsize(e.path) for e in entries),
        padding_share=float(np.mean(share)),
        fused_seq_len=1,
        mmf_reads="page cache: the corpus is written just before it is read and caches are never dropped")

    def setup():
        splits = data.split_records(data.load_manifest(manifest))
        trainer = training.Trainer(config, splits["train"], splits["val"])
        bench.train(trainer, max_steps=1)
        return splits, trainer

    splits, trainer = bench.set_up(setup)
    bench.properties["split_records"] = {k: len(v) for k, v in splits.items()}
    # from here on, validations save "best" and the end of each run saves
    # "last" and the trainer state
    config.checkpoint_dir = bench.workdir
    with bench.timed("train") as t0:
        bench.train(trainer, deadline=t0 + bench.seconds * TRAIN_SHARE, min_epochs=MLP_MIN_EPOCHS)
    bench.check_step(trainer)
    bench.check_reload(os.path.join(bench.workdir, "last"), trainer.model.params.to_arrays())
    bench.check_scores(trainer.model, splits["test"][0])
    with bench.timed("eval") as t0:
        while True:
            bench.score(trainer.model, splits["test"])
            if time.perf_counter() - t0 >= bench.seconds * (1 - TRAIN_SHARE):
                break


def multi_train(bench):
    records = list(synth_records(bench.seed, MULTI_POOL))
    config = training.TrainConfig(models.ModelConfig.preset("multi_transformer"), batch_size=MULTI_BATCH,
                                  epochs=EPOCHS, seed=bench.seed)
    bench.properties.update(
        corpus_records=MULTI_POOL, corpus_bytes_on_disk=0,
        padding_share=padding_share(records, config.model.modalities),
        fused_seq_len={s.name: 1 + s.train_max_len for s in config.model.modalities})

    def setup():
        trainer = training.Trainer(config, records)
        bench.train(trainer, max_steps=1)
        return trainer

    trainer = bench.set_up(setup)
    with bench.timed("train") as t0:
        bench.train(trainer, deadline=t0 + bench.seconds)
    bench.check_step(trainer)


def single_eval(bench):
    records = list(synth_records(bench.seed, SINGLE_POOL, long=True))
    config = models.ModelConfig.preset("single_transformer")
    stem = os.path.join(bench.workdir, "single")
    built = models.build_model(config, seed=bench.seed)
    checkpoint.save_checkpoint(built, stem)
    saved = built.params.to_arrays()
    del built
    bench.properties.update(
        corpus_records=SINGLE_POOL, corpus_bytes_on_disk=0, padding_share=0.0,
        fused_seq_len=1 + sum(1 + min(len(records[0].features[s.name]), s.train_max_len)
                              for s in config.modalities))

    def setup():
        model = checkpoint.load_checkpoint(stem)
        bench.score(model, records[:1])
        return model

    model = bench.set_up(setup)
    bench.check_reload(stem, saved)
    with bench.timed("eval") as t0:
        i = 0
        while bench.scored < MIN_TIMED_OPS or time.perf_counter() - t0 < bench.seconds:
            bench.score(model, [records[i % SINGLE_POOL]])
            i += 1
    bench.check_scores(model, records[i % SINGLE_POOL])


def run(name, bench):
    """Run workload ``name`` (a name listed in BENCHMARK.json); the result
    is in ``bench``."""
    try:
        globals()[name](bench)
    finally:
        bench.close()
