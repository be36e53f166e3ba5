"""Span tracing of genreclf from outside the package.

Each public function or method the benchmark cares about is replaced, at the
place where its callers look it up, by a wrapper that records a span (name,
parent span, start, end, run phase) and, for some calls, counts taken from
the call's arguments or result. Wrappers call straight through and only read
what the call returns, so a traced run computes the same numbers and draws
the same random values as an untraced one. Spans are kept in memory and
summarised when the run ends; a span's self time is its duration minus the
time its child spans cover.
"""

import functools
import os
import time
from collections import defaultdict

import numpy as np

import genreclf.autograd as ag
import genreclf.checkpoint as checkpoint
import genreclf.data as data
import genreclf.models as models
import genreclf.nn as nn
import genreclf.optim as optim
import genreclf.rng as rng
import genreclf.training as training


class Patches:
    """Attribute replacements that can be undone in reverse order."""

    def __init__(self):
        self._undo = []

    def replace(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def restore(self):
        while self._undo:
            setattr(*self._undo.pop())


class Tracer:
    """Spans and counts of the wrapped calls, by run phase."""

    def __init__(self):
        self.phase = "prepare"
        self.spans = []                      # [name, parent index, start, end, phase]
        self.counts = defaultdict(float)     # (phase, key) -> total
        self._stack = []
        self._patches = Patches()

    def count(self, key, value=1):
        self.counts[self.phase, key] += value

    def wrap(self, owner, attr, name, before=None, after=None):
        original = getattr(owner, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if before is not None:
                before(self, args)
            span = [name, self._stack[-1] if self._stack else -1, 0.0, 0.0, self.phase]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span[2] = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                self._stack.pop()
            if after is not None:
                after(self, args, result)
            return result

        self._patches.replace(owner, attr, traced)

    def install(self):
        for owner, attr, name, before, after in _TRACE_POINTS:
            self.wrap(owner, attr, name, before, after)

    def uninstall(self):
        self._patches.restore()

    def self_times(self):
        """(phase, name) -> (total self seconds, number of spans)."""
        covered = [0.0] * len(self.spans)
        for name, parent, start, end, phase in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out = defaultdict(lambda: [0.0, 0])
        for (name, parent, start, end, phase), child in zip(self.spans, covered):
            entry = out[phase, name]
            entry[0] += end - start - child
            entry[1] += 1
        return {key: tuple(v) for key, v in out.items()}


def _matmul_counts(tracer, args, out):
    tracer.count("autograd.matmul.calls")
    tracer.count("autograd.matmul.f64_calls", out.dtype == np.float64)


def _tape_nodes(tracer, args):
    tracer.count("autograd.backward.calls")
    tracer.count("autograd.tape_nodes", ag.tape_size())


def _batch_counts(tracer, args, batch):
    for name, x in batch.features.items():
        mask = batch.masks[name]
        tracer.count("data.make_batch.out_bytes", x.nbytes + mask.nbytes)
        tracer.count("data.elements", x.size)
        tracer.count("data.valid_elements", int(mask.sum()) * x.shape[2])
    tracer.count("data.make_batch.out_bytes", batch.labels.nbytes)


def _file_bytes(key, *suffixes):
    def after(tracer, args, result):
        path = args[-1]
        tracer.count(f"{key}.calls")
        tracer.count(f"{key}.bytes", sum(os.path.getsize(path + s) for s in suffixes))
    return after


def _counter(key, value):
    def after(tracer, args, result):
        tracer.count(key, value(result))
    return after


# (owner, attribute, span name, before hook, after hook). A function that
# several modules import by name is wrapped in each of them.
_TRACE_POINTS = [
    (ag, "matmul", "autograd.matmul", None, _matmul_counts),
    (ag, "softmax_rows", "autograd.softmax_rows", None,
     _counter("autograd.softmax_rows.out_bytes", lambda out: out.data.nbytes)),
    (ag, "layer_norm", "autograd.layer_norm", None, None),
    (ag, "backward", "autograd.backward", _tape_nodes, None),
    (nn.Linear, "__call__", "nn.linear", None, None),
    (nn.MultiHeadSelfAttention, "__call__", "nn.attention", None, None),
    (nn.TransformerEncoderLayer, "__call__", "nn.encoder_layer", None, None),
    *[(cls, "forward", "models.forward", None,
       _counter("models.logits_f64", lambda out: out.dtype == np.float64))
      for cls in (models.MlpModel, models.SingleTransformerModel, models.MultiTransformerModel)],
    (training, "predict_scores", "models.predict_scores", None, None),
    (training, "weighted_bce", "training.weighted_bce", None, None),
    (training, "evaluate", "training.evaluate", None, None),
    (optim, "clip_global_norm", "optim.clip", None, None),
    (training, "clip_global_norm", "optim.clip", None, None),
    (optim.Adam, "step", "optim.adam_step", None, None),
    (rng.SeededRng, "uniform", "rng.uniform", None, None),
    (data, "make_batch", "data.make_batch", None, _batch_counts),
    (training, "make_batch", "data.make_batch", None, _batch_counts),
    (models, "temporal_average", "data.temporal_average", None,
     _counter("data.temporal_average.calls", lambda out: 1)),
    (data, "load_manifest", "data.load_manifest", None, None),
    (data, "read_mmf", "mmf.read_mmf", None, _file_bytes("mmf.read_mmf", "")),
    (training, "compute_report", "metrics.compute_report", None, None),
    (checkpoint, "save_checkpoint", "checkpoint.save", None, _file_bytes("checkpoint", ".json", ".bin")),
    (training, "save_checkpoint", "checkpoint.save", None, _file_bytes("checkpoint", ".json", ".bin")),
    (training.Trainer, "save_state", "checkpoint.save", None, None),
    (checkpoint, "load_checkpoint", "checkpoint.load", None, _file_bytes("checkpoint", ".json", ".bin")),
]

# Per-layer metrics that are charged to set-up rather than to the timed phase.
SETUP_SPANS = {"data.load_manifest_s": "data.load_manifest", "checkpoint.load_s": "checkpoint.load"}

# Per-layer metric name -> span whose self time, per record processed in the
# timed phase, it reports.
TIMED_SPANS = {
    "autograd.matmul.fwd_s": "autograd.matmul",
    "autograd.softmax_rows.fwd_s": "autograd.softmax_rows",
    "autograd.layer_norm.fwd_s": "autograd.layer_norm",
    "autograd.backward_s": "autograd.backward",
    "nn.attention.fwd_s": "nn.attention",
    "nn.encoder_layer.fwd_s": "nn.encoder_layer",
    "nn.linear.fwd_s": "nn.linear",
    "models.forward_s": "models.forward",
    "models.predict_scores_s": "models.predict_scores",
    "training.weighted_bce_s": "training.weighted_bce",
    "training.evaluate_s": "training.evaluate",
    "optim.clip_s": "optim.clip",
    "optim.adam_step_s": "optim.adam_step",
    "rng.uniform_s": "rng.uniform",
    "data.make_batch_s": "data.make_batch",
    "data.temporal_average_s": "data.temporal_average",
    "mmf.read_mmf_s": "mmf.read_mmf",
    "metrics.compute_report_s": "metrics.compute_report",
    "checkpoint.save_s": "checkpoint.save",
}

# Per-layer metric name -> timed-phase count it reports per record processed.
TIMED_COUNTS = {
    "autograd.matmul.calls": "autograd.matmul.calls",
    "autograd.matmul.f64_calls": "autograd.matmul.f64_calls",
    "autograd.softmax_rows.out_bytes": "autograd.softmax_rows.out_bytes",
    "models.logits_f64": "models.logits_f64",
    "data.make_batch.out_bytes": "data.make_batch.out_bytes",
    "data.temporal_average.calls": "data.temporal_average.calls",
    "mmf.read_mmf.calls": "mmf.read_mmf.calls",
    "mmf.read_mmf.bytes": "mmf.read_mmf.bytes",
}


def layer_metrics(tracer, timed_records, setups):
    """Per-layer metrics of a traced run: self seconds and counts per record
    processed in the timed phase, set-up spans per set-up, and a few ratios."""
    selfs = tracer.self_times()
    counts = tracer.counts

    def timed_count(key):
        return counts.get(("timed", key), 0.0)

    def total_count(key):
        return sum(v for (phase, k), v in counts.items() if k == key)

    out = {}
    for metric, span in TIMED_SPANS.items():
        out[metric] = selfs.get(("timed", span), (0.0, 0))[0] / timed_records
    for metric, key in TIMED_COUNTS.items():
        out[metric] = timed_count(key) / timed_records
    for metric, span in SETUP_SPANS.items():
        out[metric] = selfs.get(("setup", span), (0.0, 0))[0] / setups
    backwards = timed_count("autograd.backward.calls")
    out["autograd.tape_nodes"] = timed_count("autograd.tape_nodes") / backwards if backwards else 0.0
    elements = timed_count("data.elements")
    out["data.padding_share"] = 1.0 - timed_count("data.valid_elements") / elements if elements else 0.0
    saves_loads = total_count("checkpoint.calls")
    out["checkpoint.bytes"] = total_count("checkpoint.bytes") / saves_loads if saves_loads else 0.0
    return out


def top_spans(tracer, phase="timed", n=12):
    """The ``n`` span names with the most self time in ``phase``, as
    (name, self seconds, count), for the human-readable report."""
    rows = [(name, s, c) for (p, name), (s, c) in tracer.self_times().items() if p == phase]
    return sorted(rows, key=lambda r: -r[1])[:n]
