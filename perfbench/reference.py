"""Independent float64 forward pass of the three fusion models, written in
plain numpy without the package's autodiff, layers or models.

The benchmark checks the program's final training step and its scores
against it. Parameters are looked up by their checkpoint names, and dropout
masks are drawn from a copy of the program's dropout stream in the order the
models draw them (per encoder layer: attention output, then feed-forward
output), so a reference train-mode loss sees the same masks as the program.
"""

from types import SimpleNamespace

import numpy as np

from genreclf.vocab import GENRES


def batch(records, specs, lengths="train"):
    """Padded features, masks and one-hot labels built from the records'
    own arrays, as the reference's input. ``lengths`` is "train" (each
    stream padded or cut to its train_max_len) or "full" (padded to the
    longest record)."""
    feats, masks = {}, {}
    for spec in specs:
        seqs = [np.asarray(r.get_features()[spec.name], dtype=np.float64) for r in records]
        limit = spec.train_max_len if lengths == "train" else max(len(s) for s in seqs)
        x = np.zeros((len(records), limit, spec.input_dim))
        m = np.zeros((len(records), limit), dtype=bool)
        for i, s in enumerate(seqs):
            t = min(len(s), limit)
            x[i, :t], m[i, :t] = s[:t], True
        feats[spec.name], masks[spec.name] = x, m
    labels = np.array([[g in r.genres for g in GENRES] for r in records], dtype=np.float64)
    return SimpleNamespace(features=feats, masks=masks, labels=labels, size=len(records))


def _softplus(z):
    return np.log1p(np.exp(-np.abs(z))) + np.maximum(z, 0.0)


def _masked_mean(x, m):
    counts = m.sum(axis=1, keepdims=True)
    sums = (x * m[:, :, None]).sum(axis=1)
    return np.where(counts > 0, sums / np.maximum(counts, 1), 0.0)


def _layer_norm(x, g, b):
    mu = x.mean(axis=-1, keepdims=True)
    var = ((x - mu) ** 2).mean(axis=-1, keepdims=True)
    return (x - mu) / np.sqrt(var + 1e-5) * g + b


class _Forward:
    def __init__(self, config, params, rng):
        self.cfg = config
        self.p = params
        self.rng = rng            # None in eval mode

    def linear(self, name, x):
        y = x @ self.p[f"{name}.w"]
        return y + self.p[f"{name}.b"] if f"{name}.b" in self.p else y

    def dropout(self, x):
        rate = self.cfg.dropout_rate
        if self.rng is None or rate == 0.0:
            return x
        keep = self.rng.uniform(x.shape) >= rate
        return x * keep * (1.0 / (1.0 - rate))

    def attention(self, name, x, mask):
        b, t, d = x.shape
        h = self.cfg.num_heads
        dh = d // h

        def split(z):
            return z.reshape(b, t, h, dh).transpose(0, 2, 1, 3)

        q = split(self.linear(f"{name}.q", x))
        k = split(self.linear(f"{name}.k", x))
        v = split(self.linear(f"{name}.v", x))
        scores = q @ k.transpose(0, 1, 3, 2) / np.sqrt(dh)
        valid = np.broadcast_to(mask[:, None, None, :], scores.shape)
        scores = np.where(valid, scores, -np.inf)
        e = np.exp(scores - scores.max(axis=-1, keepdims=True)) * valid
        ctx = (e / e.sum(axis=-1, keepdims=True)) @ v
        return self.linear(f"{name}.out", ctx.transpose(0, 2, 1, 3).reshape(b, t, d))

    def encoder(self, name, x, mask):
        x = _layer_norm(x + self.dropout(self.attention(f"{name}.attn", x, mask)),
                        self.p[f"{name}.ln1.g"], self.p[f"{name}.ln1.b"])
        f = self.linear(f"{name}.ff2", np.maximum(self.linear(f"{name}.ff1", x), 0.0))
        return _layer_norm(x + self.dropout(f), self.p[f"{name}.ln2.g"], self.p[f"{name}.ln2.b"])

    def stream(self, batch, spec, truncate=True):
        x = batch.features[spec.name].astype(np.float64)
        m = batch.masks[spec.name]
        if truncate:
            x, m = x[:, :spec.train_max_len], m[:, :spec.train_max_len]
        return x, m

    def positioned(self, spec, x):
        return self.linear(f"proj.{spec.name}", x) + self.p[f"pos.{spec.name}"][:x.shape[1]]

    def mlp(self, batch):
        means = [_masked_mean(batch.features[s.name].astype(np.float64), batch.masks[s.name])
                 for s in self.cfg.modalities]
        h = self.dropout(np.maximum(self.linear("hidden", np.concatenate(means, axis=1)), 0.0))
        return self.linear("head", h)

    def single_transformer(self, batch):
        b, d = batch.size, self.cfg.model_dim
        segs = [np.broadcast_to(self.p["cls"], (b, 1, d))]
        masks = [np.ones((b, 1), dtype=bool)]
        for spec in self.cfg.modalities:
            x, m = self.stream(batch, spec)
            if spec.temporal_average:
                x, m = _masked_mean(x, m)[:, None, :], m.any(axis=1, keepdims=True)
            segs += [np.broadcast_to(self.p[f"sep.{spec.name}"], (b, 1, d)), self.positioned(spec, x)]
            masks += [np.ones((b, 1), dtype=bool), m]
        x, mask = np.concatenate(segs, axis=1), np.concatenate(masks, axis=1)
        for i in range(self.cfg.num_layers):
            x = self.encoder(f"enc.{i}", x, mask)
        return self.linear("head", x[:, 0])

    def multi_transformer(self, batch):
        b, d = batch.size, self.cfg.model_dim
        cols = []
        for spec in self.cfg.modalities:
            x, m = self.stream(batch, spec, truncate=not spec.temporal_average)
            if spec.temporal_average:
                cols.append(self.linear(f"proj.{spec.name}", _masked_mean(x, m)))
                continue
            seq = np.concatenate([np.broadcast_to(self.p[f"cls.{spec.name}"], (b, 1, d)),
                                  self.positioned(spec, x)], axis=1)
            mask = np.concatenate([np.ones((b, 1), dtype=bool), m], axis=1)
            for i in range(self.cfg.num_layers):
                seq = self.encoder(f"enc.{spec.name}.{i}", seq, mask)
            cols.append(seq[:, 0])
        return self.linear("head", np.concatenate(cols, axis=1))


def logits(config, params, batch, rng=None):
    """Float64 genre logits (B, 21). ``params`` maps checkpoint names to
    arrays; pass a copy of the dropout stream as ``rng`` for train mode."""
    params = {name: np.asarray(a, dtype=np.float64) for name, a in params.items()}
    return getattr(_Forward(config, params, rng), config.architecture)(batch)


def weighted_bce(z, targets, positive_weight):
    """Mean of w * y * softplus(-z) + (1 - y) * softplus(z) in float64."""
    y = np.asarray(targets, dtype=np.float64)
    return float(np.mean(positive_weight * y * _softplus(-z) + (1.0 - y) * _softplus(z)))


def scores(config, params, batch):
    """Eval-mode genre probabilities (B, 21) in float64."""
    return 1.0 / (1.0 + np.exp(-logits(config, params, batch)))
