"""Trainable layers: linear, multi-head self-attention and the transformer
encoder layer over packed sequences, and the parameter registry they share.

Initialization (seed-reproducible): linear weights uniform in
+-1/sqrt(fan_in) with zero biases; positional/CLS/SEP embeddings from
N(0, 0.02); layer-norm gains 1 and biases 0. Without a generator
(``rng`` None) the drawn weights are zero instead.
"""

import numpy as np

from . import autograd as ag
from .autograd import Tensor
from .errors import DataError
from .rng import SeededRng


class ParameterStore:
    """Named trainable tensors in deterministic (insertion) order."""

    def __init__(self, dtype=np.float32):
        self.dtype = np.dtype(dtype)
        self._params: dict[str, Tensor] = {}

    def add(self, name: str, array: np.ndarray) -> Tensor:
        if name in self._params:
            raise ValueError(f"duplicate parameter name: {name}")
        t = Tensor(np.asarray(array, dtype=self.dtype), requires_grad=True)
        self._params[name] = t
        return t

    def __getitem__(self, name: str) -> Tensor:
        return self._params[name]

    def __contains__(self, name: str) -> bool:
        return name in self._params

    def names(self) -> list[str]:
        return list(self._params)

    def items(self):
        return self._params.items()

    def tensors(self) -> list[Tensor]:
        return list(self._params.values())

    def total_parameter_count(self) -> int:
        return sum(t.size for t in self._params.values())

    def zero_grad(self):
        for t in self._params.values():
            t.grad = None

    def to_arrays(self) -> dict[str, np.ndarray]:
        return {name: t.data.copy() for name, t in self._params.items()}

    def load_arrays(self, arrays: dict[str, np.ndarray]):
        check_arrays(arrays, {name: t.shape for name, t in self._params.items()}, "parameter")
        for name, t in self._params.items():
            t.data = np.array(arrays[name], dtype=self.dtype, order="C")


def check_arrays(arrays: dict[str, np.ndarray], shapes: dict, what: str):
    """Raise DataError unless ``arrays`` holds exactly the names of
    ``shapes``, each with its shape."""
    missing = set(shapes) - set(arrays)
    extra = set(arrays) - set(shapes)
    if missing or extra:
        raise DataError(f"{what} set mismatch: missing={sorted(missing)} extra={sorted(extra)}")
    for name, shape in shapes.items():
        if np.shape(arrays[name]) != shape:
            raise DataError(f"shape mismatch for {name}: {np.shape(arrays[name])} vs {shape}")


def init_linear(rng: SeededRng | None, fan_in: int, fan_out: int):
    # float(): np.sqrt fails on an int past 2**64. A Python-float bound (math.sqrt) let numpy
    # elide a temporary in uniform, which moved later arrays and slowed mlp_disk steps 1.7x
    bound = 1.0 / np.sqrt(float(fan_in))
    w = np.zeros((fan_in, fan_out)) if rng is None else rng.uniform((fan_in, fan_out), -bound, bound)
    b = np.zeros(fan_out)
    return w, b


def init_embedding(rng: SeededRng | None, shape):
    return np.zeros(shape) if rng is None else rng.normal(shape, 0.0, 0.02)


class Linear:
    """y = x @ W + b, applied to the trailing axis; leading axes pass through."""

    def __init__(self, store: ParameterStore, name: str, fan_in: int, fan_out: int,
                 rng: SeededRng, bias: bool = True):
        w, b = init_linear(rng, fan_in, fan_out)
        self.w = store.add(f"{name}.w", w)
        self.b = store.add(f"{name}.b", b) if bias else None

    def __call__(self, x: Tensor) -> Tensor:
        if x.shape[-1] != self.w.shape[0]:
            raise ValueError(f"linear input width {x.shape[-1]} != fan_in {self.w.shape[0]}")
        out = ag.matmul(x, self.w)
        return ag.add(out, self.b) if self.b is not None else out


class Segments:
    """Sequences packed shortest first into the rows of one (N, D) matrix, from
    the (B, T) validity mask of their padded layout: ``rows`` holds each row's
    padded position b * T + t, packed sequence j is rows offsets[j]:offsets[j+1],
    and sample b is packed sequence ``rank[b]``."""

    def __init__(self, mask: np.ndarray):
        lengths = mask.sum(axis=1)
        order = np.argsort(lengths, kind="stable")
        self.padded_rows = mask.size
        self.offsets = np.concatenate(([0], np.cumsum(lengths[order])))
        self.rank = np.argsort(order)
        b, t = np.nonzero(mask[order])
        self.rows = order[b] * mask.shape[1] + t


class MultiHeadSelfAttention:
    """Scaled dot-product self-attention over packed sequences: each
    sequence's rows attend over its own rows alone, with nothing to mask.
    With ``cls_only`` only each sequence's first row queries (class attention,
    CaiT), and the output is (B, D) in packed order."""

    def __init__(self, store: ParameterStore, name: str, dim: int, heads: int, rng: SeededRng,
                 cls_only: bool = False):
        if dim % heads != 0:
            raise ValueError(f"model dim {dim} not divisible by {heads} heads")
        self.heads = heads
        self.head_dim = dim // heads
        self.cls_only = cls_only
        self.q = Linear(store, f"{name}.q", dim, dim, rng)
        # no key bias: a shared key offset shifts every score in a row by the
        # same amount and cancels in the softmax, so it could never train
        self.k = Linear(store, f"{name}.k", dim, dim, rng, bias=False)
        self.v = Linear(store, f"{name}.v", dim, dim, rng)
        self.out = Linear(store, f"{name}.out", dim, dim, rng)

    def __call__(self, x: Tensor, seg: Segments) -> Tensor:
        q = self.q(ag.take(x, seg.offsets[:-1]) if self.cls_only else x)
        return self.out(ag.attention(q, self.k(x), self.v(x), self.heads, seg.offsets, self.cls_only))


class TransformerEncoderLayer:
    """Post-norm encoder layer on packed rows: attention + residual + layer
    norm, then a D -> 4D -> D feed-forward with ReLU + residual + layer norm.
    In train mode each sublayer output gets dropout, each row's mask drawn at
    its padded position of a (B, T, D) draw. With ``cls_only`` the layer
    computes each sequence's first row alone, with those rows' masks, and
    returns (B, D) in packed order: the last layer under a CLS-reading head."""

    def __init__(self, store: ParameterStore, name: str, dim: int, heads: int,
                 dropout_rate: float, rng: SeededRng, cls_only: bool = False):
        self.dropout_rate = dropout_rate
        self.cls_only = cls_only
        self.attn = MultiHeadSelfAttention(store, f"{name}.attn", dim, heads, rng, cls_only)
        self.ff1 = Linear(store, f"{name}.ff1", dim, 4 * dim, rng)
        self.ff2 = Linear(store, f"{name}.ff2", 4 * dim, dim, rng)
        self.ln1_g = store.add(f"{name}.ln1.g", np.ones(dim))
        self.ln1_b = store.add(f"{name}.ln1.b", np.zeros(dim))
        self.ln2_g = store.add(f"{name}.ln2.g", np.ones(dim))
        self.ln2_b = store.add(f"{name}.ln2.b", np.zeros(dim))

    def __call__(self, x: Tensor, seg: Segments, train: bool = False, rng: SeededRng = None) -> Tensor:
        # the first rows are taken apart from the query rows, so the gradients
        # of x add up in the order of the full layer's
        a = self.attn(x, seg)
        rows = seg.rows
        if self.cls_only:
            x, rows = ag.take(x, seg.offsets[:-1]), rows[seg.offsets[:-1]]
        a = ag.dropout(a, self.dropout_rate, train, rng, rows, seg.padded_rows)
        x = ag.layer_norm(ag.add(x, a), self.ln1_g, self.ln1_b)
        f = self.ff2(ag.relu(self.ff1(x)))
        f = ag.dropout(f, self.dropout_rate, train, rng, rows, seg.padded_rows)
        return ag.layer_norm(ag.add(x, f), self.ln2_g, self.ln2_b)
