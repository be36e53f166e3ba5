"""Trainable layers: linear, multi-head self-attention with key-padding
masks, transformer encoder layer, and the parameter registry they share.

Initialization (seed-reproducible): linear weights uniform in
+-1/sqrt(fan_in) with zero biases; positional/CLS/SEP embeddings from
N(0, 0.02); layer-norm gains 1 and biases 0.
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

    def __len__(self):
        return len(self._params)

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


def init_linear(rng: SeededRng, fan_in: int, fan_out: int):
    bound = 1.0 / np.sqrt(fan_in)
    w = rng.uniform((fan_in, fan_out), -bound, bound)
    b = np.zeros(fan_out)
    return w, b


def init_embedding(rng: SeededRng, shape, std: float = 0.02):
    return rng.normal(shape, 0.0, std)


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


class MultiHeadSelfAttention:
    """Scaled dot-product self-attention with a key-padding mask.

    Pad keys are excluded from the softmax, so their attention weight is
    exactly zero and pad content can never influence valid positions.

    With ``cls_only`` only row 0 queries, over the keys and values of every
    token (class attention, CaiT), and the output is (B, 1, D).
    """

    def __init__(self, store: ParameterStore, name: str, dim: int, heads: int, rng: SeededRng,
                 cls_only: bool = False):
        if dim % heads != 0:
            raise ValueError(f"model dim {dim} not divisible by {heads} heads")
        self.dim = dim
        self.heads = heads
        self.head_dim = dim // heads
        self.cls_only = cls_only
        self.q = Linear(store, f"{name}.q", dim, dim, rng)
        # no key bias: a shared key offset shifts every score in a row by the
        # same amount and cancels in the softmax, so it could never train
        self.k = Linear(store, f"{name}.k", dim, dim, rng, bias=False)
        self.v = Linear(store, f"{name}.v", dim, dim, rng)
        self.out = Linear(store, f"{name}.out", dim, dim, rng)

    def __call__(self, x: Tensor, mask: np.ndarray = None) -> Tensor:
        b, t, d = x.shape
        if d != self.dim:
            raise ValueError(f"attention input width {d} != model dim {self.dim}")
        if mask is not None and mask.shape != (b, t):
            raise ValueError(f"mask shape {mask.shape} != (batch, time) = {(b, t)}")

        def split(z):  # (B, n, D) -> (B, H, n, dh)
            return ag.transpose(ag.reshape(z, (b, z.shape[1], self.heads, self.head_dim)), (0, 2, 1, 3))

        q = split(self.q(x[:, :1] if self.cls_only else x))
        k = split(self.k(x))
        v = split(self.v(x))
        key_mask = None if mask is None else mask[:, None, None, :]   # broadcast over heads/queries
        ctx = ag.attention(q, k, v, key_mask)                         # (B, H, queries, dh)
        ctx = ag.reshape(ag.transpose(ctx, (0, 2, 1, 3)), (b, q.shape[2], d))
        return self.out(ctx)


class TransformerEncoderLayer:
    """Post-norm encoder layer: attention + residual + layer norm, then a
    D -> 4D -> D feed-forward with ReLU + residual + layer norm. Dropout is
    applied to each sublayer output in train mode.

    With ``cls_only`` the layer computes row 0 alone and returns (B, 1, D):
    the last layer of a model whose head reads only the CLS row. Its dropout
    masks are row 0 of the full layer's and consume the same stream."""

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

    def __call__(self, x: Tensor, mask: np.ndarray = None, train: bool = False,
                 rng: SeededRng = None) -> Tensor:
        t = x.shape[1]
        a = self.attn(x, mask)
        if self.cls_only:
            x = x[:, :1]
        a = ag.dropout(a, self.dropout_rate, train, rng, t)
        x = ag.layer_norm(ag.add(x, a), self.ln1_g, self.ln1_b)
        f = self.ff2(ag.relu(self.ff1(x)))
        f = ag.dropout(f, self.dropout_rate, train, rng, t)
        return ag.layer_norm(ag.add(x, f), self.ln2_g, self.ln2_b)
