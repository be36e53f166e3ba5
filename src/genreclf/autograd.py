"""Reverse-mode automatic differentiation over dense numpy arrays.

Recording rule: every op computes its output, defines its backward closure
and returns ``_record(out, backward_fn, *inputs)``, the one place that
decides. When the tape is recording and an input requires gradients, it
appends one node and marks the output as requiring gradients; otherwise the
closure is dropped and the output is a constant. Only two ops ask
``_wants_grad`` themselves, because their forward pass would otherwise build
an array that backward alone reads: ``relu``'s positive mask and
``attention``'s per-sequence probabilities. ``backward(loss)`` walks the tape
in exact reverse recording order, accumulating gradients additively into each
input's ``.grad`` array, then clears the tape. One backward pass per recorded
graph; run forward again to differentiate again. Wrap pure inference in
``no_grad()`` so nothing is recorded. ``attention`` is one node over packed
sequences.

Dtype contract: float32 is the training dtype and matrix products go
through BLAS; a constant given to ``add`` or ``mul`` (scalar or array)
adopts the tensor's dtype, so no constant can promote a float32 graph.
float64 is the verification dtype: a matrix product with a float64 operand
uses an ordered inner-dimension accumulation (one multiply and one add per
term, no FMA, fixed order), bit-identical to a naive triple loop and
independent of the BLAS kernel in use. A product whose right operand has
rank 2 (every ``Linear``) is one GEMM over all leading rows of the left
operand, in the forward and in both gradients, so its float64 weight
gradient accumulates over those rows one after another in C order. A
gradient takes its tensor's dtype in one place, ``Tensor._accumulate``: the
first contribution is stored as a C-order copy in that dtype, and each later
one is rounded to it before it is added, so backward closures pass their
results on uncast.
"""

import itertools
import math

import numpy as np

from .rng import SeededRng

_FLOAT_DTYPES = (np.float32, np.float64)


class Tensor:
    """Dense float tensor participating in the autodiff graph."""

    __slots__ = ("data", "requires_grad", "grad")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        arr = np.asarray(data, dtype=dtype)
        if arr.dtype not in _FLOAT_DTYPES:
            arr = arr.astype(np.float32)
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        return float(self.data)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}, requires_grad={self.requires_grad})"

    def _accumulate(self, g: np.ndarray):
        # The first contribution is copied, in C order: inputs of one node
        # may receive views of one upstream gradient, and a fixed layout keeps
        # the summation order of later reductions and matrix products
        # independent of which view arrived first.
        if self.grad is None:
            self.grad = np.array(g, dtype=self.data.dtype, order="C")
        else:
            self.grad += g.astype(self.data.dtype, copy=False)


class _Tape:
    def __init__(self):
        self.nodes = []          # (out_tensor, backward_fn) in recording order
        self.recording = True


_TAPE = _Tape()


class no_grad:
    """Context manager: suspend tape recording for pure inference."""

    def __enter__(self):
        self._prev = _TAPE.recording
        _TAPE.recording = False
        return self

    def __exit__(self, *exc):
        _TAPE.recording = self._prev
        return False


def tape_size() -> int:
    return len(_TAPE.nodes)


def clear_tape():
    _TAPE.nodes.clear()


def _record(out: Tensor, backward_fn, *inputs) -> Tensor:
    """``out``, with its node appended when an input wants a gradient."""
    if _wants_grad(*inputs):
        out.requires_grad = True
        _TAPE.nodes.append((out, backward_fn))
    return out


def _wants_grad(*tensors) -> bool:
    return _TAPE.recording and any(isinstance(t, Tensor) and t.requires_grad for t in tensors)


def backward(loss: Tensor):
    """Backpropagate from a scalar loss through the recorded tape.

    Visits nodes in exact reverse recording order and accumulates gradients
    additively, so a tensor feeding several consumers receives the sum of
    their contributions in a fixed, reproducible order. Each node and its
    output gradient are dropped once it has run: the tape ends empty, and
    only leaves (parameters, inputs) keep a gradient.
    """
    if loss.size != 1:
        raise ValueError(f"backward requires a scalar loss, got shape {loss.shape}")
    if not loss.requires_grad:
        raise ValueError("loss does not require grad; nothing was recorded for it")
    loss.grad = np.ones_like(loss.data)
    nodes = _TAPE.nodes
    try:
        while nodes:
            out, fn = nodes.pop()
            if out.grad is not None:
                fn(out.grad)
                out.grad = None
    finally:
        nodes.clear()


def _unbroadcast(g: np.ndarray, shape) -> np.ndarray:
    """Reduce a gradient back to the shape of a broadcast operand."""
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


# -- elementwise --------------------------------------------------------


def _operand(b, dtype) -> Tensor:
    """A tensor as is; any other operand as a constant tensor of ``dtype``."""
    return b if isinstance(b, Tensor) else Tensor(b, dtype=dtype)


def add(a: Tensor, b) -> Tensor:
    b = _operand(b, a.dtype)
    def bwd(g, a=a, b=b):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g, a.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(g, b.shape))
    return _record(Tensor(a.data + b.data), bwd, a, b)


def mul(a: Tensor, b) -> Tensor:
    b = _operand(b, a.dtype)
    def bwd(g, a=a, b=b):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g * b.data, a.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(g * a.data, b.shape))
    return _record(Tensor(a.data * b.data), bwd, a, b)


def relu(x: Tensor) -> Tensor:
    out = Tensor(np.maximum(x.data, 0))
    pos = x.data > 0 if _wants_grad(x) else None
    def bwd(g, x=x, pos=pos):
        x._accumulate(g * pos)
    return _record(out, bwd, x)


def sigmoid_array(z: np.ndarray) -> np.ndarray:
    """Logistic function of an array in its own dtype, without overflow."""
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def softplus(x: Tensor) -> Tensor:
    """log(1 + exp(x)) computed without overflow for large |x|."""
    d = x.data
    def bwd(g, x=x, d=d):
        x._accumulate(g * sigmoid_array(d))
    return _record(Tensor(np.log1p(np.exp(-np.abs(d))) + np.maximum(d, 0)), bwd, x)


# -- matmul --------------------------------------------------------------


def _matmul_ordered(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Sequential accumulation over the inner dimension (float64 path).

    c[..., i, j] = (((a[i,0]*b[0,j]) + a[i,1]*b[1,j]) + ...) with separate
    multiply and add roundings per term, matching a naive triple loop bit
    for bit regardless of BLAS.
    """
    batch = np.broadcast_shapes(a.shape[:-2], b.shape[:-2])
    out = np.zeros(batch + (a.shape[-2], b.shape[-1]), dtype=np.float64)
    for k in range(a.shape[-1]):
        out += a[..., :, k:k + 1] * b[..., k:k + 1, :]
    return out


def _mm(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    if np.result_type(a, b) == np.float64:
        return _matmul_ordered(a.astype(np.float64), b.astype(np.float64))
    return np.matmul(a, b)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.ndim < 2 or b.ndim < 2:
        raise ValueError(f"matmul expects rank >= 2 operands, got {a.shape} @ {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ValueError(f"matmul inner dimensions differ: {a.shape} @ {b.shape}")
    if b.ndim == 2:
        # one matrix for every leading row of ``a``: each product is one GEMM
        a2 = a.data.reshape(math.prod(a.shape[:-1]), a.shape[-1])
        def bwd(g, a=a, b=b, a2=a2):
            g2 = g.reshape(a2.shape[0], b.shape[1])
            if a.requires_grad:
                a._accumulate(_mm(g2, b.data.T).reshape(a.shape))
            if b.requires_grad:
                b._accumulate(_mm(a2.T, g2))
        return _record(Tensor(_mm(a2, b.data).reshape(a.shape[:-1] + b.shape[1:])), bwd, a, b)

    def bwd(g, a=a, b=b):
        if a.requires_grad:
            a._accumulate(_unbroadcast(_mm(g, np.swapaxes(b.data, -1, -2)), a.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(_mm(np.swapaxes(a.data, -1, -2), g), b.shape))
    return _record(Tensor(_mm(a.data, b.data)), bwd, a, b)


# -- reductions / shape --------------------------------------------------


def tsum(x: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    def bwd(g, x=x, axis=axis, keepdims=keepdims):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        x._accumulate(np.broadcast_to(g, x.shape))
    return _record(Tensor(x.data.sum(axis=axis, keepdims=keepdims)), bwd, x)


def tmean(x: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    count = x.size if axis is None else x.shape[axis]
    def bwd(g, x=x, axis=axis, keepdims=keepdims, count=count):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        x._accumulate(np.broadcast_to(g, x.shape) / count)
    return _record(Tensor(x.data.mean(axis=axis, keepdims=keepdims)), bwd, x)


def reshape(x: Tensor, shape) -> Tensor:
    def bwd(g, x=x):
        x._accumulate(g.reshape(x.shape))
    return _record(Tensor(x.data.reshape(shape)), bwd, x)


def transpose(x: Tensor, axes) -> Tensor:
    def bwd(g, x=x, axes=axes):   # by the inverse permutation of ``axes``
        x._accumulate(g.transpose(sorted(range(len(axes)), key=lambda i: axes[i])))
    return _record(Tensor(x.data.transpose(axes)), bwd, x)


def _runs(a: np.ndarray) -> np.ndarray:
    """Bounds of the runs of equal consecutive entries of ``a``: the start of
    each run, then len(a)."""
    if len(a) == 0:
        return np.zeros(1, dtype=np.intp)
    return np.flatnonzero(np.concatenate(([True], a[1:] != a[:-1], [True])))


def take(x: Tensor, idx: np.ndarray) -> Tensor:
    """Rows ``idx`` (an integer array that may repeat a row) of ``x``; backward
    adds each row's gradients into it in index order."""
    def bwd(g, x=x, idx=idx):
        full = np.zeros_like(x.data)
        cuts = _runs(idx - np.arange(len(idx)))   # runs of consecutive rows
        for a, b in zip(cuts[:-1], cuts[1:]):
            full[idx[a]:idx[a] + b - a] += g[a:b]
        x._accumulate(full)
    return _record(Tensor(x.data[idx]), bwd, x)


def concat(tensors, axis: int) -> Tensor:
    tensors = tuple(tensors)
    def bwd(g, tensors=tensors, axis=axis):
        cuts = list(itertools.accumulate(t.shape[axis] for t in tensors[:-1]))
        for t, gt in zip(tensors, np.split(g, cuts, axis=axis)):
            if t.requires_grad:
                t._accumulate(gt)
    return _record(Tensor(np.concatenate([t.data for t in tensors], axis=axis)), bwd, *tensors)


# -- normalization / attention pieces -------------------------------------


def _softmax_(p: np.ndarray) -> np.ndarray:
    """``softmax_rows`` of the array ``p``, computed in place in ``p``."""
    p -= p.max(axis=-1, keepdims=True)
    np.exp(p, out=p)
    p /= p.sum(axis=-1, keepdims=True)
    return p


def softmax_rows(x: Tensor) -> Tensor:
    """Row-stable softmax over the last axis: the row max is subtracted
    before exponentiating, so each row of finite entries sums to 1. A -inf
    entry comes out as 0 (an additive mask); a row needs one finite entry."""
    y = _softmax_(x.data.copy())
    def bwd(g, x=x, y=y):
        dot = (g * y).sum(axis=-1, keepdims=True)
        x._accumulate(y * (g - dot))
    return _record(Tensor(y), bwd, x)


def attention(q: Tensor, k: Tensor, v: Tensor, heads: int, offsets: np.ndarray,
              one_query: bool = False) -> Tensor:
    """Multi-head softmax_rows(q k^T / sqrt(dh)) v over packed sequences, one
    tape node. Sequence i is rows offsets[i]:offsets[i+1] of the (N, D) ``q``,
    ``k`` and ``v``, or with ``one_query`` its one query is row i of ``q``
    (class attention); head h is columns h*dh:(h+1)*dh. Each sequence attends
    over its own keys alone (no key: zeros). Each run of equal-length
    sequences is one stack of slice views, with nothing to pad or mask, so per
    sequence both passes do the matmul -> mul -> softmax_rows -> matmul
    chain's arithmetic in its order."""
    lengths = np.diff(offsets)
    cuts = _runs(lengths)
    dh = q.shape[1] // heads
    scale = np.asarray(1.0 / np.sqrt(dh), dtype=np.result_type(q.data, k.data))
    stacks = []   # (query rows, key rows, n, query rows per sequence, t)
    for a, b in zip(cuts[:-1], cuts[1:]):
        if lengths[a] > 0:
            keys = slice(offsets[a], offsets[b])
            stacks.append((slice(a, b) if one_query else keys, keys, b - a, 1 if one_query else lengths[a], lengths[a]))

    def split(a, rows, n, t):  # rows of (rows, D) as (H, n, t, dh)
        return a[rows].reshape(n, t, heads, dh).transpose(2, 0, 1, 3)

    def merge(a):  # (H, n, t, dh) -> (n * t, D)
        return a.transpose(1, 2, 0, 3).reshape(a.shape[1] * a.shape[2], -1)

    keep, probs = _wants_grad(q, k, v), []
    out = np.zeros((q.shape[0], v.shape[1]), dtype=np.result_type(q.data, k.data, v.data))
    for qi, ki, n, tq, t in stacks:
        p = _mm(split(q.data, qi, n, tq), split(k.data, ki, n, t).swapaxes(-1, -2))
        p *= scale
        out[qi] = merge(_mm(_softmax_(p), split(v.data, ki, n, t)))
        if keep:
            probs.append(p)

    def bwd(g, q=q, k=k, v=v):
        gq, gk, gv = (np.zeros_like(t.data) for t in (q, k, v))
        for (qi, ki, n, tq, t), p in zip(stacks, probs):
            gi = split(g, qi, n, tq)
            gv[ki] = merge(_mm(p.swapaxes(-1, -2), gi))
            dp = _mm(gi, split(v.data, ki, n, t).swapaxes(-1, -2))
            ds = p * (dp - (dp * p).sum(axis=-1, keepdims=True))
            ds *= scale
            gq[qi] = merge(_mm(ds, split(k.data, ki, n, t)))
            gk[ki] = merge(_mm(split(q.data, qi, n, tq).swapaxes(-1, -2), ds).swapaxes(-1, -2))
        for t, gt in zip((q, k, v), (gq, gk, gv)):
            if t.requires_grad:
                t._accumulate(gt)
    return _record(Tensor(out), bwd, q, k, v)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """Normalize each trailing-axis vector to zero mean / unit variance
    (eps 1e-5, a Python float so float32 stays float32), then apply the
    learned affine."""
    d = x.data
    mu = d.mean(axis=-1, keepdims=True)
    var = ((d - mu) ** 2).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + 1e-5)
    xhat = (d - mu) * inv
    def bwd(g, x=x, gain=gain, bias=bias, xhat=xhat, inv=inv):
        if gain.requires_grad:
            gain._accumulate((g * xhat).reshape(-1, xhat.shape[-1]).sum(axis=0))
        if bias.requires_grad:
            bias._accumulate(g.reshape(-1, g.shape[-1]).sum(axis=0))
        if x.requires_grad:
            gg = g * gain.data
            term = gg - gg.mean(axis=-1, keepdims=True) - xhat * (gg * xhat).mean(axis=-1, keepdims=True)
            x._accumulate(term * inv)
    return _record(Tensor((xhat * gain.data + bias.data).astype(d.dtype, copy=False)), bwd, x, gain, bias)


def dropout(x: Tensor, rate: float, train: bool, rng: SeededRng = None, rows: np.ndarray = None,
            total_rows: int = None) -> Tensor:
    """Inverted dropout: zero with probability ``rate`` in train mode and
    scale survivors by 1/(1-rate); identity in eval mode.

    ``rows`` marks ``x`` as those rows (axis 0) of a tensor ``total_rows``
    long: ``x`` gets their mask rows, and the stream advances as for it all."""
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    if not train or rate == 0.0:
        return x
    if rng is None:
        raise ValueError("train-mode dropout needs a SeededRng")
    if rows is None:
        keep = rng.uniform(x.shape) >= rate
    else:
        keep = rng.uniform_rows((total_rows,) + x.shape[1:], rows) >= rate
    scale = 1.0 / (1.0 - rate)
    mask = keep.astype(x.dtype) * np.asarray(scale, dtype=x.dtype)
    def bwd(g, x=x, mask=mask):
        x._accumulate(g * mask)
    return _record(Tensor(x.data * mask), bwd, x)
