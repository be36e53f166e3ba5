"""Reverse-mode automatic differentiation over dense numpy arrays.

Every operation that touches a tensor requiring gradients appends a node to
a global tape. ``backward(loss)`` walks the tape in exact reverse recording
order, accumulating gradients additively into each input's ``.grad`` array,
then clears the tape. One backward pass per recorded graph; run forward
again to differentiate again. Wrap pure inference in ``no_grad()`` so
nothing is recorded.

Dtype contract: float32 is the training dtype and matrix products go
through BLAS; a constant given to ``add`` or ``mul`` (scalar or array)
adopts the tensor's dtype, so no constant can promote a float32 graph.
float64 is the verification dtype: a matrix product with a float64 operand
uses an ordered inner-dimension accumulation (one multiply and one add per
term, no FMA, fixed order), bit-identical to a naive triple loop and
independent of the BLAS kernel in use. A gradient takes its tensor's dtype
in one place, ``Tensor._accumulate``: the first contribution is stored as a
C-order copy in that dtype, and each later one is rounded to it before it is
added, so backward closures pass their results on uncast.
"""

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

    # -- sugar ------------------------------------------------------------
    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(self, other)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(self, other)

    def __matmul__(self, other):
        return matmul(self, other)

    def __getitem__(self, idx):
        return getitem(self, idx)

    def reshape(self, shape):
        return reshape(self, shape)

    def transpose(self, axes):
        return transpose(self, axes)


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


def _record(out: Tensor, backward_fn):
    if _TAPE.recording:
        out.requires_grad = True
        _TAPE.nodes.append((out, backward_fn))
    return out


def _wants_grad(*tensors) -> bool:
    return _TAPE.recording and any(isinstance(t, Tensor) and t.requires_grad for t in tensors)


def backward(loss: Tensor):
    """Backpropagate from a scalar loss through the recorded tape.

    Visits nodes in exact reverse recording order and accumulates gradients
    additively, so a tensor feeding several consumers receives the sum of
    their contributions in a fixed, reproducible order. The tape is cleared
    on return.
    """
    if loss.size != 1:
        raise ValueError(f"backward requires a scalar loss, got shape {loss.shape}")
    if not loss.requires_grad:
        raise ValueError("loss does not require grad; nothing was recorded for it")
    loss.grad = np.ones_like(loss.data)
    try:
        for out, fn in reversed(_TAPE.nodes):
            if out.grad is not None:
                fn(out.grad)
    finally:
        _TAPE.nodes.clear()


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
    out = Tensor(a.data + b.data)
    if _wants_grad(a, b):
        def bwd(g, a=a, b=b):
            if a.requires_grad:
                a._accumulate(_unbroadcast(g, a.shape))
            if b.requires_grad:
                b._accumulate(_unbroadcast(g, b.shape))
        _record(out, bwd)
    return out


def mul(a: Tensor, b) -> Tensor:
    b = _operand(b, a.dtype)
    out = Tensor(a.data * b.data)
    if _wants_grad(a, b):
        def bwd(g, a=a, b=b):
            if a.requires_grad:
                a._accumulate(_unbroadcast(g * b.data, a.shape))
            if b.requires_grad:
                b._accumulate(_unbroadcast(g * a.data, b.shape))
        _record(out, bwd)
    return out


def relu(x: Tensor) -> Tensor:
    out = Tensor(np.maximum(x.data, 0))
    if _wants_grad(x):
        pos = x.data > 0
        def bwd(g, x=x, pos=pos):
            x._accumulate(g * pos)
        _record(out, bwd)
    return out


def sigmoid_array(z: np.ndarray) -> np.ndarray:
    """Logistic function of an array in its own dtype, without overflow."""
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def sigmoid(x: Tensor) -> Tensor:
    out = Tensor(sigmoid_array(x.data))
    if _wants_grad(x):
        def bwd(g, x=x, y=out.data):
            x._accumulate(g * y * (1.0 - y))
        _record(out, bwd)
    return out


def softplus(x: Tensor) -> Tensor:
    """log(1 + exp(x)) computed without overflow for large |x|."""
    d = x.data
    out = Tensor(np.log1p(np.exp(-np.abs(d))) + np.maximum(d, 0))
    if _wants_grad(x):
        def bwd(g, x=x, d=d):
            x._accumulate(g * sigmoid_array(d))
        _record(out, bwd)
    return out


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
    out = Tensor(_mm(a.data, b.data))
    if _wants_grad(a, b):
        def bwd(g, a=a, b=b):
            if a.requires_grad:
                ga = _mm(g, np.swapaxes(b.data, -1, -2))
                a._accumulate(_unbroadcast(ga, a.shape))
            if b.requires_grad:
                gb = _mm(np.swapaxes(a.data, -1, -2), g)
                b._accumulate(_unbroadcast(gb, b.shape))
        _record(out, bwd)
    return out


# -- reductions / shape --------------------------------------------------


def tsum(x: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    out = Tensor(x.data.sum(axis=axis, keepdims=keepdims))
    if _wants_grad(x):
        def bwd(g, x=x, axis=axis, keepdims=keepdims):
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            x._accumulate(np.broadcast_to(g, x.shape))
        _record(out, bwd)
    return out


def tmean(x: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    count = x.size if axis is None else x.shape[axis]
    out = Tensor(x.data.mean(axis=axis, keepdims=keepdims))
    if _wants_grad(x):
        def bwd(g, x=x, axis=axis, keepdims=keepdims, count=count):
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            x._accumulate(np.broadcast_to(g, x.shape) / count)
        _record(out, bwd)
    return out


def reshape(x: Tensor, shape) -> Tensor:
    out = Tensor(x.data.reshape(shape))
    if _wants_grad(x):
        def bwd(g, x=x):
            x._accumulate(g.reshape(x.shape))
        _record(out, bwd)
    return out


def transpose(x: Tensor, axes) -> Tensor:
    out = Tensor(x.data.transpose(axes))
    if _wants_grad(x):
        inv = np.argsort(axes)
        def bwd(g, x=x, inv=inv):
            x._accumulate(g.transpose(inv))
        _record(out, bwd)
    return out


def getitem(x: Tensor, idx) -> Tensor:
    out = Tensor(x.data[idx])
    if _wants_grad(x):
        def bwd(g, x=x, idx=idx):
            full = np.zeros_like(x.data)
            np.add.at(full, idx, g)
            x._accumulate(full)
        _record(out, bwd)
    return out


def concat(tensors, axis: int) -> Tensor:
    out = Tensor(np.concatenate([t.data for t in tensors], axis=axis))
    if _wants_grad(*tensors):
        sizes = [t.shape[axis] for t in tensors]
        offsets = np.cumsum([0] + sizes)
        def bwd(g, tensors=tuple(tensors), offsets=offsets, axis=axis):
            for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
                if t.requires_grad:
                    sl = [slice(None)] * g.ndim
                    sl[axis] = slice(lo, hi)
                    t._accumulate(g[tuple(sl)])
        _record(out, bwd)
    return out


def broadcast_to(x: Tensor, shape) -> Tensor:
    out = Tensor(np.broadcast_to(x.data, shape).copy())
    if _wants_grad(x):
        def bwd(g, x=x):
            x._accumulate(_unbroadcast(g, x.shape))
        _record(out, bwd)
    return out


# -- normalization / attention pieces -------------------------------------


def softmax_rows(x: Tensor, mask: np.ndarray = None) -> Tensor:
    """Row-stable softmax over the last axis, with optional validity mask.

    ``mask`` is a bool array that broadcasts against ``x``. Masked (pad)
    entries are set to -inf before the row max is taken, so each comes out
    as exp(-inf) = 0 exactly; each row of valid entries sums to 1. A row with
    no valid entries comes out all zeros instead of producing NaNs, which
    keeps gradients clean for fully-padded queries.
    """
    d = x.data if mask is None else np.where(mask, x.data, -np.inf)
    m = d.max(axis=-1, keepdims=True)
    # a row with no valid entry has max -inf; 0 keeps d - m at -inf there
    m = np.where(np.isfinite(m), m, 0.0)
    e = np.exp(d - m)
    denom = e.sum(axis=-1, keepdims=True)
    out = Tensor(e / np.where(denom > 0, denom, 1.0))
    if _wants_grad(x):
        def bwd(g, x=x, y=out.data):
            dot = (g * y).sum(axis=-1, keepdims=True)
            x._accumulate(y * (g - dot))
        _record(out, bwd)
    return out


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize each trailing-axis vector to zero mean / unit variance,
    then apply the learned affine."""
    d = x.data
    mu = d.mean(axis=-1, keepdims=True)
    var = ((d - mu) ** 2).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (d - mu) * inv
    out = Tensor((xhat * gain.data + bias.data).astype(d.dtype, copy=False))
    if _wants_grad(x, gain, bias):
        def bwd(g, x=x, gain=gain, bias=bias, xhat=xhat, inv=inv):
            if gain.requires_grad:
                gain._accumulate((g * xhat).reshape(-1, xhat.shape[-1]).sum(axis=0))
            if bias.requires_grad:
                bias._accumulate(g.reshape(-1, g.shape[-1]).sum(axis=0))
            if x.requires_grad:
                gg = g * gain.data
                term = gg - gg.mean(axis=-1, keepdims=True) - xhat * (gg * xhat).mean(axis=-1, keepdims=True)
                x._accumulate(term * inv)
        _record(out, bwd)
    return out


def dropout(x: Tensor, rate: float, train: bool, rng: SeededRng = None) -> Tensor:
    """Inverted dropout: zero with probability ``rate`` in train mode and
    scale survivors by 1/(1-rate); identity in eval mode."""
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    if not train or rate == 0.0:
        return x
    if rng is None:
        raise ValueError("train-mode dropout needs a SeededRng")
    keep = rng.uniform(x.shape) >= rate
    scale = 1.0 / (1.0 - rate)
    mask = keep.astype(x.dtype) * np.asarray(scale, dtype=x.dtype)
    out = Tensor(x.data * mask)
    if _wants_grad(x):
        def bwd(g, x=x, mask=mask):
            x._accumulate(g * mask)
        _record(out, bwd)
    return out
