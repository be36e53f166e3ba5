"""Adam with bias correction, plus global-norm gradient clipping."""

import numpy as np

from .nn import ParameterStore, check_arrays


def clip_global_norm(grads: list[np.ndarray], max_norm: float) -> float:
    """Scale all gradients in place so their joint L2 norm is at most
    ``max_norm``; direction is preserved. Returns the pre-clip norm."""
    if max_norm <= 0:
        raise ValueError(f"max_norm must be positive, got {max_norm}")
    total = 0.0
    for g in grads:
        total += float(np.sum(np.square(g, dtype=np.float64)))
    norm = float(np.sqrt(total))
    if norm > max_norm:
        scale = max_norm / norm
        for g in grads:
            g *= scale
    return norm


_BLOCK = 1 << 16   # elements per in-place update block, so its operands stay in cache


def _flat(a: np.ndarray) -> np.ndarray:
    """``a`` as a 1-D view, so that updates of it land in ``a``."""
    if not a.flags.c_contiguous:
        raise ValueError(f"Adam updates C-contiguous arrays in place, got strides {a.strides}")
    return a.reshape(-1)


class Adam:
    """Standard bias-corrected Adam over a ParameterStore.

    Moments are kept in the store's dtype so checkpoint-resume reproduces an
    uninterrupted run bit for bit. ``step`` updates in place, block by
    block, through two scratch rows of this instance.
    """

    beta1, beta2, eps = 0.9, 0.999, 1e-8   # fixed: a resume does not record them

    def __init__(self, store: ParameterStore, lr: float):
        self.store = store
        self.lr = lr
        self.t = 0
        self.m = {name: np.zeros_like(p.data) for name, p in store.items()}
        self.v = {name: np.zeros_like(p.data) for name, p in store.items()}
        self._scratch = np.empty((2, min(_BLOCK, max((p.data.size for _, p in store.items()), default=0))),
                                 dtype=store.dtype)

    def step(self):
        for name, p in self.store.items():
            if p.grad is None:
                raise ValueError(f"parameter {name} has no gradient; did backward run?")
        self.t += 1
        bc1 = 1.0 - self.beta1 ** self.t
        bc2 = 1.0 - self.beta2 ** self.t
        for name, p in self.store.items():
            arrays = [_flat(a) for a in (p.data, p.grad, self.m[name], self.v[name])]
            for lo in range(0, p.data.size, _BLOCK):
                x, g, m, v = (a[lo:lo + _BLOCK] for a in arrays)
                s, u = self._scratch[:, :len(x)]
                # p -= lr * (m / bc1) / (sqrt(v / bc2) + eps), operation by operation
                m *= self.beta1
                m += np.multiply(1.0 - self.beta1, g, out=s)
                v *= self.beta2
                v += np.multiply(np.multiply(g, g, out=s), 1.0 - self.beta2, out=s)
                np.multiply(np.divide(m, bc1, out=s), self.lr, out=s)
                np.sqrt(np.divide(v, bc2, out=u), out=u)
                u += self.eps
                x -= np.divide(s, u, out=s)

    def state_arrays(self) -> dict[str, np.ndarray]:
        out = {}
        for name in self.store.names():
            out[f"m.{name}"] = self.m[name].copy()
            out[f"v.{name}"] = self.v[name].copy()
        return out

    def load_state_arrays(self, arrays: dict[str, np.ndarray], t: int):
        shapes = {name: p.shape for name, p in self.store.items()}
        check_arrays(arrays, {f"{k}.{name}": s for k in "mv" for name, s in shapes.items()}, "Adam moment")
        self.t = int(t)
        for name in self.store.names():
            self.m[name] = np.array(arrays[f"m.{name}"], dtype=self.store.dtype, order="C")
            self.v[name] = np.array(arrays[f"v.{name}"], dtype=self.store.dtype, order="C")
