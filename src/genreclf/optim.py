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
        total += float(np.sum(g.astype(np.float64) ** 2))
    norm = float(np.sqrt(total))
    if norm > max_norm:
        scale = max_norm / norm
        for g in grads:
            g *= scale
    return norm


class Adam:
    """Standard bias-corrected Adam over a ParameterStore.

    Moments are kept in the store's dtype so checkpoint-resume reproduces an
    uninterrupted run bit for bit.
    """

    def __init__(self, store: ParameterStore, lr: float = 1e-5,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.store = store
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = {name: np.zeros_like(p.data) for name, p in store.items()}
        self.v = {name: np.zeros_like(p.data) for name, p in store.items()}

    def step(self):
        for name, p in self.store.items():
            if p.grad is None:
                raise ValueError(f"parameter {name} has no gradient; did backward run?")
        self.t += 1
        bc1 = 1.0 - self.beta1 ** self.t
        bc2 = 1.0 - self.beta2 ** self.t
        for name, p in self.store.items():
            g = p.grad
            m = self.m[name]
            v = self.v[name]
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * (g * g)
            mhat = m / bc1
            vhat = v / bc2
            p.data -= self.lr * mhat / (np.sqrt(vhat) + self.eps)

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
            self.m[name] = np.asarray(arrays[f"m.{name}"], dtype=self.store.dtype).copy()
            self.v[name] = np.asarray(arrays[f"v.{name}"], dtype=self.store.dtype).copy()
