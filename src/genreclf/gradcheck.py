"""Finite-difference verification of analytic gradients."""

import numpy as np

from .autograd import backward, no_grad


def grad_check(f, params, eps: float = 1e-5) -> float:
    """Compare analytic gradients of a scalar function against central
    differences, element by element.

    ``f`` takes no arguments and returns a scalar Tensor computed from
    ``params`` (a list of float64 Tensors with requires_grad). It must be
    deterministic: any internal randomness has to be re-seeded identically
    on every call. Returns the worst relative error
    ``|analytic - numeric| / max(|analytic|, |numeric|, 1e-8)``.
    """
    for p in params:
        if p.dtype != np.float64:
            raise ValueError("grad_check requires float64 parameters")
        p.grad = None
    loss = f()
    backward(loss)
    analytic = [np.zeros_like(p.data) if p.grad is None else p.grad.copy() for p in params]

    worst = 0.0
    with no_grad():
        for p, a in zip(params, analytic):
            flat = p.data.reshape(-1)
            aflat = a.reshape(-1)
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + eps
                fp = f().item()
                flat[i] = orig - eps
                fm = f().item()
                flat[i] = orig
                num = (fp - fm) / (2.0 * eps)
                denom = max(abs(aflat[i]), abs(num), 1e-8)
                worst = max(worst, abs(aflat[i] - num) / denom)
    for p in params:
        p.grad = None
    return worst
