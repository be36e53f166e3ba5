"""Deterministic random number generation.

Every random draw in this package (weight init, dropout masks, shuffling,
synthetic data, frame subsampling) goes through :class:`SeededRng`, a
counter-based generator built on the splitmix64 finalizer. The algorithm is
pinned here so that identical seeds give identical value streams on every
platform and in every run:

    output_k = mix64(seed + k * 0x9E3779B97F4A7C15)     for k = 1, 2, 3, ...

where ``mix64`` is the splitmix64 finalizer::

    z ^= z >> 30;  z *= 0xBF58476D1CE4E5B9
    z ^= z >> 27;  z *= 0x94D049BB133111EB
    z ^= z >> 31

All arithmetic is modulo 2**64. This is exactly the splitmix64 stream of
Steele/Vigna, expressed in counter form so that blocks of values can be
generated with vectorized uint64 arithmetic. Floats in [0, 1) take the top
53 bits of each output; normals use the Box-Muller transform on consecutive
pairs of uniforms; permutations are the stable argsort of fresh uint64 keys.
A dropout mask is one ``uniform`` draw over its tensor's padded shape; a
packed tensor takes the rows of that draw at its rows' padded positions.
"""

import numpy as np

GOLDEN = 0x9E3779B97F4A7C15
_MASK64 = (1 << 64) - 1
_INV_2_53 = 1.0 / (1 << 53)


def _mix64(z: np.ndarray) -> np.ndarray:
    """Splitmix64 finalizer on a uint64 array (wrapping arithmetic)."""
    z = z.astype(np.uint64, copy=True)
    with np.errstate(over="ignore"):
        z ^= z >> np.uint64(30)
        z *= np.uint64(0xBF58476D1CE4E5B9)
        z ^= z >> np.uint64(27)
        z *= np.uint64(0x94D049BB133111EB)
        z ^= z >> np.uint64(31)
    return z


def derive_seed(base: int, *parts) -> int:
    """Derive a child seed from a base seed and a list of ints/strings.

    Strings are folded with 64-bit FNV-1a first. The k-th part is mixed in as
    ``h = mix64(h ^ mix64(part + (k + 1) * GOLDEN))``. Used to give each
    consumer (init, dropout, per-epoch shuffle, per-row experiment seed) its
    own independent stream.
    """
    h = int(_mix64(np.array([base & _MASK64], dtype=np.uint64))[0])
    for k, part in enumerate(parts):
        if isinstance(part, str):
            x = 0xCBF29CE484222325
            for b in part.encode("utf-8"):
                x = ((x ^ b) * 0x100000001B3) & _MASK64
            part = x
        folded = int(_mix64(np.array([(part + (k + 1) * GOLDEN) & _MASK64], dtype=np.uint64))[0])
        h = int(_mix64(np.array([(h ^ folded) & _MASK64], dtype=np.uint64))[0])
    return h


class SeededRng:
    """Counter-based splitmix64 stream with serializable state.

    State is just ``(seed, counter)``; restoring both resumes the stream
    exactly, which is what makes checkpoint-resume bit-identical. Both are
    uint64: the counter wraps, as the stream's arithmetic does.
    """

    def __init__(self, seed: int, counter: int = 0):
        self.seed = seed & _MASK64
        self.counter = int(counter)

    def state(self) -> dict:
        return {"seed": self.seed, "counter": self.counter}

    @classmethod
    def from_state(cls, state: dict) -> "SeededRng":
        return cls(state["seed"], state["counter"])

    def _outputs(self, ks: np.ndarray) -> np.ndarray:
        """Raw outputs at uint64 counter offsets ``ks`` (1-based) past ``counter``."""
        with np.errstate(over="ignore"):
            z = np.uint64(self.seed) + (ks + np.uint64(self.counter)) * np.uint64(GOLDEN)
        return _mix64(z)

    def raw(self, n: int) -> np.ndarray:
        """Next ``n`` raw uint64 outputs."""
        out = self._outputs(np.arange(1, n + 1, dtype=np.uint64))
        self.counter = (self.counter + n) & _MASK64
        return out

    def uniform(self, shape=(), low: float = 0.0, high: float = 1.0, rows: np.ndarray = None) -> np.ndarray:
        """Uniform float64 draws in [low, high) from the top 53 bits.

        With an integer index array ``rows`` along axis 0 it returns
        ``uniform(shape)[rows]``, computing only those rows' values. The
        counter advances past the whole ``shape`` either way."""
        n = int(np.prod(shape)) if shape else 1
        if rows is None:
            ks, out_shape = np.arange(1, n + 1, dtype=np.uint64), shape
        else:
            rows = np.asarray(rows, dtype=np.int64)
            if len(rows) and not 0 <= rows.min() <= rows.max() < shape[0]:
                raise ValueError(f"rows must index axis 0 of shape {tuple(shape)}")
            inner = int(np.prod(shape[1:]))
            ks = (rows.astype(np.uint64)[:, None] * np.uint64(inner)
                  + np.arange(1, inner + 1, dtype=np.uint64)).ravel()
            out_shape = (len(rows),) + tuple(shape[1:])
        u = (self._outputs(ks) >> np.uint64(11)).astype(np.float64) * _INV_2_53
        self.counter = (self.counter + n) & _MASK64
        out = low + (high - low) * u
        return out.reshape(out_shape) if shape else out[0]

    def normal(self, shape=(), mean: float = 0.0, std: float = 1.0) -> np.ndarray:
        """Gaussian draws via Box-Muller on consecutive uniform pairs."""
        n = int(np.prod(shape)) if shape else 1
        raw = self.raw(2 * n)
        # u1 in (0, 1] so the log is finite; u2 in [0, 1)
        u1 = ((raw[:n] >> np.uint64(11)).astype(np.float64) + 1.0) * _INV_2_53
        u2 = (raw[n:] >> np.uint64(11)).astype(np.float64) * _INV_2_53
        z = np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * np.pi * u2)
        out = mean + std * z
        return out.reshape(shape) if shape else out[0]

    def randint(self, low: int, high: int, shape=()) -> np.ndarray:
        """Integers in [low, high). Tiny modulo bias is irrelevant for the
        range sizes used here (all far below 2**53)."""
        u = self.uniform(shape if shape else (1,))
        out = (low + np.floor(u * (high - low))).astype(np.int64)
        return out.reshape(shape) if shape else int(out[0])

    def permutation(self, n: int) -> np.ndarray:
        """Deterministic permutation of range(n): stable argsort of fresh keys."""
        return np.argsort(self.raw(n), kind="stable")

    def subsample_sorted(self, n: int, k: int) -> np.ndarray:
        """Choose k of n indices without replacement, returned ascending."""
        if k >= n:
            return np.arange(n)
        return np.sort(self.permutation(n)[:k])
