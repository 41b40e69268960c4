"""Dense float32 tensors and the ordered-fold kernels.

Every contraction in the package goes through ``_scan``: a float32 sum
in a fixed index order, seeded with +0.0, in one numpy call (see its
docstring for the fold contract). Determinism rests on that order, not
on precision. The head (``model._head_forward``), the objective
(``losses.total_loss``) and the backbone's pooling (``quant``) call
these kernels directly, on one head or on a stack of lockstep heads.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DimensionError

__all__ = ["Tensor"]


class Tensor:
    """Immutable dense float32 value: a shape plus row-major flat data."""

    __slots__ = ("shape", "data")

    def __init__(self, data, shape=None):
        if shape is None:
            arr = np.asarray(data, dtype=np.float32)
            shape = tuple(int(s) for s in arr.shape)
            flat = arr.reshape(-1)
        else:
            shape = tuple(int(s) for s in shape)
            flat = np.asarray(data, dtype=np.float32).reshape(-1)
        if any(s <= 0 for s in shape):
            raise DimensionError(f"shape entries must be positive, got {shape}")
        expected = 1
        for s in shape:
            expected *= s
        if flat.size != expected:
            raise DimensionError(
                f"shape {shape} expects {expected} elements, got {flat.size}"
            )
        flat = np.array(flat, dtype=np.float32, copy=True)
        flat.flags.writeable = False
        self.shape = shape
        self.data = flat

    @classmethod
    def _wrap(cls, flat: np.ndarray) -> "Tensor":
        """A 1-D Tensor over a read-only float32 vector that nothing else
        writes (a head's parameters), without the copy."""
        t = cls.__new__(cls)
        t.shape = (flat.size,)
        t.data = flat
        return t

    @classmethod
    def zeros(cls, shape):
        shape = tuple(int(s) for s in shape)
        n = 1
        for s in shape:
            n *= s
        return cls(np.zeros(n, dtype=np.float32), shape)

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def array(self) -> np.ndarray:
        """Read-only view of the data in its natural shape."""
        return self.data.reshape(self.shape)

    def tobytes(self) -> bytes:
        return self.data.astype("<f4").tobytes()

    def __eq__(self, other):
        if not isinstance(other, Tensor):
            return NotImplemented
        return self.shape == other.shape and bool(
            np.array_equal(self.data, other.data)
        )

    def __hash__(self):
        return hash((self.shape, self.data.tobytes()))

    def __repr__(self):
        return f"Tensor(shape={self.shape})"


# elements per ``mm_f32`` product or ``losses`` gradient-buffer block: bounds temporaries
_SCAN_BLOCK = 1 << 16


def _scan(x: np.ndarray) -> np.ndarray:
    """Float32 sum of ``x`` over its leading axis, in index order from +0.0.

    Equals the loop ``acc = 0.0; for v in x: acc += v`` at every trailing
    index; the seed turns a lone -0.0 into +0.0. The fold contract:
    ``np.add.reduce`` over axis 0 of a C-contiguous (k, W >= 2) block
    adds its W-wide rows in index order, so other layouts are copied to
    C order first; a W == 1 block would be a 1-D reduce, which numpy
    sums pairwise, so it runs ``np.add.accumulate`` instead.
    """
    x = np.asarray(x, dtype=np.float32)
    trail = x.shape[1:]
    width = math.prod(trail)
    if width != 1:
        total = np.add.reduce(np.ascontiguousarray(x).reshape(len(x), width), axis=0)
    elif len(x):
        total = np.add.accumulate(x.reshape(-1))[-1:]
    else:
        total = np.zeros(1, np.float32)
    # from +0.0 or unseeded, the folds differ only while every partial
    # sum is a zero, and then only in its sign: adding +0.0 settles it
    return total.reshape(trail) + np.float32(0.0)


def mm_f32(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(..., m, k) x (..., k, n) float32 product, accumulated over k in
    index order; leading axes (the lockstep node axis) pair up.

    The (k, ..., m, n) product is built C-contiguous, ``b`` copied k-major
    so the inner loop reads it contiguously, and folded by one ``_scan``;
    rows of ``a`` come in blocks that keep it near ``_SCAN_BLOCK``.
    """
    m = a.shape[-2]
    lead = tuple(range(a.ndim - 2))
    step = max(1, _SCAN_BLOCK // max(1, b.size))  # b: (..., k, n)
    if m <= step:
        # k leads: (k, ..., m, 1) * (k, ..., 1, n)
        a_k = a.transpose((a.ndim - 1,) + lead + (a.ndim - 2,))
        b_k = np.ascontiguousarray(b.transpose((b.ndim - 2,) + lead + (b.ndim - 1,)))
        return _scan(np.multiply(a_k[..., None], b_k[..., None, :], order="C"))
    return np.concatenate(
        [mm_f32(a[..., i : i + step, :], b) for i in range(0, m, step)], axis=-2
    )
