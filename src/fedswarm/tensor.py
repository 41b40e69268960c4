"""Dense float32 tensors and the ordered-scan kernels.

Every contraction in the package goes through ``_scan``: a float32 sum
in a fixed index order, seeded with +0.0. Determinism rests on that
order, not on precision: a scan gives the same bits whatever numpy's
vector width. The head (``model._head_forward``) and the objective
(``losses.total_loss``) call these kernels directly in closed form, on
one head or on a stack of heads trained in lockstep.
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


# product elements per ``mm_f32`` block: bounds the scan's temporaries
_SCAN_BLOCK = 1 << 16


def _scan(x: np.ndarray) -> np.ndarray:
    """Float32 sum of ``x`` over its leading axis, in index order from +0.0.

    Equals the loop ``acc = 0.0; for v in x: acc += v`` at every trailing
    index; the seed turns a lone -0.0 into +0.0. Wide inputs run that
    loop as one vector add per slice, narrow ones ``np.add.accumulate``
    (strictly left to right) along a contiguous last axis: same bits,
    whichever is faster for the shape.
    """
    x = np.asarray(x, dtype=np.float32)
    if not len(x) or (x.ndim > 1 and math.prod(x.shape[1:]) > 2 * len(x)):
        acc = np.zeros(x.shape[1:], np.float32)
        for v in x:
            acc += v
        return acc
    # from +0.0 or unseeded, the folds differ only while every partial
    # sum is a zero, and then only in its sign: adding +0.0 settles it
    rows = x.transpose(tuple(range(1, x.ndim)) + (0,))
    return np.add.accumulate(rows, axis=-1)[..., -1] + np.float32(0.0)


def mm_f32(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(..., m, k) x (..., k, n) float32 product, accumulated over k in
    index order; leading axes (the lockstep node axis) pair up.

    Rows of ``a`` are independent, so they are taken in blocks that keep
    the (k, ..., rows, n) product small; the order within each sum is
    fixed.
    """
    m, k = a.shape[-2:]
    lead = tuple(range(a.ndim - 2))
    width = k * b.shape[-1] * math.prod(a.shape[:-2])
    step = max(1, _SCAN_BLOCK // max(1, width))
    if m <= step:
        # k leads: (k, ..., m, 1) * (k, ..., 1, n)
        a_k = a.transpose((a.ndim - 1,) + lead + (a.ndim - 2,))
        b_k = b.transpose((b.ndim - 2,) + lead + (b.ndim - 1,))
        return _scan(a_k[..., None] * b_k[..., None, :])
    return np.concatenate(
        [mm_f32(a[..., i : i + step, :], b) for i in range(0, m, step)], axis=-2
    )
