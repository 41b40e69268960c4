"""Dense float32 tensors and the ordered-scan kernels.

Every contraction in the package goes through ``_scan``: a float32 sum
in a fixed index order, seeded with +0.0. Determinism rests on that
order, not on precision: a scan gives the same bits whatever numpy's
vector width. The head (``model._head_forward``) and the objective
(``losses.total_loss``) call these kernels directly in closed form.
"""

from __future__ import annotations

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
_SCAN_BLOCK = 1 << 14


def _scan(x: np.ndarray) -> np.ndarray:
    """Float32 sum of ``x`` over its leading axis, in index order from +0.0.

    ``np.add.accumulate`` adds strictly left to right, so this equals the
    loop ``acc = 0.0; for v in x: acc += v`` at every trailing index. The
    leading zero slice is part of that contract: the loop turns a lone
    -0.0 into +0.0, an unseeded scan would keep it. The last slice is
    copied out so the prefix sums can be freed.
    """
    x = np.asarray(x, dtype=np.float32)
    seeded = np.concatenate([np.zeros((1,) + x.shape[1:], np.float32), x])
    return np.add.accumulate(seeded, axis=0)[-1].copy()


def seq_sum(values: np.ndarray) -> np.float32:
    """Left-to-right float32 sum of a 1-D array."""
    return _scan(values)


def mm_f32(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(m,k) x (k,n) float32 product, accumulated over k in index order.

    Rows of ``a`` are independent, so they are taken in blocks that keep
    the (k, rows, n) product small; the order within each sum is fixed.
    """
    m, k = a.shape
    n = b.shape[1]
    step = max(1, _SCAN_BLOCK // max(1, k * n))
    if m <= step:
        return _scan(a.T[:, :, None] * b[:, None, :])
    return np.concatenate(
        [mm_f32(a[i : i + step], b) for i in range(0, m, step)]
    )


def _sum_cols(x: np.ndarray) -> np.ndarray:
    """Sum a 2-D float32 array over axis 1, columns added in index order."""
    return _scan(x.T)
