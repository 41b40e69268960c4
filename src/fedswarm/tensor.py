"""The ordered-fold kernels every float32 contraction runs on.

Float data (features, head parameters, gradients, averaged weights) is
float32 numpy arrays throughout the package; this module holds no
type of its own. Every contraction goes through ``_scan``: a float32
sum in a fixed index order, seeded with +0.0, in one numpy call (see
its docstring for the fold contract). Determinism rests on that order, not
on precision. The head (``model._head_forward``), the objective
(``losses.total_loss``) and the backbone's pooling (``quant``) call
these kernels directly, on one head or on a stack of lockstep heads.
"""

from __future__ import annotations

import math

import numpy as np

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
