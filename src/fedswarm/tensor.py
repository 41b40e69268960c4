"""The ordered-fold kernels every float32 contraction runs on.

Float data (features, head parameters, gradients, averaged weights) is
float32 numpy arrays throughout the package; this module holds no
type of its own. Every contraction is a float32 sum in a fixed index
order, seeded with +0.0, in one numpy call: ``_scan`` folds an array it
is given, ``Fold`` folds a preallocated buffer that its caller writes
the terms into, so a step that repeats runs on the same memory.
Determinism rests on that order, not on precision. The head pass
(``model._Forward``), the objective's step (``losses.StepSpace``) and
the backbone's pooling (``quant``) call these kernels directly, on one
head or on a stack of lockstep heads.
"""

from __future__ import annotations

import math
from functools import partial

import numpy as np

# elements per preallocated step buffer: a step longer than this runs in
# chunks of samples, which bounds its memory whatever the batch size
_SCAN_BLOCK = 1 << 17


def _scan(x: np.ndarray) -> np.ndarray:
    """Float32 sum of ``x`` over its leading axis, in index order from +0.0:
    the loop ``acc = 0.0; for v in x: acc += v`` at every trailing index.
    ``x`` is copied into a ``Fold``, whatever its layout or dtype."""
    x = np.asarray(x)
    fold = Fold(x.shape)
    fold.terms[...] = x
    fold.run()
    return fold.total.copy()


class Fold:
    """The ordered sum over a preallocated buffer: the caller writes the
    (k, ...) terms into ``terms`` (uninitialised), then ``run()`` sums
    them over k into ``total``, in index order from +0.0.

    The C-contiguous buffer's extra leading row holds the +0.0 seed.
    ``np.add.reduce`` over axis 0 of a (k, W >= 2) C block adds its rows
    in index order; with W == 1 that would be a 1-D reduce, which numpy
    sums pairwise, so ``np.add.accumulate`` runs instead. A fold never
    yields -0.0, so the sign of a zero term never shows in it.
    """

    __slots__ = ("terms", "total", "run")

    def __init__(self, shape: tuple):
        k, trail = shape[0], shape[1:]
        width = math.prod(trail)
        buf = np.empty((k + 1, width), np.float32)
        buf[0] = 0.0
        self.terms = buf[1:].reshape(shape)
        if width != 1:
            total = np.empty(width, np.float32)
            self.run = partial(np.add.reduce, buf, 0, None, total)
        else:
            running = np.empty(k + 1, np.float32)
            self.run = partial(np.add.accumulate, buf.reshape(-1), 0, None, running)
            total = running[-1:]
        self.total = total.reshape(trail)
