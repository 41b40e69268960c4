"""The trainable head that runs on the frozen backbone's features.

The head is a pointwise conv over the pooled feature vector, relu, and
a linear classifier whose row count grows as new classes appear. A
head is one read-only flat float32 array, so an SGD step is one vector
update and the link carries one vector. ``_shapes`` states its layout
once and ``_parts`` cuts a vector by it: the head's four attributes,
its initialization and growth, the training loop's weight and gradient
views and the float64 gradient oracle all go through ``_parts``.
``TrainableHead(params, dims)`` is the one way to build a head, and it
checks the vector's length and finiteness, so no head disagrees with
its own dims. Features and logits are float32 arrays too.
``_Forward`` is the one copy of the head math, a pass over
preallocated buffers: ``head_logits`` runs it, and so does
``losses.StepSpace`` on the (N, P) parameter rows of N heads, which
stay in the space for a whole training call with ``_weight_views``
built over them once, so training steps build no head objects.
Gradients flow into head parameters only; the backbone's features
enter as constants.
"""

from __future__ import annotations

import math
from itertools import accumulate

import numpy as np

from .errors import DimensionError, NumericError, RegistryError, _is_int, check_budget
from .tensor import _SCAN_BLOCK, Fold

_ZERO = np.float32(0.0)

__all__ = [
    "TrainableHead",
    "init_head",
    "head_logits",
    "expand_classifier",
    "head_message_bytes",
]

class TrainableHead:
    """The float32 trainable parameters: conv + expandable classifier.

    ``params`` is one read-only (P,) vector in ``_parts``'s layout and
    ``dims`` is (c_feat, c_out, num_classes); conv_w, conv_b, cls_w and
    cls_b are views of ``params``. The constructor is the only way to
    build a head, and it checks what it is given: three 64-bit integer
    dims of at least 1 (stored as Python ints), a shape of (P,) (a shape
    compare, so building a head stays cheap) and finite values. It keeps
    a float32 array uncopied and makes it read-only, so the caller hands
    the array over. The training loop itself steps bare (N, P) rows and
    builds a head per trained node when a round ends.
    """

    __slots__ = ("params", "c_feat", "c_out", "num_classes")

    def __init__(self, params, dims: tuple):
        params = np.asarray(params, np.float32)
        if len(dims) != 3 or not all(_is_int(d) and d >= 1 for d in dims):
            raise DimensionError(f"head dims {dims!r} must be three 64-bit integers >= 1")
        dims = tuple(map(int, dims))
        size = _size(dims)
        if params.shape != (size,):
            raise DimensionError(f"flat parameters of shape {params.shape}, head needs ({size},)")
        if not np.isfinite(params).all():
            for name, t in zip(_PARTS, _parts(params, dims)):
                if not np.isfinite(t).all():
                    raise NumericError(f"non-finite values in {name}")
        params.flags.writeable = False
        self.params = params
        self.c_feat, self.c_out, self.num_classes = dims

    def with_params(self, params: np.ndarray) -> "TrainableHead":
        """A head of this architecture over the (P,) vector ``params``."""
        return TrainableHead(params, self.dims)

    dims = property(lambda h: (h.c_feat, h.c_out, h.num_classes))
    parameter_count = property(lambda h: h.params.size)
    conv_w = property(lambda h: _parts(h.params, h.dims)[0])
    conv_b = property(lambda h: _parts(h.params, h.dims)[1])
    cls_w = property(lambda h: _parts(h.params, h.dims)[2])
    cls_b = property(lambda h: _parts(h.params, h.dims)[3])


_PARTS = ("conv_w", "conv_b", "cls_w", "cls_b")


def _shapes(dims: tuple) -> tuple:
    """The flat layout: conv_w (c_out, c_feat), conv_b (c_out,), cls_w
    (num_classes, c_out), cls_b (num_classes,), in that order, each
    row-major."""
    c_feat, c_out, n_cls = dims
    return (c_out, c_feat), (c_out,), (n_cls, c_out), (n_cls,)


def _size(dims: tuple) -> int:
    """The parameter count P of a head of these dims."""
    return sum(map(math.prod, _shapes(dims)))


def _parts(params: np.ndarray, dims: tuple) -> tuple:
    """The (conv_w, conv_b, cls_w, cls_b) views of a (P,) vector, or of
    each row of an (..., P) stack with its leading axes kept; views
    share ``params``'s memory and writeable flag."""
    shapes = _shapes(dims)
    ends = list(accumulate(map(math.prod, shapes)))
    if params.shape[-1:] != (ends[-1],):
        raise DimensionError(f"flat parameters of shape {params.shape}, head needs ({ends[-1]},)")
    lead = params.shape[:-1]
    return tuple(params[..., lo:hi].reshape(lead + shape)
                 for shape, lo, hi in zip(shapes, [0] + ends, ends))


def _shape_head(c_feat: int, c_out: int, num_classes: int) -> TrainableHead:
    """A head of this shape for pricing it: its parameters are one zero
    broadcast to the parameter count, zero strides, so its vector takes
    no memory."""
    dims = (c_feat, c_out, num_classes)
    return TrainableHead(np.broadcast_to(_ZERO, (_size(dims),)), dims)


def init_head(
    c_feat: int,
    c_out: int,
    num_classes: int,
    rng: np.random.Generator,
    sigma: float = 0.1,
) -> TrainableHead:
    """Seeded Gaussian initialization for all four parameter tensors,
    drawn in layout order, each rounded once from float64 to float32."""
    dims = (c_feat, c_out, num_classes)
    params = np.empty(_size(dims), np.float32)
    # a sigma past float32's range casts to inf, which the head rejects
    with np.errstate(over="ignore"):
        for part in _parts(params, dims):
            part[...] = rng.standard_normal(part.shape) * sigma
    return TrainableHead(params, dims)


def _weight_views(params: np.ndarray, dims: tuple) -> tuple:
    """(conv_w, conv_b, cls_w, cls_b) of an (n, P) head stack as the
    forward reads them: the weights k-major, (c_feat, 1, n, c_out) and
    (c_out, 1, n, num_classes); the biases (n, c_out) and (n, num_classes)."""
    conv_w, conv_b, cls_w, cls_b = _parts(params, dims)
    return conv_w.transpose(2, 0, 1)[:, None], conv_b, cls_w.transpose(2, 0, 1)[:, None], cls_b


class _Forward:
    """The head pass of n heads over ``rows`` samples each, in buffers
    allocated once and reused by every ``run``.

    A sample is a (row, node) cell, node innermost. ``run`` takes the
    heads' ``_weight_views`` and (c_feat, rows, n, 1) k-major features
    and leaves ``hidden`` (rows, n, c_out) and ``logits``
    (rows, n, num_classes). Both contractions are ``Fold``s in the
    per-sample reference's index order, so each sample's logits equal
    its single-sample pass bit for bit. The relu is ``fmax(pre, 0)``:
    it may keep a zero's sign where ``where(pre > 0, pre, 0)`` would not,
    and hidden units enter only folds, which never show that sign.
    """

    __slots__ = ("_pre", "_logits", "_hidden_k", "hidden", "logits")

    def __init__(self, dims: tuple, rows: int, n: int):
        c_feat, c_out, n_cls = dims
        self._pre = Fold((c_feat, rows, n, c_out))
        self._logits = Fold((c_out, rows, n, n_cls))
        self.hidden, self.logits = self._pre.total, self._logits.total
        self._hidden_k = self.hidden.transpose(2, 0, 1)[..., None]

    def run(self, weights: tuple, x_k: np.ndarray) -> None:
        conv_w, conv_b, cls_w, cls_b = weights
        np.multiply(x_k, conv_w, out=self._pre.terms)
        self._pre.run()
        np.add(self.hidden, conv_b, out=self.hidden)
        np.fmax(self.hidden, _ZERO, out=self.hidden)
        np.multiply(self._hidden_k, cls_w, out=self._logits.terms)
        self._logits.run()
        np.add(self.logits, cls_b, out=self.logits)


def head_logits(head: TrainableHead, features) -> np.ndarray:
    """Eager head pass over one feature vector or a (B, c_feat) batch.

    Same kernel as the training objective; a batch gives
    (B, num_classes) logits whose rows equal the one-vector results
    exactly. Long batches run in chunks of rows whose count times the
    parameter count (which bounds each buffer's size per row) stays
    within ``tensor._SCAN_BLOCK``.
    """
    f = np.asarray(features, np.float32)
    if f.shape[-1:] != (head.c_feat,) or f.ndim > 2:
        raise DimensionError(
            f"features {f.shape} do not match head input ({head.c_feat},)"
        )
    rows = f.reshape(-1, head.c_feat)
    out = np.empty((len(rows), head.num_classes), np.float32)
    step = max(1, _SCAN_BLOCK // head.parameter_count)
    # fixed for the call: contiguous copies make the products' inner loops unit-stride
    weights = tuple(np.ascontiguousarray(w) for w in _weight_views(head.params[None], head.dims))
    fwd = None
    for lo in range(0, len(rows), step):
        chunk = rows[lo : lo + step]
        if fwd is None or len(chunk) != len(fwd.logits):
            fwd = _Forward(head.dims, len(chunk), 1)
        fwd.run(weights, chunk.T[:, :, None, None])
        out[lo : lo + len(chunk)] = fwd.logits[:, 0]
    return out.reshape(f.shape[:-1] + (head.num_classes,))


def expand_classifier(h: TrainableHead, count: int) -> TrainableHead:
    """Append ``count`` zero rows and bias entries, the classes
    num_classes .. num_classes + count - 1; old rows untouched. A count
    that is not a nonnegative 64-bit integer, or a grown head past the
    host budget (priced before it is allocated), is a RegistryError."""
    if not _is_int(count) or count < 0:
        raise RegistryError(f"expansion count {count!r} must be a 64-bit integer >= 0")
    if not count:
        return h
    dims = (h.c_feat, h.c_out, h.num_classes + int(count))
    check_budget({"the grown parameter vector": 4 * _size(dims)}, RegistryError,
                 f"expanding {h.num_classes} classes by {count}: ")
    params = np.zeros(_size(dims), np.float32)
    # each part grows along its leading axis at most: only cls_w and cls_b gain rows
    for new, old in zip(_parts(params, dims), _parts(h.params, h.dims)):
        new[: len(old)] = old
    return TrainableHead(params, dims)


def head_message_bytes(h: TrainableHead) -> int:
    """Bytes on the wire for one head: 4 per float32 parameter."""
    return 4 * h.parameter_count
