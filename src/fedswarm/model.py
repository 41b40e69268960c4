"""The trainable head that runs on the frozen backbone's features.

The head is a pointwise conv over the pooled feature vector, relu, and
a linear classifier whose row count grows as new classes appear. A
head is one read-only flat float32 array with four reshaped views, so
``flatten_params`` returns that array, ``unflatten_params`` a reshape of
a copy and an SGD step one vector update. Features and logits are
float32 arrays too. ``_Forward`` is the one copy of the head math, a
pass over preallocated buffers: ``head_logits`` runs it, and so does
``losses.StepSpace`` on the (N, P) parameter rows of N heads, which
stay in the space for a whole training call with ``_weight_views``
built over them once, so training steps build no head objects.
Gradients flow into head parameters only; the backbone's features
enter as constants.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DimensionError, NumericError, RegistryError
from .tensor import _SCAN_BLOCK, Fold

__all__ = [
    "TrainableHead",
    "check_finite",
    "init_head",
    "head_logits",
    "expand_classifier",
    "flatten_params",
    "unflatten_params",
    "head_message_bytes",
]

class TrainableHead:
    """The float32 trainable parameters: conv + expandable classifier.

    ``params`` is one read-only vector holding conv_w (c_out, c_feat),
    conv_b (c_out,), cls_w (num_classes, c_out) and cls_b (num_classes,)
    in that order, each row-major; the four attributes are reshaped
    read-only views of it. ``with_params`` also takes an (N, P) stack
    of N same-architecture heads, whose views gain the leading node
    axis; the training loop itself steps bare (N, P) rows.

    The constructor checks shapes and finiteness. Heads derived from
    another head (``with_params``, SGD steps, expansion, averaging) skip
    both; training checks finiteness at its epoch and sync boundaries.
    """

    __slots__ = ("params", "c_feat", "c_out", "num_classes")

    def __init__(self, conv_w, conv_b, cls_w, cls_b):
        parts = [np.asarray(t, np.float32) for t in (conv_w, conv_b, cls_w, cls_b)]
        conv_w, conv_b, cls_w, cls_b = parts
        if conv_w.ndim != 2 or cls_w.ndim != 2:
            raise DimensionError("conv_w and cls_w must be matrices")
        c_out = conv_w.shape[0]
        if conv_b.shape != (c_out,):
            raise DimensionError(
                f"conv bias {conv_b.shape} does not match conv weights {conv_w.shape}"
            )
        if cls_w.shape[1] != c_out:
            raise DimensionError(
                f"classifier weights {cls_w.shape} do not match conv output {c_out}"
            )
        if cls_b.shape != (cls_w.shape[0],):
            raise DimensionError(
                f"classifier bias {cls_b.shape} does not match weights {cls_w.shape}"
            )
        if min(conv_w.shape + cls_w.shape) < 1:
            raise DimensionError("head needs at least one class, feature and hidden unit")
        for name, t in zip(_PARTS, parts):
            if not np.isfinite(t).all():
                raise NumericError(f"non-finite values in {name}")
        flat = np.concatenate([t.reshape(-1) for t in parts])
        _fill(self, flat, conv_w.shape[1], c_out, cls_w.shape[0])

    def with_params(self, params: np.ndarray) -> "TrainableHead":
        """A head of this architecture over ``params``, (P,) or (N, P),
        unchecked and uncopied: the caller hands the array over."""
        return _head(params, *self.dims)

    def _view(self, start: int, shape: tuple) -> np.ndarray:
        lead = self.params.shape[:-1]
        return self.params[..., start : start + math.prod(shape)].reshape(lead + shape)

    dims = property(lambda h: (h.c_feat, h.c_out, h.num_classes))
    parameter_count = property(lambda h: h.params.shape[-1])
    conv_w = property(lambda h: h._view(0, (h.c_out, h.c_feat)))
    conv_b = property(lambda h: h._view(h.c_out * h.c_feat, (h.c_out,)))
    cls_w = property(lambda h: h._view(h.c_out * (h.c_feat + 1), (h.num_classes, h.c_out)))
    cls_b = property(lambda h: h._view(h.c_out * (h.c_feat + 1 + h.num_classes), (h.num_classes,)))

    def __eq__(self, other):
        if not isinstance(other, TrainableHead):
            return NotImplemented
        return self.dims == other.dims and bool(np.array_equal(self.params, other.params))


_PARTS = ("conv_w", "conv_b", "cls_w", "cls_b")


def _fill(h: TrainableHead, params: np.ndarray, c_feat: int, c_out: int, num_classes: int):
    params.flags.writeable = False
    h.params, h.c_feat, h.c_out, h.num_classes = params, c_feat, c_out, num_classes
    return h


def _head(params: np.ndarray, c_feat: int, c_out: int, num_classes: int) -> TrainableHead:
    """The unchecked constructor: a head over ``params`` as given."""
    return _fill(TrainableHead.__new__(TrainableHead), params, c_feat, c_out, num_classes)


def check_finite(h: TrainableHead) -> None:
    """NumericError naming the first head tensor that holds a NaN or inf."""
    if not np.isfinite(h.params).all():
        for name in _PARTS:
            if not np.isfinite(getattr(h, name)).all():
                raise NumericError(f"non-finite values in {name}")


def init_head(
    c_feat: int,
    c_out: int,
    num_classes: int,
    rng: np.random.Generator,
    sigma: float = 0.1,
) -> TrainableHead:
    """Seeded Gaussian initialization for all four parameter tensors."""
    # a sigma past float32's range casts to inf, which the head rejects
    with np.errstate(over="ignore"):
        return TrainableHead(
            conv_w=(rng.standard_normal((c_out, c_feat)) * sigma).astype(np.float32),
            conv_b=(rng.standard_normal(c_out) * sigma).astype(np.float32),
            cls_w=(rng.standard_normal((num_classes, c_out)) * sigma).astype(np.float32),
            cls_b=(rng.standard_normal(num_classes) * sigma).astype(np.float32),
        )


_ZERO = np.float32(0.0)


def _weight_views(params: np.ndarray, dims: tuple) -> tuple:
    """(conv_w, conv_b, cls_w, cls_b) of an (n, P) head stack as the
    forward reads them: the weights k-major, (c_feat, 1, n, c_out) and
    (c_out, 1, n, num_classes); the biases (n, c_out) and (n, num_classes)."""
    h = _head(params.view(), *dims)
    return (h.conv_w.transpose(2, 0, 1)[:, None], h.conv_b,
            h.cls_w.transpose(2, 0, 1)[:, None], h.cls_b)


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


def expand_classifier(h: TrainableHead, new_class_ids) -> TrainableHead:
    """Append a zero row and bias entry per new class; old rows untouched.

    New ids must continue the registry ordering: exactly
    num_classes, num_classes+1, ...
    """
    ids = [int(c) for c in new_class_ids]
    if not ids:
        return h
    if len(set(ids)) != len(ids):
        raise RegistryError(f"duplicate class ids in expansion: {sorted(ids)}")
    expected = list(range(h.num_classes, h.num_classes + len(ids)))
    if sorted(ids) != expected:
        raise RegistryError(
            f"expansion ids {sorted(ids)} must be exactly {expected} "
            f"(head already has {h.num_classes} classes)"
        )
    n_new = len(ids)
    end_w = h.c_out * (h.c_feat + 1 + h.num_classes)  # conv_w, conv_b, cls_w
    params = np.concatenate([
        h.params[:end_w], np.zeros(n_new * h.c_out, np.float32),
        h.params[end_w:], np.zeros(n_new, np.float32),
    ])
    return _head(params, h.c_feat, h.c_out, h.num_classes + n_new)


def flatten_params(h: TrainableHead) -> np.ndarray:
    """Canonical flat order: conv_w, conv_b, cls_w, cls_b, each row-major.

    The head's own read-only vector; nothing is copied.
    """
    return h.params


def unflatten_params(h: TrainableHead, v: np.ndarray) -> TrainableHead:
    """A head with ``h``'s architecture over a float32 copy of a flat
    vector (a reshape)."""
    flat = np.array(v, np.float32)
    if flat.shape != (h.parameter_count,):
        raise DimensionError(
            f"flat vector of shape {flat.shape}, head needs ({h.parameter_count},)"
        )
    return h.with_params(flat)


def head_message_bytes(h: TrainableHead) -> int:
    """Bytes on the wire for one head: 4 per float32 parameter."""
    return 4 * h.parameter_count
