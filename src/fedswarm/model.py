"""Split model: frozen quantized backbone plus a small trainable head.

The head is a pointwise conv over the pooled feature vector, relu, and
a linear classifier whose row count grows as new classes appear. A
head is one read-only flat float32 array with four reshaped views, so
``flatten_params`` returns that array, ``unflatten_params`` a reshape of
a copy and an SGD step one vector update. Features and logits are
float32 arrays too. ``_head_forward`` is the one copy of the head
math: ``head_logits`` and ``losses.total_loss`` both run it, the
latter also on (N, P) stacks of heads. Gradients flow into head
parameters only; the backbone's features enter as constants.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, NumericError, RegistryError
from .quant import FrozenBackbone, QuantTensor, backbone_forward
from .tensor import mm_f32

__all__ = [
    "TrainableHead",
    "SplitModel",
    "check_finite",
    "init_head",
    "forward",
    "head_logits",
    "expand_classifier",
    "flatten_params",
    "unflatten_params",
    "head_message_bytes",
    "write_head",
    "read_head",
]

_MAGIC = b"FCH1"


class TrainableHead:
    """The float32 trainable parameters: conv + expandable classifier.

    ``params`` is one read-only vector holding conv_w (c_out, c_feat),
    conv_b (c_out,), cls_w (num_classes, c_out) and cls_b (num_classes,)
    in that order, each row-major; the four attributes are reshaped
    read-only views of it. The training loop also builds heads whose
    ``params`` is an (N, P) stack of N same-architecture heads, stepped
    in lockstep; their views gain the leading node axis.

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


@dataclass(frozen=True)
class SplitModel:
    backbone: FrozenBackbone
    head: TrainableHead

    def __post_init__(self):
        if self.backbone.feature_dim != self.head.c_feat:
            raise DimensionError(
                f"backbone features {self.backbone.feature_dim} do not match "
                f"head input {self.head.c_feat}"
            )


def init_head(
    c_feat: int,
    c_out: int,
    num_classes: int,
    rng: np.random.Generator,
    sigma: float = 0.1,
) -> TrainableHead:
    """Seeded Gaussian initialization for all four parameter tensors."""
    return TrainableHead(
        conv_w=(rng.standard_normal((c_out, c_feat)) * sigma).astype(np.float32),
        conv_b=(rng.standard_normal(c_out) * sigma).astype(np.float32),
        cls_w=(rng.standard_normal((num_classes, c_out)) * sigma).astype(np.float32),
        cls_b=(rng.standard_normal(num_classes) * sigma).astype(np.float32),
    )


def _head_forward(head: TrainableHead, feats: np.ndarray) -> tuple:
    """(hidden, logits) of a (B, c_feat) float32 batch, one row per sample;
    a head stack takes (N, B, c_feat) and gives (N, B, ...).

    Both contractions are ``mm_f32`` scans in the per-sample reference's
    index order, so each row equals the single-sample pass bit for bit.
    """
    pre = mm_f32(feats, head.conv_w.swapaxes(-1, -2)) + head.conv_b[..., None, :]
    hidden = np.where(pre > 0, pre, np.float32(0.0))
    logits = mm_f32(hidden, head.cls_w.swapaxes(-1, -2)) + head.cls_b[..., None, :]
    return hidden, logits


def head_logits(head: TrainableHead, features) -> np.ndarray:
    """Eager head pass over one feature vector or a (B, c_feat) batch.

    Same kernels as the training objective; a batch gives
    (B, num_classes) logits whose rows equal the one-vector results
    exactly.
    """
    f = np.asarray(features, np.float32)
    if f.shape[-1:] != (head.c_feat,) or f.ndim > 2:
        raise DimensionError(
            f"features {f.shape} do not match head input ({head.c_feat},)"
        )
    _, logits = _head_forward(head, f.reshape(-1, head.c_feat))
    return logits.reshape(f.shape[:-1] + (head.num_classes,))


def forward(m: SplitModel, x: QuantTensor) -> np.ndarray:
    """logits = cls(relu(conv(backbone(x)))); backbone sees no gradient."""
    return head_logits(m.head, backbone_forward(m.backbone, x))


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


def write_head(h: TrainableHead, path) -> None:
    """Head checkpoint, same container style as the backbone."""
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<III", h.c_feat, h.c_out, h.num_classes))
        fh.write(h.params.astype("<f4").tobytes())


def read_head(path) -> TrainableHead:
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != _MAGIC:
        raise NumericError(f"bad head container magic: {blob[:4]!r}")
    if len(blob) < 16:
        raise NumericError(f"head container truncated in its header: {len(blob)} bytes")
    c_feat, c_out, num_classes = struct.unpack_from("<III", blob, 4)
    expected = 16 + 4 * (c_out * c_feat + c_out + num_classes * c_out + num_classes)
    if len(blob) != expected:
        raise NumericError(
            f"head container holds {len(blob)} bytes, its header implies {expected}"
        )
    if min(c_feat, c_out, num_classes) < 1:
        raise DimensionError(f"head container dims must be positive: {c_feat, c_out, num_classes}")
    flat = np.frombuffer(blob, dtype="<f4", offset=16).astype(np.float32)
    head = _head(flat, c_feat, c_out, num_classes)
    check_finite(head)
    return head
