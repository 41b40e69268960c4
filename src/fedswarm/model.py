"""Split model: frozen quantized backbone plus a small trainable head.

The head is a pointwise conv over the pooled feature vector, relu, and
a linear classifier whose row count grows as new classes appear.
``_head_forward`` is the one copy of the head math: ``head_logits``
and ``losses.total_loss`` both run it. Gradients flow into head
parameters only; the backbone's features enter as constants.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, NumericError, RegistryError
from .quant import FrozenBackbone, QuantTensor, backbone_forward
from .tensor import Tensor, mm_f32

__all__ = [
    "TrainableHead",
    "SplitModel",
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


@dataclass(frozen=True)
class TrainableHead:
    """The float32 trainable parameters: conv + expandable classifier."""

    conv_w: Tensor  # (c_out, c_feat)
    conv_b: Tensor  # (c_out,)
    cls_w: Tensor  # (num_classes, c_out)
    cls_b: Tensor  # (num_classes,)

    def __post_init__(self):
        if len(self.conv_w.shape) != 2 or len(self.cls_w.shape) != 2:
            raise DimensionError("conv_w and cls_w must be matrices")
        c_out = self.conv_w.shape[0]
        if self.conv_b.shape != (c_out,):
            raise DimensionError(
                f"conv bias {self.conv_b.shape} does not match conv weights {self.conv_w.shape}"
            )
        if self.cls_w.shape[1] != c_out:
            raise DimensionError(
                f"classifier weights {self.cls_w.shape} do not match conv output {c_out}"
            )
        if self.cls_b.shape != (self.cls_w.shape[0],):
            raise DimensionError(
                f"classifier bias {self.cls_b.shape} does not match weights {self.cls_w.shape}"
            )
        if self.num_classes < 1:
            raise DimensionError("head needs at least one class")
        for name in ("conv_w", "conv_b", "cls_w", "cls_b"):
            if not np.all(np.isfinite(getattr(self, name).data)):
                raise NumericError(f"non-finite values in {name}")

    @property
    def c_feat(self) -> int:
        return self.conv_w.shape[1]

    @property
    def c_out(self) -> int:
        return self.conv_w.shape[0]

    @property
    def num_classes(self) -> int:
        return self.cls_w.shape[0]

    @property
    def parameter_count(self) -> int:
        return (
            self.conv_w.size + self.conv_b.size + self.cls_w.size + self.cls_b.size
        )


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
        conv_w=Tensor((rng.standard_normal((c_out, c_feat)) * sigma).astype(np.float32)),
        conv_b=Tensor((rng.standard_normal(c_out) * sigma).astype(np.float32)),
        cls_w=Tensor((rng.standard_normal((num_classes, c_out)) * sigma).astype(np.float32)),
        cls_b=Tensor((rng.standard_normal(num_classes) * sigma).astype(np.float32)),
    )


def _head_forward(head: TrainableHead, feats: np.ndarray) -> tuple:
    """(hidden, logits) of a (B, c_feat) float32 batch, one row per sample.

    Both contractions are ``mm_f32`` scans in the per-sample reference's
    index order, so each row equals the single-sample pass bit for bit.
    """
    pre = mm_f32(feats, head.conv_w.array.T) + head.conv_b.data
    hidden = np.where(pre > 0, pre, np.float32(0.0))
    return hidden, mm_f32(hidden, head.cls_w.array.T) + head.cls_b.data


def head_logits(head: TrainableHead, features) -> Tensor:
    """Eager head pass over one feature vector or a (B, c_feat) batch.

    Same kernels as the training objective; a batch gives
    (B, num_classes) logits whose rows equal the one-vector results
    exactly.
    """
    f = features.array if isinstance(features, Tensor) else np.asarray(features, np.float32)
    if f.shape[-1:] != (head.c_feat,) or f.ndim > 2:
        raise DimensionError(
            f"features {f.shape} do not match head input ({head.c_feat},)"
        )
    _, logits = _head_forward(head, f.reshape(-1, head.c_feat))
    return Tensor(logits.reshape(f.shape[:-1] + (head.num_classes,)))


def forward(m: SplitModel, x: QuantTensor) -> Tensor:
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
    cls_w = np.concatenate(
        [h.cls_w.array, np.zeros((n_new, h.c_out), dtype=np.float32)], axis=0
    )
    cls_b = np.concatenate([h.cls_b.data, np.zeros(n_new, dtype=np.float32)])
    return TrainableHead(h.conv_w, h.conv_b, Tensor(cls_w), Tensor(cls_b))


def flatten_params(h: TrainableHead) -> Tensor:
    """Canonical flat order: conv_w, conv_b, cls_w, cls_b, each row-major."""
    return Tensor(
        np.concatenate([h.conv_w.data, h.conv_b.data, h.cls_w.data, h.cls_b.data]),
        (h.parameter_count,),
    )


def unflatten_params(h: TrainableHead, v: Tensor) -> TrainableHead:
    """Rebuild a head with ``h``'s architecture from a flat vector."""
    if v.size != h.parameter_count:
        raise DimensionError(
            f"flat vector has {v.size} values, head needs {h.parameter_count}"
        )
    sizes = [h.conv_w.size, h.conv_b.size, h.cls_w.size, h.cls_b.size]
    shapes = [h.conv_w.shape, h.conv_b.shape, h.cls_w.shape, h.cls_b.shape]
    parts = []
    off = 0
    for size, shape in zip(sizes, shapes):
        parts.append(Tensor(v.data[off : off + size], shape))
        off += size
    return TrainableHead(*parts)


def head_message_bytes(h: TrainableHead) -> int:
    """Bytes on the wire for one head: 4 per float32 parameter."""
    return 4 * h.parameter_count


def write_head(h: TrainableHead, path) -> None:
    """Head checkpoint, same container style as the backbone."""
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<III", h.c_feat, h.c_out, h.num_classes))
        fh.write(flatten_params(h).tobytes())


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
    template = TrainableHead(
        conv_w=Tensor.zeros((c_out, c_feat)),
        conv_b=Tensor.zeros((c_out,)),
        cls_w=Tensor.zeros((num_classes, c_out)),
        cls_b=Tensor.zeros((num_classes,)),
    )
    flat = np.frombuffer(blob, dtype="<f4", offset=16, count=template.parameter_count)
    return unflatten_params(template, Tensor(flat, (template.parameter_count,)))
