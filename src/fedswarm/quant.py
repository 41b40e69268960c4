"""Per-tensor affine int8 quantization and frozen-backbone inference.

The backbone is a chain of quantized pointwise-conv layers (int8
weights, int32 biases) with relu after each layer, ending in a global
average pool that yields a float feature vector. It stands in for a
pretrained integerized feature extractor: its structure is
configurable and its parameters never change after construction.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, NumericError
from .tensor import Tensor, _sum_cols

__all__ = [
    "QuantParams",
    "QuantTensor",
    "QuantLayer",
    "FrozenBackbone",
    "quantize",
    "dequantize",
    "backbone_forward",
    "build_backbone",
    "write_backbone",
    "read_backbone",
    "backbone_digest",
]

INT8_MIN, INT8_MAX = -128, 127
_INT32_MAX = 2**31 - 1

_MAGIC = b"FCB1"


@dataclass(frozen=True)
class QuantParams:
    """Affine mapping real x ~= scale * (q - zero_point)."""

    scale: float
    zero_point: int = 0

    def __post_init__(self):
        if not (np.isfinite(self.scale) and self.scale > 0):
            raise NumericError(f"scale must be a positive finite float, got {self.scale}")
        if not INT8_MIN <= self.zero_point <= INT8_MAX:
            raise NumericError(f"zero_point out of int8 range: {self.zero_point}")


class QuantTensor:
    """Immutable int8 payload with shape and quantization parameters."""

    __slots__ = ("shape", "data", "qparams")

    def __init__(self, data, shape, qparams: QuantParams):
        shape = tuple(int(s) for s in shape)
        flat = np.asarray(data, dtype=np.int8).reshape(-1)
        expected = 1
        for s in shape:
            expected *= s
        if flat.size != expected:
            raise DimensionError(f"shape {shape} expects {expected} elements, got {flat.size}")
        flat = np.array(flat, dtype=np.int8, copy=True)
        flat.flags.writeable = False
        self.shape = shape
        self.data = flat
        self.qparams = qparams

    @property
    def array(self) -> np.ndarray:
        return self.data.reshape(self.shape)

    def __eq__(self, other):
        if not isinstance(other, QuantTensor):
            return NotImplemented
        return (
            self.shape == other.shape
            and self.qparams == other.qparams
            and bool(np.array_equal(self.data, other.data))
        )

    def __hash__(self):
        return hash((self.shape, self.qparams, self.data.tobytes()))

    def __repr__(self):
        return f"QuantTensor(shape={self.shape}, qparams={self.qparams})"


def quantize(x: Tensor, qp: QuantParams) -> QuantTensor:
    """q = clamp(round_half_even(x / scale) + zero_point, -128, 127)."""
    vals = x.data
    if not np.all(np.isfinite(vals)):
        raise NumericError("cannot quantize non-finite values")
    # rounding computed in double precision to keep huge quotients exact
    q = np.rint(vals.astype(np.float64) / float(qp.scale)) + qp.zero_point
    q = np.clip(q, INT8_MIN, INT8_MAX)
    return QuantTensor(q.astype(np.int8), x.shape, qp)


def dequantize(q: QuantTensor) -> Tensor:
    """x = scale * (q - zero_point), as float32."""
    diff = q.data.astype(np.int32) - q.qparams.zero_point
    return Tensor(diff.astype(np.float32) * np.float32(q.qparams.scale), q.shape)


@dataclass(frozen=True)
class QuantLayer:
    """One quantized pointwise-conv layer; output zero point is fixed at 0.

    Post-relu activations are nonnegative, so a symmetric output grid
    loses nothing and keeps the serialized container scale-only.
    """

    weight: np.ndarray  # int8, (c_out, c_in)
    bias: np.ndarray  # int32, (c_out,)
    weight_scale: float
    out_scale: float

    def __post_init__(self):
        w = np.asarray(self.weight, dtype=np.int8)
        b = np.asarray(self.bias, dtype=np.int32)
        if w.ndim != 2:
            raise DimensionError(f"layer weights must be 2-D, got {w.shape}")
        if b.shape != (w.shape[0],):
            raise DimensionError(f"bias {b.shape} does not match weights {w.shape}")
        w = np.array(w, copy=True)
        b = np.array(b, copy=True)
        w.flags.writeable = False
        b.flags.writeable = False
        object.__setattr__(self, "weight", w)
        object.__setattr__(self, "bias", b)
        for name in ("weight_scale", "out_scale"):
            s = getattr(self, name)
            if not (np.isfinite(s) and s > 0):
                raise NumericError(f"{name} must be positive and finite, got {s}")

    @property
    def c_out(self) -> int:
        return self.weight.shape[0]

    @property
    def c_in(self) -> int:
        return self.weight.shape[1]


class FrozenBackbone:
    """Immutable chain of QuantLayers ending in a global average pool."""

    __slots__ = ("layers",)

    def __init__(self, layers):
        layers = tuple(layers)
        if not layers:
            raise DimensionError("backbone needs at least one layer")
        for prev, cur in zip(layers, layers[1:]):
            if cur.c_in != prev.c_out:
                raise DimensionError(
                    f"layer chain mismatch: {prev.c_out} outputs feed {cur.c_in} inputs"
                )
        self.layers = layers

    @property
    def feature_dim(self) -> int:
        return self.layers[-1].c_out

    @property
    def input_channels(self) -> int:
        return self.layers[0].c_in


def _check_int32(acc: np.ndarray, layer_idx: int) -> None:
    peak = int(np.abs(acc).max())
    if peak > _INT32_MAX:
        raise NumericError(
            f"int32 accumulator overflow in layer {layer_idx}: |acc| reached {peak}"
        )


def backbone_forward(bb: FrozenBackbone, x: QuantTensor) -> Tensor:
    """Integer inference through the frozen chain; float feature vector out.

    Per layer: int32-range accumulation over input channels in index
    order (overflow detected, never wrapped), requantization by a float
    multiply and round-half-even, relu as a clamp at the zero point.
    The last layer is dequantized and average-pooled.
    """
    if len(x.shape) != 3:
        raise DimensionError(f"backbone input must be C x H x W, got {x.shape}")
    if x.shape[0] != bb.input_channels:
        raise DimensionError(
            f"input channels {x.shape[0]} do not match first layer {bb.input_channels}"
        )
    c, h, w = x.shape
    acts = x.data.reshape(c, h * w).astype(np.int64)
    in_scale = float(x.qparams.scale)
    in_zp = int(x.qparams.zero_point)
    q = None
    for li, layer in enumerate(bb.layers):
        acc = np.broadcast_to(
            layer.bias.astype(np.int64)[:, None], (layer.c_out, h * w)
        ).copy()
        _check_int32(acc, li)
        centered = acts - in_zp
        wgt = layer.weight.astype(np.int64)
        for ci in range(layer.c_in):
            acc += wgt[:, ci, None] * centered[ci, :]
            _check_int32(acc, li)
        multiplier = in_scale * layer.weight_scale / layer.out_scale
        q = np.clip(np.rint(acc.astype(np.float64) * multiplier), 0, INT8_MAX)
        acts = q.astype(np.int64)
        in_scale = layer.out_scale
        in_zp = 0
    feats = q.astype(np.float32) * np.float32(bb.layers[-1].out_scale)
    pooled = _sum_cols(feats) / np.float32(h * w)
    return Tensor(pooled, (bb.feature_dim,))


def build_backbone(
    layer_dims,
    rng: np.random.Generator,
    weight_sigma: float = 0.25,
    activation_range: float = 4.0,
) -> FrozenBackbone:
    """Seeded stand-in backbone: Gaussian weights calibrated per tensor.

    ``layer_dims`` lists channel counts, e.g. (8, 32, 64) for two
    layers. Weight scale is max|w|/127; each layer represents
    activations up to ``activation_range`` on its int8 output grid.
    Biases are zero.
    """
    dims = [int(d) for d in layer_dims]
    if len(dims) < 2:
        raise DimensionError(f"need at least input and output dims, got {dims}")
    layers = []
    for c_in, c_out in zip(dims, dims[1:]):
        w = rng.standard_normal((c_out, c_in)) * weight_sigma
        w_scale = float(np.abs(w).max()) / INT8_MAX
        if w_scale <= 0:
            w_scale = 1.0 / INT8_MAX
        qw = np.clip(np.rint(w / w_scale), INT8_MIN, INT8_MAX).astype(np.int8)
        layers.append(
            QuantLayer(
                weight=qw,
                bias=np.zeros(c_out, dtype=np.int32),
                weight_scale=w_scale,
                out_scale=float(activation_range) / INT8_MAX,
            )
        )
    return FrozenBackbone(layers)


def backbone_digest(bb: FrozenBackbone) -> str:
    """SHA-256 over all layer parameters; used to assert frozenness."""
    h = hashlib.sha256()
    for layer in bb.layers:
        h.update(struct.pack("<II", layer.c_out, layer.c_in))
        h.update(layer.weight.astype("<i1").tobytes())
        h.update(layer.bias.astype("<i4").tobytes())
        h.update(struct.pack("<ff", layer.weight_scale, layer.out_scale))
    return h.hexdigest()


def write_backbone(bb: FrozenBackbone, path) -> None:
    """Flat binary container, little-endian throughout."""
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<I", len(bb.layers)))
        for layer in bb.layers:
            fh.write(struct.pack("<II", layer.c_out, layer.c_in))
            fh.write(layer.weight.astype("<i1").tobytes())
            fh.write(layer.bias.astype("<i4").tobytes())
            fh.write(struct.pack("<ff", layer.weight_scale, layer.out_scale))


def read_backbone(path) -> FrozenBackbone:
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != _MAGIC:
        raise NumericError(f"bad backbone container magic: {blob[:4]!r}")
    off = 4

    def take(n: int) -> bytes:
        nonlocal off
        if off + n > len(blob):
            raise NumericError(
                f"backbone container truncated: needs {off + n} bytes, holds {len(blob)}"
            )
        off += n
        return blob[off - n : off]

    (count,) = struct.unpack("<I", take(4))
    layers = []
    for _ in range(count):
        c_out, c_in = struct.unpack("<II", take(8))
        w = np.frombuffer(take(c_out * c_in), dtype="<i1")
        b = np.frombuffer(take(4 * c_out), dtype="<i4")
        w_scale, out_scale = struct.unpack("<ff", take(8))
        layers.append(
            QuantLayer(
                weight=w.reshape(c_out, c_in).astype(np.int8),
                bias=b.astype(np.int32),
                weight_scale=w_scale,
                out_scale=out_scale,
            )
        )
    if off != len(blob):
        raise NumericError(f"backbone container has {len(blob) - off} trailing bytes")
    return FrozenBackbone(layers)
