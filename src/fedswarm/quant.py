"""Per-tensor affine int8 quantization and frozen-backbone inference.

The backbone is a chain of quantized pointwise-conv layers (int8
weights, int32 biases) with relu after each layer, ending in a global
average pool that yields a float feature vector. It stands in for a
pretrained integerized feature extractor: its structure is
configurable and its parameters never change after construction.

``backbone_forward`` runs a dataset in blocks of same-shape samples,
one float64 GEMM per layer. Integer sums are exact in any order as
long as no partial sum leaves the exactly representable range, so a
per-block bound (every |prefix sum| <= INT32_MAX) proves the GEMM
equals the channel-by-channel int32 accumulation bit for bit. A block
whose bound fails takes that exact pass sample by sample instead, so
an accumulator overflow raises the same error for the same sample.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, NumericError
from .tensor import _scan

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
# float64 elements per layer temporary in the batched backbone pass
_BLOCK = 1 << 15

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
        if any(s < 1 for s in shape):
            raise DimensionError(f"shape entries must be positive, got {shape}")
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


def quantize(x: np.ndarray, qp: QuantParams) -> QuantTensor:
    """q = clamp(round_half_even(x / scale) + zero_point, -128, 127) of
    ``x`` cast to float32."""
    vals = np.asarray(x, np.float32)
    if not np.all(np.isfinite(vals)):
        raise NumericError("cannot quantize non-finite values")
    # rounding computed in double precision to keep huge quotients exact
    q = np.rint(vals.astype(np.float64) / float(qp.scale)) + qp.zero_point
    q = np.clip(q, INT8_MIN, INT8_MAX)
    return QuantTensor(q.astype(np.int8), vals.shape, qp)


def dequantize(q: QuantTensor) -> np.ndarray:
    """x = scale * (q - zero_point), as a float32 array of ``q``'s shape."""
    diff = q.array.astype(np.int32) - q.qparams.zero_point
    return diff.astype(np.float32) * np.float32(q.qparams.scale)


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


def _check_input(bb: FrozenBackbone, x: QuantTensor) -> None:
    if len(x.shape) != 3:
        raise DimensionError(f"backbone input must be C x H x W, got {x.shape}")
    if x.shape[0] != bb.input_channels:
        raise DimensionError(
            f"input channels {x.shape[0]} do not match first layer {bb.input_channels}"
        )


def _forward_checked(bb: FrozenBackbone, x: QuantTensor) -> np.ndarray:
    """One sample, accumulated channel by channel, every prefix checked.

    The exact fallback of the batched pass: the first prefix sum that
    leaves the int32 range raises, naming its layer and magnitude.
    """
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
    return _scan(feats.T) / np.float32(h * w)


def _acc_bound(layer: QuantLayer, peak: int) -> int:
    """Largest |prefix sum| a channel can reach with inputs in [-peak, peak]."""
    absw = np.abs(layer.weight.astype(np.int64)).sum(axis=1)
    return int((np.abs(layer.bias.astype(np.int64)) + absw * peak).max())


def _blocks(bb: FrozenBackbone, xs):
    """Consecutive runs of same-shape samples, sized so that no layer's
    (channels, samples * H * W) temporary exceeds ``_BLOCK`` elements.

    A sample's input checks run only once every earlier block is done,
    so errors surface in the order a one-by-one pass would raise them.
    """
    width = max(max(layer.c_in, layer.c_out) for layer in bb.layers)
    i = 0
    while i < len(xs):
        _check_input(bb, xs[i])
        shape = xs[i].shape
        step = max(1, _BLOCK // (width * shape[1] * shape[2]))
        j = i + 1
        while j < len(xs) and j - i < step and xs[j].shape == shape:
            j += 1
        yield xs[i:j]
        i = j


def _forward_block(bb: FrozenBackbone, block, later_bound: int) -> np.ndarray:
    """(B, feature_dim) features of same-shape samples, one GEMM per layer."""
    c, h, w = block[0].shape
    n = len(block) * h * w
    q = np.stack([x.data for x in block]).reshape(len(block), c, h * w)
    zp = np.array([x.qparams.zero_point for x in block], np.float64)
    # (channels, samples, H*W): every layer is one 2-D product over channels
    acts = q.transpose(1, 0, 2).astype(np.float64, order="C")
    acts -= zp[None, :, None]
    first = bb.layers[0]
    peak = int(np.abs(acts).max(initial=0))
    if max(_acc_bound(first, peak), later_bound) > _INT32_MAX:
        return np.stack([_forward_checked(bb, x) for x in block])
    # per-sample requantization multipliers, formed exactly as one by one
    mult = np.array(
        [float(x.qparams.scale) * first.weight_scale / first.out_scale for x in block],
        np.float64,
    )[:, None]
    for li, layer in enumerate(bb.layers):
        if li:
            mult = bb.layers[li - 1].out_scale * layer.weight_scale / layer.out_scale
        acc = np.matmul(layer.weight.astype(np.float64), acts.reshape(layer.c_in, n))
        acc += layer.bias.astype(np.float64)[:, None]
        acc = acc.reshape(layer.c_out, len(block), h * w)
        acc *= mult
        np.rint(acc, out=acc)
        np.clip(acc, 0, INT8_MAX, out=acc)
        acts = acc
    feats = acts.astype(np.float32) * np.float32(bb.layers[-1].out_scale)
    # pool over H*W in index order, as the one-sample column sum does
    return _scan(feats.transpose(2, 1, 0)) / np.float32(h * w)


def backbone_forward(bb: FrozenBackbone, x):
    """Integer inference through the frozen chain; float features out.

    ``x`` is one C x H x W ``QuantTensor`` (a float32 ``(feature_dim,)``
    array comes back) or a sequence of them (a float32
    ``(len(x), feature_dim)`` array comes back). Samples may differ in
    shape and quantization parameters.

    Per layer: int32-range accumulation over input channels (overflow
    detected, never wrapped), requantization by a float multiply and
    round-half-even, relu as a clamp at the zero point. The last layer
    is dequantized and average-pooled with an ordered float32 sum.

    Consecutive same-shape samples run in blocks, one float64 GEMM per
    layer. Before a block runs, the bound
    ``max_co(|b_co| + sum_ci |w_co,ci| * peak)`` is checked against
    INT32_MAX for every layer, with ``peak`` the block's largest
    ``|q - zero_point|`` in layer 0 and 127 (post-relu) after it. When
    it holds, no prefix sum can overflow and every partial sum is an
    integer below 2**31 < 2**53, so the GEMM is exact in any summation
    order and the features equal the channel-by-channel integer pass
    bit for bit. When it fails, the block's samples take that exact
    pass one by one, checking every prefix sum, so an overflow raises
    the same ``NumericError`` for the same first sample.
    """
    if isinstance(x, QuantTensor):
        return backbone_forward(bb, [x])[0]
    xs = list(x)
    # later layers read post-relu activations in [0, 127]
    later_bound = max((_acc_bound(layer, INT8_MAX) for layer in bb.layers[1:]), default=0)
    out = np.empty((len(xs), bb.feature_dim), np.float32)
    i = 0
    for block in _blocks(bb, xs):
        out[i : i + len(block)] = _forward_block(bb, block, later_bound)
        i += len(block)
    return out


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
