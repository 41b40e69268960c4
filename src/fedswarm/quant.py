"""Per-tensor affine int8 quantization and frozen-backbone inference.

The backbone is a chain of quantized pointwise-conv layers (int8
weights, int32 biases) with relu after each layer, ending in a global
average pool that yields a float feature vector. It stands in for a
pretrained integerized feature extractor: its structure is
configurable and its parameters never change after construction.

``backbone_forward`` runs a batch of frames (one N x C x H x W
``QuantTensor`` under one quantization) in fixed-size blocks of
frames, in one workspace (``_Space``) allocated per call: its rows are
pixel-major, each layer is one float64 GEMM into a preallocated
buffer, and the last layer is dequantized straight into the buffer of
the pooling fold. Integer sums are exact in any order as long as no
partial sum leaves the exactly representable range, so a per-frame
bound (every |prefix sum| <= INT32_MAX) proves the GEMM equals the
channel-by-channel int32 accumulation bit for bit. A block with a
frame whose bound fails takes that exact pass frame by frame instead,
so an accumulator overflow raises the same error for the same frame.
"""

from __future__ import annotations

import hashlib
import math
import struct
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, NumericError
from .tensor import Fold, _scan

try:
    from numpy._core.umath import clip as _clip  # np.clip without its Python wrapper
except ImportError:  # numpy < 2
    from numpy.core.umath import clip as _clip

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
# half the float64 elements of the batched backbone pass's two GEMM buffers
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
    """Immutable int8 payload with shape and quantization parameters.

    A 4-D tensor is a batch of N x C x H x W frames, and may hold none.
    The payload is a read-only copy of ``data``, except that a read-only
    C-ordered int8 array owning its memory is shared as it is: a caller
    that froze a buffer it filled hands it over without a second copy.
    """

    __slots__ = ("shape", "data", "qparams")

    def __init__(self, data, shape, qparams: QuantParams):
        shape = tuple(int(s) for s in shape)
        frame = shape[1:] if len(shape) == 4 else shape  # a batch may hold no frames
        if any(s < 0 for s in shape) or any(s < 1 for s in frame):
            raise DimensionError(f"shape entries must be positive, got {shape}")
        flat = np.asarray(data, dtype=np.int8)
        if flat.flags.writeable or not (flat.flags.owndata and flat.flags.c_contiguous):
            flat = flat.copy()
            flat.flags.writeable = False
        expected = math.prod(shape)
        if flat.size != expected:
            raise DimensionError(f"shape {shape} expects {expected} elements, got {flat.size}")
        self.shape = shape
        self.data = flat.reshape(-1)
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

    def __repr__(self):
        return f"QuantTensor(shape={self.shape}, qparams={self.qparams})"


def quantize(x: np.ndarray, qp: QuantParams) -> QuantTensor:
    """q = clamp(round_half_even(x / scale) + zero_point, -128, 127) of
    ``x`` cast to float32."""
    # values past float32's range cast to inf and are refused; a
    # quotient past float64's is inf too, and saturates
    with np.errstate(over="ignore"):
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


def _forward_checked(bb: FrozenBackbone, frame: np.ndarray, qp: QuantParams) -> np.ndarray:
    """One C x H x W frame, accumulated channel by channel, every prefix checked.

    The exact fallback of the batched pass: the first prefix sum that
    leaves the int32 range raises, naming its layer and magnitude.
    """
    c, h, w = frame.shape
    acts = frame.reshape(c, h * w).astype(np.int64)
    in_scale = float(qp.scale)
    in_zp = int(qp.zero_point)
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


def _acc_bound(layer: QuantLayer, peak):
    """Largest |prefix sum| a channel can reach with inputs in [-peak, peak],
    one bound per entry of an integer array ``peak``."""
    absw = np.abs(layer.weight.astype(np.int64)).sum(axis=1)
    return (np.abs(layer.bias.astype(np.int64)) + absw * np.asarray(peak)[..., None]).max(axis=-1)


class _Space:
    """The constants and buffers of one ``backbone_forward`` call.

    Built once per call and sized for its largest block of ``rows``
    frames (the whole batch, when that is smaller): per layer the
    float64 weights as (c_in, c_out), the float64 bias (None when zero)
    and the requantization multiplier, formed exactly as the one-frame
    pass does; two float64 GEMM buffers that the layers write in turn,
    each as wide as the widest layer it holds, ``2 * _BLOCK`` elements
    between them at most; and the pooling ``Fold``. At the
    default (4, 32, 48) layers on 16x16 frames that is 3 frames per
    block, 61440 float64 in the GEMM buffers and 257 * 3 * 48 float32 in
    the fold, about 0.14 MB more than buffers both as wide as the
    widest layer, which fit 2 frames. Rows are
    pixel-major, row ``p * b + f`` holding pixel ``p`` of frame ``f``, so the last layer's
    output already is the (H*W, b * feature_dim) terms of the pooling
    fold. A shorter last block runs on prefix views of the same GEMM
    buffers and pools in a ``Fold`` of its own.
    """

    __slots__ = ("layers", "rows", "hw", "zp", "out_scale", "pixels", "bufs", "fold")

    def __init__(self, bb: FrozenBackbone, qp: QuantParams, n: int, hw: int):
        # buffer 0 holds the input and the outputs of layers 1, 3, ...,
        # buffer 1 those of layers 0, 2, ...
        held = [bb.layers[0].c_in] + [layer.c_out for layer in bb.layers]
        widths = (max(held[0::2]), max(held[1::2]))
        self.rows = min(n, max(1, 2 * _BLOCK // (sum(widths) * hw)))
        self.hw = hw
        self.zp = qp.zero_point
        in_scales = [float(qp.scale)] + [layer.out_scale for layer in bb.layers[:-1]]
        self.layers = tuple(
            (layer.weight.T.astype(np.float64),
             layer.bias.astype(np.float64) if layer.bias.any() else None,
             in_scale * layer.weight_scale / layer.out_scale)
            for layer, in_scale in zip(bb.layers, in_scales)
        )
        self.out_scale = np.float32(bb.layers[-1].out_scale)
        self.pixels = np.float32(hw)
        self.bufs = tuple(np.empty(self.rows * hw * width) for width in widths)
        self.fold = Fold((hw, self.rows, bb.feature_dim))

    def run(self, q: np.ndarray, out: np.ndarray) -> None:
        """Write the (b, feature_dim) features of a (b, C, H, W) block into ``out``."""
        b, c = q.shape[:2]
        m, fd = b * self.hw, out.shape[1]  # GEMM rows, features
        fold = self.fold if b == self.rows else Fold((self.hw, b, fd))
        src, dst = self.bufs
        np.subtract(q.reshape(b, c, self.hw).transpose(2, 0, 1), self.zp,
                    out=src[: m * c].reshape(self.hw, b, c), dtype=np.float64)
        for wt, bias, mult in self.layers:
            c_in, c_out = wt.shape
            acc = dst[: m * c_out].reshape(m, c_out)
            np.matmul(src[: m * c_in].reshape(m, c_in), wt, out=acc)
            if bias is not None:
                np.add(acc, bias, out=acc)
            np.multiply(acc, mult, out=acc)
            np.rint(acc, out=acc)
            _clip(acc, 0.0, 127.0, out=acc)
            src, dst = dst, src
        # dequantize into the fold's terms (q <= 127 times a float32 scale is exact
        # in float64, so its one rounding to float32 is the float32 product),
        # then pool over H*W in index order
        np.multiply(acc, self.out_scale, out=fold.terms.reshape(m, fd))
        fold.run()
        np.divide(fold.total, self.pixels, out=out)


def backbone_forward(bb: FrozenBackbone, x: QuantTensor) -> np.ndarray:
    """Integer inference through the frozen chain; float features out.

    ``x`` is one C x H x W frame (a float32 ``(feature_dim,)`` array
    comes back) or an N x C x H x W batch under its one quantization (a
    float32 ``(N, feature_dim)`` array comes back; an empty batch is
    not checked further).

    Per layer: int32-range accumulation over input channels (overflow
    detected, never wrapped), requantization by a float multiply and
    round-half-even, relu as a clamp at the zero point. The last layer
    is dequantized and average-pooled with an ordered float32 sum.

    Frames run in blocks, sized so that the two GEMM buffers the layers
    write in turn hold at most ``2 * _BLOCK`` elements between them (each
    as wide as the widest layer it holds: 3 frames per block, about
    0.6 MB with the fold's buffer, at the default backbone on 16x16
    frames), in one ``_Space`` allocated for the call: one float64 GEMM per layer
    over pixel-major rows, the last layer's output dequantized straight
    into the pooling fold. A frame's bound ``max_co(|b_co| + sum_ci |w_co,ci| * peak)``
    is checked against INT32_MAX for every layer, with ``peak`` the
    frame's largest ``|q - zero_point|`` in layer 0 and 127 (post-relu)
    after it. When it holds for every frame of a block, no prefix sum
    can overflow and every partial sum is an integer below
    2**31 < 2**53, so the GEMM is exact in any summation order and the
    features equal the channel-by-channel integer pass bit for bit.
    When it fails, the block's frames take that exact pass one by one,
    checking every prefix sum, so an overflow raises the same
    ``NumericError`` for the same first frame.
    """
    if len(x.shape) not in (3, 4):
        raise DimensionError(f"backbone input must be C x H x W or N x C x H x W, got {x.shape}")
    frames = x.data.reshape((-1,) + x.shape[-3:])
    n, c, h, w = frames.shape
    if n and c != bb.input_channels:
        raise DimensionError(f"input channels {c} do not match first layer {bb.input_channels}")
    out = np.empty((n, bb.feature_dim), np.float32)
    if n:
        # later layers read post-relu activations in [0, 127]
        later_bound = max((int(_acc_bound(layer, INT8_MAX)) for layer in bb.layers[1:]), default=0)
        # each frame's peak |q - zero_point| from int8 reductions, and whether it fits
        flat, zp = frames.reshape(n, -1), x.qparams.zero_point
        peaks = np.maximum(flat.max(axis=1).astype(np.int16) - zp,
                           zp - flat.min(axis=1).astype(np.int16))
        fits = _acc_bound(bb.layers[0], np.arange(256)) <= _INT32_MAX
        exact = fits[peaks] & (later_bound <= _INT32_MAX)
        # a scale past float32's range, or a multiplier past float64's,
        # gives inf or NaN features, which the head's finiteness checks refuse
        with np.errstate(over="ignore", invalid="ignore"):
            space = _Space(bb, x.qparams, n, h * w)
            for lo in range(0, n, space.rows):
                hi = min(n, lo + space.rows)
                if exact[lo:hi].all():
                    space.run(frames[lo:hi], out[lo:hi])
                else:
                    out[lo:hi] = [_forward_checked(bb, frame, x.qparams)
                                  for frame in frames[lo:hi]]
    return out if len(x.shape) == 4 else out[0]


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
        # weights past float64's range give an inf scale, which QuantLayer refuses
        with np.errstate(over="ignore", invalid="ignore"):
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
