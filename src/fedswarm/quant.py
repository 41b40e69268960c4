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
partial sum leaves the exactly representable range. ``FrozenBackbone``
refuses a chain whose worst-case prefix sum can pass INT32_MAX on any
input, so every GEMM equals the channel-by-channel int32 accumulation
bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy._core.umath import clip as _clip  # np.clip without its Python wrapper

from .errors import DimensionError, NumericError, _int_array, _is_finite, _is_int, check_fields
from .tensor import Fold

__all__ = [
    "QuantParams",
    "QuantTensor",
    "QuantLayer",
    "FrozenBackbone",
    "quantize",
    "dequantize",
    "backbone_forward",
    "build_backbone",
]

INT8_MIN, INT8_MAX = -128, 127
_INT32_MAX = 2**31 - 1
# half the float64 elements of the batched backbone pass's two GEMM buffers
_BLOCK = 1 << 15


@dataclass(frozen=True)
class QuantParams:
    """Affine mapping real x ~= scale * (q - zero_point)."""

    scale: float
    zero_point: int = 0

    def __post_init__(self):
        check_fields(self, NumericError)
        if not self.scale > 0:
            raise NumericError(f"scale must be positive, got {self.scale}")
        if not INT8_MIN <= self.zero_point <= INT8_MAX:
            raise NumericError(f"zero_point out of int8 range: {self.zero_point}")


class QuantTensor:
    """Immutable int8 array with its quantization parameters.

    ``array`` is int8 as ``errors._int_array`` holds it (else a
    NumericError): read-only, a frozen buffer the caller filled shared,
    not copied again. ``shape`` is its shape. A 4-D tensor is a batch of
    N x C x H x W frames, and may hold none; a frame with a zero-size dim
    is a DimensionError. ``qparams`` is a ``QuantParams``, else a
    NumericError.
    """

    __slots__ = ("array", "qparams")

    def __init__(self, array, qparams: QuantParams):
        if not isinstance(qparams, QuantParams):
            raise NumericError(f"QuantTensor qparams must be a QuantParams, got {qparams!r}")
        a = _int_array(array, np.int8, "QuantTensor data", NumericError)
        if 0 in (a.shape[1:] if a.ndim == 4 else a.shape):  # a batch may hold no frames
            raise DimensionError(f"frame dims must be positive, got {a.shape}")
        self.array = a
        self.qparams = qparams

    shape = property(lambda t: t.array.shape)


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
    return QuantTensor(q.astype(np.int8), qp)


def dequantize(q: QuantTensor) -> np.ndarray:
    """x = scale * (q - zero_point), as a float32 array of ``q``'s shape."""
    diff = q.array.astype(np.int32) - q.qparams.zero_point
    return diff.astype(np.float32) * np.float32(q.qparams.scale)


@dataclass(frozen=True)
class QuantLayer:
    """One quantized pointwise-conv layer; output zero point is fixed at 0.

    Post-relu activations are nonnegative, so a symmetric output grid
    loses nothing: a layer's output needs a scale and no zero point.
    Weights are int8 and biases int32 as ``errors._int_array`` gives
    them: read-only, and a value that does not fit is a NumericError.
    """

    weight: np.ndarray  # int8, (c_out, c_in)
    bias: np.ndarray  # int32, (c_out,)
    weight_scale: float
    out_scale: float

    def __post_init__(self):
        w = _int_array(self.weight, np.int8, "layer weights", NumericError)
        b = _int_array(self.bias, np.int32, "layer bias", NumericError)
        if w.ndim != 2:
            raise DimensionError(f"layer weights must be 2-D, got {w.shape}")
        if b.shape != (w.shape[0],):
            raise DimensionError(f"bias {b.shape} does not match weights {w.shape}")
        object.__setattr__(self, "weight", w)
        object.__setattr__(self, "bias", b)
        for name in ("weight_scale", "out_scale"):
            s = getattr(self, name)
            if not (_is_finite(s) and s > 0):
                raise NumericError(f"{name} must be positive and finite, got {s!r}")
        check_fields(self, NumericError)  # stores a numpy scale as the Python number

    @property
    def c_out(self) -> int:
        return self.weight.shape[0]

    @property
    def c_in(self) -> int:
        return self.weight.shape[1]


def _check_acc_bound(index: int, abs_bias, abs_weight_sum) -> None:
    """NumericError naming backbone layer ``index`` if a prefix sum of an
    output channel can pass INT32_MAX.

    The bound is ``max_co(|b_co| + sum_ci |w_co,ci| * peak)``, given as
    the per-channel ``|b_co|`` and ``sum_ci |w_co,ci|`` (Python ints),
    with ``peak`` the largest ``|input - zero_point|`` the layer reads:
    255 in layer 0, which any int8 zero point allows, and 127 (post-relu)
    after it.
    """
    peak = INT8_MAX - INT8_MIN if index == 0 else INT8_MAX
    bound = max((b + s * peak for b, s in zip(abs_bias, abs_weight_sum)), default=0)
    if bound > _INT32_MAX:
        raise NumericError(
            f"backbone layer {index} can accumulate |acc| = {bound}, which exceeds "
            f"the int32 maximum {_INT32_MAX}"
        )


class FrozenBackbone:
    """Immutable chain of QuantLayers ending in a global average pool.

    A chain is refused when a layer's int32 accumulator could overflow
    on some input (see ``_check_acc_bound``).
    """

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
        for li, layer in enumerate(layers):
            _check_acc_bound(li, np.abs(layer.bias.astype(np.int64)).tolist(),
                             np.abs(layer.weight.astype(np.int64)).sum(axis=1).tolist())
        self.layers = layers

    @property
    def feature_dim(self) -> int:
        return self.layers[-1].c_out

    @property
    def input_channels(self) -> int:
        return self.layers[0].c_in


def _block(layer_dims, hw: int) -> tuple:
    """(frames per block, GEMM buffer widths: input and layers 1, 3, ...; layers 0, 2, ...)."""
    widths = (max(layer_dims[0::2]), max(layer_dims[1::2]))
    return max(1, 2 * _BLOCK // (sum(widths) * hw)), widths


class _Space:
    """The constants and buffers of one ``backbone_forward`` call.

    Built once per call and sized for its largest block of ``rows``
    frames (the whole batch, when that is smaller): per layer the
    float64 weights as (c_in, c_out), the float64 bias (None when zero)
    and the requantization multiplier ``in_scale * weight_scale /
    out_scale``, formed in that order (a regrouped one misses ties by an
    ulp); two float64 GEMM buffers that the layers write in turn, each
    as wide as the widest layer it holds, ``2 * _BLOCK`` elements between
    them at most (``_block``); and the pooling ``Fold``. At the default
    (4, 32, 48) layers on 16x16 frames that is 3 frames per block, 61440
    float64 in the GEMM buffers and 257 * 3 * 48 float32 in the fold.
    Rows are pixel-major, row ``p * b + f`` holding pixel ``p`` of frame
    ``f``, so the last layer's output already is the (H*W, b *
    feature_dim) terms of the pooling fold. A shorter last block runs on
    prefix views of the same GEMM buffers and pools in a ``Fold`` of its
    own.
    """

    __slots__ = ("layers", "rows", "hw", "zp", "out_scale", "pixels", "bufs", "fold")

    def __init__(self, bb: FrozenBackbone, qp: QuantParams, n: int, hw: int):
        rows, widths = _block([bb.layers[0].c_in] + [layer.c_out for layer in bb.layers], hw)
        self.rows = min(n, rows)
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


def _backbone_bytes(layer_dims, hw: int) -> int:
    """Host bytes at most of building a backbone of ``layer_dims`` (64 a weight:
    int8, float64 copy, draws) and running it on ``hw``-pixel frames: a ``_Space``
    of the most frames a block holds, and numpy's casting buffers."""
    rows, widths = _block(layer_dims, hw)  # GEMM buffers, then two pooling folds
    block = 8 * rows * (hw * sum(widths) + (hw + 1) * layer_dims[-1]) + 32 * np.getbufsize()
    return 64 * sum(a * b for a, b in zip(layer_dims, layer_dims[1:])) + block


def backbone_forward(bb: FrozenBackbone, x: QuantTensor) -> np.ndarray:
    """Integer inference through the frozen chain; float features out.

    ``x`` is an N x C x H x W batch under its one quantization, else a
    DimensionError; a float32 ``(N, feature_dim)`` array comes back (an
    empty batch is not checked further).

    Per layer: int32 accumulation over input channels, requantization
    by a float multiply and round-half-even, relu as a clamp at the
    zero point. The last layer is dequantized and average-pooled with an
    ordered float32 sum.

    Frames run in blocks (``_block``) in one ``_Space`` allocated for
    the call: one float64 GEMM per layer over pixel-major rows, the last
    layer's output dequantized straight into the pooling fold.
    ``FrozenBackbone`` checked, when it was built, that no layer's bound
    ``max_co(|b_co| + sum_ci |w_co,ci| * peak)`` passes INT32_MAX, with
    ``peak`` 255 in layer 0 and 127 (post-relu) after it. So no prefix
    sum can overflow and every partial sum is an
    integer below 2**31 < 2**53: the GEMM is exact in any summation
    order, and the features equal the channel-by-channel integer pass
    bit for bit.
    """
    if len(x.shape) != 4:
        raise DimensionError(f"backbone input must be an N x C x H x W batch, got {x.shape}")
    n, c, h, w = x.shape
    if n and c != bb.input_channels:
        raise DimensionError(f"input channels {c} do not match first layer {bb.input_channels}")
    out = np.empty((n, bb.feature_dim), np.float32)
    if n:
        # a scale past float32's range, or a multiplier past float64's,
        # gives inf or NaN features, which the head's finiteness checks refuse
        with np.errstate(over="ignore", invalid="ignore"):
            space = _Space(bb, x.qparams, n, h * w)
            for lo in range(0, n, space.rows):
                space.run(x.array[lo:lo + space.rows], out[lo:lo + space.rows])
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
    dims = list(layer_dims)
    if len(dims) < 2 or not all(_is_int(d) and d >= 1 for d in dims):
        raise DimensionError(f"layer dims {dims!r} must be at least two 64-bit integers >= 1")
    dims = list(map(int, dims))
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
