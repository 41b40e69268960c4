"""Affine int8 quantization and the frozen integer backbone."""

import re
import tracemalloc
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from fedswarm import (
    DimensionError,
    FrozenBackbone,
    LabeledDataset,
    NumericError,
    QuantLayer,
    QuantParams,
    QuantTensor,
    backbone_forward,
    build_backbone,
    dequantize,
    precompute_features,
    quantize,
)
from fedswarm import quant


def _q(values, scale, zp=0, shape=None):
    arr = np.asarray(values, dtype=np.float32)
    return quantize(arr.reshape(shape or arr.shape), QuantParams(scale, zp))


# -- quantize / dequantize ----------------------------------------------------


def test_quantize_basic():
    assert _q([0.3], 0.1).data[0] == 3


def test_quantize_saturates_at_int8_limits():
    q = _q([100.0, -100.0], 0.1)
    assert q.data[0] == 127
    assert q.data[1] == -128


def test_quantize_rounds_half_to_even():
    q = _q([0.5, 1.5, 2.5, -0.5, -1.5], 1.0)
    assert list(q.data) == [0, 2, 2, 0, -2]


def test_quantize_rejects_non_finite():
    with pytest.raises(NumericError):
        _q([np.inf], 0.1)
    with pytest.raises(NumericError):
        _q([np.nan], 0.1)


def test_quant_params_validation():
    with pytest.raises(NumericError):
        QuantParams(0.0)
    with pytest.raises(NumericError):
        QuantParams(-0.1)
    with pytest.raises(NumericError):
        QuantParams(0.1, 200)


def _quant_params(scale, zero_point=0) -> tuple:
    qp = QuantParams(scale, zero_point)
    return qp.scale, qp.zero_point


def _layer_scales(weight_scale, out_scale) -> tuple:
    layer = QuantLayer(np.zeros((1, 1), np.int8), np.zeros(1, np.int32), weight_scale, out_scale)
    return layer.weight_scale, layer.out_scale


@pytest.mark.parametrize("build, args, expected", [
    (_quant_params, (0.05, 1.5), NumericError),
    (_quant_params, (0.05, True), NumericError),
    (_quant_params, (0.05, np.int64(128)), NumericError),
    (_quant_params, ("x",), NumericError),
    (_quant_params, (np.bool_(True),), NumericError),
    (_quant_params, (10**400,), NumericError),
    (_layer_scales, ("a", 1.0), NumericError),
    (_layer_scales, (1.0, np.float32("inf")), NumericError),
    # numpy numbers are stored as the Python numbers they equal
    (_quant_params, (np.float32(0.5), np.int8(-3)), (0.5, -3)),
    (_layer_scales, (np.float64(0.25), 2), (0.25, 2)),
])
def test_scales_and_zero_points_follow_the_two_rules(build, args, expected):
    # a scale is a finite real and a zero point a 64-bit integer, never a
    # bool: anything else is a NumericError, not a TypeError or a truncation
    if isinstance(expected, type):
        with pytest.raises(expected):
            build(*args)
    else:
        assert repr(build(*args)) == repr(expected)


def test_dequantize_values():
    assert dequantize(_q([0.0], 0.1))[0] == 0.0
    assert abs(dequantize(_q([0.3], 0.1))[0] - 0.3) < 1e-7
    q = QuantTensor(np.array([-128], np.int8), (1,), QuantParams(0.5, -28))
    assert dequantize(q)[0] == -50.0


def test_round_trip_error_within_half_scale():
    # 0.001-spaced sweep of the unsaturated range at scale 0.1
    x = (np.arange(-12700, 12701, dtype=np.int64) * 1e-3).astype(np.float32)
    back = dequantize(quantize(x, QuantParams(0.1, 0)))
    err = np.abs(back.astype(np.float64) - x.astype(np.float64))
    assert float(err.max()) <= 0.05 + 1e-6


def test_quant_tensor_shape_check_and_eq():
    with pytest.raises(DimensionError):
        QuantTensor(np.zeros(3, np.int8), (2, 2), QuantParams(0.1))
    a = QuantTensor(np.arange(4, dtype=np.int8), (2, 2), QuantParams(0.1))
    b = QuantTensor(np.arange(4, dtype=np.int8), (2, 2), QuantParams(0.1))
    assert a.shape == b.shape and a.qparams == b.qparams and np.array_equal(a.data, b.data)
    assert QuantTensor(np.arange(4, dtype=np.int8), (2, 2), QuantParams(0.2)).qparams != a.qparams


def test_quant_tensor_copies_unless_handed_a_frozen_owned_array():
    qp = QuantParams(0.1)
    writable = np.arange(6, dtype=np.int8)
    a = QuantTensor(writable, (1, 2, 3), qp)
    writable[0] = 9
    assert a.data[0] == 0 and not a.data.flags.writeable
    frozen = np.arange(6, dtype=np.int8)
    frozen.flags.writeable = False
    assert np.shares_memory(QuantTensor(frozen, (1, 2, 3), qp).data, frozen)
    assert not np.shares_memory(QuantTensor(frozen[::2], (3,), qp).data, frozen)
    empty = QuantTensor(np.zeros(0, np.int8), (0, 4, 2, 2), qp)  # a batch of no frames
    assert empty.array.shape == (0, 4, 2, 2)


@pytest.mark.parametrize("qparams", ["not qparams", None, (0.1, 0), 0.1])
def test_quant_tensor_refuses_qparams_that_are_not_quant_params(qparams):
    # a stored wrong kind would fail only later, in backbone_forward
    with pytest.raises(NumericError, match="QuantTensor qparams must be a QuantParams"):
        QuantTensor(np.zeros(4, np.int8), (1, 4, 1, 1), qparams)


@pytest.mark.parametrize("shape", [(4, -1, -9), (-1, -1), (3, 0), (0,),
                                   (0, 4, 0, 2), (-1, 4, 1, 1)])
def test_quant_tensor_rejects_non_positive_shape(shape):
    size = abs(int(np.prod(shape)))
    with pytest.raises(DimensionError, match="must be positive"):
        QuantTensor(np.zeros(size, np.int8), shape, QuantParams(0.1))


# -- backbone forward ---------------------------------------------------------


def _identity_backbone(channels: int, scale: float) -> FrozenBackbone:
    return FrozenBackbone(
        [
            QuantLayer(
                weight=(127 * np.eye(channels)).astype(np.int8),
                bias=np.zeros(channels, np.int32),
                weight_scale=1.0 / 127.0,
                out_scale=scale,
            )
        ]
    )


def test_identity_layer_matches_pooled_dequantize():
    rng = np.random.default_rng(0)
    x = _q(rng.uniform(0.0, 3.0, (3, 2, 2)).astype(np.float32), 0.05)
    bb = _identity_backbone(3, 0.05)
    feats = backbone_forward(bb, x)
    ref = dequantize(x).reshape(3, 4).mean(axis=1)
    assert np.allclose(feats, ref, atol=bb.layers[0].out_scale)


def test_zero_weights_give_zero_features():
    layer = QuantLayer(
        weight=np.zeros((4, 3), np.int8),
        bias=np.zeros(4, np.int32),
        weight_scale=0.01,
        out_scale=0.05,
    )
    x = _q(np.linspace(-1, 1, 12).astype(np.float32), 0.05, shape=(3, 2, 2))
    feats = backbone_forward(FrozenBackbone([layer]), x)
    assert np.array_equal(feats, np.zeros(4, np.float32))


def test_two_layer_backbone_close_to_float_reference():
    for seed in range(5):
        rng = np.random.default_rng(700 + seed)
        bb = build_backbone((3, 4, 5), rng, weight_sigma=0.25, activation_range=4.0)
        x = _q(rng.uniform(-0.5, 0.5, (3, 2, 2)).astype(np.float32), 0.05)
        feats = backbone_forward(bb, x).astype(np.float64)

        # float chain over dequantized weights, same clamps, no requantization
        act = dequantize(x).reshape(3, 4).astype(np.float64)
        for layer in bb.layers:
            w = layer.weight.astype(np.float64) * layer.weight_scale
            act = np.clip(w @ act, 0.0, 127 * layer.out_scale)
        ref = act.mean(axis=1)
        bound = 2.0 * sum(l.out_scale for l in bb.layers)
        assert float(np.abs(feats - ref).max()) <= bound


def test_backbone_forward_deterministic():
    rng = np.random.default_rng(5)
    bb = build_backbone((4, 8, 6), rng)
    x = _q(rng.standard_normal((4, 3, 3)).astype(np.float32), 0.05)
    a = backbone_forward(bb, x)
    b = backbone_forward(bb, x)
    assert np.array_equal(a, b)


def test_backbone_input_validation():
    bb = build_backbone((4, 6), np.random.default_rng(1))
    with pytest.raises(DimensionError):
        backbone_forward(bb, _q(np.zeros(4, np.float32), 0.1, shape=(4,)))
    with pytest.raises(DimensionError):
        backbone_forward(bb, _q(np.zeros(12, np.float32), 0.1, shape=(3, 2, 2)))
    with pytest.raises(DimensionError):
        backbone_forward(bb, QuantTensor(np.zeros(0, np.int8), (4, 0, 3), QuantParams(0.1)))
    with pytest.raises(DimensionError):  # a batch whose frames lack the backbone's channels
        backbone_forward(bb, QuantTensor(np.zeros(12, np.int8), (2, 3, 2, 1), QuantParams(0.1)))
    with pytest.raises(DimensionError):
        backbone_forward(bb, QuantTensor(np.zeros(8, np.int8), (1, 2, 4, 1, 1), QuantParams(0.1)))


def test_accumulator_overflow_detected():
    # 127 * 255 more than the bias can reach past int32: refused when built
    layer = QuantLayer(
        weight=np.array([[127]], np.int8),
        bias=np.array([2**31 - 1], np.int32),
        weight_scale=0.01,
        out_scale=1.0,
    )
    with pytest.raises(NumericError, match="backbone layer 0 can accumulate"):
        FrozenBackbone([layer])


def test_layer_chain_shape_check():
    l1 = QuantLayer(np.zeros((4, 3), np.int8), np.zeros(4, np.int32), 0.1, 0.1)
    l2 = QuantLayer(np.zeros((2, 5), np.int8), np.zeros(2, np.int32), 0.1, 0.1)
    with pytest.raises(DimensionError):
        FrozenBackbone([l1, l2])
    with pytest.raises(DimensionError):
        FrozenBackbone([])


# -- batched forward against a one-sample, one-channel reference ---------------


def _reference_features(bb: FrozenBackbone, x: QuantTensor) -> np.ndarray:
    """Integer chain one sample and one input channel at a time, every
    prefix sum checked; pooled by a left-to-right float32 loop."""
    c, h, w = x.shape
    acts = x.data.reshape(c, h * w).astype(np.int64) - int(x.qparams.zero_point)
    in_scale = float(x.qparams.scale)
    for li, layer in enumerate(bb.layers):
        acc = np.repeat(layer.bias.astype(np.int64)[:, None], h * w, axis=1)
        for ci in range(-1, layer.c_in):
            if ci >= 0:
                acc += layer.weight.astype(np.int64)[:, ci, None] * acts[ci]
            peak = int(np.abs(acc).max())
            if peak > 2**31 - 1:
                raise NumericError(
                    f"int32 accumulator overflow in layer {li}: |acc| reached {peak}"
                )
        mult = in_scale * layer.weight_scale / layer.out_scale
        acts = np.clip(np.rint(acc.astype(np.float64) * mult), 0, 127).astype(np.int64)
        in_scale = layer.out_scale
    vals = acts.astype(np.float32) * np.float32(bb.layers[-1].out_scale)
    out = np.zeros(bb.feature_dim, np.float32)
    for co in range(bb.feature_dim):
        total = np.float32(0.0)
        for v in vals[co]:
            total = np.float32(total + v)
        out[co] = total / np.float32(h * w)
    return out


def _frames(batch: QuantTensor) -> list:
    """The C x H x W frames of an N x C x H x W batch, one QuantTensor each."""
    return [QuantTensor(f, f.shape, batch.qparams) for f in batch.array]


@st.composite
def _backbone_and_batch(draw):
    dims = draw(st.lists(st.integers(1, 40), min_size=2, max_size=4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    layers = [
        QuantLayer(
            weight=rng.integers(-128, 128, (c_out, c_in)).astype(np.int8),
            bias=rng.integers(-3000, 3001, c_out).astype(np.int32),
            weight_scale=draw(st.floats(1e-4, 1e-2)),
            out_scale=draw(st.floats(1e-2, 1.0)),
        )
        for c_in, c_out in zip(dims, dims[1:])
    ]
    bb = FrozenBackbone(layers)
    shape = (draw(st.integers(0, 40)), dims[0], draw(st.integers(1, 12)), draw(st.integers(1, 12)))
    qp = QuantParams(draw(st.floats(1e-3, 1.0)), draw(st.integers(-128, 127)))
    batch = QuantTensor(rng.integers(-128, 128, int(np.prod(shape))).astype(np.int8), shape, qp)
    # a small block budget splits the batch into several blocks
    return bb, batch, draw(st.sampled_from([quant._BLOCK, 1, 200, 2000]))


def _empty_batch(channels: int) -> QuantTensor:
    return QuantTensor(np.zeros(0, np.int8), (0, channels, 2, 2), QuantParams(0.1))


@given(_backbone_and_batch())
@example((build_backbone((3, 5), np.random.default_rng(0)), _empty_batch(3), quant._BLOCK))
def test_batched_features_equal_per_sample_reference(case):
    bb, batch, block = case
    with mock.patch.object(quant, "_BLOCK", block):
        got = backbone_forward(bb, batch)
    assert got.dtype == np.float32 and got.shape == (batch.shape[0], bb.feature_dim)
    for row, x in zip(got, _frames(batch)):
        assert row.tobytes() == _reference_features(bb, x).tobytes()


@pytest.mark.parametrize("in_scale, weight_scale, out_scale, acc", [
    (0.3, 0.3, 0.1, 75),  # (0.3 * 0.3) / 0.1 * 75 is a tie at 67.5
    (0.01, 0.6, 0.1, 25),
    (0.09, 0.07, 0.03, 50),
])
def test_requantization_ties_follow_the_one_sample_multiplier(
    in_scale, weight_scale, out_scale, acc
):
    # regrouped or float32 multipliers miss these ties by one ulp
    layer = QuantLayer(np.ones((1, 1), np.int8), np.zeros(1, np.int32),
                       weight_scale, out_scale)
    bb = FrozenBackbone([layer])
    batch = QuantTensor(np.array([acc, acc + 1, acc], np.int8), (3, 1, 1, 1),
                        QuantParams(in_scale))
    got = backbone_forward(bb, batch)
    tie = np.float32(np.rint(in_scale * weight_scale / out_scale * acc))
    assert got[0, 0] == got[2, 0] == tie * np.float32(out_scale)
    for row, x in zip(got, _frames(batch)):
        assert row.tobytes() == _reference_features(bb, x).tobytes()


def test_batched_features_cross_block_boundaries():
    rng = np.random.default_rng(21)
    bb = build_backbone((4, 32, 48), rng)
    per_block = 2 * quant._BLOCK // ((48 + 32) * 16 * 16)
    shape = (3 * per_block + 1, 4, 16, 16)
    batch = quantize(rng.uniform(-4, 4, shape).astype(np.float32), QuantParams(0.05, -7))
    got = backbone_forward(bb, batch)
    for row, x in zip(got, _frames(batch)):
        assert row.tobytes() == _reference_features(bb, x).tobytes()
    assert np.array_equal(backbone_forward(bb, _frames(batch)[-1]), got[-1])


def test_one_feature_pools_in_index_order_not_pairwise():
    # one frame, feature_dim 1: the pooling fold is one column of 144
    # terms, where a 1-D reduce would sum pairwise
    rng = np.random.default_rng(0)
    layer = QuantLayer(rng.integers(-128, 128, (1, 3)).astype(np.int8), np.zeros(1, np.int32),
                       0.01, 0.0137)
    bb = FrozenBackbone([layer])
    x = QuantTensor(rng.integers(-128, 128, 3 * 12 * 12).astype(np.int8), (3, 12, 12),
                    QuantParams(0.05))
    acc = layer.weight.astype(np.int64) @ x.data.reshape(3, 144).astype(np.int64)
    q = np.clip(np.rint(acc[0] * (0.05 * 0.01 / 0.0137)), 0, 127)
    pairwise = np.sum(q.astype(np.float32) * np.float32(0.0137)) / np.float32(144)
    ref = _reference_features(bb, x)
    assert pairwise != ref[0]
    assert backbone_forward(bb, x).tobytes() == ref.tobytes()
    batch = QuantTensor(x.data, (1,) + x.shape, x.qparams)
    assert backbone_forward(bb, batch).tobytes() == ref.tobytes()


def test_batched_forward_memory_stays_per_block():
    # one workspace per call: its buffers are sized by quant._BLOCK, not the batch
    rng = np.random.default_rng(4)
    bb = build_backbone((4, 32, 48), rng)
    batch = QuantTensor(rng.integers(-128, 128, 1000 * 4 * 16 * 16).astype(np.int8),
                        (1000, 4, 16, 16), QuantParams(0.05, -7))
    tracemalloc.start()
    try:
        backbone_forward(bb, batch)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1 << 20


def test_empty_batch_gives_no_features():
    bb = build_backbone((4, 6, 5), np.random.default_rng(3))
    out = backbone_forward(bb, _empty_batch(4))
    assert out.shape == (0, 5) and out.dtype == np.float32
    ds = LabeledDataset([], [], _empty_batch(4), "train")
    feats = precompute_features(bb, ds)
    assert feats.shape == (0, 5) and feats.dtype == np.float32


def _overflow_layers(bias0: int = 2**31 - 1 - 127 * 50) -> list:
    # layer 0 doubles channel 0 and, at the default bias0, overflows
    # channel 1 when x - zp > 50; layer 1 overflows when channel 0
    # arrives above 60
    l0 = QuantLayer(
        weight=np.array([[2], [127]], np.int8),
        bias=np.array([0, bias0], np.int32),
        weight_scale=1.0,
        out_scale=1.0,
    )
    l1 = QuantLayer(
        weight=np.array([[127, 0]], np.int8),
        bias=np.array([2**31 - 1 - 127 * 60], np.int32),
        weight_scale=2.0**-25,
        out_scale=1.0,
    )
    return [l0, l1]


@pytest.mark.parametrize("bias0, layer", [(2**31 - 1 - 127 * 50, 0), (0, 1)],
                         ids=["layer0", "layer1"])
def test_overflowing_chain_is_refused_naming_its_layer(bias0, layer):
    # refused whatever the inputs would be: a chain that overflows only on
    # some frames, or on none of those it is given, is refused too
    with pytest.raises(NumericError, match=f"^backbone layer {layer} can accumulate"):
        FrozenBackbone(_overflow_layers(bias0))


def _scalar_batch(values, zp: int = 3) -> QuantTensor:
    data = np.array(values, np.int64) + zp
    return QuantTensor(data.astype(np.int8), (len(data), 1, 1, 1), QuantParams(1.0, zp))


@pytest.mark.parametrize("order", [
    (10, 10, 10, 40, 10, 55),  # first fault: frame 3 in layer 1
    (10, 10, 55, 10, 40),  # first fault: frame 2 in layer 0
    (40, 55),
    (55,),
])
def test_overflow_mid_batch_raises_the_reference_error(order):
    # the per-frame reference overflows part way through each batch; the
    # chain is refused with the same error type before any frame runs, at a
    # layer no later than the reference's first fault
    layers = _overflow_layers()
    chain = SimpleNamespace(layers=layers, feature_dim=layers[-1].c_out)
    with pytest.raises(NumericError, match="^int32 accumulator overflow in layer") as ref:
        for x in _frames(_scalar_batch(order)):
            _reference_features(chain, x)
    with pytest.raises(NumericError, match="^backbone layer") as err:
        FrozenBackbone(layers)
    first_fault = int(re.search(r"in layer (\d+)", str(ref.value)).group(1))
    assert int(re.search(r"^backbone layer (\d+) can accumulate", str(err.value)).group(1)) <= first_fault


def _bound_chain(layer: int, extra: int) -> list:
    """A chain whose layer ``layer`` has a worst case of INT32_MAX + ``extra``
    from a -128 weight: at peak 255 in layer 0 with a positive bias, at
    peak 127 (layer 0 saturates at 127) in layer 1 with a negative one."""
    if layer == 0:
        return [QuantLayer(np.array([[-128]], np.int8),
                           np.array([2**31 - 1 - 128 * 255 + extra], np.int32), 1.0, 1.0)]
    saturate = QuantLayer(np.array([[127]], np.int8), np.zeros(1, np.int32), 1.0, 1.0)
    return [saturate, QuantLayer(np.array([[-128]], np.int8),
                                 np.array([-(2**31 - 1 - 128 * 127 + extra)], np.int32), 1.0, 1.0)]


@pytest.mark.parametrize("layer", [0, 1], ids=["layer0", "layer1"])
def test_int32_bound_is_accepted_and_one_past_it_refused(layer):
    bb = FrozenBackbone(_bound_chain(layer, 0))
    # frames at the worst case: q = -128 under zp = 127 takes layer 0's
    # prefix sum to INT32_MAX; any q above zp = -128 saturates layer 0, which
    # takes layer 1's to -INT32_MAX; the batched pass stays exact
    for zp in (127, -128):
        batch = QuantTensor(np.array([-128, 0, 127], np.int8), (3, 1, 1, 1), QuantParams(1.0, zp))
        got = backbone_forward(bb, batch)
        for row, x in zip(got, _frames(batch)):
            assert row.tobytes() == _reference_features(bb, x).tobytes()
    with pytest.raises(NumericError, match=f"^backbone layer {layer} can accumulate "
                                           r"\|acc\| = 2147483648, which exceeds"):
        FrozenBackbone(_bound_chain(layer, 1))


# -- frozenness ---------------------------------------------------------------


def test_layer_parameters_not_writable():
    bb = build_backbone((3, 5), np.random.default_rng(2))
    with pytest.raises(ValueError):
        bb.layers[0].weight[0, 0] = 1
    with pytest.raises(ValueError):
        bb.layers[0].bias[0] = 1


def _layer_copies(bb: FrozenBackbone) -> list:
    return [(l.weight.copy(), l.bias.copy(), l.weight_scale, l.out_scale) for l in bb.layers]


def _same_layers(bb: FrozenBackbone, copies) -> bool:
    """Each layer's weight, bias and both scales equal the copies taken
    by ``_layer_copies``."""
    return len(bb.layers) == len(copies) and all(
        np.array_equal(l.weight, w) and np.array_equal(l.bias, b)
        and l.weight_scale == w_scale and l.out_scale == out_scale
        for l, (w, b, w_scale, out_scale) in zip(bb.layers, copies)
    )


def test_parameters_stable_across_forwards():
    rng = np.random.default_rng(8)
    bb = build_backbone((3, 6, 4), rng)
    before = _layer_copies(bb)
    for _ in range(5):
        backbone_forward(bb, _q(rng.standard_normal((3, 2, 2)).astype(np.float32), 0.05))
    assert _same_layers(bb, before)
