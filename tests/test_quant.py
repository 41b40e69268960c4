"""Affine int8 quantization and the frozen integer backbone."""

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
    backbone_digest,
    backbone_forward,
    build_backbone,
    dequantize,
    precompute_features,
    quantize,
    read_backbone,
    write_backbone,
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
    assert a == b
    assert a != QuantTensor(np.arange(4, dtype=np.int8), (2, 2), QuantParams(0.2))


@pytest.mark.parametrize("shape", [(4, -1, -9), (-1, -1), (3, 0), (0,)])
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


def test_accumulator_overflow_detected():
    layer = QuantLayer(
        weight=np.array([[127]], np.int8),
        bias=np.array([2**31 - 1], np.int32),
        weight_scale=0.01,
        out_scale=1.0,
    )
    x = QuantTensor(np.array([100], np.int8), (1, 1, 1), QuantParams(1.0, 0))
    with pytest.raises(NumericError):
        backbone_forward(FrozenBackbone([layer]), x)


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
    spatial = draw(st.lists(st.tuples(st.integers(1, 12), st.integers(1, 12)),
                            min_size=1, max_size=3))
    runs = draw(st.lists(st.tuples(st.integers(0, len(spatial) - 1), st.integers(1, 12)),
                         min_size=1, max_size=4))
    xs = []
    for which, count in runs:
        shape = (dims[0],) + spatial[which]
        for _ in range(count):
            qp = QuantParams(draw(st.floats(1e-3, 1.0)), draw(st.integers(-128, 127)))
            data = rng.integers(-128, 128, int(np.prod(shape))).astype(np.int8)
            xs.append(QuantTensor(data, shape, qp))
    # a small block budget makes runs split into several blocks
    return bb, xs, draw(st.sampled_from([quant._BLOCK, 1, 200, 2000]))


@given(_backbone_and_batch())
@example((build_backbone((3, 5), np.random.default_rng(0)), [], quant._BLOCK))
def test_batched_features_equal_per_sample_reference(case):
    bb, xs, block = case
    with mock.patch.object(quant, "_BLOCK", block):
        got = backbone_forward(bb, xs)
    assert got.dtype == np.float32 and got.shape == (len(xs), bb.feature_dim)
    for row, x in zip(got, xs):
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
    xs = [QuantTensor(np.array([v], np.int8), (1, 1, 1), QuantParams(sc))
          for v, sc in ((acc, in_scale), (acc, 0.5), (acc, in_scale))]
    got = backbone_forward(bb, xs)
    tie = np.float32(np.rint(in_scale * weight_scale / out_scale * acc))
    assert got[0, 0] == tie * np.float32(out_scale)
    for row, x in zip(got, xs):
        assert row.tobytes() == _reference_features(bb, x).tobytes()


def test_batched_features_cross_block_boundaries():
    rng = np.random.default_rng(21)
    bb = build_backbone((4, 32, 48), rng)
    shape = (4, 16, 16)
    per_block = quant._BLOCK // (48 * 16 * 16)
    xs = [
        quantize(rng.uniform(-4, 4, shape).astype(np.float32),
                 QuantParams(float(rng.uniform(0.02, 0.1)), int(rng.integers(-20, 20))))
        for _ in range(3 * per_block + 1)
    ]
    xs += [_q(rng.uniform(-2, 2, (4, 3, 5)).astype(np.float32), 0.05) for _ in range(5)]
    got = backbone_forward(bb, xs)
    for row, x in zip(got, xs):
        assert row.tobytes() == _reference_features(bb, x).tobytes()
    assert np.array_equal(backbone_forward(bb, xs[-1]), got[-1])


def test_empty_batch_gives_no_features():
    bb = build_backbone((4, 6, 5), np.random.default_rng(3))
    out = backbone_forward(bb, [])
    assert out.shape == (0, 5) and out.dtype == np.float32
    assert precompute_features(bb, LabeledDataset((), "train")) == {}


def _overflow_backbone() -> FrozenBackbone:
    # layer 0 doubles channel 0 and overflows channel 1 when x - zp > 50;
    # layer 1 overflows when channel 0 arrives above 60
    l0 = QuantLayer(
        weight=np.array([[2], [127]], np.int8),
        bias=np.array([0, 2**31 - 1 - 127 * 50], np.int32),
        weight_scale=1.0,
        out_scale=1.0,
    )
    l1 = QuantLayer(
        weight=np.array([[127, 0]], np.int8),
        bias=np.array([2**31 - 1 - 127 * 60], np.int32),
        weight_scale=2.0**-25,
        out_scale=1.0,
    )
    return FrozenBackbone([l0, l1])


def _scalar_sample(v: int, zp: int = 3) -> QuantTensor:
    return QuantTensor(np.array([v + zp], np.int8), (1, 1, 1), QuantParams(1.0, zp))


def _reference_error(bb, xs) -> str:
    with pytest.raises(NumericError) as err:
        for x in xs:
            _reference_features(bb, x)
    return str(err.value)


@pytest.mark.parametrize("order", [
    (10, 10, 10, 40, 10, 55),  # first fault: sample 3 in layer 1
    (10, 10, 55, 10, 40),  # first fault: sample 2 in layer 0
    (40, 55),
    (55,),
])
def test_overflow_mid_batch_raises_the_reference_error(order):
    bb = _overflow_backbone()
    xs = [_scalar_sample(v) for v in order]
    expected = _reference_error(bb, xs)
    with pytest.raises(NumericError) as err:
        backbone_forward(bb, xs)
    assert str(err.value) == expected


def test_loose_bound_without_overflow_stays_exact():
    # the static bound of layer 1 fails, yet no prefix sum overflows
    bb = _overflow_backbone()
    xs = [_scalar_sample(v, zp) for v in (0, 7, 30, -9) for zp in (-5, 3)]
    got = backbone_forward(bb, xs)
    for row, x in zip(got, xs):
        assert row.tobytes() == _reference_features(bb, x).tobytes()


def test_input_error_after_an_overflowing_sample_keeps_order():
    bb = _overflow_backbone()
    bad_shape = QuantTensor(np.zeros(2, np.int8), (2, 1, 1), QuantParams(1.0))
    with pytest.raises(NumericError):
        backbone_forward(bb, [_scalar_sample(10), _scalar_sample(40), bad_shape])
    with pytest.raises(DimensionError):
        backbone_forward(bb, [_scalar_sample(10), bad_shape, _scalar_sample(40)])


# -- frozenness ---------------------------------------------------------------


def test_layer_parameters_not_writable():
    bb = build_backbone((3, 5), np.random.default_rng(2))
    with pytest.raises(ValueError):
        bb.layers[0].weight[0, 0] = 1
    with pytest.raises(ValueError):
        bb.layers[0].bias[0] = 1


def test_digest_stable_across_forwards():
    rng = np.random.default_rng(8)
    bb = build_backbone((3, 6, 4), rng)
    before = backbone_digest(bb)
    for _ in range(5):
        backbone_forward(bb, _q(rng.standard_normal((3, 2, 2)).astype(np.float32), 0.05))
    assert backbone_digest(bb) == before


# -- serialization ------------------------------------------------------------


def _dyadic_backbone() -> FrozenBackbone:
    # scales exactly representable in float32, so the container round
    # trip preserves the forward pass bit for bit
    rng = np.random.default_rng(13)
    l1 = QuantLayer(
        weight=rng.integers(-90, 90, (5, 3)).astype(np.int8),
        bias=rng.integers(-50, 50, 5).astype(np.int32),
        weight_scale=2.0**-8,
        out_scale=2.0**-5,
    )
    l2 = QuantLayer(
        weight=rng.integers(-90, 90, (4, 5)).astype(np.int8),
        bias=rng.integers(-50, 50, 4).astype(np.int32),
        weight_scale=2.0**-7,
        out_scale=2.0**-5,
    )
    return FrozenBackbone([l1, l2])


def test_backbone_container_round_trip(tmp_path):
    bb = _dyadic_backbone()
    path = tmp_path / "bb.fcb"
    write_backbone(bb, path)
    rt = read_backbone(path)
    assert backbone_digest(rt) == backbone_digest(bb)
    x = _q(np.linspace(-1, 1, 12).astype(np.float32), 0.0625, shape=(3, 2, 2))
    assert np.array_equal(backbone_forward(bb, x), backbone_forward(rt, x))


def test_backbone_container_rejects_bad_magic(tmp_path):
    path = tmp_path / "junk.fcb"
    path.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(NumericError):
        read_backbone(path)


def test_backbone_container_rejects_truncated_file(tmp_path):
    path = tmp_path / "bb.fcb"
    write_backbone(_dyadic_backbone(), path)
    blob = path.read_bytes()
    for cut in range(len(blob)):  # every layer header, weight, bias and scale
        path.write_bytes(blob[:cut])
        with pytest.raises(NumericError):
            read_backbone(path)


def test_backbone_container_rejects_trailing_bytes(tmp_path):
    path = tmp_path / "bb.fcb"
    write_backbone(_dyadic_backbone(), path)
    blob = path.read_bytes()
    for pad in (b"\x00", b"\x00" * 8, blob[8:]):
        path.write_bytes(blob + pad)
        with pytest.raises(NumericError):
            read_backbone(path)
