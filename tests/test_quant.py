"""Affine int8 quantization and the frozen integer backbone."""

import numpy as np
import pytest

from fedswarm import (
    DimensionError,
    FrozenBackbone,
    NumericError,
    QuantLayer,
    QuantParams,
    QuantTensor,
    Tensor,
    backbone_digest,
    backbone_forward,
    build_backbone,
    dequantize,
    quantize,
    read_backbone,
    write_backbone,
)


def _q(values, scale, zp=0, shape=None):
    arr = np.asarray(values, dtype=np.float32)
    return quantize(Tensor(arr, shape or arr.shape), QuantParams(scale, zp))


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
    assert dequantize(_q([0.0], 0.1)).data[0] == 0.0
    assert abs(dequantize(_q([0.3], 0.1)).data[0] - 0.3) < 1e-7
    q = QuantTensor(np.array([-128], np.int8), (1,), QuantParams(0.5, -28))
    assert dequantize(q).data[0] == -50.0


def test_round_trip_error_within_half_scale():
    # 0.001-spaced sweep of the unsaturated range at scale 0.1
    grid = (np.arange(-12700, 12701, dtype=np.int64) * 1e-3).astype(np.float32)
    x = Tensor(grid)
    back = dequantize(quantize(x, QuantParams(0.1, 0)))
    err = np.abs(back.data.astype(np.float64) - x.data.astype(np.float64))
    assert float(err.max()) <= 0.05 + 1e-6


def test_quant_tensor_shape_check_and_eq():
    with pytest.raises(DimensionError):
        QuantTensor(np.zeros(3, np.int8), (2, 2), QuantParams(0.1))
    a = QuantTensor(np.arange(4, dtype=np.int8), (2, 2), QuantParams(0.1))
    b = QuantTensor(np.arange(4, dtype=np.int8), (2, 2), QuantParams(0.1))
    assert a == b
    assert a != QuantTensor(np.arange(4, dtype=np.int8), (2, 2), QuantParams(0.2))


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
    ref = dequantize(x).array.reshape(3, 4).mean(axis=1)
    assert np.allclose(feats.data, ref, atol=bb.layers[0].out_scale)


def test_zero_weights_give_zero_features():
    layer = QuantLayer(
        weight=np.zeros((4, 3), np.int8),
        bias=np.zeros(4, np.int32),
        weight_scale=0.01,
        out_scale=0.05,
    )
    x = _q(np.linspace(-1, 1, 12).astype(np.float32), 0.05, shape=(3, 2, 2))
    feats = backbone_forward(FrozenBackbone([layer]), x)
    assert np.array_equal(feats.data, np.zeros(4, np.float32))


def test_two_layer_backbone_close_to_float_reference():
    for seed in range(5):
        rng = np.random.default_rng(700 + seed)
        bb = build_backbone((3, 4, 5), rng, weight_sigma=0.25, activation_range=4.0)
        x = _q(rng.uniform(-0.5, 0.5, (3, 2, 2)).astype(np.float32), 0.05)
        feats = backbone_forward(bb, x).data.astype(np.float64)

        # float chain over dequantized weights, same clamps, no requantization
        act = dequantize(x).array.reshape(3, 4).astype(np.float64)
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
    assert np.array_equal(a.data, b.data)


def test_backbone_input_validation():
    bb = build_backbone((4, 6), np.random.default_rng(1))
    with pytest.raises(DimensionError):
        backbone_forward(bb, _q(np.zeros(4, np.float32), 0.1, shape=(4,)))
    with pytest.raises(DimensionError):
        backbone_forward(bb, _q(np.zeros(12, np.float32), 0.1, shape=(3, 2, 2)))


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
    assert np.array_equal(backbone_forward(bb, x).data, backbone_forward(rt, x).data)


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
