"""The trainable head on backbone features, and classifier growth."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import fedswarm.model
from fedswarm import (
    DimensionError,
    NumericError,
    RegistryError,
    TrainableHead,
    backbone_digest,
    build_backbone,
    backbone_forward,
    expand_classifier,
    flatten_params,
    head_logits,
    head_message_bytes,
    init_head,
    quantize,
    QuantParams,
    unflatten_params,
)
from fedswarm.gradcheck import REL_TOL, check_case
from fedswarm.losses import ClassPartition, LossConfig
from test_objective import _ref_head


def _zero_head(c_feat=4, c_out=3, classes=5) -> TrainableHead:
    return TrainableHead(
        conv_w=np.zeros((c_out, c_feat), np.float32),
        conv_b=np.zeros((c_out,), np.float32),
        cls_w=np.zeros((classes, c_out), np.float32),
        cls_b=np.zeros((classes,), np.float32),
    )


# -- head construction and forward --------------------------------------------


def test_zero_head_gives_zero_logits():
    h = _zero_head()
    z = head_logits(h, np.asarray([1.0, -2.0, 3.0, 0.5], np.float32))
    assert np.array_equal(z, np.zeros(5, np.float32))


def test_single_class_softmax_is_one():
    rng = np.random.default_rng(0)
    h = init_head(4, 3, 1, rng)
    z = head_logits(h, rng.standard_normal(4).astype(np.float32))
    assert z.shape == (1,)
    probs = np.exp(z - z.max())
    assert probs.sum() == 1.0


def test_head_shape_validation():
    with pytest.raises(DimensionError):
        TrainableHead(
            conv_w=np.zeros((3, 4), np.float32),
            conv_b=np.zeros((2,), np.float32),  # wrong bias length
            cls_w=np.zeros((5, 3), np.float32),
            cls_b=np.zeros((5,), np.float32),
        )
    with pytest.raises(NumericError):
        TrainableHead(
            conv_w=np.array([[np.inf]], np.float32),
            conv_b=np.zeros((1,), np.float32),
            cls_w=np.zeros((1, 1), np.float32),
            cls_b=np.zeros((1,), np.float32),
        )


@given(
    st.integers(1, 48), st.integers(1, 24), st.integers(1, 36), st.integers(1, 40),
    st.sampled_from([0.0, 0.5]), st.integers(0, 2**32 - 1),
)
def test_batched_head_logits_rows_match_single_vectors(c_feat, hidden, classes, n, zero_frac, seed):
    rng = np.random.default_rng(seed)
    h = init_head(c_feat, hidden, classes, rng, sigma=1.0)
    x = rng.standard_normal((n, c_feat)).astype(np.float32)
    x[rng.random(x.shape) < zero_frac] = 0.0
    z = head_logits(h, x)
    assert z.shape == (n, classes)
    for row, f in zip(z, x):
        assert row.tobytes() == head_logits(h, f).tobytes()
    # a long batch runs in chunks of rows through reused buffers
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fedswarm.model, "_SCAN_BLOCK", 2 * h.parameter_count)
        assert head_logits(h, x).tobytes() == z.tobytes()


def test_head_logits_rejects_wrong_feature_length():
    h = _zero_head(c_feat=4)
    with pytest.raises(DimensionError):
        head_logits(h, np.asarray([1.0, 2.0], np.float32))


def test_forward_through_backbone():
    rng = np.random.default_rng(2)
    bb = build_backbone((3, 6), rng)
    head = init_head(6, 4, 5, rng)
    x = quantize(
        rng.standard_normal((3, 2, 2)).astype(np.float32), QuantParams(0.05)
    )
    z = head_logits(head, backbone_forward(bb, x))
    assert z.shape == (5,)
    # the batched kernels equal the per-sample loop reference bit for bit
    ref = _ref_head(head, backbone_forward(bb, x))[-1]
    assert z.tobytes() == ref.tobytes()


def test_gradients_flow_into_head_only():
    rng = np.random.default_rng(3)
    bb = build_backbone((3, 5, 4), rng)
    head = init_head(4, 3, 4, rng)
    x = quantize(
        rng.standard_normal((3, 2, 2)).astype(np.float32), QuantParams(0.05)
    )
    before = backbone_digest(bb)
    feats = backbone_forward(bb, x)
    from fedswarm import sgd_step, total_loss

    cfg = LossConfig(mu=2.0, lam=3.8, lr=0.1)
    part = ClassPartition(frozenset({0, 1}), frozenset({2, 3}))
    for _ in range(5):
        _, grads = total_loss(head, (feats[None], [2]), part, flatten_params(head), cfg)
        head = sgd_step(head, grads, cfg.lr)
    assert backbone_digest(bb) == before  # frozen through training


def test_head_gradient_matches_finite_differences():
    rng = np.random.default_rng(4)
    bb = build_backbone((3, 4), rng)
    head = init_head(4, 3, 4, rng)
    x = quantize(
        rng.uniform(-1, 1, (3, 2, 2)).astype(np.float32), QuantParams(0.05)
    )
    batch = (backbone_forward(bb, x)[None], [1])
    part = ClassPartition(frozenset(), frozenset(range(4)))
    cfg = LossConfig(mu=0.0, lam=0.0, lr=0.01, batch_size=1)
    r = check_case(head, batch, part, flatten_params(head), cfg)
    assert r["max_scaled_err"] < REL_TOL


# -- classifier expansion ------------------------------------------------------


def test_expand_by_nothing_is_identity():
    h = _zero_head()
    assert expand_classifier(h, []) is h


def test_expand_appends_zero_rows():
    rng = np.random.default_rng(5)
    h = init_head(6, 4, 4, rng)
    h7 = expand_classifier(h, [4, 5, 6])
    assert h7.num_classes == 7
    assert np.array_equal(h7.cls_w[:4], h.cls_w)
    assert np.array_equal(h7.cls_b[:4], h.cls_b)
    assert np.array_equal(h7.cls_w[4:], np.zeros((3, 4), np.float32))
    assert np.array_equal(h7.cls_b[4:], np.zeros(3, np.float32))
    # one flat vector per head: the conv tensors are copied, bit for bit
    assert h7.conv_w.tobytes() == h.conv_w.tobytes()
    assert h7.conv_b.tobytes() == h.conv_b.tobytes()


def test_expand_preserves_old_logits_exactly():
    rng = np.random.default_rng(6)
    h = init_head(5, 4, 4, rng)
    h6 = expand_classifier(h, [4, 5])
    for _ in range(10):
        f = rng.standard_normal(5).astype(np.float32)
        assert np.array_equal(head_logits(h6, f)[:4], head_logits(h, f))


def test_expand_rejects_bad_ids():
    h = _zero_head(classes=4)
    with pytest.raises(RegistryError):
        expand_classifier(h, [4, 4])
    with pytest.raises(RegistryError):
        expand_classifier(h, [5, 6])  # gap: head has classes 0..3
    with pytest.raises(RegistryError):
        expand_classifier(h, [3])  # already present


# -- flat parameter vector ------------------------------------------------------


def test_flatten_unflatten_round_trip():
    rng = np.random.default_rng(7)
    h = init_head(6, 5, 3, rng)
    assert unflatten_params(h, flatten_params(h)) == h


def test_head_parameters_are_read_only():
    rng = np.random.default_rng(9)
    h = init_head(4, 3, 5, rng)
    with pytest.raises(ValueError):
        flatten_params(h)[0] = 1.0
    with pytest.raises(ValueError):
        h.cls_w[0, 0] = 1.0
    # unflatten_params keeps a float32 copy: the caller's vector stays its own
    v = rng.standard_normal(h.parameter_count)
    h2 = unflatten_params(h, v)
    before = v.astype(np.float32)
    assert np.array_equal(h2.params, before)
    v[:] = 0.0
    assert np.array_equal(h2.params, before)


def test_flatten_canonical_order():
    h = TrainableHead(
        conv_w=np.asarray([[1.0, 2.0]], np.float32),
        conv_b=np.asarray([3.0], np.float32),
        cls_w=np.asarray([[4.0], [5.0]], np.float32),
        cls_b=np.asarray([6.0, 7.0], np.float32),
    )
    assert np.array_equal(
        flatten_params(h), np.array([1, 2, 3, 4, 5, 6, 7], np.float32)
    )


def test_parameter_count_64_64_10():
    h = _zero_head(c_feat=64, c_out=64, classes=10)
    assert h.parameter_count == 64 * 64 + 64 + 10 * 64 + 10 == 4810


def test_message_bytes_6144_param_head():
    h = _zero_head(c_feat=158, c_out=32, classes=32)
    assert h.parameter_count == 6144
    assert head_message_bytes(h) == 24576


def test_unflatten_length_mismatch():
    h = _zero_head()
    with pytest.raises(DimensionError):
        unflatten_params(h, np.zeros((h.parameter_count + 1,), np.float32))
