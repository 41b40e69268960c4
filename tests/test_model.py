"""The trainable head on backbone features, and classifier growth."""

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import fedswarm.model
from fedswarm import (
    DimensionError,
    NumericError,
    RegistryError,
    TrainableHead,
    build_backbone,
    backbone_forward,
    expand_classifier,
    head_logits,
    head_message_bytes,
    init_head,
    quantize,
    QuantParams,
)
from fedswarm.gradcheck import REL_TOL, check_case
from fedswarm.losses import ClassPartition, LossConfig
from fedswarm.model import _parts, _shape_head, _size
from test_objective import _ref_head
from test_quant import _layer_copies, _same_layers


def _zero_head(c_feat=4, c_out=3, classes=5) -> TrainableHead:
    dims = (c_feat, c_out, classes)
    return TrainableHead(np.zeros(_size(dims), np.float32), dims)


# -- head construction and forward --------------------------------------------


def test_zero_head_gives_zero_logits():
    h = _zero_head()
    z = head_logits(h, np.asarray([[1.0, -2.0, 3.0, 0.5]], np.float32))
    assert np.array_equal(z, np.zeros((1, 5), np.float32))


def test_single_class_softmax_is_one():
    rng = np.random.default_rng(0)
    h = init_head(4, 3, 1, rng)
    z = head_logits(h, rng.standard_normal((1, 4)).astype(np.float32))[0]
    assert z.shape == (1,)
    probs = np.exp(z - z.max())
    assert probs.sum() == 1.0


def test_head_shape_validation():
    # a head never disagrees with its own dims: with_params checks too
    h = init_head(4, 3, 5, np.random.default_rng(0))
    with pytest.raises(DimensionError, match=r"head needs \(35,\)"):
        h.with_params(np.zeros(3, np.float32))
    bad = h.params.copy()
    bad[-1] = np.nan
    with pytest.raises(NumericError, match="cls_b"):
        h.with_params(bad)


@st.composite
def _constructor_cases(draw):
    """(params, dims, the kind of case, and the tensor a non-finite value sits in).

    A ``lead`` of (1,) or (3,) makes an (N, P) stack, which no head is."""
    dims = tuple(draw(st.integers(1, 6)) for _ in range(3))
    size = _size(dims)
    lead = draw(st.sampled_from([(), (1,), (3,)]))
    kind = draw(st.sampled_from(["ok", "short", "long", "dims", "nonfinite", "deep"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind in ("short", "long"):
        size += draw(st.integers(1, size)) * (-1 if kind == "short" else 1)
    params = rng.standard_normal(lead + (size,)).astype(np.float32)
    if kind == "deep":
        params = params[None, None]
    if kind == "dims":  # a dim below 1, not a 64-bit integer, or not three dims
        i = draw(st.integers(0, 2))
        bad = draw(st.sampled_from([-2, -1, 0, float(dims[i]), True, 2**64, None]))
        dims = dims[:i] + dims[i + 1 :] if bad is None else dims[:i] + (bad,) + dims[i + 1 :]
    bad_tensor = None
    if kind == "nonfinite":
        at = draw(st.integers(0, size - 1))
        params[..., at] = draw(st.sampled_from([np.nan, np.inf, -np.inf]))
        c_feat, c_out, n_cls = dims
        ends = np.cumsum([c_out * c_feat, c_out, n_cls * c_out, n_cls])
        bad_tensor = ("conv_w", "conv_b", "cls_w", "cls_b")[int(np.searchsorted(ends, at, "right"))]
    return params, dims, kind, bad_tensor


@given(_constructor_cases())
@example(case=(np.zeros(3, np.float32), (True, 1, 1), "dims", None))
@example(case=(np.zeros(_size((2, 3, 4)), np.float32), (np.int64(2), np.uint8(3), np.int32(4)),
               "ok", None))
def test_constructor_checks_what_it_is_given(case):
    params, dims, kind, bad_tensor = case
    if kind in ("short", "long", "deep") or (params.ndim > 1 and kind != "dims"):
        with pytest.raises(DimensionError, match=rf"head needs \({_size(dims)},\)"):
            TrainableHead(params, dims)
    elif kind == "dims":
        with pytest.raises(DimensionError, match="must be three 64-bit integers >= 1"):
            TrainableHead(params, dims)
    elif kind == "nonfinite":
        with pytest.raises(NumericError, match=f"non-finite values in {bad_tensor}$"):
            TrainableHead(params, dims)
    else:
        h = TrainableHead(params, dims)
        # a float32 array is handed over: kept uncopied and made read-only
        assert h.params is params and not params.flags.writeable
        assert h.dims == dims and h.parameter_count == _size(dims)
        assert all(type(d) is int for d in h.dims)  # numpy dims are stored as Python ints
        assert h.cls_b.shape == (dims[2],)


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
    for i, row in enumerate(z):
        assert row.tobytes() == head_logits(h, x[i : i + 1]).tobytes()
    # a long batch runs in chunks of rows through reused buffers
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fedswarm.model, "_SCAN_BLOCK", 2 * h.parameter_count)
        assert head_logits(h, x).tobytes() == z.tobytes()


def test_head_logits_rejects_wrong_feature_length():
    h = _zero_head(c_feat=4)
    with pytest.raises(DimensionError):
        head_logits(h, np.asarray([[1.0, 2.0]], np.float32))


def test_head_logits_takes_rows_only():
    # a lone feature vector, even one of the head's width, is no batch of rows
    h = _zero_head(c_feat=4)
    with pytest.raises(DimensionError, match=r"must be \(rows, 4\), got \(4,\)"):
        head_logits(h, np.zeros(4, np.float32))
    assert head_logits(h, np.zeros((1, 4), np.float32)).shape == (1, 5)


def test_forward_through_backbone():
    rng = np.random.default_rng(2)
    bb = build_backbone((3, 6), rng)
    head = init_head(6, 4, 5, rng)
    x = quantize(
        rng.standard_normal((1, 3, 2, 2)).astype(np.float32), QuantParams(0.05)
    )
    z = head_logits(head, backbone_forward(bb, x))
    assert z.shape == (1, 5)
    # the batched kernels equal the per-sample loop reference bit for bit
    ref = _ref_head(head, backbone_forward(bb, x)[0])[-1]
    assert z[0].tobytes() == ref.tobytes()


def test_gradients_flow_into_head_only():
    rng = np.random.default_rng(3)
    bb = build_backbone((3, 5, 4), rng)
    head = init_head(4, 3, 4, rng)
    x = quantize(
        rng.standard_normal((1, 3, 2, 2)).astype(np.float32), QuantParams(0.05)
    )
    before = _layer_copies(bb)
    feats = backbone_forward(bb, x)
    from fedswarm import sgd_step, total_loss

    cfg = LossConfig(mu=2.0, lam=3.8, lr=0.1)
    part = ClassPartition(frozenset({0, 1}), frozenset({2, 3}))
    for _ in range(5):
        _, grads = total_loss(head, (feats, [2]), part, head.params, cfg)
        head = sgd_step(head, grads, cfg.lr)
    assert _same_layers(bb, before)  # frozen through training


def test_head_gradient_matches_finite_differences():
    rng = np.random.default_rng(4)
    bb = build_backbone((3, 4), rng)
    head = init_head(4, 3, 4, rng)
    x = quantize(
        rng.uniform(-1, 1, (1, 3, 2, 2)).astype(np.float32), QuantParams(0.05)
    )
    batch = (backbone_forward(bb, x), [1])
    part = ClassPartition(frozenset(), frozenset(range(4)))
    cfg = LossConfig(mu=0.0, lam=0.0, lr=0.01, batch_size=1)
    r = check_case(head, batch, part, head.params, cfg)
    assert r["max_scaled_err"] < REL_TOL


# -- classifier expansion ------------------------------------------------------


def test_expand_by_nothing_is_identity():
    h = _zero_head()
    assert expand_classifier(h, 0) is h


def test_expand_appends_zero_rows():
    rng = np.random.default_rng(5)
    h = init_head(6, 4, 4, rng)
    h7 = expand_classifier(h, 3)
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
    h6 = expand_classifier(h, 2)
    for _ in range(10):
        f = rng.standard_normal((1, 5)).astype(np.float32)
        assert np.array_equal(head_logits(h6, f)[:, :4], head_logits(h, f))


def test_expand_rejects_bad_ids():
    # a count names the new ids, num_classes onward: anything but a
    # nonnegative 64-bit integer is refused, an id list among them
    h = _zero_head(classes=4)
    for bad in (-1, 2.9, True, np.bool_(True), "3", 2**64, None, [4, 5]):
        with pytest.raises(RegistryError, match="must be a 64-bit integer >= 0"):
            expand_classifier(h, bad)
    assert repr(expand_classifier(h, np.int64(2)).dims) == repr((4, 3, 6))


def test_expand_prices_the_grown_head_before_it_allocates():
    # 2**62 more classes pass the count check; the grown vector is priced
    # against the host budget before numpy is asked for it
    h = init_head(2, 2, 2, np.random.default_rng(0))
    with pytest.raises(RegistryError, match="largest term is the grown parameter vector"):
        expand_classifier(h, 2**62)
    # (c_out + 1) * 4 bytes a class: 2**27 more classes of a 2-wide head pass 1 GiB
    with pytest.raises(RegistryError, match="exceeds the host budget"):
        expand_classifier(h, 2**27)
    assert expand_classifier(h, 2**10).num_classes == 2 + 2**10


# -- flat parameter vector ------------------------------------------------------


def test_with_params_round_trip():
    rng = np.random.default_rng(7)
    h = init_head(6, 5, 3, rng)
    h2 = h.with_params(h.params.copy())
    assert h2.dims == h.dims and np.array_equal(h2.params, h.params)


def test_head_parameters_are_read_only():
    rng = np.random.default_rng(9)
    h = init_head(4, 3, 5, rng)
    with pytest.raises(ValueError):
        h.params[0] = 1.0
    with pytest.raises(ValueError):
        h.cls_w[0, 0] = 1.0
    # with_params takes the array it is handed, uncopied, and freezes it
    v = rng.standard_normal(h.parameter_count).astype(np.float32)
    h2 = h.with_params(v)
    assert h2.params is v and not v.flags.writeable


def test_flatten_canonical_order():
    # 2 features, 1 hidden unit, 2 classes: conv_w, conv_b, cls_w, cls_b in order
    h = TrainableHead(np.arange(1, 8, dtype=np.float32), (2, 1, 2))
    assert h.conv_w.tolist() == [[1.0, 2.0]]
    assert h.conv_b.tolist() == [3.0]
    assert h.cls_w.tolist() == [[4.0], [5.0]]
    assert h.cls_b.tolist() == [6.0, 7.0]


@given(
    st.integers(1, 12), st.integers(1, 8), st.integers(1, 10), st.integers(1, 5),
    st.integers(0, 3), st.booleans(), st.integers(0, 2**32 - 1),
)
def test_parts_are_views_of_each_row(c_feat, hidden, classes, n, n_new, writeable, seed):
    rng = np.random.default_rng(seed)
    heads = [init_head(c_feat, hidden, classes, rng, sigma=1.0) for _ in range(n)]
    stack = np.stack([h.params for h in heads])
    stack.flags.writeable = writeable
    parts = _parts(stack, heads[0].dims)
    for i, h in enumerate(heads):
        for name, part in zip(("conv_w", "conv_b", "cls_w", "cls_b"), parts):
            assert part[i].tobytes() == getattr(h, name).tobytes()
    for part in parts:
        # views, never copies: the training loop writes its gradients through them
        assert np.shares_memory(part, stack)
        assert part.flags.writeable == writeable
    if writeable:
        parts[3][-1, -1] = 5.0
        assert stack[-1, -1] == 5.0
    # the head's attributes are the same cut of its own vector
    h = heads[0]
    assert all(np.shares_memory(getattr(h, name), h.params) for name in ("conv_w", "cls_b"))
    # growing the classifier keeps every old parameter bit for bit
    grown = expand_classifier(h, n_new)
    conv_w, conv_b, cls_w, cls_b = _parts(grown.params, grown.dims)
    assert conv_w.tobytes() == h.conv_w.tobytes() and conv_b.tobytes() == h.conv_b.tobytes()
    assert cls_w[:classes].tobytes() == h.cls_w.tobytes()
    assert cls_b[:classes].tobytes() == h.cls_b.tobytes()
    assert not cls_w[classes:].any() and not cls_b[classes:].any()
    # a shape-only head prices the same shape and allocates nothing
    shape_only = _shape_head(c_feat, hidden, classes)
    assert shape_only.dims == h.dims and shape_only.parameter_count == h.parameter_count
    assert shape_only.params.strides == (0,)


def test_parameter_count_64_64_10():
    h = _zero_head(c_feat=64, c_out=64, classes=10)
    assert h.parameter_count == 64 * 64 + 64 + 10 * 64 + 10 == 4810


def test_message_bytes_6144_param_head():
    h = _zero_head(c_feat=158, c_out=32, classes=32)
    assert h.parameter_count == 6144
    assert head_message_bytes(h) == 24576


def test_parts_length_mismatch():
    h = _zero_head()
    for size in (h.parameter_count - 1, h.parameter_count + 1):
        with pytest.raises(DimensionError, match=f"head needs \\({h.parameter_count},\\)"):
            _parts(np.zeros((2, size), np.float32), h.dims)
