"""Composite loss (cross-entropy + mean-output + proximal) and SGD."""

import hashlib
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fedswarm import (
    ClassPartition,
    ConfigError,
    DimensionError,
    LossConfig,
    NumericError,
    RegistryError,
    TrainableHead,
    head_logits,
    init_head,
    sgd_step,
    total_loss,
)
from fedswarm import losses
from fedswarm.gradcheck import REL_TOL, _make_case, check_case, reference_total_loss
from fedswarm.losses import Minibatch, StepSpace, check_view
from fedswarm.model import _parts, _size
from fedswarm.tensor import Fold
from test_tensor import _fold


# -- cross-entropy --------------------------------------------------------------


def _logit_head(logits: np.ndarray) -> TrainableHead:
    """A head whose logits are ``logits`` for any input: zero weights, the
    logits as the classifier bias."""
    # one feature, one hidden unit: conv_w, conv_b and cls_w are zero
    params = np.concatenate([np.zeros(2 + logits.size, np.float32), logits])
    return TrainableHead(params, (1, 1, logits.size))


def cross_entropy(logits: np.ndarray, target: int) -> float:
    """-log softmax(logits)[target] of one logit vector, through the
    objective's kernel: the one-sample loss with mu = lambda = 0."""
    head = _logit_head(logits)
    part = ClassPartition(frozenset(), frozenset(range(logits.size)))
    batch = (np.zeros((1, 1), np.float32), [target])
    return total_loss(head, batch, part, head.params, LossConfig(mu=0.0, lam=0.0))[0]


def test_ce_uniform_logits():
    assert abs(cross_entropy(np.asarray([0.7, 0.7, 0.7, 0.7], np.float32), 1) - math.log(4)) < 1e-6


def test_ce_is_stable_for_huge_logits():
    v = cross_entropy(np.asarray([1000.0, 0.0], np.float32), 0)
    assert math.isfinite(v)
    assert v < 1e-6


def test_ce_reference_value():
    assert abs(cross_entropy(np.asarray([1.0, 2.0, 3.0], np.float32), 2) - 0.40760596) < 1e-6


def test_ce_target_out_of_range():
    head = init_head(1, 1, 2, np.random.default_rng(0))
    for bad in (2, -1):
        with pytest.raises(IndexError):
            check_view(head, (np.ones((1, 1), np.float32), [bad]), ClassPartition(set(), {0, 1}),
                       LossConfig())


def test_ce_nonnegative_random():
    rng = np.random.default_rng(0)
    for _ in range(20):
        z = rng.standard_normal(6).astype(np.float32)
        assert cross_entropy(z, int(rng.integers(6))) >= 0.0


# -- mean-output regularizer -----------------------------------------------------


def _part(old, new):
    return ClassPartition(frozenset(old), frozenset(new))


def mol_loss(logits: np.ndarray, target: int, part: ClassPartition) -> float:
    """Mean-output term of one logit vector, through the objective's
    kernel: the partition is checked and masked as in training, the
    target excluded. The term never reads the target's own logit, so it
    is raised until the cross-entropy is exactly 0 and the one-sample
    loss at mu = 1, lambda = 0 is the term alone."""
    z = np.array(logits, np.float32)
    if 0 <= target < z.size:
        z[target] = np.max(z) + np.float32(200.0)  # exp(-200) is 0 in float32
    head = _logit_head(z)
    batch = (np.zeros((1, 1), np.float32), [target])
    return total_loss(head, batch, part, head.params, LossConfig(mu=1.0, lam=0.0))[0]


def test_mol_zero_for_equal_logits():
    p = _part({2, 3}, {0, 1})
    assert mol_loss(np.asarray([1.0, 1.0, 1.0, 1.0], np.float32), 0, p) == 0.0


def test_mol_both_sides():
    # A = new \ {target} = {1} with mean 0, B = {2, 3} with mean 2
    p = _part({2, 3}, {0, 1})
    assert mol_loss(np.asarray([2.0, 0.0, 4.0, 0.0], np.float32), 0, p) == 4.0


def test_mol_fallback_squares_old_mean():
    # lone new class is the target, so only the old mean remains
    p = _part({1, 2}, {0})
    assert mol_loss(np.asarray([5.0, 1.0, 3.0], np.float32), 0, p) == 4.0


def test_mol_no_old_classes_vanishes():
    p = _part(set(), {0, 1, 2})
    assert mol_loss(np.asarray([9.0, -3.0, 2.0], np.float32), 1, p) == 0.0


def test_mol_target_must_be_in_partition():
    with pytest.raises(RegistryError):
        mol_loss(np.asarray([1.0, 2.0, 3.0], np.float32), 2, _part({0}, {1}))
    with pytest.raises(IndexError):
        mol_loss(np.asarray([1.0, 2.0], np.float32), 0, _part({5}, {0}))


def test_partition_sides_disjoint():
    with pytest.raises(RegistryError):
        ClassPartition(frozenset({1, 2}), frozenset({2, 3}))


def test_mol_shift_invariant_when_both_sides_present():
    rng = np.random.default_rng(1)
    p = _part({0, 1, 2}, {3, 4, 5})
    for _ in range(20):
        z = rng.standard_normal(6).astype(np.float32)
        c = np.float32(rng.uniform(-3, 3))
        a = mol_loss(z, 4, p)
        b = mol_loss(z + c, 4, p)
        assert abs(a - b) < 1e-4 * max(1.0, abs(a))
        assert a >= 0.0


# -- proximal term ----------------------------------------------------------------


def prox_loss(head, w_global: np.ndarray, lam: float) -> float:
    """The proximal term alone: the loss with ``lam`` minus the loss without."""
    batch = (np.ones((1, head.c_feat), np.float32), [0])
    part = ClassPartition(frozenset(), frozenset({0}))

    def loss(at):
        return total_loss(head, batch, part, w_global, LossConfig(mu=0.0, lam=at))[0]

    return loss(lam) - loss(0.0)


def test_prox_zero_at_global():
    h = init_head(3, 2, 2, np.random.default_rng(10))
    assert prox_loss(h, h.params, 3.8) == 0.0


def test_prox_reference_value():
    h = init_head(3, 2, 2, np.random.default_rng(11))
    diff = np.where(np.arange(h.parameter_count) % 2 == 0, 1.0, -1.0).astype(np.float32)
    wg = h.params - diff
    # (3.8 / 2) * P squared unit differences, as tight as 1e-6 on 3.8
    assert prox_loss(h, wg, 3.8) == pytest.approx(1.9 * h.parameter_count, rel=2.6e-7)


def test_prox_disabled_at_zero_lambda():
    rng = np.random.default_rng(2)
    h = init_head(3, 2, 2, rng)
    wg = rng.standard_normal(h.parameter_count).astype(np.float32)
    assert prox_loss(h, wg, 0.0) == 0.0
    assert prox_loss(h, wg, 1.0) >= 0.0


def test_prox_length_mismatch():
    h = init_head(3, 2, 2, np.random.default_rng(12))
    with pytest.raises(DimensionError):
        prox_loss(h, np.asarray([1.0, 2.0], np.float32), 1.0)


# -- total loss --------------------------------------------------------------------


def _batch(rng, head, n, classes):
    targets = rng.integers(0, classes, n)
    return rng.standard_normal((n, head.c_feat)).astype(np.float32), targets


def test_total_loss_reduces_to_mean_ce():
    rng = np.random.default_rng(3)
    head = init_head(4, 3, 5, rng)
    batch = _batch(rng, head, 3, 5)
    part = ClassPartition(frozenset({0, 1}), frozenset({2, 3, 4}))
    cfg = LossConfig(mu=0.0, lam=0.0, lr=0.01)
    val, _ = total_loss(head, batch, part, head.params, cfg)
    # standalone path: eager per-sample CE, same fixed-order mean
    ces = np.array(
        [cross_entropy(head_logits(head, f[None])[0], t) for f, t in zip(*batch)], np.float32
    )
    assert val == float(np.float32(_fold(ces) / np.float32(len(ces))))


def test_total_loss_single_sample_at_global_is_ce():
    rng = np.random.default_rng(4)
    head = init_head(4, 3, 4, rng)
    f = rng.standard_normal(4).astype(np.float32)
    part = ClassPartition(frozenset(), frozenset(range(4)))
    cfg = LossConfig(mu=0.0, lam=3.8, lr=0.01)
    val, _ = total_loss(head, (f[None], [2]), part, head.params, cfg)
    assert val == cross_entropy(head_logits(head, f[None])[0], 2)


def test_total_loss_gradient_matches_finite_differences():
    rng = np.random.default_rng(5)
    head = init_head(3, 2, 4, rng)
    targets = 2 + rng.integers(0, 2, 3)
    batch = (rng.standard_normal((3, 3)).astype(np.float32), targets)
    part = ClassPartition(frozenset({0, 1}), frozenset({2, 3}))
    wg = head.params + 0.1
    cfg = LossConfig(mu=2.0, lam=3.8, lr=0.01)
    r = check_case(head, batch, part, wg, cfg)
    assert r["max_scaled_err"] < REL_TOL


@pytest.mark.parametrize("idx", range(12))
def test_reference_loss_of_a_stack_equals_its_rows(idx):
    # the oracle's batched pass over (T, P) parameter rows gives each row
    # the value of its own call, across all MOL branches and weights
    _, head, batch, part, w_global, cfg = _make_case(idx, 3)
    rng = np.random.default_rng(idx)
    theta0 = head.params.astype(np.float64)
    stack = theta0 + rng.standard_normal((5, theta0.size)) * 0.1
    stack[0] = theta0
    args = (head, batch, part, w_global, cfg.mu, cfg.lam)
    values = reference_total_loss(stack, *args)
    rows = [reference_total_loss(row, *args) for row in stack]
    assert values.shape == (5,) and all(isinstance(v, float) for v in rows)
    np.testing.assert_allclose(values, rows, rtol=1e-12, atol=0)


# sha256 of the gradient battery's inputs, _make_case(idx, 7) for idx
# 0-19: each case's head parameters, features, targets (as int64) and
# snapshot, in that order
_BATTERY_DIGEST = "a2ee568ea970488967686c28f6db77ff40834ea4ec397f175372858b32857513"


def test_gradient_battery_inputs_are_pinned():
    # criterion 1 runs these cases, so a change in their draws must fail
    # here rather than only move an error figure
    digest = hashlib.sha256()
    for idx in range(20):
        _, head, (x, targets), _, w_global, _ = _make_case(idx, 7)
        for a in (head.params, np.ascontiguousarray(x, np.float32),
                  np.asarray(targets, np.int64), np.asarray(w_global, np.float32)):
            digest.update(a.tobytes())
    assert digest.hexdigest() == _BATTERY_DIGEST


def test_total_loss_empty_batch():
    head = init_head(3, 2, 2, np.random.default_rng(6))
    part = ClassPartition(frozenset(), frozenset({0, 1}))
    empty = (np.empty((0, 3), np.float32), np.empty(0, np.intp))
    with pytest.raises(DimensionError, match="nonempty"):
        total_loss(head, empty, part, head.params, LossConfig())


# -- SGD step ----------------------------------------------------------------------


def _unit_head(value: float) -> TrainableHead:
    return TrainableHead(np.full(4, value, np.float32), (1, 1, 1))


def test_sgd_zero_lr_is_identity():
    rng = np.random.default_rng(7)
    head = init_head(4, 3, 2, rng)
    part = ClassPartition(frozenset(), frozenset({0, 1}))
    _, grads = total_loss(
        head, _batch(rng, head, 2, 2), part, head.params, LossConfig()
    )
    stepped = sgd_step(head, grads, 0.0)
    assert stepped.dims == head.dims and np.array_equal(stepped.params, head.params)


def test_sgd_single_step_arithmetic():
    head = _unit_head(1.0)
    grads = np.full(4, 2.0, np.float32)  # flat, in the head's parameter order
    stepped = sgd_step(head, grads, 0.5)
    want = _unit_head(0.0)
    assert stepped.dims == want.dims and np.array_equal(stepped.params, want.params)


def test_sgd_shape_mismatch():
    head = _unit_head(1.0)
    grads = np.full(5, 2.0, np.float32)  # one value too many
    with pytest.raises(DimensionError):
        sgd_step(head, grads, 0.5)
    # a step to a non-finite head fails as a training round does
    with pytest.raises(NumericError, match="non-finite values in conv_w"):
        sgd_step(head, np.full(4, np.inf, np.float32), 0.5)


def test_sgd_drives_down_separable_toy_loss():
    rng = np.random.default_rng(8)
    head = init_head(2, 4, 2, rng)
    targets = np.arange(8) % 2
    centers = np.array([[1.5, 0.0], [-1.5, 0.0]], np.float32)[targets]
    batch = (centers + rng.standard_normal((8, 2)).astype(np.float32) * 0.1, targets)
    part = ClassPartition(frozenset(), frozenset({0, 1}))
    cfg = LossConfig(mu=0.0, lam=0.0, lr=0.1, batch_size=8)
    losses = []
    for _ in range(150):
        val, grads = total_loss(head, batch, part, head.params, cfg)
        head = sgd_step(head, grads, cfg.lr)
        losses.append(val)
    windows = [sum(losses[i : i + 10]) / 10 for i in range(0, 150, 10)]
    assert all(b < a for a, b in zip(windows, windows[1:]))
    assert losses[-1] < 0.1


# -- config validation ----------------------------------------------------------


def test_loss_config_validation():
    with pytest.raises(ConfigError):
        LossConfig(mu=-0.1)
    with pytest.raises(ConfigError):
        LossConfig(lam=-1.0)
    with pytest.raises(ConfigError):
        LossConfig(lr=0.0)
    with pytest.raises(ConfigError):
        LossConfig(batch_size=0)
    with pytest.raises(ConfigError):
        LossConfig(local_epochs_per_round=0)


def test_loss_config_defaults():
    cfg = LossConfig()
    assert cfg.mu == 2.0 and cfg.lam == 3.8
    assert cfg.lr == 0.01 and cfg.batch_size == 4


# -- fused kernel vs the per-sample reference -------------------------------------
#
# The reference below is the objective written one sample at a time with
# the Python-loop sums the scan kernels replaced. Its summation order is
# the contract: the loss is the ordered mean of the per-sample terms plus
# the prox term; each logit gradient is (+0.0 + dMOL * (mu/B)) + dCE / B;
# each parameter gradient starts from +0.0 plus its prox part and then
# adds samples B-1 down to 0, each contribution a k=1 product. ``total_loss``
# must reproduce its value and all four gradients bit for bit.


def _loop_seq_sum(values):
    acc = np.float32(0.0)
    for v in values:
        acc = np.float32(acc + v)
    return acc


def _loop_mm_f32(a, b):
    acc = np.zeros((a.shape[0], b.shape[1]), dtype=np.float32)
    for i in range(a.shape[1]):
        acc += a[:, i, None] * b[i, :]
    return acc


def _loop_sum_cols(x):
    acc = np.zeros(x.shape[0], dtype=np.float32)
    for j in range(x.shape[1]):
        acc += x[:, j]
    return acc


def _ref_head(head, feats):
    """(x, pre-activation, hidden, logits) of one sample as columns."""
    x = feats.reshape(-1, 1)
    pre = _loop_mm_f32(head.conv_w, x) + head.conv_b[:, None]
    hidden = np.where(pre > 0, pre, np.float32(0.0))
    z = _loop_mm_f32(head.cls_w, hidden) + head.cls_b[:, None]
    return x, pre, hidden, z.reshape(-1)


def _ref_total_loss(head, batch, part, w_global, cfg):
    params = [getattr(head, k) for k in ("conv_w", "conv_b", "cls_w", "cls_b")]
    x_rows, targets = batch
    n = np.float32(len(targets))
    inv_n = np.float32(1.0) / n
    mu, lam = np.float32(cfg.mu), np.float32(cfg.lam)
    d = head.params - w_global
    # every leaf gradient starts from +0.0 plus its prox part
    grads, off = [], 0
    for p in params:
        grads.append(np.float32(0.0) + (lam * d[off : off + p.size]).reshape(p.shape))
        off += p.size
    terms, saved = [], []
    for feats, target in zip(x_rows, np.asarray(targets).tolist()):
        x, pre, hidden, z = _ref_head(head, feats)
        shifted = z - np.max(z)
        exps = np.exp(shifted)
        total = _loop_seq_sum(exps)
        dce = exps / total
        dce[target] -= np.float32(1.0)
        term = np.float32(np.log(total) - shifted[target])
        g_z = np.zeros_like(z)
        if cfg.mu != 0.0:
            a = sorted(part.new_classes - {target})
            b = sorted(part.old_classes - {target})
            dmol, mol = np.zeros_like(z), np.float32(0.0)
            if b:
                mean_b = _loop_seq_sum(z[b]) / np.float32(len(b))
                diff = -mean_b  # fallback: no new side left
                if a:
                    diff = np.float32(_loop_seq_sum(z[a]) / np.float32(len(a)) - mean_b)
                    dmol[a] = np.float32(2.0) * diff / np.float32(len(a))
                dmol[b] = np.float32(-2.0) * diff / np.float32(len(b))
                mol = np.float32(diff * diff)
            term = term + mol * mu
            g_z = g_z + dmol * (inv_n * mu)
        g_z = (g_z + dce * inv_n)[:, None]
        terms.append(term)
        saved.append((x, pre, hidden, g_z))
    value = _loop_seq_sum(np.array(terms, np.float32)) / n
    value = value + np.float32(0.5) * lam * _loop_seq_sum(d * d)
    # samples B-1 down to 0, each a k=1 product or a one-column sum
    for x, pre, hidden, g_z in reversed(saved):
        g_pre = np.where(pre > 0, _loop_mm_f32(head.cls_w.T, g_z), np.float32(0.0))
        parts = (
            _loop_mm_f32(g_pre, x.T), _loop_sum_cols(g_pre),
            _loop_mm_f32(g_z, hidden.T), _loop_sum_cols(g_z),
        )
        grads = [g + c for g, c in zip(grads, parts)]
    return float(value), np.concatenate([g.reshape(-1) for g in grads])


def _bits(value, grads):
    return np.float64(value).tobytes(), grads.tobytes()


def _sparse(rng, shape, zero_frac, scale=1.0):
    """Gaussian values with an exact-zero fraction (relu kinks, -0.0 products).

    Each zero keeps its value's sign, so parameters, snapshots and
    features also hold -0.0 (a -0.0 prox part, a -0.0 contribution).
    """
    x = rng.standard_normal(shape).astype(np.float32) * np.float32(scale)
    zeros = rng.random(shape) < zero_frac
    x[zeros] = np.copysign(np.float32(0.0), x[zeros])
    return x


@st.composite
def _objective_cases(draw):
    """N = 1-8 nodes of one architecture, loss config and batch size, each
    with its own head, partition, batch and snapshot: one lockstep step."""
    c_feat = draw(st.integers(1, 48))
    hidden = draw(st.integers(1, 24))
    classes = draw(st.integers(2, 36))
    n = draw(st.integers(1, 8))
    mu = draw(st.sampled_from([0.0, 2.0, 0.37]))
    lam = draw(st.sampled_from([0.0, 3.8, 1.3]))
    zero_frac = draw(st.sampled_from([0.0, 0.3, 0.8]))
    nodes = []
    for _ in range(draw(st.integers(1, 8))):
        branch = draw(st.sampled_from(["both", "fallback", "no_old", "partial"]))
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        nodes.append(_node_case(rng, c_feat, hidden, classes, n, branch, zero_frac))
    return nodes, LossConfig(mu=mu, lam=lam, lr=0.01, batch_size=n)


def _node_case(rng, c_feat, hidden, classes, n, branch, zero_frac):
    """(head, batch, partition, snapshot) of one node."""
    dims = (c_feat, hidden, classes)
    params = np.empty(_size(dims), np.float32)
    # conv_w, conv_b, cls_w, cls_b in layout order: weights half as sparse as biases
    for view, frac, scale in zip(_parts(params, dims), (zero_frac / 2, zero_frac) * 2,
                                 (1.0, 0.5) * 2):
        view[...] = _sparse(rng, view.shape, frac, scale)
    head = TrainableHead(params, dims)
    if branch == "both":
        split = int(rng.integers(1, classes))
        part = ClassPartition(frozenset(range(split)), frozenset(range(split, classes)))
    elif branch == "fallback":
        part = ClassPartition(frozenset(range(classes - 1)), frozenset({classes - 1}))
    elif branch == "no_old":
        part = ClassPartition(frozenset(), frozenset(range(classes)))
    else:  # some classes on neither side
        side = rng.integers(0, 3, classes)
        side[int(rng.integers(classes))] = 1
        part = ClassPartition(
            frozenset(int(c) for c in np.flatnonzero(side == 0)),
            frozenset(int(c) for c in np.flatnonzero(side == 1)),
        )
    members = sorted(part.old_classes | part.new_classes)
    if branch == "fallback":
        members = [classes - 1]
    batch = (_sparse(rng, (n, c_feat), zero_frac), rng.choice(members, n))
    w_global = head.params + _sparse(rng, head.parameter_count, zero_frac, 0.2)
    return head, batch, part, w_global


def _lockstep_args(nodes, cfg):
    """The nodes' one-head arguments as one lockstep call's: the (N, P)
    parameter rows of the StepSpace of their class masks, built over a
    copy of their stack, a sample-major Minibatch, the space and the
    (N, P) snapshots."""
    stacked = [check_view(head, batch, part, cfg) for head, batch, part, _ in nodes]
    masks = tuple(np.stack([m[k] for *_, m in stacked]) for k in (0, 1))
    batch = Minibatch(np.stack([x for x, _, _ in stacked], axis=1),
                      np.stack([t for _, t, _ in stacked], axis=1))
    space = StepSpace(nodes[0][0], np.stack([h.params for h, *_ in nodes]), cfg.batch_size,
                      masks, cfg)
    return space.params, batch, space, np.stack([w for *_, w in nodes])


@given(_objective_cases())
def test_fused_total_loss_matches_reference_bit_for_bit(case):
    nodes, cfg = case
    refs = [_bits(*_ref_total_loss(*node, cfg)) for node in nodes]
    assert [_bits(*total_loss(*node, cfg)) for node in nodes] == refs
    # the lockstep stack gives each node its own bits; with the values
    # switched off it skips them and leaves every gradient bit alone
    args = _lockstep_args(nodes, cfg)
    values, grads = total_loss(*args, cfg)
    assert [_bits(v, g) for v, g in zip(values.tolist(), grads)] == refs
    skipped, bare = total_loss(*args, cfg, values=False)
    assert skipped is None
    assert bare.tobytes() == grads.tobytes()
    _, one_bare = total_loss(*nodes[0], cfg, values=False)
    assert one_bare.tobytes() == grads[0].tobytes()


@given(_objective_cases())
def test_chunked_steps_match_reference_bit_for_bit(case):
    # a budget of two samples per buffer splits a step into chunks of two
    # and, for an odd batch, a last chunk of one; each chunk's gradient
    # fold starts from the sum the chunk before it left
    nodes, cfg = case
    refs = [_bits(*_ref_total_loss(*node, cfg)) for node in nodes]
    p = nodes[0][0].parameter_count
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(losses, "_SCAN_BLOCK", 2 * p)
        assert [_bits(*total_loss(*node, cfg)) for node in nodes] == refs
        mp.setattr(losses, "_SCAN_BLOCK", 2 * len(nodes) * p)
        args = _lockstep_args(nodes, cfg)
    for _ in range(2):  # the second step reuses every buffer
        values, grads = total_loss(*args, cfg)
        assert [_bits(v, g) for v, g in zip(values.tolist(), grads)] == refs


def test_steps_return_arrays_they_do_not_reuse():
    rng = np.random.default_rng(13)
    head = init_head(4, 3, 5, rng)
    part = ClassPartition(frozenset({0, 1}), frozenset({2, 3, 4}))
    cfg = LossConfig(batch_size=3)
    wg = head.params
    _, first = total_loss(head, _batch(rng, head, 3, 5), part, wg, cfg)
    kept = first.tobytes()
    _, second = total_loss(head, _batch(rng, head, 3, 5), part, wg, cfg)
    assert first.tobytes() == kept and not np.shares_memory(first, second)
    # two steps through one StepSpace: the first results survive the second
    nodes = [(head, _batch(rng, head, 3, 5), part, wg) for _ in range(2)]
    args = _lockstep_args(nodes, cfg)
    values, grads = total_loss(*args, cfg)
    kept = values.tobytes(), grads.tobytes()
    again = total_loss(args[0], Minibatch(args[1].x[::-1], args[1].targets[::-1]), *args[2:], cfg)
    assert (values.tobytes(), grads.tobytes()) == kept
    assert not any(np.shares_memory(a, b) for a in (values, grads) for b in again)
    # the lockstep form reads only the rows its space was built over: not
    # equal rows or a view of them
    for rows in (args[0].copy(), args[0][:]):
        with pytest.raises(DimensionError):
            total_loss(rows, *args[1:], cfg)


def test_fused_total_loss_keeps_sign_of_zero_gradients():
    # zero features and a dead relu make every product a signed zero
    head = TrainableHead(np.asarray([-1.0, 2.0, 0.5, -0.5,  # conv_w (2, 2)
                                     0.0, -1.0,  # conv_b
                                     -1.0, 0.0, 1.0, -2.0, 0.0, 0.0,  # cls_w (3, 2)
                                     0.0, 0.0, -0.0], np.float32),  # cls_b
                         (2, 2, 3))
    batch = (np.asarray([[0.0, -0.0], [0.0, 0.0]], np.float32), [1, 2])
    part = ClassPartition(frozenset({0}), frozenset({1, 2}))
    for mu, lam in ((0.0, 0.0), (2.0, 0.0), (0.0, 3.8), (2.0, 3.8)):
        cfg = LossConfig(mu=mu, lam=lam)
        wg = head.params * np.float32(-1.0)
        assert _bits(*total_loss(head, batch, part, wg, cfg)) == _bits(
            *_ref_total_loss(head, batch, part, wg, cfg)
        )


def test_total_loss_input_checks():
    head = init_head(3, 2, 4, np.random.default_rng(9))
    wg = head.params
    part = ClassPartition(frozenset({0, 1}), frozenset({2, 3}))
    f = np.asarray([[1.0, 2.0, 3.0]], np.float32)
    cfg = LossConfig()
    with pytest.raises(DimensionError):  # feature length
        total_loss(head, (np.asarray([[1.0, 2.0]], np.float32), [2]), part, wg, cfg)
    with pytest.raises(IndexError):  # target beyond the logits
        total_loss(head, (f, [4]), part, wg, cfg)
    with pytest.raises(DimensionError):  # snapshot size
        total_loss(head, (f, [2]), part, np.asarray([1.0, 2.0], np.float32), cfg)
    with pytest.raises(RegistryError):  # target on neither side
        total_loss(head, (f, [2]), ClassPartition(frozenset({0}), frozenset({1})), wg, cfg)
    with pytest.raises(IndexError):  # partition class beyond the logits
        total_loss(head, (f, [2]), ClassPartition(frozenset({7}), frozenset({2})), wg, cfg)
    # without the MOL term the partition is never consulted
    loose = ClassPartition(frozenset({7}), frozenset({1}))
    total_loss(head, (f, [2]), loose, wg, LossConfig(mu=0.0))


@given(
    classes=st.integers(1, 12),
    new=st.frozensets(st.integers(-15, 20), max_size=8),
    old=st.frozensets(st.integers(-15, 20), max_size=8),
)
@example(classes=4, new=frozenset({-1, 2}), old=frozenset({-4, 0, 9}))
def test_check_view_masks_mark_only_classes_in_range(classes, new, old):
    # with the MOL term off a partition may name ids outside the logits;
    # they mark nothing, and a negative id must not wrap to a class
    head = init_head(2, 2, classes, np.random.default_rng(classes))
    part = ClassPartition(old - new, new)
    view = (np.zeros((1, 2), np.float32), [0])
    _, _, masks = check_view(head, view, part, LossConfig(mu=0.0))
    for mask, side in zip(masks, (part.new_classes, part.old_classes)):
        assert mask.dtype == bool
        assert np.array_equal(mask, np.isin(np.arange(classes), sorted(side)))


_DEFECTS = ("flat", "deep", "columns", "length", "targets_2d", "ragged", "pairs",
            "target_range", "float_targets", "bool_targets", "str_targets")
# defects that need a target: an empty targets array passes whatever its dtype
_TYPED = ("target_range", "float_targets", "bool_targets", "str_targets")


@st.composite
def _views(draw):
    """(c_feat, classes, view, partition, mu, expected): a view that is
    valid or has one defect, and the error it must raise (None when
    valid). Partitions may name classes outside the logits or miss a
    target, which only the MOL term (mu != 0) checks."""
    c_feat, classes = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    defect = draw(st.sampled_from((None,) + _DEFECTS))
    m = draw(st.integers(2 if defect == "ragged" else 1 if defect in _TYPED else 0, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = _sparse(rng, (m, c_feat), draw(st.sampled_from([0.0, 0.5])))
    targets = rng.integers(0, classes, m)
    ids = st.integers(-3, classes + 2)
    new = draw(st.frozensets(ids, max_size=4))
    part = ClassPartition(draw(st.frozensets(ids, max_size=4)) - new, new)
    mu = draw(st.sampled_from([0.0, 1.0]))
    view, expected = (x, targets), DimensionError
    if defect == "flat":
        view = (x.reshape(-1), targets)
    elif defect == "deep":
        view = (x[..., None], targets)
    elif defect == "columns":
        d = draw(st.sampled_from([-1, 1, 2]))
        view = (np.zeros((m, c_feat + d), np.float32), targets)
    elif defect == "length":
        view = (x, rng.integers(0, classes, m + (draw(st.sampled_from([-1, 1])) if m else 1)))
    elif defect == "targets_2d":
        view = (x, targets[:, None])
    elif defect == "ragged":
        rows = [list(r) for r in x]
        rows[-1] = rows[-1][1:] if draw(st.booleans()) else rows[-1] + [0.0]
        view = (rows, targets)
    elif defect == "pairs":  # a list of (features, target) pairs
        view = list(zip(x, targets.tolist()))
    elif defect == "float_targets":  # even whole-number floats are not class ids
        view = (x, targets + draw(st.sampled_from([0.0, 0.7])))
    elif defect == "bool_targets":
        view = (x, targets % 2 == 1)
    elif defect == "str_targets":
        view = (x, targets.astype(str))
    elif defect == "target_range":
        targets[draw(st.integers(0, m - 1))] = draw(st.sampled_from([-1, classes]))
        expected = IndexError
    else:
        # the MOL rules: target by target in order of first appearance,
        # each must lie on a side of the partition, and no other
        # partition class may fall outside the logits
        expected = None
        stray = any(not 0 <= k < classes for k in part.new_classes | part.old_classes)
        for t in dict.fromkeys(targets.tolist()) if mu else ():
            if t not in part.new_classes | part.old_classes:
                expected = RegistryError
                break
            if stray:
                expected = IndexError
                break
    return c_feat, classes, view, part, mu, expected


# no rows: targets as an empty list come out float64, and pass
@example(case=(2, 3, (np.zeros((0, 2), np.float32), np.array([])),
               ClassPartition(frozenset(), frozenset({0})), 1.0, None))
# a feature row of 3 values among rows of 4
@example(case=(4, 3, ([np.arange(4, dtype=np.float32), np.zeros(3, np.float32)], [0, 1]),
               ClassPartition(frozenset(), frozenset({0, 1, 2})), 2.0, DimensionError))
# targets are checked in order of first appearance: target 2 lies on
# neither side before target 0 meets the stray partition class 5
@example(case=(1, 3, (np.zeros((2, 1), np.float32), np.array([2, 0])),
               ClassPartition(frozenset(), frozenset({0, 5})), 1.0, RegistryError))
@given(_views())
@settings(max_examples=200)
def test_check_view_contract(case):
    # a view is (M, c_feat) float32 features and M class ids; anything
    # else is a DimensionError naming the shapes, never numpy's ValueError
    c_feat, classes, view, part, mu, expected = case
    head = init_head(c_feat, 2, classes, np.random.default_rng(0))
    cfg = LossConfig(mu=mu)
    if expected is DimensionError:
        with pytest.raises(DimensionError, match=re.escape(f"(M, {c_feat})")):
            check_view(head, view, part, cfg)
    elif expected is not None:
        with pytest.raises(expected):
            check_view(head, view, part, cfg)
    else:
        x, targets, masks = check_view(head, view, part, cfg)
        assert x.dtype == np.float32 and x.tobytes() == view[0].tobytes()
        assert x.shape == view[0].shape
        assert targets.dtype == np.intp and targets.tolist() == view[1].tolist()
        for mask, side in zip(masks, (part.new_classes, part.old_classes)):
            assert np.array_equal(mask, np.isin(np.arange(classes), sorted(side)))


# -- scan kernels vs the Python loops they replaced -------------------------------


@st.composite
def _matrices(draw):
    m, k, n = draw(st.integers(1, 40)), draw(st.integers(0, 50)), draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    zero_frac = draw(st.sampled_from([0.0, 0.5, 1.0]))
    a = _sparse(rng, (m, k), zero_frac, draw(st.sampled_from([1e-3, 1.0, 1e4])))
    b = _sparse(rng, (k, n), zero_frac)
    return a, b


_NEG_ZERO_PRODUCTS = (-np.ones((3, 5), np.float32), np.zeros((5, 4), np.float32))


def _fold_mm(a, b):
    """(m, k) x (k, n) as the head's contractions run it: the k-major
    product written into a ``Fold``'s terms, then one run."""
    fold = Fold((a.shape[1], a.shape[0], b.shape[1]))
    np.multiply(a.T[:, :, None], b[:, None, :], out=fold.terms)
    fold.run()
    return fold.total


@given(_matrices())
@example(_NEG_ZERO_PRODUCTS)
def test_scan_kernels_match_python_loops(ab):
    a, b = ab
    assert _fold_mm(a, b).tobytes() == _loop_mm_f32(a, b).tobytes()
    assert _fold(a.T).tobytes() == _loop_sum_cols(a).tobytes()
    for row in a:
        assert _fold(row).tobytes() == _loop_seq_sum(row).tobytes()


def test_scan_turns_negative_zero_sums_positive():
    a, b = _NEG_ZERO_PRODUCTS
    assert np.signbit(a[:, :1] * b[:1, :]).all()  # every product is -0.0
    assert not np.signbit(_fold_mm(a, b)).any()
    assert not np.signbit(_fold(np.full(4, -0.0, np.float32)))
