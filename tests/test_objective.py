"""Composite loss (cross-entropy + mean-output + proximal) and SGD."""

import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from fedswarm import (
    ClassPartition,
    ConfigError,
    DimensionError,
    LossConfig,
    RegistryError,
    TrainableHead,
    flatten_params,
    head_logits,
    init_head,
    sgd_step,
    total_loss,
)
from fedswarm.gradcheck import REL_TOL, check_case
from fedswarm.losses import Minibatch, _ce_kernel, _mol_kernel, _sides, stack_pairs
from fedswarm.tensor import _scan, mm_f32


# -- cross-entropy --------------------------------------------------------------


def cross_entropy(logits: np.ndarray, target: int) -> float:
    """-log softmax(logits)[target] of one logit vector, through the kernel
    (class-major: the vector is the kernel's one column)."""
    losses, _ = _ce_kernel(logits[:, None], np.array([target]))
    return float(losses[0])


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
            stack_pairs(head, [(np.asarray([1.0], np.float32), bad)], ClassPartition(set(), {0, 1}), LossConfig())


def test_ce_nonnegative_random():
    rng = np.random.default_rng(0)
    for _ in range(20):
        z = rng.standard_normal(6).astype(np.float32)
        assert cross_entropy(z, int(rng.integers(6))) >= 0.0


# -- mean-output regularizer -----------------------------------------------------


def _part(old, new):
    return ClassPartition(frozenset(old), frozenset(new))


def mol_loss(logits: np.ndarray, target: int, part: ClassPartition) -> float:
    """Mean-output term of one logit vector, through the kernel: the
    partition is checked and masked as in training, the target excluded."""
    head = init_head(1, 1, logits.size, np.random.default_rng(0))
    _, targets, masks = stack_pairs(head, [(np.asarray([0.0], np.float32), target)], part, LossConfig())
    sides, counts = _sides(tuple(m[None] for m in masks), targets[None])
    value, _ = _mol_kernel(logits[:, None], sides[:, :, 0], counts[:, 0])
    return float(value[0])


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
    batch = [(np.ones(head.c_feat, np.float32), 0)]
    part = ClassPartition(frozenset(), frozenset({0}))

    def loss(at):
        return total_loss(head, batch, part, w_global, LossConfig(mu=0.0, lam=at))[0]

    return loss(lam) - loss(0.0)


def test_prox_zero_at_global():
    h = init_head(3, 2, 2, np.random.default_rng(10))
    assert prox_loss(h, flatten_params(h), 3.8) == 0.0


def test_prox_reference_value():
    h = init_head(3, 2, 2, np.random.default_rng(11))
    diff = np.where(np.arange(h.parameter_count) % 2 == 0, 1.0, -1.0).astype(np.float32)
    wg = flatten_params(h) - diff
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
    return [
        (rng.standard_normal(head.c_feat).astype(np.float32), int(t))
        for t in rng.integers(0, classes, n)
    ]


def test_total_loss_reduces_to_mean_ce():
    rng = np.random.default_rng(3)
    head = init_head(4, 3, 5, rng)
    batch = _batch(rng, head, 3, 5)
    part = ClassPartition(frozenset({0, 1}), frozenset({2, 3, 4}))
    cfg = LossConfig(mu=0.0, lam=0.0, lr=0.01)
    val, _ = total_loss(head, batch, part, flatten_params(head), cfg)
    # standalone path: eager per-sample CE, same fixed-order mean
    ces = np.array(
        [cross_entropy(head_logits(head, f), t) for f, t in batch], np.float32
    )
    assert val == float(np.float32(_scan(ces) / np.float32(len(ces))))


def test_total_loss_single_sample_at_global_is_ce():
    rng = np.random.default_rng(4)
    head = init_head(4, 3, 4, rng)
    f = rng.standard_normal(4).astype(np.float32)
    part = ClassPartition(frozenset(), frozenset(range(4)))
    cfg = LossConfig(mu=0.0, lam=3.8, lr=0.01)
    val, _ = total_loss(head, [(f, 2)], part, flatten_params(head), cfg)
    assert val == cross_entropy(head_logits(head, f), 2)


def test_total_loss_gradient_matches_finite_differences():
    rng = np.random.default_rng(5)
    head = init_head(3, 2, 4, rng)
    batch = [(rng.standard_normal(3).astype(np.float32), 2 + int(t)) for t in rng.integers(0, 2, 3)]
    part = ClassPartition(frozenset({0, 1}), frozenset({2, 3}))
    wg = flatten_params(head) + 0.1
    cfg = LossConfig(mu=2.0, lam=3.8, lr=0.01)
    r = check_case(head, batch, part, wg, cfg)
    assert r["max_scaled_err"] < REL_TOL


def test_total_loss_empty_batch():
    head = init_head(3, 2, 2, np.random.default_rng(6))
    part = ClassPartition(frozenset(), frozenset({0, 1}))
    with pytest.raises(DimensionError):
        total_loss(head, [], part, flatten_params(head), LossConfig())


# -- SGD step ----------------------------------------------------------------------


def _unit_head(value: float) -> TrainableHead:
    return TrainableHead(
        conv_w=np.asarray([[value]], np.float32),
        conv_b=np.asarray([value], np.float32),
        cls_w=np.asarray([[value]], np.float32),
        cls_b=np.asarray([value], np.float32),
    )


def test_sgd_zero_lr_is_identity():
    rng = np.random.default_rng(7)
    head = init_head(4, 3, 2, rng)
    part = ClassPartition(frozenset(), frozenset({0, 1}))
    _, grads = total_loss(
        head, _batch(rng, head, 2, 2), part, flatten_params(head), LossConfig()
    )
    assert sgd_step(head, grads, 0.0) == head


def test_sgd_single_step_arithmetic():
    head = _unit_head(1.0)
    grads = np.full(4, 2.0, np.float32)  # flat, in flatten_params order
    stepped = sgd_step(head, grads, 0.5)
    assert stepped == _unit_head(0.0)


def test_sgd_shape_mismatch():
    head = _unit_head(1.0)
    grads = np.full(5, 2.0, np.float32)  # one value too many
    with pytest.raises(DimensionError):
        sgd_step(head, grads, 0.5)


def test_sgd_drives_down_separable_toy_loss():
    rng = np.random.default_rng(8)
    head = init_head(2, 4, 2, rng)
    batch = []
    for i in range(8):
        center = np.array([1.5, 0.0] if i % 2 == 0 else [-1.5, 0.0], np.float32)
        x = center + rng.standard_normal(2).astype(np.float32) * 0.1
        batch.append((x, i % 2))
    part = ClassPartition(frozenset(), frozenset({0, 1}))
    cfg = LossConfig(mu=0.0, lam=0.0, lr=0.1, batch_size=8)
    losses = []
    for _ in range(150):
        val, grads = total_loss(head, batch, part, flatten_params(head), cfg)
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
    n = np.float32(len(batch))
    inv_n = np.float32(1.0) / n
    mu, lam = np.float32(cfg.mu), np.float32(cfg.lam)
    d = flatten_params(head) - w_global
    # every leaf gradient starts from +0.0 plus its prox part
    grads, off = [], 0
    for p in params:
        grads.append(np.float32(0.0) + (lam * d[off : off + p.size]).reshape(p.shape))
        off += p.size
    terms, saved = [], []
    for feats, target in batch:
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
    head = TrainableHead(
        conv_w=_sparse(rng, (hidden, c_feat), zero_frac / 2),
        conv_b=_sparse(rng, hidden, zero_frac, 0.5),
        cls_w=_sparse(rng, (classes, hidden), zero_frac / 2),
        cls_b=_sparse(rng, classes, zero_frac, 0.5),
    )
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
    batch = [
        (_sparse(rng, c_feat, zero_frac), int(rng.choice(members)))
        for _ in range(n)
    ]
    w_global = flatten_params(head) + _sparse(rng, head.parameter_count, zero_frac, 0.2)
    return head, batch, part, w_global


def _lockstep_args(nodes, cfg):
    """The nodes' one-head arguments as one lockstep call's: an (N, P)
    head stack, a Minibatch, the (new, old) class masks and the (N, P)
    snapshots."""
    stacked = [stack_pairs(head, batch, part, cfg) for head, batch, part, _ in nodes]
    head = nodes[0][0].with_params(np.stack([h.params for h, *_ in nodes]))
    targets = np.stack([t for _, t, _ in stacked])
    masks = tuple(np.stack([m[k] for *_, m in stacked]) for k in (0, 1))
    batch = Minibatch(np.stack([x for x, _, _ in stacked]), targets)
    return head, batch, masks, np.stack([w for *_, w in nodes])


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


def test_fused_total_loss_keeps_sign_of_zero_gradients():
    # zero features and a dead relu make every product a signed zero
    head = TrainableHead(
        conv_w=np.asarray([[-1.0, 2.0], [0.5, -0.5]], np.float32),
        conv_b=np.asarray([0.0, -1.0], np.float32),
        cls_w=np.asarray([[-1.0, 0.0], [1.0, -2.0], [0.0, 0.0]], np.float32),
        cls_b=np.asarray([0.0, 0.0, -0.0], np.float32),
    )
    batch = [(np.asarray([0.0, -0.0], np.float32), 1), (np.asarray([0.0, 0.0], np.float32), 2)]
    part = ClassPartition(frozenset({0}), frozenset({1, 2}))
    for mu, lam in ((0.0, 0.0), (2.0, 0.0), (0.0, 3.8), (2.0, 3.8)):
        cfg = LossConfig(mu=mu, lam=lam)
        wg = flatten_params(head) * np.float32(-1.0)
        assert _bits(*total_loss(head, batch, part, wg, cfg)) == _bits(
            *_ref_total_loss(head, batch, part, wg, cfg)
        )


def test_total_loss_input_checks():
    head = init_head(3, 2, 4, np.random.default_rng(9))
    wg = flatten_params(head)
    part = ClassPartition(frozenset({0, 1}), frozenset({2, 3}))
    f = np.asarray([1.0, 2.0, 3.0], np.float32)
    cfg = LossConfig()
    with pytest.raises(DimensionError):  # feature length
        total_loss(head, [(np.asarray([1.0, 2.0], np.float32), 2)], part, wg, cfg)
    with pytest.raises(IndexError):  # target beyond the logits
        total_loss(head, [(f, 4)], part, wg, cfg)
    with pytest.raises(DimensionError):  # snapshot size
        total_loss(head, [(f, 2)], part, np.asarray([1.0, 2.0], np.float32), cfg)
    with pytest.raises(RegistryError):  # target on neither side
        total_loss(head, [(f, 2)], ClassPartition(frozenset({0}), frozenset({1})), wg, cfg)
    with pytest.raises(IndexError):  # partition class beyond the logits
        total_loss(head, [(f, 2)], ClassPartition(frozenset({7}), frozenset({2})), wg, cfg)
    # without the MOL term the partition is never consulted
    loose = ClassPartition(frozenset({7}), frozenset({1}))
    total_loss(head, [(f, 2)], loose, wg, LossConfig(mu=0.0))


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


@given(_matrices())
@example(_NEG_ZERO_PRODUCTS)
def test_scan_kernels_match_python_loops(ab):
    a, b = ab
    assert mm_f32(a, b).tobytes() == _loop_mm_f32(a, b).tobytes()
    assert _scan(a.T).tobytes() == _loop_sum_cols(a).tobytes()
    for row in a:
        assert _scan(row).tobytes() == _loop_seq_sum(row).tobytes()


def test_scan_turns_negative_zero_sums_positive():
    a, b = _NEG_ZERO_PRODUCTS
    assert np.signbit(a[:, :1] * b[:1, :]).all()  # every product is -0.0
    assert not np.signbit(mm_f32(a, b)).any()
    assert not np.signbit(_scan(np.full(4, -0.0, np.float32)))
