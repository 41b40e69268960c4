"""Parameter averaging, sync rounds and the simulated link."""

import json
import re
import tracemalloc
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedswarm import (
    AggregationError,
    ClassPartition,
    DimensionError,
    LinkModel,
    LossConfig,
    NodeState,
    NumericError,
    SimNetwork,
    SyncMessage,
    calibrated_uwb_link,
    fedavg,
    flatten_params,
    init_head,
    local_epoch,
    message_time,
    run_session,
    sgd_step,
    sync_round,
    total_loss,
    unflatten_params,
    write_trace,
)
from fedswarm import federation, losses


def _vec(*values):
    return np.asarray(values, np.float32)


# -- fedavg ---------------------------------------------------------------------


def test_fedavg_idempotent_on_identical_vectors():
    v = _vec(0.1, -2.7, 3.3)  # awkward float32 values on purpose
    out = fedavg([v, v, v])
    assert np.array_equal(out, v)


def test_fedavg_midpoint():
    out = fedavg([_vec(0.0, 2.0), _vec(2.0, 4.0)])
    assert np.array_equal(out, np.array([1.0, 3.0], np.float32))


def test_fedavg_sample_count_weights():
    out = fedavg([_vec(0.0), _vec(3.0)], weights=[28, 56])
    assert out[0] == 2.0


def test_fedavg_input_validation():
    with pytest.raises(AggregationError):
        fedavg([])
    with pytest.raises(DimensionError):
        fedavg([_vec(1.0), _vec(1.0, 2.0)])
    with pytest.raises(AggregationError):
        fedavg([_vec(1.0), _vec(2.0)], weights=[0.0, 0.0])
    with pytest.raises(AggregationError):
        fedavg([_vec(1.0), _vec(2.0)], weights=[1.0, -1.0])
    with pytest.raises(AggregationError):
        fedavg([_vec(1.0), _vec(2.0)], node_ids=[1, 1])
    with pytest.raises(NumericError):  # the sync boundary checks finiteness
        fedavg([_vec(1.0, np.inf), _vec(2.0, 3.0)])


def test_fedavg_algebra_seeded():
    for seed in range(25):
        rng = np.random.default_rng(900 + seed)
        k = int(rng.integers(1, 6))
        p = int(rng.integers(1, 40))
        vecs = [rng.standard_normal(p).astype(np.float32) for _ in range(k)]
        weights = rng.uniform(0.1, 5.0, k).tolist()
        ids = list(rng.permutation(k * 2)[:k])
        avg = fedavg(vecs, weights, ids)

        # permutation invariance, bit for bit
        perm = list(rng.permutation(k))
        again = fedavg([vecs[i] for i in perm], [weights[i] for i in perm],
                       [ids[i] for i in perm])
        assert np.array_equal(avg, again)

        # componentwise bounds
        stack = np.stack(vecs)
        assert np.all(avg >= stack.min(axis=0))
        assert np.all(avg <= stack.max(axis=0))


# -- messages and network -----------------------------------------------------


def test_sync_message_byte_size():
    msg = SyncMessage("upload", 0, np.zeros((6144,), np.float32))
    assert msg.byte_size == 24576


def test_sync_message_validation():
    with pytest.raises(AggregationError):
        SyncMessage("gossip", 0, np.zeros((4,), np.float32))
    with pytest.raises(DimensionError):
        SyncMessage("upload", 0, np.zeros((2, 2), np.float32))  # only flat vectors


def test_network_clock_and_events():
    net = SimNetwork(LinkModel(throughput_bps=100.0, overhead_s=0.5))
    dt = net.send(SyncMessage("upload", 1, np.zeros((25,), np.float32)))
    assert dt == 0.5 + 100 / 100.0
    net.send(SyncMessage("broadcast", 0, np.zeros((25,), np.float32)))
    assert net.clock_s == 2 * dt
    assert [e.kind for e in net.events] == ["upload", "broadcast"]
    # the link's own validation is the network's: no second copy
    with pytest.raises(NumericError):
        LinkModel(throughput_bps=0.0)


@pytest.mark.parametrize("link", [
    LinkModel(100.0, overhead_s=0.5),
    LinkModel(24576 / 1.7, overhead_s=0.013),
    LinkModel(3.0, overhead_s=1e-9),
])
def test_network_send_equals_cost_model_message_time(link):
    net = SimNetwork(link)
    clock = 0.0
    for n in (1, 25, 6144, 7):
        msg = SyncMessage("upload", 0, np.zeros((n,), np.float32))
        dt = net.send(msg)
        assert dt == message_time(link, msg.byte_size)
        clock += dt
        assert net.clock_s == clock


# -- sync rounds -----------------------------------------------------------------


def _swarm(n_nodes, c_feat=5, hidden=4, classes=3, seed=0):
    rng = np.random.default_rng(seed)
    nodes = []
    for i in range(n_nodes):
        h = init_head(c_feat, hidden, classes, rng)
        nodes.append(NodeState(i, h, h))
    return nodes


def test_sync_round_single_node_is_identity():
    (node,) = _swarm(1)
    before = flatten_params(node.head)
    net = SimNetwork(LinkModel(1e6))
    sync_round([node], net)
    assert np.array_equal(flatten_params(node.head), before)


def test_sync_round_reaches_consensus():
    nodes = _swarm(3)
    net = SimNetwork(LinkModel(1e6))
    sync_round(nodes, net)
    ref = flatten_params(nodes[0].head)
    for n in nodes:
        assert np.array_equal(flatten_params(n.head), ref)
        assert n.snapshot == n.head  # prox anchor replaced too


def test_sync_round_communication_time():
    # 6144-param heads on a link calibrated to 1.7 s per 24576 bytes:
    # three uploads + three broadcasts = 10.2 s on the shared link
    rng = np.random.default_rng(1)
    nodes = []
    for i in range(3):
        h = init_head(158, 32, 32, rng)
        nodes.append(NodeState(i, h, h))
    net = SimNetwork(calibrated_uwb_link(24576, 1.7))
    elapsed = sync_round(nodes, net)
    assert elapsed == pytest.approx(3 * (1.7 + 1.7), rel=1e-12)
    assert net.clock_s == pytest.approx(10.2, rel=1e-12)


def test_sync_round_rejects_mixed_architectures():
    nodes = _swarm(2)
    rng = np.random.default_rng(2)
    other = init_head(5, 4, 7, rng)
    nodes[1] = NodeState(1, other, other)
    with pytest.raises(AggregationError):
        sync_round(nodes, SimNetwork(LinkModel(1e6)))


def test_node_state_architecture_check():
    rng = np.random.default_rng(3)
    with pytest.raises(AggregationError):
        NodeState(0, init_head(5, 4, 3, rng), init_head(5, 4, 2, rng))


# -- local training and sessions ---------------------------------------------------


def _views(nodes, classes, per_node=6, seed=4):
    rng = np.random.default_rng(seed)
    views, parts = {}, {}
    for n in nodes:
        c = n.node_id % classes
        x = rng.standard_normal((per_node, n.head.c_feat)).astype(np.float32)
        views[n.node_id] = (x, np.full(per_node, c))
        parts[n.node_id] = ClassPartition(
            frozenset(k for k in range(classes) if k != c), frozenset({c})
        )
    return views, parts


def _empty_view(c_feat):
    return np.empty((0, c_feat), np.float32), np.empty(0, np.intp)


def _first_rows(view, m):
    x, targets = view
    return x[:m], targets[:m]


def test_local_epoch_empty_view_is_noop():
    (node,) = _swarm(1)
    before = node.head
    cfg = LossConfig(lr=0.1)
    rng = np.random.default_rng(0)
    (loss,) = local_epoch([node], [_empty_view(node.head.c_feat)],
                          [ClassPartition(frozenset(), frozenset({0}))], cfg, rng)
    assert loss == 0.0
    assert rng.bit_generator.state == np.random.default_rng(0).bit_generator.state
    assert node.head == before
    assert node.epochs == 0


def test_local_epoch_rejects_mixed_architectures():
    nodes = _swarm(2)
    other = init_head(5, 4, 7, np.random.default_rng(2))
    nodes[1] = NodeState(1, other, other)
    views, parts = _views(nodes, 3)
    with pytest.raises(AggregationError):
        local_epoch(nodes, [views[0], views[1]], [parts[0], parts[1]], LossConfig(),
                    np.random.default_rng(0))


def test_local_epoch_needs_one_view_and_partition_per_node():
    # a short list must not silently leave a node untrained
    nodes = _swarm(3)
    views, parts = _views(nodes, 3)
    before = [n.head for n in nodes]
    for args in (
        (nodes, [views[0], views[1]], [parts[0], parts[1], parts[2]]),
        (nodes, [views[0], views[1], views[2]], [parts[0], parts[1]]),
        (nodes[:2], [views[0], views[1], views[2]], [parts[0], parts[1], parts[2]]),
        ([], [], []),
    ):
        with pytest.raises(AggregationError, match="one view and one partition per node"):
            local_epoch(*args, LossConfig(), np.random.default_rng(0))
    assert [n.head for n in nodes] == before
    assert all(n.epochs == 0 for n in nodes)


def test_local_epoch_trains_and_counts():
    (node,) = _swarm(1)
    views, parts = _views([node], 3)
    before = node.head
    (loss,) = local_epoch([node], [views[0]], [parts[0]], LossConfig(lr=0.1),
                          np.random.default_rng(0))
    assert loss > 0.0
    assert node.head != before
    assert node.epochs == 1


def test_local_epoch_memory_stays_per_step():
    # many classes and a long view: the MOL sides are built per step, so
    # nothing of classes x view size (4 MB of side masks here) is held
    classes, m = 1000, 2000
    rng = np.random.default_rng(3)
    head = init_head(2, 2, classes, rng)
    node = NodeState(0, head, head)
    view = rng.standard_normal((m, 2)).astype(np.float32), rng.integers(0, classes, m)
    part = ClassPartition(frozenset(range(500)), frozenset(range(500, classes)))
    tracemalloc.start()
    try:
        local_epoch([node], [view], [part], LossConfig(), np.random.default_rng(0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 << 20


def test_local_epoch_heads_outlive_the_next_call():
    # a call's buffers are reused step after step; the heads it hands
    # out must not be views of them, nor of the next call's
    nodes, others = _swarm(3, seed=1), _swarm(3, seed=2)
    views, parts = _views(nodes, 3)
    cfg = LossConfig(lr=0.1)
    local_epoch(nodes, [views[i] for i in range(3)], [parts[i] for i in range(3)], cfg,
                np.random.default_rng(0), 2)
    kept = [n.head.params.tobytes() for n in nodes]
    local_epoch(others, [views[i] for i in range(3)], [parts[i] for i in range(3)], cfg,
                np.random.default_rng(1), 2)
    assert [n.head.params.tobytes() for n in nodes] == kept
    assert not any(np.shares_memory(a.head.params, b.head.params) for a in nodes for b in others)


def _reanchored_epoch(head, view, part, cfg, rng):
    """The pooled-data loop central training used before it ran through
    ``local_epoch``: same shuffle, prox anchor re-taken every batch.
    Returns the trained head and the mean batch loss."""
    x, targets = view
    order = rng.permutation(len(targets))
    losses = []
    for i in range(0, len(order), cfg.batch_size):
        rows = order[i : i + cfg.batch_size]
        loss, grads = total_loss(head, (x[rows], targets[rows]), part, flatten_params(head), cfg)
        head = sgd_step(head, grads, cfg.lr)
        losses.append(loss)
    return head, float(sum(losses) / len(losses))


@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 9),
    batch_size=st.integers(1, 5),
    mu=st.sampled_from([0.0, 1.5]),
    snapshot=st.sampled_from(["head", "other", "huge", "zeros"]),
)
def test_local_epoch_at_zero_lam_ignores_the_snapshot(seed, n, batch_size, mu, snapshot):
    rng = np.random.default_rng(seed)
    head = init_head(5, 4, 3, rng)
    anchor = {
        "head": head,
        "other": init_head(5, 4, 3, rng),
        "huge": init_head(5, 4, 3, rng, sigma=1e30),
        "zeros": unflatten_params(head, np.zeros((head.parameter_count,), np.float32)),
    }[snapshot]
    view = rng.standard_normal((n, 5)).astype(np.float32), rng.integers(3, size=n)
    part = ClassPartition(frozenset({0}), frozenset({1, 2}))
    cfg = LossConfig(mu=mu, lam=0.0, lr=0.1, batch_size=batch_size)
    node = NodeState(0, head, anchor)
    (loss,) = local_epoch([node], [view], [part], cfg, np.random.default_rng(seed))
    ref, ref_loss = _reanchored_epoch(head, view, part, cfg, np.random.default_rng(seed))
    assert np.array_equal(flatten_params(node.head), flatten_params(ref))
    assert loss == ref_loss


def _sequential_epochs(nodes, views, parts, cfg, rng, epochs):
    """The loop before lockstep training: each node in turn, its epochs
    one after another, one ``total_loss`` call per minibatch. Returns the
    trained heads and each node's mean loss over its last epoch."""
    heads, losses = [], []
    for node, (x, targets), part in zip(nodes, views, parts):
        head, loss = node.head, 0.0
        w_global = flatten_params(node.snapshot)
        for _ in range(epochs if len(targets) else 0):
            order = rng.permutation(len(targets))
            batch_losses = []
            for i in range(0, len(order), cfg.batch_size):
                rows = order[i : i + cfg.batch_size]
                value, grads = total_loss(head, (x[rows], targets[rows]), part, w_global, cfg)
                head = sgd_step(head, grads, cfg.lr)
                batch_losses.append(value)
            loss = float(sum(batch_losses) / len(batch_losses))
        heads.append(head)
        losses.append(loss)
    return heads, losses


@st.composite
def _rounds(draw, max_nodes=8, sizes=st.integers(0, 13), epochs=st.integers(1, 3),
            batch_sizes=st.integers(1, 5)):
    n = draw(st.integers(1, max_nodes))
    sizes = draw(st.lists(sizes, min_size=n, max_size=n))
    cfg = LossConfig(
        mu=draw(st.sampled_from([0.0, 1.5])), lam=draw(st.sampled_from([0.0, 3.8])),
        lr=0.1, batch_size=draw(batch_sizes),
    )
    epochs = draw(epochs)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    c_feat, classes = int(rng.integers(1, 7)), int(rng.integers(2, 6))
    nodes, views, parts = [], [], []
    for i, m in enumerate(sizes):
        # heads and snapshots differ per node, so each node's prox anchor counts
        head = init_head(c_feat, 3, classes, rng, sigma=0.5)
        nodes.append(NodeState(i, head, init_head(c_feat, 3, classes, rng, sigma=0.5)))
        views.append((rng.standard_normal((m, c_feat)).astype(np.float32),
                      rng.integers(classes, size=m)))
        new = rng.random(classes) < 0.5
        parts.append(ClassPartition(frozenset(np.flatnonzero(~new).tolist()),
                                    frozenset(np.flatnonzero(new).tolist())))
    return nodes, views, parts, cfg, epochs, int(rng.integers(2**32))


# wide views and long calls: one shuffle draw per node spans up to 60 epochs
# of up to 300 rows, and a call may hold no epoch at all
_WIDE_ROUNDS = _rounds(
    max_nodes=4, sizes=st.sampled_from([0, 1, 2, 28, 100, 300]) | st.integers(0, 300),
    epochs=st.integers(0, 60), batch_sizes=st.integers(16, 64),
)


@given(st.one_of(_rounds(), _WIDE_ROUNDS))
@settings(max_examples=40)
def test_lockstep_local_epoch_equals_nodes_one_by_one(case):
    # covers uneven and empty views in any order; ragged tails step as
    # narrower slices of the call's length-sorted stack
    nodes, views, parts, cfg, epochs, seed = case
    ref_rng = np.random.default_rng(seed)
    ref_heads, ref_losses = _sequential_epochs(nodes, views, parts, cfg, ref_rng, epochs)
    rng = np.random.default_rng(seed)
    losses = local_epoch(nodes, views, parts, cfg, rng, epochs)
    assert losses == ref_losses
    for node, ref, (_, targets) in zip(nodes, ref_heads, views):
        assert node.head.params.tobytes() == ref.params.tobytes()
        assert node.epochs == (epochs if len(targets) else 0)
    # the shared stream is left where the one-by-one loop leaves it
    assert rng.bit_generator.state == ref_rng.bit_generator.state


@given(_rounds())
def test_chunked_lockstep_local_epoch_equals_nodes_one_by_one(case):
    # a budget of two samples of one head per step buffer: groups of two or
    # more nodes step one sample at a time, a lone node two, and each
    # chunk's gradient fold carries on from the one before it
    nodes, views, parts, cfg, epochs, seed = case
    ref_rng = np.random.default_rng(seed)
    ref_heads, ref_losses = _sequential_epochs(nodes, views, parts, cfg, ref_rng, epochs)
    rng = np.random.default_rng(seed)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(losses, "_SCAN_BLOCK", 2 * nodes[0].head.parameter_count)
        assert local_epoch(nodes, views, parts, cfg, rng, epochs) == ref_losses
    for node, ref in zip(nodes, ref_heads):
        assert node.head.params.tobytes() == ref.params.tobytes()
    assert rng.bit_generator.state == ref_rng.bit_generator.state


@pytest.mark.parametrize("epochs", [-1, 2.5, "3", None, True, np.float64(2.0)])
def test_local_epoch_rejects_bad_epoch_counts(epochs):
    nodes = _swarm(2)
    views, parts = _views(nodes, 3)
    before = [n.head for n in nodes]
    rng = np.random.default_rng(0)
    with pytest.raises(AggregationError, match=re.escape(repr(epochs))):
        local_epoch(nodes, [views[0], views[1]], [parts[0], parts[1]], LossConfig(), rng, epochs)
    assert [n.head for n in nodes] == before
    assert rng.bit_generator.state == np.random.default_rng(0).bit_generator.state


def test_local_epoch_takes_any_nonnegative_integral_count():
    # T0 trains for t0_epochs, which may be 0; numpy integers count too
    views, parts = _views(_swarm(2), 3)
    args = [views[0], views[1]], [parts[0], parts[1]], LossConfig(lr=0.1)
    nodes = _swarm(2)
    assert local_epoch(nodes, *args, np.random.default_rng(0), 0) == [0.0, 0.0]
    assert [n.head.params.tobytes() for n in nodes] == [
        n.head.params.tobytes() for n in _swarm(2)]
    runs = []
    for epochs in (2, np.int64(2)):
        nodes = _swarm(2)
        losses = local_epoch(nodes, *args, np.random.default_rng(0), epochs)
        runs.append((losses, [n.head.params.tobytes() for n in nodes], nodes[0].epochs))
    assert runs[0] == runs[1] and runs[1][2] == 2 and type(runs[1][2]) is int


def test_local_epoch_rejects_a_shuffle_table_past_the_cap():
    # 2**62 epochs of 12 rows would need a 4e20-byte shuffle table
    nodes = _swarm(2)
    views, parts = _views(nodes, 3)
    before = [n.head for n in nodes]
    rng = np.random.default_rng(0)
    with pytest.raises(AggregationError, match=f"epochs={2**62} over 12 samples"):
        local_epoch(nodes, [views[0], views[1]], [parts[0], parts[1]], LossConfig(), rng,
                    2**62)
    assert [n.head for n in nodes] == before and all(n.epochs == 0 for n in nodes)
    assert rng.bit_generator.state == np.random.default_rng(0).bit_generator.state


def test_local_epoch_steps_its_own_rows_and_hands_out_fresh_heads(monkeypatch):
    # the steps update parameter rows in place; those rows are slices of
    # the call's one stack, never the caller's heads or snapshots, and
    # the trained heads share no memory with them
    spaces = []

    class Recorded(losses.StepSpace):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            spaces.append(self)

    monkeypatch.setattr(federation, "StepSpace", Recorded)
    nodes = _swarm(3, seed=5)
    nodes[1].snapshot = init_head(5, 4, 3, np.random.default_rng(6))
    views, parts = _views(nodes, 3, per_node=8)
    # 5, 8, 6 rows, not longest first: ragged tails, each a slice of the stack
    views[0], views[2] = _first_rows(views[0], 5), _first_rows(views[2], 6)
    given_heads = [(n.head, n.head.params.tobytes(), n.snapshot, n.snapshot.params.tobytes())
                   for n in nodes]
    cfg = LossConfig(lr=0.1, batch_size=4)
    local_epoch(nodes, [views[i] for i in range(3)], [parts[i] for i in range(3)], cfg,
                np.random.default_rng(0), 2)
    assert sorted(len(s.params) for s in spaces) == [1, 1, 1, 3]  # one full group, 3 ragged
    stack = spaces[0].params.base
    assert stack is not None and stack.shape == (3, nodes[0].head.parameter_count)
    assert all(s.params.base is stack for s in spaces)
    for node, (head, head_bytes, snap, snap_bytes) in zip(nodes, given_heads):
        assert head.params.tobytes() == head_bytes and snap.params.tobytes() == snap_bytes
        assert node.snapshot is snap and node.head is not head
        assert node.head.params.tobytes() != head_bytes
        for space in spaces:
            assert not np.shares_memory(node.head.params, space.params)
            assert not np.shares_memory(head.params, space.params)
            assert not np.shares_memory(snap.params, space.params)


def test_run_session_zero_rounds():
    nodes = _swarm(3)
    before = flatten_params(nodes[0].head)
    views, parts = _views(nodes, 3)
    head, trace = run_session(nodes, SimNetwork(LinkModel(1e6)), 0, views, parts,
                              LossConfig(lr=0.1), np.random.default_rng(0))
    assert trace == []
    assert np.array_equal(flatten_params(head), before)


def test_run_session_all_empty_views_keeps_head():
    # nodes start in consensus, as after any broadcast
    shared = init_head(5, 4, 3, np.random.default_rng(21))
    nodes = [NodeState(i, shared, shared) for i in range(3)]
    before = flatten_params(nodes[0].head)
    views = {n.node_id: _empty_view(5) for n in nodes}
    parts = {n.node_id: ClassPartition(frozenset(), frozenset({0})) for n in nodes}
    head, trace = run_session(nodes, SimNetwork(LinkModel(1e6)), 4, views, parts,
                              LossConfig(lr=0.1), np.random.default_rng(0))
    assert np.array_equal(flatten_params(head), before)
    assert all(e["mean_loss"] == {"0": 0.0, "1": 0.0, "2": 0.0} for e in trace)


def test_run_session_trace_reproducible():
    def go():
        nodes = _swarm(3, seed=7)
        views, parts = _views(nodes, 3)
        net = SimNetwork(LinkModel(1e5))
        head, trace = run_session(nodes, net, 3, views, parts,
                                  LossConfig(mu=2.0, lam=3.8, lr=0.05),
                                  np.random.default_rng(11))
        return flatten_params(head), json.dumps(trace, sort_keys=True)

    h1, t1 = go()
    h2, t2 = go()
    assert np.array_equal(h1, h2)
    assert t1 == t2


def _rounds_by_hand(nodes, net, rounds, views, parts, cfg, rng, evaluator):
    """``run_session`` as its rounds written out: one ``local_epoch``
    call per round on the nodes with a nonempty view, then a sync."""
    order = sorted(nodes, key=lambda n: n.node_id)
    trace = []
    for r in range(rounds):
        losses = dict.fromkeys((n.node_id for n in order), 0.0)
        active = [n for n in order if n.node_id in views and len(views[n.node_id][1])]
        if active:
            trained = local_epoch(active, [views[n.node_id] for n in active],
                                  [parts[n.node_id] for n in active], cfg, rng,
                                  cfg.local_epochs_per_round)
            losses.update(zip((n.node_id for n in active), trained))
        comm_s = sync_round(nodes, net)
        trace.append({"round": r, "mean_loss": {str(k): v for k, v in sorted(losses.items())},
                      "comm_s": comm_s, "accuracy": evaluator(order[0].head)})
    return order[0].head, trace


@given(_rounds(max_nodes=4), st.integers(0, 4), st.sampled_from([0.1, 1e30]))
def test_run_session_equals_its_rounds_run_by_hand(case, rounds, lr):
    # the session builds its training state once and runs every round on
    # it; that must be what one local_epoch call per round gives, a
    # diverging round (lr 1e30) included: same error, same nodes updated
    nodes, views, parts, cfg, epochs, seed = case
    cfg = replace(cfg, local_epochs_per_round=epochs, lr=lr)
    views = {n.node_id: v for n, v in zip(nodes, views)}
    parts = {n.node_id: p for n, p in zip(nodes, parts)}
    runs = []
    for session in (run_session, _rounds_by_hand):
        seen = []

        def evaluator(head):
            seen.append((head, head.params.tobytes()))
            return float(head.params.astype(np.float64).sum())

        swarm = [NodeState(n.node_id, n.head, n.snapshot) for n in nodes]
        net, rng = SimNetwork(calibrated_uwb_link()), np.random.default_rng(seed)
        try:
            head, trace = session(swarm, net, rounds, views, parts, cfg, rng, evaluator)
            out = head.params.tobytes(), json.dumps(trace, sort_keys=True)
        except NumericError as e:
            out = str(e)
        # the session's stacks are overwritten every round: a head handed
        # out must not be a view of them
        assert [h.params.tobytes() for h, _ in seen] == [b for _, b in seen]
        runs.append((out, net.events, rng.bit_generator.state,
                     [(n.head.params.tobytes(), n.epochs) for n in swarm]))
    assert runs[0] == runs[1]


def test_run_session_builds_its_training_state_once(monkeypatch):
    built = Counter()

    class Recorded(losses.StepSpace):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built["StepSpace"] += 1

    def recorded_check_view(*args, **kwargs):
        built["check_view"] += 1
        return losses.check_view(*args, **kwargs)

    monkeypatch.setattr(federation, "StepSpace", Recorded)
    monkeypatch.setattr(federation, "check_view", recorded_check_view)
    per_session = {}
    for rounds in (1, 4):
        built.clear()
        nodes = _swarm(3, seed=5)
        views, parts = _views(nodes, 3, per_node=7)
        views[1] = _first_rows(views[1], 5)  # ragged: more than one width group
        run_session(nodes, SimNetwork(LinkModel(1e6)), rounds, views, parts,
                    LossConfig(lr=0.1), np.random.default_rng(0))
        per_session[rounds] = dict(built)
    assert per_session[1]["check_view"] == 3 and per_session[1]["StepSpace"] > 1
    assert per_session[4] == per_session[1]


def test_run_session_rejects_negative_rounds():
    nodes = _swarm(2)
    views, parts = _views(nodes, 3)
    with pytest.raises(AggregationError):
        run_session(nodes, SimNetwork(LinkModel(1e6)), -1, views, parts,
                    LossConfig(), np.random.default_rng(0))


@pytest.mark.parametrize("rounds", [2.5, "3", None, True])
def test_run_session_rejects_non_integral_rounds(rounds):
    nodes = _swarm(2)
    views, parts = _views(nodes, 3)
    net = SimNetwork(LinkModel(1e6))
    with pytest.raises(AggregationError, match=re.escape(repr(rounds))):
        run_session(nodes, net, rounds, views, parts, LossConfig(), np.random.default_rng(0))
    assert net.events == []


def test_run_session_counts_numpy_integer_rounds():
    def go(rounds):
        nodes = _swarm(2)
        views, parts = _views(nodes, 3)
        return run_session(nodes, SimNetwork(LinkModel(1e6)), rounds, views, parts,
                           LossConfig(lr=0.1), np.random.default_rng(0))[1]

    assert json.dumps(go(np.int64(2))) == json.dumps(go(2))


# -- trace log ----------------------------------------------------------------------


def test_trace_log_format_and_audit(tmp_path):
    nodes = _swarm(3, seed=9)
    views, parts = _views(nodes, 3)
    net = SimNetwork(LinkModel(1e5))
    run_session(nodes, net, 2, views, parts, LossConfig(lr=0.05),
                np.random.default_rng(1))
    path = tmp_path / "trace.tsv"
    write_trace(net, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "time_s\tnode\tkind\tbytes"
    assert len(lines) == 1 + len(net.events)
    p_bytes = 4 * nodes[0].head.parameter_count
    times = []
    for ln in lines[1:]:
        t, node, kind, n_bytes = ln.split("\t")
        times.append(float(t))
        assert kind in ("upload", "broadcast")
        # every message is exactly one head; nothing sample-sized leaks
        assert int(n_bytes) == p_bytes
    assert times == sorted(times)
    assert len(lines) - 1 == 2 * 3 * 2  # (upload + broadcast) x nodes x rounds
