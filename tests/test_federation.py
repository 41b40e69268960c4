"""Parameter averaging, sync rounds and the simulated link."""

import json
import math
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
    NumericError,
    SimNetwork,
    SyncMessage,
    calibrated_uwb_link,
    fedavg,
    init_head,
    local_epoch,
    message_time,
    run_session,
    sgd_step,
    sync_round,
    total_loss,
    write_trace,
)
from fedswarm import errors, federation, losses


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
    # weights are finite real numbers and ids integers: nothing is coerced
    pair = [_vec(1.0), _vec(2.0)]
    for bad in ("1", True, np.bool_(True), math.nan, math.inf, -np.inf, np.float32(np.inf),
                10**400):
        with pytest.raises(AggregationError, match=re.escape(repr(bad)[:20])):
            fedavg(pair, weights=[bad, 3])
    for bad in (0.5, 1.0, True, np.float64(2.0), "1", 2**70, np.uint64(2**64 - 1)):
        with pytest.raises(AggregationError, match=re.escape(repr(bad))):
            fedavg(pair, node_ids=[bad, 7])
    # numpy scalars are numbers
    out = fedavg(pair, weights=[np.float32(1.0), np.int64(3)], node_ids=[np.int64(4), np.int32(1)])
    assert out[0] == 1.75


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
    net = SimNetwork(LinkModel(throughput_bps=80.0))
    dt = net.send(SyncMessage("upload", 1, np.zeros((25,), np.float32)))
    assert dt == 100 / 80.0
    net.send(SyncMessage("broadcast", 0, np.zeros((25,), np.float32)))
    assert net.clock_s == 2 * dt
    assert [e.kind for e in net.events] == ["upload", "broadcast"]
    # the link's own validation is the network's: no second copy
    with pytest.raises(NumericError):
        LinkModel(throughput_bps=0.0)


@pytest.mark.parametrize("link", [
    LinkModel(100.0),
    LinkModel(24576 / 1.7),
    LinkModel(3.0),
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
    """A distinct head per node."""
    rng = np.random.default_rng(seed)
    return [init_head(c_feat, hidden, classes, rng) for _ in range(n_nodes)]


def test_sync_round_single_node_is_identity():
    (h,) = _swarm(1)
    head, _ = sync_round([h], SimNetwork(LinkModel(1e6)))
    assert np.array_equal(head.params, h.params)


def test_sync_round_reaches_consensus():
    heads = _swarm(3)
    net = SimNetwork(LinkModel(1e6))
    head, _ = sync_round(heads, net)
    assert np.array_equal(head.params, fedavg([h.params for h in heads]))
    # node i uploads i-th, then the master broadcasts once per node
    assert [(e.node, e.kind) for e in net.events] == (
        [(0, "upload"), (1, "upload"), (2, "upload")] + [(0, "broadcast")] * 3)


def test_sync_round_communication_time():
    # 6144-param heads on a link calibrated to 1.7 s per 24576 bytes:
    # three uploads + three broadcasts = 10.2 s on the shared link
    heads = _swarm(3, c_feat=158, hidden=32, classes=32, seed=1)
    net = SimNetwork(calibrated_uwb_link(24576, 1.7))
    _, elapsed = sync_round(heads, net)
    assert elapsed == pytest.approx(3 * (1.7 + 1.7), rel=1e-12)
    assert net.clock_s == pytest.approx(10.2, rel=1e-12)


def test_sync_round_rejects_mixed_architectures():
    heads = _swarm(2)
    heads[1] = init_head(5, 4, 7, np.random.default_rng(2))
    with pytest.raises(AggregationError):
        sync_round(heads, SimNetwork(LinkModel(1e6)))


# -- local training and sessions ---------------------------------------------------


def _views(n_nodes, classes, c_feat=5, per_node=6, seed=4):
    """Node i's view holds ``per_node`` rows of class i % classes, its new one."""
    rng = np.random.default_rng(seed)
    views, parts = [], []
    for i in range(n_nodes):
        c = i % classes
        x = rng.standard_normal((per_node, c_feat)).astype(np.float32)
        views.append((x, np.full(per_node, c)))
        parts.append(ClassPartition(
            frozenset(k for k in range(classes) if k != c), frozenset({c})
        ))
    return views, parts


def _empty_view(c_feat):
    return np.empty((0, c_feat), np.float32), np.empty(0, np.intp)


def _first_rows(view, m):
    x, targets = view
    return x[:m], targets[:m]


def test_local_epoch_empty_view_is_noop():
    (head,) = _swarm(1)
    rng = np.random.default_rng(0)
    (out,), (loss,) = local_epoch([head], [_empty_view(head.c_feat)],
                                  [ClassPartition(frozenset(), frozenset({0}))],
                                  LossConfig(lr=0.1), rng)
    assert loss == 0.0 and out is head
    assert rng.bit_generator.state == np.random.default_rng(0).bit_generator.state


def test_local_epoch_rejects_mixed_architectures():
    heads = _swarm(2)
    heads[1] = init_head(5, 4, 7, np.random.default_rng(2))
    views, parts = _views(2, 3)
    with pytest.raises(AggregationError):
        local_epoch(heads, views, parts, LossConfig(), np.random.default_rng(0))


def test_local_epoch_needs_one_view_and_partition_per_node():
    # a short list must not silently leave a node untrained
    heads = _swarm(3)
    views, parts = _views(3, 3)
    rng = np.random.default_rng(0)
    for args in (
        (heads, views[:2], parts),
        (heads, views, parts[:2]),
        (heads[:2], views, parts),
        ([], [], []),
    ):
        with pytest.raises(AggregationError, match="one view and one partition per node"):
            local_epoch(*args, LossConfig(), rng)
    assert rng.bit_generator.state == np.random.default_rng(0).bit_generator.state


def test_local_epoch_trains_and_counts():
    (head,) = _swarm(1)
    before = head.params.tobytes()
    views, parts = _views(1, 3)
    (out,), (loss,) = local_epoch([head], views, parts, LossConfig(lr=0.1),
                                  np.random.default_rng(0))
    assert type(loss) is float and loss > 0.0
    assert not np.array_equal(out.params, head.params) and head.params.tobytes() == before


def test_local_epoch_memory_stays_per_step():
    # many classes and a long view: the MOL sides are built per step, so
    # nothing of classes x view size (4 MB of side masks here) is held
    classes, m = 1000, 2000
    rng = np.random.default_rng(3)
    head = init_head(2, 2, classes, rng)
    view = rng.standard_normal((m, 2)).astype(np.float32), rng.integers(0, classes, m)
    part = ClassPartition(frozenset(range(500)), frozenset(range(500, classes)))
    tracemalloc.start()
    try:
        local_epoch([head], [view], [part], LossConfig(), np.random.default_rng(0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 << 20


def test_local_epoch_heads_outlive_the_next_call():
    # a call's buffers are reused step after step; the heads it hands
    # out must not be views of them, nor of the next call's
    views, parts = _views(3, 3)
    cfg = LossConfig(lr=0.1)
    first, _ = local_epoch(_swarm(3, seed=1), views, parts, cfg, np.random.default_rng(0), 2)
    kept = [h.params.tobytes() for h in first]
    second, _ = local_epoch(_swarm(3, seed=2), views, parts, cfg, np.random.default_rng(1), 2)
    assert [h.params.tobytes() for h in first] == kept
    assert not any(np.shares_memory(a.params, b.params) for a in first for b in second)


def _reanchored_epoch(head, view, part, cfg, rng):
    """The pooled-data loop central training used before it ran through
    ``local_epoch``: same shuffle, prox anchor re-taken every batch.
    Returns the trained head and the mean batch loss."""
    x, targets = view
    order = rng.permutation(len(targets))
    losses = []
    for i in range(0, len(order), cfg.batch_size):
        rows = order[i : i + cfg.batch_size]
        loss, grads = total_loss(head, (x[rows], targets[rows]), part, head.params, cfg)
        head = sgd_step(head, grads, cfg.lr)
        losses.append(loss)
    return head, float(sum(losses) / len(losses))


@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 9),
    batch_size=st.integers(1, 5),
    mu=st.sampled_from([0.0, 1.5]),
)
def test_local_epoch_at_zero_lam_ignores_the_snapshot(seed, n, batch_size, mu):
    # the anchor is the starting head, fixed for the call; at lam = 0 the
    # steps match a loop that re-takes it from the current head each batch
    rng = np.random.default_rng(seed)
    head = init_head(5, 4, 3, rng)
    view = rng.standard_normal((n, 5)).astype(np.float32), rng.integers(3, size=n)
    part = ClassPartition(frozenset({0}), frozenset({1, 2}))
    cfg = LossConfig(mu=mu, lam=0.0, lr=0.1, batch_size=batch_size)
    (out,), (loss,) = local_epoch([head], [view], [part], cfg, np.random.default_rng(seed))
    ref, ref_loss = _reanchored_epoch(head, view, part, cfg, np.random.default_rng(seed))
    assert np.array_equal(out.params, ref.params)
    assert loss == ref_loss


def _sequential_epochs(heads, views, parts, cfg, rng, epochs):
    """The loop before lockstep training: each node in turn, its epochs
    one after another, one ``total_loss`` call per minibatch, anchored
    to the head it started from. Returns the trained heads and each
    node's mean loss over its last epoch."""
    out, losses = [], []
    for head, (x, targets), part in zip(heads, views, parts):
        loss, w_global = 0.0, head.params
        for _ in range(epochs if len(targets) else 0):
            order = rng.permutation(len(targets))
            batch_losses = []
            for i in range(0, len(order), cfg.batch_size):
                rows = order[i : i + cfg.batch_size]
                value, grads = total_loss(head, (x[rows], targets[rows]), part, w_global, cfg)
                head = sgd_step(head, grads, cfg.lr)
                batch_losses.append(value)
            loss = float(sum(batch_losses) / len(batch_losses))
        out.append(head)
        losses.append(loss)
    return out, losses


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
    heads, views, parts = [], [], []
    for m in sizes:
        # heads differ per node, so each node's own prox anchor counts
        heads.append(init_head(c_feat, 3, classes, rng, sigma=0.5))
        views.append((rng.standard_normal((m, c_feat)).astype(np.float32),
                      rng.integers(classes, size=m)))
        new = rng.random(classes) < 0.5
        parts.append(ClassPartition(frozenset(np.flatnonzero(~new).tolist()),
                                    frozenset(np.flatnonzero(new).tolist())))
    return heads, views, parts, cfg, epochs, int(rng.integers(2**32))


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
    heads, views, parts, cfg, epochs, seed = case
    ref_rng = np.random.default_rng(seed)
    ref_heads, ref_losses = _sequential_epochs(heads, views, parts, cfg, ref_rng, epochs)
    rng = np.random.default_rng(seed)
    trained, losses = local_epoch(heads, views, parts, cfg, rng, epochs)
    assert losses == ref_losses
    for head, out, ref, (_, targets) in zip(heads, trained, ref_heads, views):
        assert out.params.tobytes() == ref.params.tobytes()
        assert (out is head) == (not len(targets))  # a view with no rows sits out
    # the shared stream is left where the one-by-one loop leaves it
    assert rng.bit_generator.state == ref_rng.bit_generator.state


@given(_rounds())
def test_chunked_lockstep_local_epoch_equals_nodes_one_by_one(case):
    # a budget of two samples of one head per step buffer: groups of two or
    # more nodes step one sample at a time, a lone node two, and each
    # chunk's gradient fold carries on from the one before it
    heads, views, parts, cfg, epochs, seed = case
    ref_rng = np.random.default_rng(seed)
    ref_heads, ref_losses = _sequential_epochs(heads, views, parts, cfg, ref_rng, epochs)
    rng = np.random.default_rng(seed)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(losses, "_SCAN_BLOCK", 2 * heads[0].parameter_count)
        trained, got = local_epoch(heads, views, parts, cfg, rng, epochs)
    assert got == ref_losses
    for out, ref in zip(trained, ref_heads):
        assert out.params.tobytes() == ref.params.tobytes()
    assert rng.bit_generator.state == ref_rng.bit_generator.state


@pytest.mark.parametrize("epochs", [-1, 2.5, "3", None, True, np.float64(2.0),
                                    2**63, np.bool_(False), np.int64(-1)])
def test_local_epoch_rejects_bad_epoch_counts(epochs):
    views, parts = _views(2, 3)
    rng = np.random.default_rng(0)
    with pytest.raises(AggregationError, match=re.escape(repr(epochs))):
        local_epoch(_swarm(2), views, parts, LossConfig(), rng, epochs)
    assert rng.bit_generator.state == np.random.default_rng(0).bit_generator.state


def test_local_epoch_takes_any_nonnegative_integral_count():
    # T0 trains for t0_epochs, which may be 0; numpy integers count too
    views, parts = _views(2, 3)
    cfg = LossConfig(lr=0.1)
    heads = _swarm(2)
    out, losses = local_epoch(heads, views, parts, cfg, np.random.default_rng(0), 0)
    assert losses == [0.0, 0.0] and len(out) == len(heads)
    for got, head in zip(out, heads):
        assert got.dims == head.dims and np.array_equal(got.params, head.params)
    runs = []
    for epochs in (2, np.int64(2)):
        trained, got = local_epoch(heads, views, parts, cfg, np.random.default_rng(0), epochs)
        runs.append((got, [h.params.tobytes() for h in trained]))
    assert runs[0] == runs[1]


def test_local_epoch_rejects_a_shuffle_table_past_the_cap():
    # 2**62 epochs of 12 rows would need a 4e20-byte shuffle table; a call
    # is priced against the host budget before its state is built, and one
    # that fits it exactly runs
    views, parts = _views(2, 3)
    heads, cfg = _swarm(2), LossConfig()
    rng = np.random.default_rng(0)
    with pytest.raises(AggregationError, match=rf"^epochs={2**62} over 12 samples: a price of "
                       r"\d+ bytes exceeds the host budget of \d+ bytes; the largest term is "
                       r"the lockstep state at \d+$"):
        local_epoch(heads, views, parts, cfg, rng, 2**62)
    assert rng.bit_generator.state == np.random.default_rng(0).bit_generator.state
    price = federation._lockstep_bytes(heads[0].dims, {6: 2}, cfg.batch_size, 3)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(errors, "HOST_BUDGET", price)
        local_epoch(heads, views, parts, cfg, rng, 3)
        mp.setattr(errors, "HOST_BUDGET", price - 1)
        with pytest.raises(AggregationError, match=f"a price of {price} bytes exceeds"):
            local_epoch(heads, views, parts, cfg, rng, 3)


def test_local_epoch_steps_its_own_rows_and_hands_out_fresh_heads(monkeypatch):
    # the steps update parameter rows in place; those rows are slices of
    # the call's one stack, never the caller's heads, and the trained
    # heads share no memory with them
    spaces = []

    class Recorded(losses.StepSpace):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            spaces.append(self)

    monkeypatch.setattr(federation, "StepSpace", Recorded)
    heads = _swarm(3, seed=5)
    views, parts = _views(3, 3, per_node=8)
    # 5, 8, 6 rows, not longest first: ragged tails, each a slice of the stack
    views[0], views[2] = _first_rows(views[0], 5), _first_rows(views[2], 6)
    given_bytes = [h.params.tobytes() for h in heads]
    cfg = LossConfig(lr=0.1, batch_size=4)
    trained, _ = local_epoch(heads, views, parts, cfg, np.random.default_rng(0), 2)
    assert sorted(len(s.params) for s in spaces) == [1, 1, 1, 3]  # one full group, 3 ragged
    stack = spaces[0].params.base
    assert stack is not None and stack.shape == (3, heads[0].parameter_count)
    assert all(s.params.base is stack for s in spaces)
    for head, out, head_bytes in zip(heads, trained, given_bytes):
        assert head.params.tobytes() == head_bytes and out is not head
        assert out.params.tobytes() != head_bytes
        for space in spaces:
            assert not np.shares_memory(out.params, space.params)
            assert not np.shares_memory(head.params, space.params)


def test_run_session_zero_rounds():
    (head,) = _swarm(1)
    views, parts = _views(3, 3)
    out, trace = run_session(head, SimNetwork(LinkModel(1e6)), 0, views, parts,
                             LossConfig(lr=0.1), np.random.default_rng(0))
    assert trace == [] and out is head


def test_run_session_all_empty_views_keeps_head():
    (head,) = _swarm(1, seed=21)
    views = [_empty_view(5)] * 3
    parts = [ClassPartition(frozenset(), frozenset({0}))] * 3
    out, trace = run_session(head, SimNetwork(LinkModel(1e6)), 4, views, parts,
                             LossConfig(lr=0.1), np.random.default_rng(0))
    assert np.array_equal(out.params, head.params)
    assert all(e["mean_loss"] == {"0": 0.0, "1": 0.0, "2": 0.0} for e in trace)


def test_run_session_trace_reproducible():
    def go():
        (head,) = _swarm(1, seed=7)
        views, parts = _views(3, 3)
        net = SimNetwork(LinkModel(1e5))
        head, trace = run_session(head, net, 3, views, parts,
                                  LossConfig(mu=2.0, lam=3.8, lr=0.05),
                                  np.random.default_rng(11))
        return head.params, json.dumps(trace, sort_keys=True)

    h1, t1 = go()
    h2, t2 = go()
    assert np.array_equal(h1, h2)
    assert t1 == t2


def _rounds_by_hand(head, net, rounds, views, parts, cfg, rng, evaluator):
    """``run_session`` as its rounds written out: one ``local_epoch``
    call per round from the global head, then a sync."""
    trace = []
    for r in range(rounds):
        heads, got = local_epoch([head] * len(views), views, parts, cfg, rng,
                                 cfg.local_epochs_per_round)
        head, comm_s = sync_round(heads, net)
        trace.append({"round": r, "mean_loss": {str(i): v for i, v in enumerate(got)},
                      "comm_s": comm_s, "accuracy": evaluator(head)})
    return head, trace


@given(_rounds(max_nodes=4), st.integers(0, 4), st.sampled_from([0.1, 1e30]))
def test_run_session_equals_its_rounds_run_by_hand(case, rounds, lr):
    # the session builds its training state once and runs every round on
    # it; that must be what one local_epoch call per round gives, a
    # diverging round (lr 1e30) included: same error, same link events
    heads, views, parts, cfg, epochs, seed = case
    cfg = replace(cfg, local_epochs_per_round=epochs, lr=lr)
    runs = []
    for session in (run_session, _rounds_by_hand):
        seen = []

        def evaluator(head):
            seen.append((head, head.params.tobytes()))
            return float(head.params.astype(np.float64).sum())

        net, rng = SimNetwork(calibrated_uwb_link()), np.random.default_rng(seed)
        try:
            head, trace = session(heads[0], net, rounds, views, parts, cfg, rng, evaluator)
            out = head.params.tobytes(), json.dumps(trace, sort_keys=True)
        except NumericError as e:
            out = str(e)
        # the session's stacks are overwritten every round: a head handed
        # out must not be a view of them
        assert [h.params.tobytes() for h, _ in seen] == [b for _, b in seen]
        runs.append((out, net.events, rng.bit_generator.state))
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
        (head,) = _swarm(1, seed=5)
        views, parts = _views(3, 3, per_node=7)
        views[1] = _first_rows(views[1], 5)  # ragged: more than one width group
        run_session(head, SimNetwork(LinkModel(1e6)), rounds, views, parts,
                    LossConfig(lr=0.1), np.random.default_rng(0))
        per_session[rounds] = dict(built)
    assert per_session[1]["check_view"] == 3 and per_session[1]["StepSpace"] > 1
    assert per_session[4] == per_session[1]


def test_run_session_rejects_negative_rounds():
    views, parts = _views(2, 3)
    with pytest.raises(AggregationError):
        run_session(_swarm(1)[0], SimNetwork(LinkModel(1e6)), -1, views, parts,
                    LossConfig(), np.random.default_rng(0))


@pytest.mark.parametrize("rounds", [2.5, "3", None, True])
def test_run_session_rejects_non_integral_rounds(rounds):
    views, parts = _views(2, 3)
    net = SimNetwork(LinkModel(1e6))
    with pytest.raises(AggregationError, match=re.escape(repr(rounds))):
        run_session(_swarm(1)[0], net, rounds, views, parts, LossConfig(),
                    np.random.default_rng(0))
    assert net.events == []


def test_run_session_counts_numpy_integer_rounds():
    def go(rounds):
        views, parts = _views(2, 3)
        return run_session(_swarm(1)[0], SimNetwork(LinkModel(1e6)), rounds, views, parts,
                           LossConfig(lr=0.1), np.random.default_rng(0))[1]

    assert json.dumps(go(np.int64(2))) == json.dumps(go(2))


# -- trace log ----------------------------------------------------------------------


def test_trace_log_format_and_audit(tmp_path):
    (head,) = _swarm(1, seed=9)
    views, parts = _views(3, 3)
    net = SimNetwork(LinkModel(1e5))
    run_session(head, net, 2, views, parts, LossConfig(lr=0.05), np.random.default_rng(1))
    path = tmp_path / "trace.tsv"
    write_trace(net, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "time_s\tnode\tkind\tbytes"
    assert len(lines) == 1 + len(net.events)
    p_bytes = 4 * head.parameter_count
    times = []
    for ln in lines[1:]:
        t, node, kind, n_bytes = ln.split("\t")
        times.append(float(t))
        assert kind in ("upload", "broadcast")
        # every message is exactly one head; nothing sample-sized leaks
        assert int(n_bytes) == p_bytes
    assert times == sorted(times)
    assert len(lines) - 1 == 2 * 3 * 2  # (upload + broadcast) x nodes x rounds
