"""Master/slave synchronization over a simulated serial link.

Every round each node uploads its head to the master (node 0 by
convention), the master averages, and the global head is broadcast
back. Nodes then replace both their working head and the proximal
snapshot, so the swarm leaves every round in consensus. Aggregation
accumulates in float64 after sorting by node id, which makes the
average bit-exact under permutation and idempotent on identical heads.

``local_epoch`` is the package's one minibatch-SGD loop. Between syncs
the nodes are independent, so it trains all of a round's nodes in
lockstep: minibatch k of every node is one ``total_loss`` pass with the
node as a batch axis, which gives each node the bits it would get
alone, followed by one ``sgd_step``. The call keeps its nodes'
parameters in one (N, P) stack, longest view first, so each width
group of steps is a contiguous slice of it. Each group runs on one
``losses.StepSpace`` over its slice, whose buffers are allocated once
per call, so a step builds no head object and ``sgd_step`` updates the
stack in place; the nodes' own heads and snapshots are only read, and
each trained node gets a new head. Each node's shuffles for all of a
call's epochs are one generator draw, and the step schedule is worked
out once per call from the sorted view lengths. Each epoch gathers its
shuffled batches once, and only a call's last epoch, the one reported,
asks for loss values. The harness runs central training (T0 pretraining, the
joint strategy) through it too, as N = 1 on the pooled data.
``SimNetwork`` prices each message with the ``costs`` link model.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field
from itertools import accumulate
from pathlib import Path

import numpy as np

from .costs import LinkModel, message_time
from .errors import AggregationError, DimensionError, NumericError
from .losses import LossConfig, Minibatch, StepSpace, sgd_step, stack_pairs, total_loss
from .model import TrainableHead, check_finite, flatten_params, unflatten_params

__all__ = [
    "NodeState",
    "SyncMessage",
    "TraceEvent",
    "SimNetwork",
    "fedavg",
    "sync_round",
    "local_epoch",
    "run_session",
    "write_trace",
]


@dataclass
class NodeState:
    """One swarm member: local head and prox snapshot."""

    node_id: int
    head: TrainableHead
    snapshot: TrainableHead
    epochs: int = 0

    def __post_init__(self):
        if self.head.dims != self.snapshot.dims:
            raise AggregationError(
                f"node {self.node_id}: head and snapshot architectures differ"
            )

    def adopt_global(self, head: TrainableHead) -> None:
        """Install a broadcast head as both working head and snapshot."""
        self.head = head
        self.snapshot = head


@dataclass(frozen=True)
class SyncMessage:
    """Parameter transfer: one flat float32 weight vector."""

    kind: str  # "upload" or "broadcast"
    sender: int
    payload: np.ndarray

    def __post_init__(self):
        if self.kind not in ("upload", "broadcast"):
            raise AggregationError(f"unknown message kind {self.kind!r}")
        if self.payload.ndim != 1:
            raise DimensionError(
                f"payload must be a flat vector, got shape {self.payload.shape}"
            )

    @property
    def byte_size(self) -> int:
        return 4 * self.payload.size


@dataclass(frozen=True)
class TraceEvent:
    time_s: float
    node: int
    kind: str
    n_bytes: int


@dataclass
class SimNetwork:
    """Sequential link: one message in flight, no losses, shared clock.

    Wire times come from ``costs.message_time`` on ``link``, so the
    simulated clock and the analytic cost model price a message alike.
    """

    link: LinkModel
    clock_s: float = 0.0
    events: list = field(default_factory=list)

    def send(self, msg: SyncMessage) -> float:
        """Deliver one message; returns its wire time and advances the clock."""
        dt = message_time(self.link, msg.byte_size)
        self.clock_s += dt
        self.events.append(TraceEvent(self.clock_s, msg.sender, msg.kind, msg.byte_size))
        return dt


def write_trace(net: SimNetwork, path) -> None:
    """Event log: tab-separated time, node, kind, bytes; one line each."""
    lines = ["time_s\tnode\tkind\tbytes"]
    lines.extend(
        f"{e.time_s!r}\t{e.node}\t{e.kind}\t{e.n_bytes}" for e in net.events
    )
    Path(path).write_text("\n".join(lines) + "\n")


def fedavg(heads, weights=None, node_ids=None) -> np.ndarray:
    """Weighted mean of flat parameter vectors, summed in node-id order.

    Accumulates in float64 and divides once, so averaging identical
    vectors returns them bit-exactly and reordering contributions (with
    their ids) cannot change the result.
    """
    vecs = list(heads)
    if not vecs:
        raise AggregationError("nothing to aggregate")
    if weights is None:
        weights = [1.0] * len(vecs)
    weights = [float(w) for w in weights]
    if node_ids is None:
        node_ids = list(range(len(vecs)))
    node_ids = [int(n) for n in node_ids]
    if len(weights) != len(vecs) or len(node_ids) != len(vecs):
        raise AggregationError(
            f"{len(vecs)} vectors, {len(weights)} weights, {len(node_ids)} ids"
        )
    if len(set(node_ids)) != len(node_ids):
        raise AggregationError(f"duplicate node ids: {sorted(node_ids)}")
    size = vecs[0].size
    for v in vecs:
        if v.shape != (size,):
            raise DimensionError(f"vectors must be flat of length {size}, got shape {v.shape}")
    if any(w < 0 for w in weights):
        raise AggregationError("negative aggregation weight")
    total_w = sum(weights)
    if total_w == 0:
        raise AggregationError("aggregation weights sum to zero")
    acc = np.zeros(size, dtype=np.float64)
    for _, w, v in sorted(zip(node_ids, weights, vecs), key=lambda t: t[0]):
        acc += w * v.astype(np.float64)
    mean = (acc / total_w).astype(np.float32)
    if not np.isfinite(mean).all():
        raise NumericError("non-finite values in the averaged parameters")
    return mean


def sync_round(nodes, net: SimNetwork) -> float:
    """Upload all heads, average them at the master (node 0), broadcast
    the result.

    Every node ends the round holding the same global head as both its
    working model and its proximal snapshot. Returns the communication
    time spent on the link (uplink plus downlink for every node).
    """
    order = sorted(nodes, key=lambda n: n.node_id)
    if not order:
        raise AggregationError("no nodes to synchronize")
    arch = order[0].head
    for n in order:
        if n.head.dims != arch.dims:
            raise AggregationError(
                f"node {n.node_id} head architecture differs from node {order[0].node_id}"
            )
    elapsed = 0.0
    uploads = []
    for n in order:
        msg = SyncMessage("upload", n.node_id, flatten_params(n.head))
        elapsed += net.send(msg)
        uploads.append(msg.payload)
    flat = fedavg(uploads, node_ids=[n.node_id for n in order])
    global_head = unflatten_params(arch, flat)
    for n in order:
        elapsed += net.send(SyncMessage("broadcast", 0, flat))
        n.adopt_global(global_head)
    return elapsed


def _count(value, what: str) -> int:
    """``value`` as a nonnegative int; AggregationError naming it when it
    is not an integral number (a bool is not one) or is negative."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 0:
        raise AggregationError(f"{what} must be a nonnegative integer, got {value!r}")
    return int(value)


def local_epoch(nodes, views, parts, cfg: LossConfig, rng: np.random.Generator,
                epochs: int = 1) -> list:
    """``epochs`` shuffled passes of each node over its own pairs.

    ``views[i]`` and ``parts[i]`` are node i's (features, target) pairs
    and class partition. Minibatch SGD against the composite loss, the
    proximal term anchored to each node's stored snapshot. Every node's
    permutations are drawn up front, node-major, which is the order of
    running the nodes one after another: one ``rng.permuted`` call per
    node shuffles each row of an (epochs, size) block, the same draws
    as one ``rng.permutation`` per epoch. The call's (N, P) parameter
    stack, masks and snapshots hold the nodes longest view first (a
    stable sort), so minibatch k of the nodes whose batch has width w
    is one contiguous run of rows: one ``total_loss`` pass, then one
    ``sgd_step``, through the ``StepSpace`` the group gets for the call
    over its slice of the stack, which steps in place. Each epoch gathers
    every step's batch into one buffer before its first step. Returns
    each node's mean batch loss over its last epoch, in the caller's
    order (0.0 for an empty view, which leaves the head untouched and
    draws nothing); earlier epochs skip the loss values, which leaves
    the gradients unchanged.
    AggregationError unless there is at least one node and one view and
    partition each, and ``epochs`` is a nonnegative integer.
    """
    nodes = list(nodes)
    if not nodes or not len(nodes) == len(views) == len(parts):
        raise AggregationError(
            f"{len(nodes)} nodes, {len(views)} views and {len(parts)} partitions; "
            "local training needs one view and one partition per node"
        )
    epochs = _count(epochs, "epochs")
    arch = nodes[0].head
    for node in nodes:
        if not node.head.dims == node.snapshot.dims == arch.dims:
            raise AggregationError(
                f"node {node.node_id} head architecture differs from node {nodes[0].node_id}"
            )
    stacked = [stack_pairs(arch, view, part, cfg) for view, part in zip(views, parts)]
    sizes = [len(t) for _, t, _ in stacked]
    n, longest, b = len(nodes), max(sizes), cfg.batch_size
    if not longest:
        return [0.0] * n
    # row r of the stack holds node rank[r], longest view first (a stable
    # sort), so each step's nodes of one batch width are contiguous rows;
    # sorted, not np.argsort: its first call maps ~0.45 MB of numpy 2.4 sort code
    rank = sorted(range(n), key=sizes.__getitem__, reverse=True)
    row = [0] * n
    for r, i in enumerate(rank):
        row[i] = r
    live = [i for i in range(n) if sizes[i]]
    sizes, stacked = [sizes[i] for i in rank], [stacked[i] for i in rank]
    starts = list(accumulate(sizes, initial=0))
    # every view's rows, row after row; order[e] is epoch e's shuffle
    # as rows of them, drawn node-major in the caller's node order
    x = np.concatenate([xi for xi, _, _ in stacked])
    targets = np.concatenate([ti for _, ti, _ in stacked])
    order = np.empty((epochs, len(x)), np.intp)
    index = np.arange(longest)
    for i in live:
        lo, size = starts[row[i]], sizes[row[i]]
        block = order[:, lo : lo + size]
        rng.permuted(np.broadcast_to(index[:size], block.shape), axis=1, out=block)
        block += lo
    masks = [np.stack([m[k] for _, _, m in stacked]) for k in (0, 1)]
    params = np.stack([nodes[i].head.params for i in rank])
    snaps = np.stack([nodes[i].snapshot.params for i in rank])
    # one entry per lockstep pass: step k's rows lo:hi whose batch has
    # width w, their group's StepSpace over params[lo:hi] and snapshots,
    # and the Minibatch: sample-major views of xe and te, which each
    # epoch fills by gathering its order at ``gather``. A node's last
    # batch may be narrower over the same rows, so w is in the key.
    # Widths never grow down the sorted rows, so equal widths are runs
    xe = np.empty(x.shape, np.float32)
    te = np.empty(targets.shape, np.intp)
    groups, steps, gather = {}, [], []
    for k in range(0, longest, b):
        lo = 0
        while lo < n and sizes[lo] > k:
            w = min(sizes[lo] - k, b)
            hi = lo + 1
            while hi < n and min(sizes[hi] - k, b) == w:
                hi += 1
            if (w, lo, hi) not in groups:
                space = StepSpace(arch, params[lo:hi], w, tuple(m[lo:hi] for m in masks), cfg)
                groups[w, lo, hi] = space, snaps[lo:hi]
            at = len(gather)
            gather += [s + j for j in range(k, k + w) for s in starts[lo:hi]]
            batch = Minibatch(xe[at : len(gather)].reshape(w, hi - lo, -1),
                              te[at : len(gather)].reshape(w, hi - lo))
            steps.append((k // b, slice(lo, hi), *groups[w, lo, hi], batch))
            lo = hi
    gather = np.array(gather, np.intp)
    picks = np.empty_like(gather)
    step_losses = np.zeros((n, -(-longest // b)))
    lr = np.float32(cfg.lr)
    # diverging runs overflow here; finiteness is checked once at the end
    with np.errstate(all="ignore"):
        for e in range(epochs):
            np.take(order[e], gather, out=picks)
            np.take(x, picks, axis=0, out=xe)
            np.take(targets, picks, out=te)
            last = e == epochs - 1  # the one epoch whose losses are reported
            for j, rows, space, anchor, batch in steps:
                values, grads = total_loss(space.params, batch, space, anchor, cfg, values=last)
                sgd_step(space.params, grads, lr)
                if last:
                    step_losses[rows, j] = values
    # one scan of the stack; only a diverged call looks for its first bad node
    finite = bool(np.isfinite(params).all())
    step_losses = step_losses.tolist()
    losses = [0.0] * n
    for i in live:
        r, node = row[i], nodes[i]
        head = arch.with_params(params[r].copy())
        if not finite:
            check_finite(head)
        node.head = head
        node.epochs += epochs
        count = -(-sizes[r] // b)
        losses[i] = float(sum(step_losses[r][:count]) / count)
    return losses


def run_session(
    nodes,
    net: SimNetwork,
    rounds: int,
    views: dict,
    parts: dict,
    cfg: LossConfig,
    rng: np.random.Generator,
    evaluator=None,
) -> tuple:
    """Federated training: per round, local epochs on every node, then sync.

    ``views`` and ``parts`` map node id to that node's training pairs
    and class partition; heads must already be expanded for the session.
    Each round trains every node with a nonempty view in one lockstep
    ``local_epoch`` call. Returns (global head, per-round trace). Each
    trace entry records the round number, mean local loss per node
    (over its last local epoch), communication seconds and,
    when an ``evaluator`` callable is given, its value on the new global
    head.
    """
    rounds = _count(rounds, "rounds")
    order = sorted(nodes, key=lambda n: n.node_id)
    trace = []
    for r in range(rounds):
        losses = dict.fromkeys((n.node_id for n in order), 0.0)
        active = [n for n in order if views.get(n.node_id)]
        if active:
            trained = local_epoch(
                active, [views[n.node_id] for n in active], [parts[n.node_id] for n in active],
                cfg, rng, cfg.local_epochs_per_round,
            )
            losses.update(zip((n.node_id for n in active), trained))
        comm_s = sync_round(nodes, net)
        entry = {
            "round": r,
            "mean_loss": {str(k): v for k, v in sorted(losses.items())},
            "comm_s": comm_s,
        }
        if evaluator is not None:
            entry["accuracy"] = evaluator(order[0].head)
        trace.append(entry)
    return order[0].head, trace
