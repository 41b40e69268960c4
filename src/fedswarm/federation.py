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
alone. Each epoch gathers its shuffled batches once, and only a call's
last epoch, the one reported, asks for loss values. The harness runs central training (T0 pretraining, the joint
strategy) through it too, as N = 1 on the pooled data. ``SimNetwork``
prices each message with the ``costs`` link model.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .costs import LinkModel, message_time
from .errors import AggregationError, DimensionError, NumericError
from .losses import LossConfig, Minibatch, sgd_step, stack_pairs, total_loss
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


def local_epoch(nodes, views, parts, cfg: LossConfig, rng: np.random.Generator,
                epochs: int = 1) -> list:
    """``epochs`` shuffled passes of each node over its own pairs.

    ``views[i]`` and ``parts[i]`` are node i's (features, target) pairs
    and class partition. Minibatch SGD against the composite loss, the
    proximal term anchored to each node's stored snapshot. Every node's
    permutations are drawn up front, node-major, which is the order of
    running the nodes one after another. Then minibatch k of all nodes
    with a full-size batch is one ``total_loss`` pass; ragged tails
    step in groups of equal batch size. Returns each node's mean batch
    loss over its last epoch (0.0 for an empty view, which leaves the
    head untouched and draws nothing); earlier epochs skip the loss
    values, which leaves the gradients unchanged. AggregationError
    unless there is at least one node and one view and partition each.
    """
    nodes = list(nodes)
    if not nodes or not len(nodes) == len(views) == len(parts):
        raise AggregationError(
            f"{len(nodes)} nodes, {len(views)} views and {len(parts)} partitions; "
            "local training needs one view and one partition per node"
        )
    arch = nodes[0].head
    for node in nodes:
        if not node.head.dims == node.snapshot.dims == arch.dims:
            raise AggregationError(
                f"node {node.node_id} head architecture differs from node {nodes[0].node_id}"
            )
    stacked = [stack_pairs(arch, view, part, cfg) for view, part in zip(views, parts)]
    sizes = np.array([len(t) for _, t, _ in stacked])
    perms = [[rng.permutation(m) for _ in range(epochs)] if m else [] for m in sizes]
    live = np.flatnonzero(sizes)
    # views padded to the longest one; pad rows are never gathered
    n, longest, b = len(nodes), sizes.max(), cfg.batch_size
    x = np.zeros((n, longest, arch.c_feat), np.float32)
    targets = np.zeros((n, longest), np.intp)
    for i, (xi, ti, _) in enumerate(stacked):
        x[i, : len(ti)], targets[i, : len(ti)] = xi, ti
    masks = [np.stack([m[k] for _, _, m in stacked]) for k in (0, 1)]
    params = np.stack([node.head.params for node in nodes])
    snaps = np.stack([node.snapshot.params for node in nodes])
    # one entry per lockstep pass: (step, width, the nodes whose batch at
    # that step has that width); a slice when it is every node
    steps = []
    for k in range(0, longest, b):
        width = np.minimum(sizes - k, b)
        for w in sorted(set(width[width > 0].tolist())):
            idx = np.flatnonzero(width == w)
            sel = slice(None) if len(idx) == n else idx
            steps.append((k, w, sel, tuple(m[sel] for m in masks), snaps[sel]))
    step_losses = np.zeros((n, -(-longest // b)))
    order = np.zeros(targets.shape, np.intp)
    rows = np.arange(n)[:, None]
    # diverging runs overflow here; finiteness is checked once at the end
    with np.errstate(all="ignore"):
        for e in range(epochs):
            for i in live:
                order[i, : sizes[i]] = perms[i][e]
            xe, te = x[rows, order], targets[rows, order]
            last = e == epochs - 1  # the one epoch whose losses are reported
            for k, w, sel, sel_masks, sel_snaps in steps:
                head = arch.with_params(params[sel])
                batch = Minibatch(xe[sel, k : k + w], te[sel, k : k + w])
                values, grads = total_loss(head, batch, sel_masks, sel_snaps, cfg, values=last)
                params[sel] = sgd_step(head, grads, cfg.lr).params
                if last:
                    step_losses[sel, k // b] = values
    losses = [0.0] * n
    for i in live:
        node = nodes[i]
        head = arch.with_params(params[i].copy())
        check_finite(head)
        node.head = head
        node.epochs += epochs
        count = -(-sizes[i] // b)
        losses[i] = float(sum(step_losses[i, :count].tolist()) / count)
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
    if rounds < 0:
        raise AggregationError(f"negative round count {rounds}")
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
