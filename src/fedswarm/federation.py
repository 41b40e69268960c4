"""Master/slave synchronization over a simulated serial link.

Every round each node uploads its head to the master (node 0 by
convention), the master averages, and the global head is broadcast
back. Nodes then replace both their working head and the proximal
snapshot, so the swarm leaves every round in consensus. Aggregation
accumulates in float64 after sorting by node id, which makes the
average bit-exact under permutation and idempotent on identical heads.

``local_epoch`` is the package's one minibatch-SGD loop: the harness
runs central training (T0 pretraining, the joint strategy) through it
too, on a single node holding the pooled data. ``SimNetwork`` prices
each message with the ``costs`` link model.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .costs import LinkModel, message_time
from .errors import AggregationError, DimensionError
from .losses import ClassPartition, LossConfig, sgd_step, total_loss
from .model import TrainableHead, flatten_params, unflatten_params
from .tensor import Tensor

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


def _same_architecture(a: TrainableHead, b: TrainableHead) -> bool:
    return (
        a.conv_w.shape == b.conv_w.shape
        and a.conv_b.shape == b.conv_b.shape
        and a.cls_w.shape == b.cls_w.shape
        and a.cls_b.shape == b.cls_b.shape
    )


@dataclass
class NodeState:
    """One swarm member: local head, prox snapshot, session assignment."""

    node_id: int
    head: TrainableHead
    snapshot: TrainableHead
    assignment: tuple = ()
    epochs: int = 0

    def __post_init__(self):
        if not _same_architecture(self.head, self.snapshot):
            raise AggregationError(
                f"node {self.node_id}: head and snapshot architectures differ"
            )
        self.assignment = tuple(int(c) for c in self.assignment)

    def adopt_global(self, head: TrainableHead) -> None:
        """Install a broadcast head as both working head and snapshot."""
        self.head = head
        self.snapshot = head


@dataclass(frozen=True)
class SyncMessage:
    """Parameter transfer; the payload type admits nothing but weights."""

    kind: str  # "upload" or "broadcast"
    sender: int
    payload: Tensor

    def __post_init__(self):
        if self.kind not in ("upload", "broadcast"):
            raise AggregationError(f"unknown message kind {self.kind!r}")
        if len(self.payload.shape) != 1:
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


def fedavg(heads, weights=None, node_ids=None) -> Tensor:
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
        if v.size != size:
            raise DimensionError(f"vector lengths differ: {v.size} vs {size}")
    if any(w < 0 for w in weights):
        raise AggregationError("negative aggregation weight")
    total_w = sum(weights)
    if total_w == 0:
        raise AggregationError("aggregation weights sum to zero")
    acc = np.zeros(size, dtype=np.float64)
    for _, w, v in sorted(zip(node_ids, weights, vecs), key=lambda t: t[0]):
        acc += w * v.data.astype(np.float64)
    return Tensor((acc / total_w).astype(np.float32), (size,))


def sync_round(nodes, net: SimNetwork, master_id: int = 0, weights=None) -> float:
    """Upload all heads, average at the master, broadcast the result.

    Every node ends the round holding the same global head as both its
    working model and its proximal snapshot. Returns the communication
    time spent on the link (uplink plus downlink for every node).
    """
    order = sorted(nodes, key=lambda n: n.node_id)
    if not order:
        raise AggregationError("no nodes to synchronize")
    arch = order[0].head
    for n in order:
        if not _same_architecture(n.head, arch):
            raise AggregationError(
                f"node {n.node_id} head architecture differs from node {order[0].node_id}"
            )
    elapsed = 0.0
    uploads = []
    for n in order:
        msg = SyncMessage("upload", n.node_id, flatten_params(n.head))
        elapsed += net.send(msg)
        uploads.append(msg.payload)
    flat = fedavg(uploads, weights=weights, node_ids=[n.node_id for n in order])
    global_head = unflatten_params(arch, flat)
    for n in order:
        elapsed += net.send(SyncMessage("broadcast", master_id, flat))
        n.adopt_global(global_head)
    return elapsed


def local_epoch(
    node: NodeState,
    view,
    part: ClassPartition,
    cfg: LossConfig,
    rng: np.random.Generator,
) -> float:
    """One shuffled pass over the node's (features, target) pairs.

    Minibatch SGD against the composite loss, proximal term anchored to
    the node's stored snapshot. Returns the mean batch loss (0.0 for an
    empty view, which leaves the head untouched).
    """
    samples = list(view)
    if not samples:
        return 0.0
    w_global = flatten_params(node.snapshot)
    order = [int(i) for i in rng.permutation(len(samples))]
    losses = []
    for i in range(0, len(order), cfg.batch_size):
        batch = [samples[j] for j in order[i : i + cfg.batch_size]]
        loss, grads = total_loss(node.head, batch, part, w_global, cfg)
        node.head = sgd_step(node.head, grads, cfg.lr)
        losses.append(loss)
    node.epochs += 1
    return float(sum(losses) / len(losses))


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
    Returns (global head, per-round trace). Each trace entry records the
    round number, mean local loss per node, communication seconds and,
    when an ``evaluator`` callable is given, its value on the new global
    head.
    """
    if rounds < 0:
        raise AggregationError(f"negative round count {rounds}")
    order = sorted(nodes, key=lambda n: n.node_id)
    trace = []
    for r in range(rounds):
        losses = {}
        for n in order:
            view = views.get(n.node_id, ())
            if not view:
                losses[n.node_id] = 0.0
                continue
            for _ in range(cfg.local_epochs_per_round):
                losses[n.node_id] = local_epoch(n, view, parts[n.node_id], cfg, rng)
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
