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
alone, followed by one ``sgd_step``. The nodes' parameters sit in one
(N, P) stack, longest view first, so each width group of steps is a
contiguous slice of it. Each group runs on one ``losses.StepSpace``
over its slice, so a step builds no head object and ``sgd_step``
updates the stack in place; the nodes' own heads and snapshots are
only read, and each trained node gets a new head. All of that set-up
depends only on the views, partitions and config: ``stack_pairs`` of
every view, the sort, the stacks, the ``StepSpace``s, the minibatch
views and the gather schedule. A session's views do not change, so
``run_session`` builds it once per session, not once per round; a
round then draws each node's shuffles for all of its epochs in one
generator call, copies the heads and snapshots into the stacks and
steps. Each epoch gathers its shuffled batches once, and only a
round's last epoch, the one reported, asks for loss values. The
harness runs central training (T0 pretraining, the joint strategy)
through ``local_epoch``, which builds the state and runs one round, as
N = 1 on the pooled data.
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

# cap on a training call's (epochs, samples) shuffle table, and on a
# config's peak training memory in the cost model (``harness``)
MAX_TRAINING_BYTES = 1 << 26

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


def _table_bytes(epochs: int, samples: int) -> int:
    """Bytes of the (epochs, samples) intp shuffle table that training
    ``epochs`` passes over ``samples`` pairs draws up front."""
    return epochs * samples * np.dtype(np.intp).itemsize


def _check_arch(nodes, dims) -> None:
    for node in nodes:
        if not node.head.dims == node.snapshot.dims == dims:
            raise AggregationError(
                f"node {node.node_id} head architecture differs from node {nodes[0].node_id}"
            )


class _Lockstep:
    """Lockstep training of a fixed set of nodes over fixed views: the
    state ``local_epoch`` builds for one call and ``run_session`` for a
    whole session, and ``run`` trains one round of ``epochs`` passes.

    Everything that depends only on the views, partitions and config is
    built here, once: the checked and stacked pairs, the length sort,
    the (N, P) parameter and snapshot stacks, the shuffle table, one
    ``StepSpace`` per width group over its slice of the stack, the
    ``Minibatch`` views and the gather schedule. AggregationError, as
    ``local_epoch`` documents, before anything is allocated.
    """

    def __init__(self, nodes, views, parts, cfg: LossConfig, epochs):
        if not nodes or not len(nodes) == len(views) == len(parts):
            raise AggregationError(
                f"{len(nodes)} nodes, {len(views)} views and {len(parts)} partitions; "
                "local training needs one view and one partition per node"
            )
        self.epochs = epochs = _count(epochs, "epochs")
        self.arch = arch = nodes[0].head
        _check_arch(nodes, arch.dims)
        samples = sum(map(len, views))
        table = _table_bytes(epochs, samples)
        if table > MAX_TRAINING_BYTES:
            raise AggregationError(
                f"epochs={epochs} over {samples} samples needs a shuffle table of {table} "
                f"bytes, which exceeds the cap of {MAX_TRAINING_BYTES}"
            )
        stacked = [stack_pairs(arch, view, part, cfg) for view, part in zip(views, parts)]
        sizes = [len(t) for _, t, _ in stacked]
        n, longest, b = len(nodes), max(sizes), cfg.batch_size
        self.n, self.steps = n, None
        if not longest:
            return
        # row r of the stack holds node rank[r], longest view first (a stable
        # sort), so each step's nodes of one batch width are contiguous rows;
        # sorted, not np.argsort: its first call maps ~0.45 MB of numpy 2.4 sort code
        self.rank = rank = sorted(range(n), key=sizes.__getitem__, reverse=True)
        self.row = row = [0] * n
        for r, i in enumerate(rank):
            row[i] = r
        self.live = [i for i in range(n) if sizes[i]]
        self.sizes = sizes = [sizes[i] for i in rank]
        stacked = [stacked[i] for i in rank]
        self.starts = starts = list(accumulate(sizes, initial=0))
        # every view's rows, row after row; order[e] is epoch e's shuffle
        # as rows of them, drawn node-major in the caller's node order
        self.x = x = np.concatenate([xi for xi, _, _ in stacked])
        self.targets = np.concatenate([ti for _, ti, _ in stacked])
        self.order = np.empty((epochs, len(x)), np.intp)
        self.index = np.arange(longest)
        masks = [np.stack([m[k] for _, _, m in stacked]) for k in (0, 1)]
        self.params = params = np.empty((n, arch.parameter_count), np.float32)
        self.snaps = snaps = np.empty_like(params)
        # one entry per lockstep pass: step k's rows lo:hi whose batch has
        # width w, their group's StepSpace over params[lo:hi] and snapshots,
        # and the Minibatch: sample-major views of xe and te, which each
        # epoch fills by gathering its order at ``gather``. A node's last
        # batch may be narrower over the same rows, so w is in the key.
        # Widths never grow down the sorted rows, so equal widths are runs
        self.xe = xe = np.empty(x.shape, np.float32)
        self.te = te = np.empty(self.targets.shape, np.intp)
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
        self.steps = steps
        self.gather = np.array(gather, np.intp)
        self.picks = np.empty_like(self.gather)
        # a round's last epoch writes every entry its nodes' losses read
        self.step_losses = np.zeros((n, -(-longest // b)))
        self.cfg, self.lr, self.b = cfg, np.float32(cfg.lr), b

    def run(self, nodes, rng: np.random.Generator) -> list:
        """One round over ``nodes``, the nodes the state was built for in
        the same order: their current heads and snapshots are copied
        into the stacks and each trained node gets a new head. Returns
        each node's mean batch loss over its last epoch."""
        _check_arch(nodes, self.arch.dims)
        n, epochs, steps = self.n, self.epochs, self.steps
        if steps is None:
            return [0.0] * n
        order, params, row, starts, sizes = (
            self.order, self.params, self.row, self.starts, self.sizes)
        for i in self.live:
            lo, size = starts[row[i]], sizes[row[i]]
            block = order[:, lo : lo + size]
            rng.permuted(np.broadcast_to(self.index[:size], block.shape), axis=1, out=block)
            block += lo
        np.stack([nodes[i].head.params for i in self.rank], out=params)
        np.stack([nodes[i].snapshot.params for i in self.rank], out=self.snaps)
        step_losses, lr, cfg, picks = self.step_losses, self.lr, self.cfg, self.picks
        # diverging runs overflow here; finiteness is checked once at the end
        with np.errstate(all="ignore"):
            for e in range(epochs):
                np.take(order[e], self.gather, out=picks)
                np.take(self.x, picks, axis=0, out=self.xe)
                np.take(self.targets, picks, out=self.te)
                last = e == epochs - 1  # the one epoch whose losses are reported
                for j, rows, space, anchor, batch in steps:
                    values, grads = total_loss(space.params, batch, space, anchor, cfg,
                                               values=last)
                    sgd_step(space.params, grads, lr)
                    if last:
                        step_losses[rows, j] = values
        # one scan of the stack; only a diverged round looks for its first bad node
        finite = bool(np.isfinite(params).all())
        by_row = step_losses.tolist()
        losses = [0.0] * n
        for i in self.live:
            r, node = row[i], nodes[i]
            head = self.arch.with_params(params[r].copy())
            if not finite:
                check_finite(head)
            node.head = head
            node.epochs += epochs
            count = -(-sizes[r] // self.b)
            losses[i] = float(sum(by_row[r][:count]) / count)
        return losses


def local_epoch(nodes, views, parts, cfg: LossConfig, rng: np.random.Generator,
                epochs: int = 1) -> list:
    """``epochs`` shuffled passes of each node over its own pairs.

    ``views[i]`` and ``parts[i]`` are node i's (features, target) pairs
    and class partition. Minibatch SGD against the composite loss, the
    proximal term anchored to each node's stored snapshot. Every node's
    permutations are drawn up front, node-major, which is the order of
    running the nodes one after another: one ``rng.permuted`` call per
    node shuffles each row of an (epochs, size) block, the same draws
    as one ``rng.permutation`` per epoch. The (N, P) parameter stack,
    masks and snapshots hold the nodes longest view first (a stable
    sort), so minibatch k of the nodes whose batch has width w is one
    contiguous run of rows: one ``total_loss`` pass, then one
    ``sgd_step``, through the ``StepSpace`` the group gets over its
    slice of the stack, which steps in place. Each epoch gathers every
    step's batch into one buffer before its first step. Returns each
    node's mean batch loss over its last epoch, in the caller's order
    (0.0 for an empty view, which leaves the head untouched and draws
    nothing); earlier epochs skip the loss values, which leaves the
    gradients unchanged.

    The call builds that state (``stack_pairs`` of every view, the
    sort, the stacks, the ``StepSpace``s and the gather schedule) and
    runs one round on it; ``run_session`` builds it once per session
    and runs every round on it.
    AggregationError unless there is at least one node and one view and
    partition each, ``epochs`` is a nonnegative integer and the
    (epochs, samples) shuffle table fits ``MAX_TRAINING_BYTES``.
    """
    nodes = list(nodes)
    return _Lockstep(nodes, views, parts, cfg, epochs).run(nodes, rng)


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
    Every node with a nonempty view trains in lockstep, as in
    ``local_epoch``; the views do not change within a session, so the
    training state (``stack_pairs`` of every view, the sort, the stacks,
    the ``StepSpace``s and the gather schedule) is built once per
    session and each round only draws its shuffles, copies the nodes'
    heads and snapshots in and trains. Returns (global head, per-round
    trace). Each trace entry records the round number, mean local loss
    per node (over its last local epoch), communication seconds and,
    when an ``evaluator`` callable is given, its value on the new global
    head.
    """
    rounds = _count(rounds, "rounds")
    order = sorted(nodes, key=lambda n: n.node_id)
    active = [n for n in order if views.get(n.node_id)]
    state = None
    if active and rounds:
        state = _Lockstep(active, [views[n.node_id] for n in active],
                          [parts[n.node_id] for n in active], cfg, cfg.local_epochs_per_round)
    trace = []
    for r in range(rounds):
        losses = dict.fromkeys((n.node_id for n in order), 0.0)
        if state is not None:
            losses.update(zip((n.node_id for n in active), state.run(active, rng)))
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
