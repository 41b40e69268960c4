"""Master/slave synchronization over a simulated serial link.

Between syncs the swarm's state is one global head. Every round each
node starts from it, and it is also each node's proximal anchor
(FedProx). Each node then uploads its trained head to the master
(node 0 by convention), the master averages, and the new global head
is broadcast back, so the swarm leaves every round in consensus. Node
i is position i of every per-node sequence. Aggregation accumulates
in float64 in node order, which makes the average bit-exact under
permutation and idempotent on identical heads.

``local_epoch`` is the package's one minibatch-SGD loop. Between syncs
the nodes are independent, so it trains all of a round's nodes in
lockstep: minibatch k of every node is one ``total_loss`` pass with the
node as a batch axis, which gives each node the bits it would get
alone, followed by one ``sgd_step``. The nodes' parameters sit in one
(N, P) stack, longest view first, so each width group of steps is a
contiguous slice of it. Each group runs on one ``losses.StepSpace``
over its slice, so a step builds no head object and ``sgd_step``
updates the stack in place; the heads handed in are only read, and
each trained node gets a new head. All of that set-up depends only on
the architecture, views, partitions and config: ``check_view`` of
every view, the sort, the stacks, the ``StepSpace``s, the minibatch
views and the gather schedule. A session's views do not change, so
``run_session`` builds it once per session, not once per round; a
round then draws each node's shuffles for all of its epochs in one
generator call, copies the heads into the stack and its anchor copy
and steps. Each epoch gathers its shuffled batches once, and only a
round's last epoch, the one reported, asks for loss values. The
harness runs central training (T0 pretraining, the joint strategy)
through ``local_epoch``, which builds the state and runs one round, as
N = 1 on the pooled data.
``SimNetwork`` prices each message with the ``costs`` link model.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from itertools import accumulate

import numpy as np

from .costs import LinkModel, message_time
from .errors import (AggregationError, DimensionError, NumericError, _is_finite, _is_int,
                     check_budget)
from .losses import LossConfig, Minibatch, StepSpace, check_view, sgd_step, total_loss
from .model import _size
from .tensor import _SCAN_BLOCK
from .sessions import _write_file

__all__ = [
    "SyncMessage",
    "TraceEvent",
    "SimNetwork",
    "fedavg",
    "sync_round",
    "local_epoch",
    "run_session",
    "write_trace",
]


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
    _write_file(path, ("\n".join(lines) + "\n").encode())


def fedavg(heads, weights=None, node_ids=None) -> np.ndarray:
    """Weighted mean of flat parameter vectors, summed in node-id order.

    Accumulates in float64 and divides once, so averaging identical
    vectors returns them bit-exactly and reordering contributions (with
    their ids) cannot change the result. Weights must be finite real
    numbers and ids 64-bit integers; neither is coerced.
    """
    vecs = list(heads)
    if not vecs:
        raise AggregationError("nothing to aggregate")
    weights = [1.0] * len(vecs) if weights is None else list(weights)
    node_ids = list(range(len(vecs))) if node_ids is None else list(node_ids)
    for w in weights:  # nothing is coerced: a bool, a string or a NaN is no weight
        if not _is_finite(w):
            raise AggregationError(f"aggregation weights must be finite real numbers, got {w!r}")
    for n in node_ids:  # and a float or a bool is no id
        if not _is_int(n):
            raise AggregationError(f"node ids must be 64-bit integers, got {n!r}")
    weights, node_ids = [float(w) for w in weights], [int(n) for n in node_ids]
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


def sync_round(heads, net: SimNetwork) -> tuple:
    """Upload every node's head, average them at the master (node 0),
    broadcast the result to every node.

    Node i is ``heads[i]``: uploads go in index order, and the master
    sends one broadcast per node. Returns (global head, communication
    time on the link, uplink plus downlink for every node).
    """
    heads = list(heads)
    if not heads:
        raise AggregationError("no heads to synchronize")
    _check_arch(heads, heads[0].dims)
    elapsed = 0.0
    uploads = []
    for i, head in enumerate(heads):
        msg = SyncMessage("upload", i, head.params)
        elapsed += net.send(msg)
        uploads.append(msg.payload)
    flat = fedavg(uploads)
    for _ in heads:
        elapsed += net.send(SyncMessage("broadcast", 0, flat))
    return heads[0].with_params(flat), elapsed


def _count(value, what: str) -> int:
    """``value`` as a nonnegative int; AggregationError naming it when it
    is not a 64-bit integer (a bool is not one) or is negative."""
    if not _is_int(value) or value < 0:
        raise AggregationError(f"{what} must be a nonnegative integer, got {value!r}")
    return int(value)


def _lockstep_bytes(dims: tuple, sizes: dict, batch_size: int, epochs: int) -> int:
    """Host bytes at most of a lockstep call of heads of ``dims`` over views
    whose ``sizes`` map a row count to its node count: a row's five feature
    copies (views, the last views, ``x``, ``xe``, the gather's buffer), its
    targets and schedule, 8 bytes an epoch of shuffle table; stacks, heads
    and step records; two ``StepSpace``s a view length, each two chunk
    sizes of under 3 P + 16 (c_out + C + 2) floats a (sample, node) cell."""
    m, n = sum(rows * nodes for rows, nodes in sizes.items()), sum(sizes.values())
    p, longest = _size(dims), max(sizes)
    w = min(batch_size, longest)  # the widest batch
    groups = 2 * len(sizes) if w else 0
    cells = n * max(1, min(w, _SCAN_BLOCK // (n * p)))
    space = 8 * cells * (3 * p + 16 * (dims[1] + dims[2] + 2)) + 32 * n * (p + w)
    return (m * (20 * dims[0] + 256 + 8 * epochs) + 4 * (3 * n + 16) * p
            + 2048 * (-(-longest // batch_size) + groups) + groups * space)


def _check_arch(heads, dims) -> None:
    for i, head in enumerate(heads):
        if head.dims != dims:
            raise AggregationError(f"node {i} head architecture differs from node 0")


def _check_counts(n: int, views, parts) -> None:
    if not n or not n == len(views) == len(parts):
        raise AggregationError(
            f"{n} nodes, {len(views)} views and {len(parts)} partitions; "
            "local training needs one view and one partition per node"
        )


class _Lockstep:
    """Lockstep training of one node per view, over fixed views: the
    state ``local_epoch`` builds for one call and ``run_session`` for a
    whole session, and ``run`` trains one round of ``epochs`` passes.

    Everything that depends only on the architecture ``arch``, the
    views, partitions and config is built here, once: the checked
    views, the length sort, the (N, P) parameter stack and its anchor
    copy, the shuffle table, one ``StepSpace`` per width group over its
    slice of the stack, the ``Minibatch`` views and the gather schedule.
    AggregationError, as ``local_epoch`` documents, before more than the
    views' class masks is allocated.
    """

    def __init__(self, arch, views, parts, cfg: LossConfig, epochs):
        self.epochs = epochs = _count(epochs, "epochs")
        self.arch = arch
        stacked = [check_view(arch, view, part, cfg) for view, part in zip(views, parts)]
        sizes = [len(t) for _, t, _ in stacked]
        price = _lockstep_bytes(arch.dims, Counter(sizes), cfg.batch_size, epochs)
        check_budget({"the lockstep state": price}, AggregationError,
                     f"epochs={epochs} over {sum(sizes)} samples: ")
        n, longest, b = len(views), max(sizes), cfg.batch_size
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
        # width w, their group's StepSpace over params[lo:hi] and anchors,
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
        self.cfg, self.b = cfg, b
        # an lr past float32's range casts to inf, and the run diverges
        with np.errstate(over="ignore"):
            self.lr = np.float32(cfg.lr)

    def run(self, heads, rng: np.random.Generator) -> tuple:
        """One round from ``heads``, node i's at position i, each also its
        node's prox anchor: they are copied into the stack and its anchor
        copy. Returns (heads, each node's mean batch loss over its last
        epoch): a new head per trained node, a node with no rows keeping
        the one it brought. The heads must share the state's architecture.
        A trained node whose parameters hold a NaN or inf raises
        NumericError, naming the tensor, when its head is built."""
        heads = list(heads)
        n, epochs, steps = self.n, self.epochs, self.steps
        if steps is None:
            return heads, [0.0] * n
        order, params, row, starts, sizes = (
            self.order, self.params, self.row, self.starts, self.sizes)
        for i in self.live:
            lo, size = starts[row[i]], sizes[row[i]]
            block = order[:, lo : lo + size]
            rng.permuted(np.broadcast_to(self.index[:size], block.shape), axis=1, out=block)
            block += lo
        np.stack([heads[i].params for i in self.rank], out=params)
        np.copyto(self.snaps, params)
        step_losses, lr, cfg, picks = self.step_losses, self.lr, self.cfg, self.picks
        # diverging runs overflow here; each trained head is checked when built
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
        by_row = step_losses.tolist()
        losses = [0.0] * n
        for i in self.live:
            r = row[i]
            heads[i] = self.arch.with_params(params[r].copy())
            count = -(-sizes[r] // self.b)
            losses[i] = float(sum(by_row[r][:count]) / count)
        return heads, losses


def local_epoch(heads, views, parts, cfg: LossConfig, rng: np.random.Generator,
                epochs: int = 1) -> tuple:
    """``epochs`` shuffled passes of each node over its own view.

    Node i starts from ``heads[i]`` and trains on ``views[i]``, its
    (x, targets) view, with ``parts[i]``, its class partition: minibatch
    SGD against the composite loss, the proximal term anchored to the
    head the node brought, all nodes in lockstep (see the module
    docstring). Every node's permutations are drawn up front,
    node-major, one ``rng.permuted`` call per node over an (epochs,
    size) block: the same draws as one ``rng.permutation`` per epoch of
    the nodes run one after another. Returns (heads, losses) in node
    order: each node's trained head and mean batch loss over its last
    epoch (a view with no rows gets its own head back and 0.0, and
    draws nothing). The call builds the lockstep state and runs one
    round on it; ``run_session`` builds it once per session.
    AggregationError unless there is at least one head and one view and
    partition each, the heads share one architecture, ``epochs`` is a
    nonnegative integer and the call's priced host memory
    (``_lockstep_bytes``, shuffle table included) fits the budget.
    """
    heads = list(heads)
    _check_counts(len(heads), views, parts)
    _check_arch(heads, heads[0].dims)
    return _Lockstep(heads[0], views, parts, cfg, epochs).run(heads, rng)


def run_session(
    head,
    net: SimNetwork,
    rounds: int,
    views,
    parts,
    cfg: LossConfig,
    rng: np.random.Generator,
    evaluator=None,
) -> tuple:
    """Federated training: per round, local epochs on every node, then sync.

    ``views[i]`` and ``parts[i]`` are node i's (x, targets) view and
    class partition; ``head`` must already be expanded for the session.
    Each round every node trains from the global head, as in
    ``local_epoch`` (a view with no rows sits out and uploads the head
    unchanged), and ``sync_round`` averages the results into the next
    global head. The views do not change within a session, so the
    lockstep state is built once per session. Returns (global head,
    per-round trace). Each trace entry records the round number, mean
    local loss per node (over its last local epoch), communication
    seconds and, when an ``evaluator`` callable is given, its value on
    the new global head.
    """
    rounds = _count(rounds, "rounds")
    _check_counts(len(views), views, parts)
    state = _Lockstep(head, views, parts, cfg, cfg.local_epochs_per_round) if rounds else None
    trace = []
    for r in range(rounds):
        heads, losses = state.run([head] * state.n, rng)
        head, comm_s = sync_round(heads, net)
        entry = {
            "round": r,
            "mean_loss": {str(i): v for i, v in enumerate(losses)},
            "comm_s": comm_s,
        }
        if evaluator is not None:
            entry["accuracy"] = evaluator(head)
        trace.append(entry)
    return head, trace
