"""Training objective: cross-entropy + mu * mean-output regularizer +
(lambda/2) * proximal pull toward the last global model, plus plain SGD.

The mean-output term compares the average logit of this session's
classes against the average logit of previously learned classes,
excluding the sample's own target output. When the node holds a single
new class (so the new-side set is empty after exclusion) it falls back
to suppressing the old-class mean directly.

``total_loss`` is one closed-form forward and backward pass with the
gradient of every term written out by hand. It steps N heads at once,
node as a batch axis (the lockstep training loop), and one head on one
training view, (x, targets) columns, is its N = 1 case. Features,
snapshots and gradients are float32 arrays, gradients flat in the
head's layout, which ``model._parts`` cuts into per-tensor views. Every
sum is an ordered float32 fold (``tensor.Fold`` or an
``np.add.accumulate`` along one axis) and gradients accumulate in a
fixed order, so each node's results are bit-identical to the
per-sample reference in ``tests/test_objective.py``; the float64 oracle
in ``gradcheck`` checks the math itself.

The pass runs in a ``StepSpace``: the buffers and constants of one
width group of the training loop's lockstep state (built once per
federated session, or per ``local_epoch`` call), allocated once and
reused by every step, so a step is a fixed sequence of numpy calls
that write into them. The space borrows the group's parameter rows, a
contiguous slice of the state's one parameter stack, for as long as
the state lives, and no head object is built per step: the lockstep
``total_loss`` reads those rows, and the lockstep ``sgd_step``
updates them in place with the one-head step's two float32 operations
(lr * g rounded, then the subtraction), so the bits are the same. A
``Minibatch`` carries the views of its samples that a step reads,
built with the state.
Samples are sample-major (B, N) cells; each contraction is a
``Fold`` over a k-major product; logits stay sample-major and the
softmax and mean-output sums run along the class axis; each step builds
its samples' mean-output sides from the class masks, so they grow with
the batch, not the view; the per-sample gradient terms go into one
(B + 1, N, P) buffer, last sample first after the +0.0 and prox row,
folded in one call. ``values=False`` skips the loss values and leaves
the gradient bits alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DimensionError, RegistryError, _int_array, _is_int, check_fields
from .model import TrainableHead, _Forward, _parts, _weight_views
from .tensor import _SCAN_BLOCK, Fold

__all__ = [
    "LossConfig",
    "ClassPartition",
    "Minibatch",
    "StepSpace",
    "check_view",
    "total_loss",
    "sgd_step",
]


@dataclass(frozen=True)
class LossConfig:
    """Loss weights and local-training knobs.

    mu weights the mean-output regularizer, lam the proximal term
    (``"lambda"`` in a JSON config). Both at zero reduce the objective
    to plain cross-entropy.
    """

    mu: float = 2.0
    lam: float = field(default=3.8, metadata={"key": "lambda"})
    lr: float = 0.01
    batch_size: int = 4
    local_epochs_per_round: int = 1

    def __post_init__(self):
        check_fields(self)
        if self.mu < 0:
            raise ConfigError(f"mu must be nonnegative, got {self.mu}")
        if self.lam < 0:
            raise ConfigError(f"lambda must be nonnegative, got {self.lam}")
        if not self.lr > 0:
            raise ConfigError(f"lr must be positive, got {self.lr}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be positive, got {self.batch_size}")
        if self.local_epochs_per_round < 1:
            raise ConfigError(
                f"local_epochs_per_round must be positive, got {self.local_epochs_per_round}"
            )


@dataclass(frozen=True)
class ClassPartition:
    """Old (previous sessions, global) vs new (this session, this node)."""

    old_classes: frozenset
    new_classes: frozenset

    def __post_init__(self):
        for name in ("old_classes", "new_classes"):
            ids = getattr(self, name)
            if not all(map(_is_int, ids)):
                raise RegistryError(f"{name} {ids!r} must be 64-bit integer class ids")
            object.__setattr__(self, name, frozenset(map(int, ids)))
        overlap = self.old_classes & self.new_classes
        if overlap:
            raise RegistryError(f"classes in both partitions: {sorted(overlap)}")


@dataclass(frozen=True, slots=True)
class Minibatch:
    """Minibatch k of N nodes, sample-major: ``x`` (B, N, c_feat) features
    and ``targets`` (B, N) class ids, row b holding sample b of every
    node. Its length is the step's sample count, N * B.

    The views a step reads are built once with the batch: ``x_k``
    (c_feat, B, N, 1) k-major features for the forward product,
    ``x_rev`` (B, N, 1, c_feat) the samples last first for the conv_w
    gradient, and ``t_col`` (B, N, 1) targets against the class ids."""

    x: np.ndarray
    targets: np.ndarray
    x_k: np.ndarray = field(init=False, repr=False, compare=False)
    x_rev: np.ndarray = field(init=False, repr=False, compare=False)
    t_col: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "x_k", self.x.transpose(2, 0, 1)[..., None])
        object.__setattr__(self, "x_rev", self.x[::-1, :, None, :])
        object.__setattr__(self, "t_col", self.targets[..., None])

    def __len__(self) -> int:
        return self.targets.size

    def rows(self, lo: int, hi: int) -> "Minibatch":
        """Samples ``lo:hi`` of every node, as a chunked step reads them."""
        return Minibatch(self.x[lo:hi], self.targets[lo:hi])


def check_view(head: TrainableHead, view, part: ClassPartition, cfg: LossConfig) -> tuple:
    """Check one node's training view against the head and partition.

    ``view`` is (x, targets): (M, c_feat) float32 features and M integer
    class ids. Returns (x, targets as read-only intp, (new, old) class
    masks of ``part``). Features that are not (M, c_feat), or targets
    that are not M integers (``errors._int_array``: floats, bools and
    strings are not class ids), raise DimensionError, and targets must
    index a logit (IndexError). With
    the MOL term on, each target must lie on a side of ``part``
    (RegistryError) and every other partition class must index a logit
    (IndexError). A mask marks its side's classes by index; a partition
    class outside the logits (possible only with the MOL term off)
    marks nothing.
    """
    c, form = head.num_classes, f"a training view (features (M, {head.c_feat}), targets (M,))"
    try:
        x, targets = view
        x = np.asarray(x, np.float32)
    except (TypeError, ValueError):  # not two arrays: ragged, or a list of pairs
        raise DimensionError(f"{form} is two arrays") from None
    targets = _int_array(targets, np.intp, f"the targets of {form}", DimensionError)
    if x.ndim != 2 or x.shape[1] != head.c_feat or targets.shape != x.shape[:1]:
        raise DimensionError(
            f"features {x.shape} and targets {targets.shape} do not match head input "
            f"(M, {head.c_feat}) and (M,)"
        )
    bad = (targets < 0) | (targets >= c)
    if bad.any():
        raise IndexError(f"target {targets[bad][0]} out of range for {c} classes")
    if cfg.mu != 0.0:
        stray = [k for k in sorted(part.new_classes) + sorted(part.old_classes) if not 0 <= k < c]
        for t in dict.fromkeys(targets.tolist()):
            if t not in part.new_classes and t not in part.old_classes:
                raise RegistryError(f"target {t} is in neither side of the partition")
            for k in stray:
                if k != t:
                    raise IndexError(f"partition class {k} out of range for {c} logits")
    masks = (np.zeros(c, bool), np.zeros(c, bool))
    for m, side in zip(masks, (part.new_classes, part.old_classes)):
        m[[k for k in side if 0 <= k < c]] = True
    return x, targets, masks


def total_loss(head, batch, part, w_global, cfg: LossConfig, *, values: bool = True):
    """Composite loss and its gradient.

    Per sample: cross-entropy + mu * mean-output term; batch-averaged,
    then the proximal pull toward the flat snapshot ``w_global`` is
    added once.

    One head: ``batch`` is a ``check_view`` view (x, targets), ``part``
    a ClassPartition and ``w_global`` a flat float32 array;
    returns (loss value, flat float32 gradient). Lockstep, as the
    training loop calls it: ``head`` is the (N, P) parameter rows the
    ``StepSpace`` ``part`` was built over (DimensionError for any other
    array), ``batch`` a ``Minibatch`` and ``w_global`` the (N, P)
    snapshots; returns ((N,) values, (N, P) gradients). The one-head
    form checks its input and runs the lockstep form with N = 1 over
    the head's own read-only rows. Without ``values`` the values are
    None. Gradients are new arrays.
    """
    if isinstance(batch, Minibatch):
        if head is not part.params:
            raise DimensionError("a lockstep step reads the rows its StepSpace was built over")
        return part.step(batch, w_global, values)
    x, targets, masks = check_view(head, batch, part, cfg)
    if not len(targets):
        raise DimensionError("total_loss needs a nonempty batch")
    w_global = np.asarray(w_global, np.float32).reshape(-1)
    if w_global.size != head.parameter_count:
        raise DimensionError(
            f"global snapshot has {w_global.size} values, head has {head.parameter_count}"
        )
    space = StepSpace(head, head.params[None], len(targets), tuple(m[None] for m in masks), cfg)
    out, grads = space.step(Minibatch(x[:, None], targets[:, None]), w_global[None], values)
    return (float(out[0]) if values else None), grads[0]


_ZERO, _ONE = np.float32(0.0), np.float32(1.0)
_PLUS_MINUS_TWO = np.array([2.0, -2.0], np.float32)


class StepSpace:
    """Buffers and constants for lockstep steps of the (n, P) float32
    parameter rows ``params``, heads of ``arch``'s architecture, over
    minibatches of ``w`` samples each.

    The space borrows ``params`` for its life and builds the weight
    views over them once; it holds no rows of its own. The training
    loop's lockstep state builds one per width group over the group's
    slice of its parameter stack, runs every step of that group through it
    and updates the slice in place with the lockstep ``sgd_step``; the
    one-head ``total_loss`` builds one over the head's own rows for its
    single step. ``masks`` are the steps' (new, old) (n, num_classes)
    class masks and ``cfg`` their loss config. A step whose sample rows
    of n * P gradient terms would pass ``tensor._SCAN_BLOCK`` elements
    runs in chunks of samples, last chunk first, each chunk's gradient
    fold starting from the sum the one before it left.
    """

    def __init__(self, arch: TrainableHead, params: np.ndarray, w: int, masks, cfg: LossConfig):
        n, p = self.shape = params.shape
        self.params = params
        self.weights = _weight_views(params, arch.dims)
        # cls_w k-major over classes, (num_classes, 1, n, c_out), for g_hidden
        self.cls_w_c = _parts(params, arch.dims)[2].transpose(1, 0, 2)[:, None]
        self.inv_b = _ONE / np.float32(w)
        self.b = np.float32(w)
        # a weight past float32's range casts to inf: the run diverges,
        # and the constructor of the trained heads reports it
        with np.errstate(over="ignore"):
            mu, lam = np.float32(cfg.mu), np.float32(cfg.lam)
        self.mu = mu if cfg.mu != 0.0 else None
        self.inv_b_mu = self.inv_b * mu
        self.side_masks = np.stack(masks, axis=1)[None]  # (1, n, 2, num_classes): new, old
        self.lam = lam if cfg.lam != 0.0 else None
        self.half_lam = np.float32(0.5) * lam
        self.drift = np.empty((n, p), np.float32)
        self.prox = Fold((p, n))
        self.terms = Fold((w, n))
        rows = max(1, min(w, _SCAN_BLOCK // (n * p)))
        by_size, self.chunks = {}, []
        for hi in range(w, 0, -rows):
            lo = max(0, hi - rows)
            if hi - lo not in by_size:
                by_size[hi - lo] = _Rows(self, arch.dims, hi - lo)
            self.chunks.append((lo, hi, by_size[hi - lo], self.terms.terms[lo:hi]))

    def step(self, batch: "Minibatch", snaps: np.ndarray, values: bool):
        """((n,) values or None, (n, P) gradients) of the space's rows
        over ``batch``, the prox term anchored at ``snaps``."""
        lead = self.chunks[0][2].lead
        if self.lam is not None:  # row 0 of the first fold: +0.0 + the prox part
            np.subtract(self.params, snaps, out=self.drift)
            np.multiply(self.drift, self.lam, out=lead)
            np.add(lead, _ZERO, out=lead)
        elif len(self.chunks) > 1:
            lead.fill(0.0)
        grads, whole = None, len(self.chunks) == 1
        for lo, hi, rows, terms in self.chunks:
            if grads is not None:
                np.copyto(rows.lead, grads.reshape(self.shape))
            grads = rows.run(self, batch if whole else batch.rows(lo, hi),
                             terms if values else None)
        grads = grads.reshape(self.shape)
        if not values:
            return None, grads
        self.terms.run()
        out = self.terms.total / self.b
        if self.lam is not None:
            np.multiply(self.drift.T, self.drift.T, out=self.prox.terms)
            self.prox.run()
            out = out + self.half_lam * self.prox.total
        return out, grads


class _Rows:
    """One chunk's buffers in a StepSpace: ``rows`` samples of its n heads."""

    def __init__(self, space: StepSpace, dims: tuple, rows: int):
        _, c_out, n_cls = dims
        n, p = space.shape
        self.fwd = _Forward(dims, rows, n)
        hidden = self.fwd.hidden
        self.top = np.empty((rows, n, 1), np.float32)
        self.probs = np.empty((rows, n, n_cls), np.float32)  # becomes dL/dz
        self.cum = np.empty_like(self.probs)
        self.total = self.cum[..., -1:]
        self.classes = np.arange(n_cls)
        self.onehot = np.empty(self.probs.shape, bool)
        self.cell = (np.arange(rows)[:, None], np.arange(n))
        self.back = Fold((n_cls, rows, n, c_out))
        self.g_z = self.probs.transpose(2, 0, 1)[..., None]
        self.alive = np.empty(hidden.shape, bool)
        grad = np.zeros((rows + 1, n, p), np.float32)
        self.lead, self.fold = grad[0], grad.reshape(rows + 1, n * p)
        # per-sample gradient views; _parts only slices, so they write into grad
        self.g_conv_w, self.g_conv_b, self.g_cls_w, self.g_cls_b = _parts(grad[1:], dims)
        # the gradient rows run from the last sample to the first
        self.g_hidden, self.alive_rev = self.back.total[::-1], self.alive[::-1]
        self.g_pre = self.g_conv_b[..., None]
        self.g_z_rev, self.hidden_rev = self.probs[::-1], hidden[::-1, :, None, :]
        self.g_z_rev_col = self.g_z_rev[..., None]
        if space.mu is not None:
            self.mol = _Mol(rows, n, n_cls, self.fwd.logits, self.onehot)

    def run(self, s: StepSpace, batch: Minibatch, terms):
        """Write this chunk's per-sample gradient terms after ``lead`` and
        fold them; with ``terms``, also each sample's loss term into it."""
        self.fwd.run(s.weights, batch.x_k)
        z, probs = self.fwd.logits, self.probs
        # softmax cross-entropy per sample, along the class axis
        np.maximum.reduce(z, axis=-1, keepdims=True, out=self.top)
        np.subtract(z, self.top, out=probs)
        if terms is not None:
            shifted_t = probs[self.cell + (batch.targets,)]
        np.exp(probs, out=probs)
        np.add.accumulate(probs, axis=-1, out=self.cum)
        if terms is not None:
            terms[...] = np.log(self.total[..., 0]) - shifted_t
        np.divide(probs, self.total, out=probs)
        np.equal(batch.t_col, self.classes, out=self.onehot)
        np.subtract(probs, self.onehot, out=probs)
        np.multiply(probs, s.inv_b, out=probs)
        if s.mu is not None:
            mol = self.mol.run(s, probs, terms is not None)
            if terms is not None:
                terms += mol * s.mu
        # backward, each term into its gradient row
        np.multiply(self.g_z, s.cls_w_c, out=self.back.terms)
        self.back.run()
        np.greater(self.fwd.hidden, _ZERO, out=self.alive)
        self.g_conv_b.fill(0.0)
        np.copyto(self.g_conv_b, self.g_hidden, where=self.alive_rev)
        np.multiply(self.g_pre, batch.x_rev, out=self.g_conv_w)
        np.multiply(self.g_z_rev_col, self.hidden_rev, out=self.g_cls_w)
        np.copyto(self.g_cls_b, self.g_z_rev)
        return np.add.reduce(self.fold, axis=0)


class _Mol:
    """The mean-output term's buffers for one chunk: the (rows, n, 2, C)
    sides of each sample (its node's new and old classes, its own target
    excluded) and their ordered sums."""

    def __init__(self, rows: int, n: int, n_cls: int, z: np.ndarray, onehot: np.ndarray):
        self.z, self.onehot = z[:, :, None, :], onehot[:, :, None, :]
        self.sides = np.empty((rows, n, 2, n_cls), bool)
        self.count = np.empty((rows, n, 2), np.float32)
        self.div, self.mean, self.coef = (np.empty_like(self.count) for _ in range(3))
        # column 0 of the masked logits is the +0.0 seed of each side's sum
        self.masked = np.zeros((rows, n, 2, n_cls + 1), np.float32)
        self.cum = np.empty_like(self.masked)
        self.diff = np.empty((rows, n), np.float32)
        self.no_old = np.empty((rows, n), bool)
        self.grad = np.empty((rows, n, n_cls), np.float32)

    def run(self, s: StepSpace, g_z: np.ndarray, values: bool):
        """Add mu/B * dMOL/dz into ``g_z``; with ``values``, return the
        (rows, n) term values."""
        sides, masked = self.sides, self.masked[..., 1:]
        np.greater(s.side_masks, self.onehot, out=sides)
        np.add.reduce(sides, axis=-1, dtype=np.float32, out=self.count)
        np.maximum(self.count, _ONE, out=self.div)
        masked.fill(0.0)
        np.copyto(masked, self.z, where=sides)
        np.add.accumulate(self.masked, axis=-1, out=self.cum)
        np.divide(self.cum[..., -1], self.div, out=self.mean)
        # with no new side left its mean is +0.0, and 0 - m gives the
        # fallback's value and gradient: it differs from -m only in a
        # zero's sign, which neither diff * diff nor g_z's sum keeps
        np.subtract(self.mean[..., 0], self.mean[..., 1], out=self.diff)
        np.multiply(self.diff[..., None], _PLUS_MINUS_TWO, out=self.coef)
        np.divide(self.coef, self.div, out=self.coef)
        # no old side left: the term is zero
        np.equal(self.count[..., 1], _ZERO, out=self.no_old)
        np.copyto(self.coef, _ZERO, where=self.no_old[..., None])
        self.grad.fill(0.0)
        np.copyto(self.grad, self.coef[..., :1], where=sides[:, :, 0])
        np.copyto(self.grad, self.coef[..., 1:], where=sides[:, :, 1])
        np.multiply(self.grad, s.inv_b_mu, out=self.grad)
        np.add(self.grad, g_z, out=g_z)
        return np.where(self.no_old, _ZERO, self.diff * self.diff) if values else None


def sgd_step(head, grads: np.ndarray, lr: float):
    """One vanilla descent step, w <- w - lr * g, on the flat parameters,
    as two float32 operations: lr * g rounded, then the subtraction.

    One head: returns a new head, or raises NumericError when the step
    leaves a NaN or inf, as a training round does. Lockstep, as the
    training loop calls it: ``head`` is the (N, P) parameter rows of a
    ``StepSpace``, which are updated in place (elementwise, so each head
    steps as it would alone) and returned; ``grads`` is overwritten
    with lr * g.
    """
    one = isinstance(head, TrainableHead)
    params = head.params if one else head
    if grads.shape != params.shape:
        raise DimensionError(f"gradient shape {grads.shape} vs parameters {params.shape}")
    lr = np.float32(lr)
    if one:
        return head.with_params(params - lr * grads)
    np.multiply(grads, lr, out=grads)
    return np.subtract(params, grads, out=params)
