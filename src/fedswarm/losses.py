"""Training objective: cross-entropy + mu * mean-output regularizer +
(lambda/2) * proximal pull toward the last global model, plus plain SGD.

The mean-output term compares the average logit of this session's
classes against the average logit of previously learned classes,
excluding the sample's own target output. When the node holds a single
new class (so the new-side set is empty after exclusion) it falls back
to suppressing the old-class mean directly.

``total_loss`` is one closed-form forward and backward pass with the
gradient of every term written out by hand. It steps N heads at once,
node as the leading axis (the lockstep training loop), and one head
with a list of (features, target) pairs is its N = 1 case. Features,
snapshots and gradients are float32 arrays, gradients flat in
``flatten_params`` order. Every sum is an ordered float32 fold
(``tensor._scan``) and gradients accumulate in a fixed order, so each
node's results are bit-identical to the per-sample reference in
``tests/test_objective.py``; the float64 oracle in ``gradcheck``
checks the math itself.

Layout: each contraction is one k-major ``mm_f32`` fold; logits are
class-major (C, N, B), so the softmax and mean-output sums fold over
axis 0; each step builds its samples' mean-output sides from the class
masks, so they grow with the batch, not the view; the per-sample
gradient terms go into one (B + 1, N, P) buffer (row 0 the prox part)
folded in one call. ``values=False`` skips the
loss values and leaves the gradient bits alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    ConfigError,
    DimensionError,
    RegistryError,
    check_float_fields,
    check_int_fields,
)
from .model import TrainableHead, _head_forward
from .tensor import _SCAN_BLOCK, _scan, mm_f32

__all__ = [
    "LossConfig",
    "ClassPartition",
    "Minibatch",
    "stack_pairs",
    "total_loss",
    "sgd_step",
]


@dataclass(frozen=True)
class LossConfig:
    """Loss weights and local-training knobs.

    mu weights the mean-output regularizer, lam the proximal term.
    Both at zero reduce the objective to plain cross-entropy.
    """

    mu: float = 2.0
    lam: float = 3.8
    lr: float = 0.01
    batch_size: int = 4
    local_epochs_per_round: int = 1

    def __post_init__(self):
        check_int_fields(self, "batch_size", "local_epochs_per_round")
        check_float_fields(self, "mu", "lam", "lr")
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
        object.__setattr__(self, "old_classes", frozenset(int(c) for c in self.old_classes))
        object.__setattr__(self, "new_classes", frozenset(int(c) for c in self.new_classes))
        overlap = self.old_classes & self.new_classes
        if overlap:
            raise RegistryError(f"classes in both partitions: {sorted(overlap)}")


@dataclass(frozen=True)
class Minibatch:
    """Minibatch k of N nodes, stacked with the node as the leading axis:
    ``x`` (N, B, c_feat) features and ``targets`` (N, B) class ids. Its
    length is the step's sample count, N * B."""

    x: np.ndarray
    targets: np.ndarray

    def __len__(self) -> int:
        return self.targets.size


def _ce_kernel(z: np.ndarray, targets: np.ndarray, values: bool = True):
    """Stabilized softmax cross-entropy per column of class-major (C, M)
    logits: (losses (M,) or None without ``values``, probabilities (C, M)).
    """
    shifted = z - z.max(axis=0)
    exps = np.exp(shifted)
    totals = _scan(exps)
    losses = np.log(totals) - shifted[targets, np.arange(len(targets))] if values else None
    return losses, exps / totals


def stack_pairs(head: TrainableHead, pairs, part: ClassPartition, cfg: LossConfig) -> tuple:
    """Check one node's (features, target) pairs once and stack them.

    Returns (x (M, c_feat), targets (M,), (new, old) class masks of
    ``part``). Features must match the head's input (DimensionError) and
    targets index a logit (IndexError). With the MOL term on, each
    target must lie on a side of ``part`` (RegistryError) and every
    other partition class must index a logit (IndexError).
    """
    c = head.num_classes
    rows = [np.asarray(f, np.float32).reshape(-1) for f, _ in pairs]
    for r in rows:
        if r.size != head.c_feat:
            raise DimensionError(
                f"features of size {r.size} do not match head input ({head.c_feat},)"
            )
    targets = np.array([int(t) for _, t in pairs], dtype=np.intp)
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
    sides = (part.new_classes, part.old_classes)
    masks = tuple(np.isin(np.arange(c), sorted(side)) for side in sides)
    return np.array(rows, np.float32).reshape(-1, head.c_feat), targets, masks


def _sides(masks, targets: np.ndarray) -> tuple:
    """(C, 2, N, M) new/old side masks of each sample, its own target
    excluded, and their (2, N, M) float32 counts, from the (new, old)
    (N, C) partition masks and (N, M) targets."""
    other = np.arange(masks[0].shape[-1])[:, None, None] != targets
    sides = np.stack([m.T[..., None] & other for m in masks], axis=1)
    return sides, sides.sum(axis=0).astype(np.float32)


_PLUS_MINUS_TWO = np.array([[2.0], [-2.0]], np.float32)


def _mol_kernel(z: np.ndarray, sides: np.ndarray, counts: np.ndarray, values: bool = True):
    """Value (M,) (None without ``values``) and dL/dz (C, M) of the
    mean-output term per column of class-major logits, given the columns'
    (C, 2, M) ``_sides`` and their (2, M) counts. Masked-out entries enter
    the ordered sums as +0.0, which leaves a sum seeded with +0.0
    unchanged, so each side's sum equals the loop over its members.
    """
    zero = np.float32(0.0)
    div = np.maximum(counts, 1)
    mean_a, mean_b = _scan(np.where(sides, z[:, None], zero)) / div
    has_a, has_b = counts > 0
    # with no new side left, -mean_b gives the fallback's value and
    # gradient: (-2 * -m) / n == (2 * m) / n and (-m)^2 == m^2 bit for bit
    diff = np.where(has_a, mean_a - mean_b, -mean_b)
    value = np.where(has_b, diff * diff, zero) if values else None
    grad_a, grad_b = _PLUS_MINUS_TWO * diff / div
    grad = np.where(sides[:, 0] & (has_a & has_b), grad_a, np.where(sides[:, 1], grad_b, zero))
    return value, grad


def total_loss(head, batch, part, w_global, cfg: LossConfig, *, values: bool = True):
    """Composite loss and its gradient.

    Per sample: cross-entropy + mu * mean-output term; batch-averaged,
    then the proximal pull toward the flat snapshot ``w_global`` is
    added once.

    One head: ``batch`` is a sequence of (features, target) pairs,
    ``part`` a ClassPartition and ``w_global`` a flat float32 array; returns
    (loss value, flat float32 gradient). Lockstep, as the training loop
    calls it: ``head`` is an (N, P) stack, ``batch`` a ``Minibatch``,
    ``part`` the (new, old) (N, num_classes) class masks and
    ``w_global`` the (N, P) snapshots; returns ((N,) values, (N, P)
    gradients). The one-head form checks its input and runs the
    lockstep form with N = 1. Without ``values`` the values are None.
    """
    if isinstance(batch, Minibatch):
        return _lockstep_loss(head, batch, part, w_global, cfg, values)
    samples = list(batch)
    if not samples:
        raise DimensionError("total_loss needs a nonempty batch")
    x, targets, masks = stack_pairs(head, samples, part, cfg)
    w_global = np.asarray(w_global, np.float32).reshape(-1)
    if w_global.size != head.parameter_count:
        raise DimensionError(
            f"global snapshot has {w_global.size} values, head has {head.parameter_count}"
        )
    out, grads = _lockstep_loss(
        head.with_params(head.params[None]), Minibatch(x[None], targets[None]),
        tuple(m[None] for m in masks), w_global[None], cfg, values,
    )
    return (float(out[0]) if values else None), grads[0]


def _lockstep_loss(head: TrainableHead, batch: Minibatch, masks, snaps, cfg: LossConfig, values):
    """((N,) values or None, (N, P) gradients) of N heads over their
    minibatches.

    Rows are independent, so each node's value and gradient equal the
    one-head pass over its own rows bit for bit.
    """
    x, targets = batch.x, batch.targets
    n, b = targets.shape
    n_cls = head.num_classes
    hidden, z = _head_forward(head, x)
    z = np.ascontiguousarray(z.transpose(2, 0, 1)).reshape(n_cls, n * b)
    flat_t = targets.reshape(-1)
    ce, probs = _ce_kernel(z, flat_t, values)

    # d(batch mean)/d(term) = 1/B. The reference adds the MOL part to a
    # +0.0 slot, then the CE part; the slot's seed is dropped here
    # because the CE part is never -0.0 (softmax probabilities are not).
    inv_n = np.float32(1.0) / np.float32(b)
    dz = probs
    dz[flat_t, np.arange(n * b)] -= np.float32(1.0)
    terms = ce
    g_logits = dz * inv_n
    if cfg.mu != 0.0:
        mu = np.float32(cfg.mu)
        sides, counts = (s.reshape(s.shape[:-2] + (n * b,)) for s in _sides(masks, targets))
        mol, dmol = _mol_kernel(z, sides, counts, values)
        if values:
            terms = ce + mol * mu
        g_logits = dmol * (inv_n * mu) + g_logits
    out = _scan(terms.reshape(n, b).T) / np.float32(b) if values else None
    prox = np.float32(0.0)
    if cfg.lam != 0.0:
        d = head.params - snaps
        prox = np.float32(cfg.lam) * d
        if values:
            out = out + np.float32(0.5) * np.float32(cfg.lam) * _scan((d * d).T)

    g_logits = g_logits.reshape(n_cls, n, b)
    g_hidden = mm_f32(g_logits.transpose(1, 2, 0), head.cls_w)
    g_pre = np.where(hidden > 0, g_hidden, np.float32(0.0))
    return out, _sample_fold(head, prox, x, g_pre, hidden, g_logits)


def _sample_fold(head: TrainableHead, acc, x, g_pre, hidden, g_logits):
    """(N, P) gradients: each sums, from +0.0, ``acc`` (the prox part, +0.0
    at lam == 0) and then samples B-1 down to 0, the reference's order. The
    terms go straight into a (rows, N, P) buffer, row 0 the running sum,
    folded by one ``_scan``, in blocks of samples near ``_SCAN_BLOCK``."""
    (n, p), (c_feat, c_out, n_cls) = head.params.shape, head.dims
    ends = (0, c_out * c_feat, c_out * (c_feat + 1), c_out * (c_feat + 1 + n_cls), p)
    # per-sample factors (B, N, units), last sample first
    gp, xs, hs = (v.transpose(1, 0, 2)[::-1] for v in (g_pre, x, hidden))
    gl = g_logits.transpose(2, 1, 0)[::-1]
    step = max(1, _SCAN_BLOCK // (n * p))
    for i in range(0, len(gp), step):
        blk = slice(i, i + step)
        rows = len(gp[blk])
        buf = np.empty((rows + 1, n, p), np.float32)
        buf[0] = acc
        w, wb, c, cb = (buf[1:, :, lo:hi] for lo, hi in zip(ends, ends[1:]))
        np.multiply(gp[blk, ..., None], xs[blk, :, None], out=w.reshape(rows, n, c_out, c_feat))
        np.multiply(gl[blk, ..., None], hs[blk, :, None], out=c.reshape(rows, n, n_cls, c_out))
        wb[...], cb[...] = gp[blk], gl[blk]
        acc = _scan(buf)
    return acc


def sgd_step(head: TrainableHead, grads: np.ndarray, lr: float) -> TrainableHead:
    """One vanilla descent step, w <- w - lr * g, on the flat parameters
    (elementwise, so a stack steps each head as it would alone)."""
    if grads.shape != head.params.shape:
        raise DimensionError(f"gradient shape {grads.shape} vs parameters {head.params.shape}")
    return head.with_params(head.params - np.float32(lr) * grads)
