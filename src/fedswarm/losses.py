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
with a list of (features, target) pairs is its N = 1 case. Gradients
are flat vectors in ``flatten_params`` order. Every sum is an ordered
float32 scan (``tensor._scan``) and gradients accumulate in a fixed
order, so each node's results are bit-identical to the per-sample
reference in ``tests/test_objective.py``; the float64 oracle in
``gradcheck`` checks the math itself.
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
from .model import TrainableHead, _f32, _head_forward
from .tensor import _scan, mm_f32

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


def _ce_kernel(z: np.ndarray, targets: np.ndarray):
    """Stabilized softmax cross-entropy per row of (B, C) logits.

    Returns (losses (B,), probabilities (B, C)).
    """
    shifted = z - z.max(axis=1, keepdims=True)
    exps = np.exp(shifted)
    totals = _scan(exps.T)
    losses = np.log(totals) - shifted[np.arange(len(targets)), targets]
    return losses, exps / totals[:, None]


def stack_pairs(head: TrainableHead, pairs, part: ClassPartition, cfg: LossConfig) -> tuple:
    """Check one node's (features, target) pairs once and stack them.

    Returns (x (M, c_feat), targets (M,), (new, old) class masks of
    ``part``). Features must match the head's input (DimensionError) and
    targets index a logit (IndexError). With the MOL term on, each
    target must lie on a side of ``part`` (RegistryError) and every
    other partition class must index a logit (IndexError).
    """
    c = head.num_classes
    rows = [_f32(f).reshape(-1) for f, _ in pairs]
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


def _mol_kernel(z: np.ndarray, a: np.ndarray, b: np.ndarray):
    """Value (B,) and dL/dz (B, C) of the mean-output term per row.

    ``a``/``b`` mask each row's new/old sides. Masked-out entries enter
    the ordered sums as +0.0, which leaves a sum seeded with +0.0
    unchanged, so each side's sum equals the loop over its members.
    """
    zero = np.float32(0.0)
    two = np.float32(2.0)
    na = a.sum(axis=1).astype(np.float32)
    nb = b.sum(axis=1).astype(np.float32)
    has_a, has_b = na > 0, nb > 0
    mean_a = _scan(np.where(a, z, zero).T) / np.maximum(na, 1)
    mean_b = _scan(np.where(b, z, zero).T) / np.maximum(nb, 1)
    # with no new side left, -mean_b gives the fallback's value and
    # gradient: (-2 * -m) / n == (2 * m) / n and (-m)^2 == m^2 bit for bit
    diff = np.where(has_a, mean_a - mean_b, -mean_b)
    value = np.where(has_b, diff * diff, zero)
    grad_a = (two * diff / np.maximum(na, 1))[:, None]
    grad_b = (-two * diff / np.maximum(nb, 1))[:, None]
    grad = np.where(a & (has_a & has_b)[:, None], grad_a, np.where(b, grad_b, zero))
    return value, grad


def total_loss(head, batch, part, w_global, cfg: LossConfig):
    """Composite loss and its gradient.

    Per sample: cross-entropy + mu * mean-output term; batch-averaged,
    then the proximal pull toward the flat snapshot ``w_global`` is
    added once.

    One head: ``batch`` is a sequence of (features, target) pairs,
    ``part`` a ClassPartition and ``w_global`` a flat Tensor; returns
    (loss value, flat float32 gradient). Lockstep, as the training loop
    calls it: ``head`` is an (N, P) stack, ``batch`` a ``Minibatch``,
    ``part`` the (new, old) (N, num_classes) class masks and
    ``w_global`` the (N, P) snapshots; returns ((N,) values, (N, P)
    gradients). The one-head form checks its input and runs the
    lockstep form with N = 1.
    """
    if isinstance(batch, Minibatch):
        return _lockstep_loss(head, batch, part, w_global, cfg)
    samples = list(batch)
    if not samples:
        raise DimensionError("total_loss needs a nonempty batch")
    x, targets, masks = stack_pairs(head, samples, part, cfg)
    if w_global.size != head.parameter_count:
        raise DimensionError(
            f"global snapshot has {w_global.size} values, head has {head.parameter_count}"
        )
    values, grads = _lockstep_loss(
        head.with_params(head.params[None]), Minibatch(x[None], targets[None]),
        tuple(m[None] for m in masks), w_global.data[None], cfg,
    )
    return float(values[0]), grads[0]


def _lockstep_loss(head: TrainableHead, batch: Minibatch, masks, snaps, cfg: LossConfig):
    """((N,) values, (N, P) gradients) of N heads over their minibatches.

    Rows are independent, so each node's value and gradient equal the
    one-head pass over its own rows bit for bit.
    """
    x, targets = batch.x, batch.targets
    n, b = targets.shape
    n_cls = head.num_classes
    hidden, z = _head_forward(head, x)
    rows = np.arange(n * b)
    flat_t = targets.reshape(-1)
    ce, probs = _ce_kernel(z.reshape(n * b, n_cls), flat_t)

    # d(batch mean)/d(term) = 1/B. The reference adds the MOL part to a
    # +0.0 slot, then the CE part; the slot's seed is dropped here
    # because the CE part is never -0.0 (softmax probabilities are not).
    inv_n = np.float32(1.0) / np.float32(b)
    dz = probs
    dz[rows, flat_t] -= np.float32(1.0)
    terms = ce
    g_logits = dz * inv_n
    if cfg.mu != 0.0:
        mu = np.float32(cfg.mu)
        other = np.arange(n_cls) != targets[..., None]
        new, old = ((m[:, None, :] & other).reshape(n * b, n_cls) for m in masks)
        mol, dmol = _mol_kernel(z.reshape(n * b, n_cls), new, old)
        terms = ce + mol * mu
        g_logits = dmol * (inv_n * mu) + g_logits
    values = _scan(terms.reshape(n, b).T) / np.float32(b)

    # each gradient sums, from +0.0, the prox part (+0.0 at lam == 0) and
    # then samples B-1 down to 0, the per-sample reference's order
    prox = np.zeros_like(head.params)
    if cfg.lam != 0.0:
        d = head.params - snaps
        half = np.float32(0.5) * np.float32(cfg.lam)
        values = values + half * _scan((d * d).T)
        prox = np.float32(cfg.lam) * d

    g_logits = g_logits.reshape(n, b, n_cls)
    g_hidden = mm_f32(g_logits, head.cls_w)
    g_pre = np.where(hidden > 0, g_hidden, np.float32(0.0))
    per_sample = np.concatenate([
        (g_pre[..., None] * x[..., None, :]).reshape(n, b, -1),
        g_pre,
        (g_logits[..., None] * hidden[..., None, :]).reshape(n, b, -1),
        g_logits,
    ], axis=-1)
    grads = _scan(np.concatenate([prox[None], per_sample.transpose(1, 0, 2)[::-1]]))
    return values, grads


def sgd_step(head: TrainableHead, grads: np.ndarray, lr: float) -> TrainableHead:
    """One vanilla descent step, w <- w - lr * g, on the flat parameters
    (elementwise, so a stack steps each head as it would alone)."""
    if grads.shape != head.params.shape:
        raise DimensionError(f"gradient shape {grads.shape} vs parameters {head.params.shape}")
    return head.with_params(head.params - np.float32(lr) * grads)
