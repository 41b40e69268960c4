"""Training objective: cross-entropy + mu * mean-output regularizer +
(lambda/2) * proximal pull toward the last global model, plus plain SGD.

The mean-output term compares the average logit of this session's
classes against the average logit of previously learned classes,
excluding the sample's own target output. When the node holds a single
new class (so the new-side set is empty after exclusion) it falls back
to suppressing the old-class mean directly.

``total_loss`` stacks the minibatch and runs one closed-form forward
and backward pass, with the gradient of every term written out by
hand. Every sum is an ordered float32 scan (``tensor._scan``) and
gradients accumulate in a fixed order, so results are bit-identical to
the per-sample reference in ``tests/test_objective.py``; the float64
oracle in ``gradcheck`` checks the math itself.
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
from .model import TrainableHead, _head_forward, flatten_params
from .tensor import Tensor, _scan, mm_f32, seq_sum

__all__ = [
    "LossConfig",
    "ClassPartition",
    "HeadGrads",
    "cross_entropy",
    "mol_loss",
    "prox_loss",
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
class HeadGrads:
    """Gradient of the total loss with respect to each head tensor."""

    conv_w: Tensor
    conv_b: Tensor
    cls_w: Tensor
    cls_b: Tensor


def _check_target(target: int, num_classes: int) -> int:
    t = int(target)
    if not 0 <= t < num_classes:
        raise IndexError(f"target {t} out of range for {num_classes} classes")
    return t


def _ce_kernel(z: np.ndarray, targets: np.ndarray):
    """Stabilized softmax cross-entropy per row of (B, C) logits.

    Returns (losses (B,), probabilities (B, C)).
    """
    shifted = z - z.max(axis=1, keepdims=True)
    exps = np.exp(shifted)
    totals = _scan(exps.T)
    losses = np.log(totals) - shifted[np.arange(len(targets)), targets]
    return losses, exps / totals[:, None]


def _mol_masks(targets: np.ndarray, part: ClassPartition, num_classes: int):
    """(new, old) membership masks, (B, C) each, the row's target excluded.

    Checks each target in order as the per-sample sets would: it must be
    on a side, and every other partition class must index a logit.
    """
    stray = [
        c for c in sorted(part.new_classes) + sorted(part.old_classes)
        if not 0 <= c < num_classes
    ]
    for t in targets:
        if t not in part.new_classes and t not in part.old_classes:
            raise RegistryError(f"target {t} is in neither side of the partition")
        for c in stray:
            if c != t:
                raise IndexError(f"partition class {c} out of range for {num_classes} logits")
    other = np.arange(num_classes)[None, :] != targets[:, None]
    masks = []
    for side in (part.new_classes, part.old_classes):
        m = np.zeros(num_classes, dtype=bool)
        m[[c for c in side if 0 <= c < num_classes]] = True
        masks.append(m & other)
    return masks


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


def _logits(logits) -> np.ndarray:
    z = logits.data if isinstance(logits, Tensor) else np.asarray(logits, np.float32)
    return z.reshape(1, -1)


def cross_entropy(logits: Tensor, target: int) -> float:
    """-log softmax(logits)[target], max-shifted for stability."""
    z = _logits(logits)
    t = _check_target(target, z.size)
    loss, _ = _ce_kernel(z, np.array([t]))
    return float(loss[0])


def mol_loss(logits: Tensor, target: int, part: ClassPartition) -> float:
    """Squared gap between new-class and old-class mean logits.

    The target's own logit is excluded from both sides. With no new
    classes left after exclusion the old-class mean itself is squared;
    with no old classes the term vanishes.
    """
    z = _logits(logits)
    a, b = _mol_masks(np.array([int(target)]), part, z.size)
    val, _ = _mol_kernel(z, a, b)
    return float(val[0])


def prox_loss(w: Tensor, w_global: Tensor, lam: float) -> float:
    """(lam/2) * squared distance from the stored global parameters."""
    if w.size != w_global.size:
        raise DimensionError(f"parameter vectors differ: {w.size} vs {w_global.size}")
    d = w.data - w_global.data
    half = np.float32(0.5) * np.float32(lam)
    return float(half * seq_sum(d * d))


def _leaf_grad(per_sample: np.ndarray, prox) -> np.ndarray:
    """One parameter's gradient, summed in the per-sample reference's
    order: from +0.0, the prox part (absent at lam == 0), then samples
    B-1 down to 0.

    A loop, not ``_scan``: the sample axis is short and each slice is a
    whole parameter tensor, where one vector add per sample is cheaper.
    """
    acc = np.zeros_like(per_sample[0]) if prox is None else np.float32(0.0) + prox
    for g in per_sample[::-1]:
        acc = acc + g
    return acc


def total_loss(
    head: TrainableHead,
    batch,
    part: ClassPartition,
    w_global: Tensor,
    cfg: LossConfig,
):
    """Composite loss over a batch of (features, target) pairs.

    Per sample: cross_entropy + mu * mean-output term; batch-averaged,
    then the proximal pull toward ``w_global`` (a flat snapshot) is
    added once. Returns (loss value, HeadGrads).

    One closed-form forward and backward pass over the stacked batch.
    Every sum is an ordered ``_scan`` and every gradient is accumulated
    in the per-sample reference's order, so the value and all four
    gradients equal that reference bit for bit.
    """
    samples = list(batch)
    if not samples:
        raise DimensionError("total_loss needs a nonempty batch")
    n_cls = head.num_classes
    rows = []
    for feats, _ in samples:
        f = feats.data if isinstance(feats, Tensor) else np.asarray(feats, np.float32)
        if f.size != head.c_feat:
            raise DimensionError(
                f"features of size {f.size} do not match head input ({head.c_feat},)"
            )
        rows.append(f.reshape(-1))
    targets = np.array([_check_target(t, n_cls) for _, t in samples])
    if w_global.size != head.parameter_count:
        raise DimensionError(
            f"global snapshot has {w_global.size} values, head has {head.parameter_count}"
        )
    x = np.stack(rows)
    hidden, z = _head_forward(head, x)
    ce, probs = _ce_kernel(z, targets)

    # d(batch mean)/d(term) = 1/B. The reference adds the MOL part to a
    # +0.0 slot, then the CE part; the slot's seed is dropped here
    # because the CE part is never -0.0 (softmax probabilities are not).
    inv_n = np.float32(1.0) / np.float32(len(samples))
    dz = probs
    dz[np.arange(len(samples)), targets] -= np.float32(1.0)
    terms = ce
    g_logits = dz * inv_n
    if cfg.mu != 0.0:
        mu = np.float32(cfg.mu)
        mol, dmol = _mol_kernel(z, *_mol_masks(targets, part, n_cls))
        terms = ce + mol * mu
        g_logits = dmol * (inv_n * mu) + g_logits
    value = seq_sum(terms) / np.float32(len(samples))

    prox = dict.fromkeys(("conv_w", "conv_b", "cls_w", "cls_b"))
    if cfg.lam != 0.0:
        d = flatten_params(head).data - w_global.data
        half = np.float32(0.5) * np.float32(cfg.lam)
        value = value + half * seq_sum(d * d)
        full = np.float32(cfg.lam) * d
        off = 0
        for name in prox:
            t = getattr(head, name)
            prox[name] = full[off : off + t.size].reshape(t.shape)
            off += t.size

    g_hidden = mm_f32(g_logits, head.cls_w.array)
    g_pre = np.where(hidden > 0, g_hidden, np.float32(0.0))
    grads = HeadGrads(
        conv_w=Tensor(_leaf_grad(g_pre[:, :, None] * x[:, None, :], prox["conv_w"])),
        conv_b=Tensor(_leaf_grad(g_pre, prox["conv_b"])),
        cls_w=Tensor(_leaf_grad(g_logits[:, :, None] * hidden[:, None, :], prox["cls_w"])),
        cls_b=Tensor(_leaf_grad(g_logits, prox["cls_b"])),
    )
    return float(value), grads


def sgd_step(head: TrainableHead, grads: HeadGrads, lr: float) -> TrainableHead:
    """One vanilla descent step: w <- w - lr * g on every head tensor."""
    lr32 = np.float32(lr)

    def step(w: Tensor, gr: Tensor) -> Tensor:
        if w.shape != gr.shape:
            raise DimensionError(f"gradient shape {gr.shape} vs parameter {w.shape}")
        return Tensor(w.data - lr32 * gr.data, w.shape)

    return TrainableHead(
        conv_w=step(head.conv_w, grads.conv_w),
        conv_b=step(head.conv_b, grads.conv_b),
        cls_w=step(head.cls_w, grads.cls_w),
        cls_b=step(head.cls_b, grads.cls_b),
    )
