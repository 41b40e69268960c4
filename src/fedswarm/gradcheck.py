"""Finite-difference validation of the analytic loss gradients.

The production objective (``losses.total_loss``) runs in float32 as one
closed-form forward and backward pass over the whole minibatch, with
the gradient of every term written out by hand. This module recomputes
the same math independently in float64 with plain numpy reductions
(different accumulation order on purpose) and differentiates it by
central differences. Agreement on random heads validates that fused
backward pass as a whole. The float64 round is what makes the 1e-4
tolerance reachable: differencing the float32 loss itself would drown
in rounding noise at any usable step size. ``reference_total_loss``
takes one parameter vector or a (T, P) stack of them, which it runs
as one batched pass (float64 views of the stack's head tensors,
batched matmuls, reductions along each row), and ``check_case`` puts all
2P + 1 central-difference points of a case, theta0 +- h along each
coordinate and theta0 itself, into one such stack: a few dozen numpy
calls per case instead of that many per point. The stack holds
(2P + 1) * P float64 values, which suits the small heads it checks.
"""

from __future__ import annotations

import numpy as np

from .errors import NumericError
from .losses import ClassPartition, LossConfig, total_loss
from .model import TrainableHead, _parts, _size

__all__ = ["reference_total_loss", "check_case", "run_gradcheck", "format_gradcheck"]

REL_TOL = 1e-4
ABS_TOL = 1e-6


def reference_total_loss(theta, head: TrainableHead, batch, part, w_global, mu, lam):
    """The objective recomputed in float64 from flat parameters over the
    training view ``batch``, (x, targets): one (P,) vector gives its
    value as a float, a (T, P) stack of them their (T,) values from one
    batched pass."""
    theta = np.asarray(theta, np.float64)
    stack = theta.reshape(-1, theta.shape[-1])  # (T, P)
    conv_w, conv_b, cls_w, cls_b = _parts(stack, head.dims)
    x, targets = batch
    f = np.asarray(x, np.float64)
    hidden = np.maximum(conv_w @ f.T + conv_b[..., None], 0.0)  # (T, c_out, M)
    logits = cls_w @ hidden + cls_b[..., None]  # (T, C, M)
    total = 0.0
    for m, target in enumerate(np.asarray(targets).tolist()):
        z = logits[..., m]
        zs = z - z.max(axis=1, keepdims=True)
        ce = np.log(np.exp(zs).sum(axis=1)) - zs[:, target]
        a = sorted(part.new_classes - {target})
        b = sorted(part.old_classes - {target})
        if not b:
            mol = 0.0
        elif a:
            mol = (z[:, a].mean(axis=1) - z[:, b].mean(axis=1)) ** 2
        else:
            mol = z[:, b].mean(axis=1) ** 2
        total = total + (ce + mu * mol)
    total = total / len(targets)
    d = stack - np.asarray(w_global, dtype=np.float64)
    values = total + 0.5 * lam * (d * d).sum(axis=1)
    return float(values[0]) if theta.ndim == 1 else values


def _scaled_err(analytic: np.ndarray, expected: np.ndarray) -> float:
    """max |a-e| / max(|e|, ABS_TOL/REL_TOL): < REL_TOL means both
    the relative and the near-zero absolute criteria hold."""
    denom = np.maximum(np.abs(expected), ABS_TOL / REL_TOL)
    return float(np.max(np.abs(analytic - expected) / denom))


def check_case(head, batch, part, w_global, cfg: LossConfig, h: float = 1e-3) -> dict:
    """One head instance: analytic f32 gradient vs f64 central differences."""
    loss32, grads = total_loss(head, batch, part, w_global, cfg)
    analytic = grads.astype(np.float64)
    theta0 = head.params.astype(np.float64)
    p = theta0.size
    # every central-difference point, theta0 +- h at each coordinate, and
    # theta0 itself: one (2P + 1, P) stack through the reference
    moves = np.eye(p) * h
    points = np.concatenate([theta0 + moves, theta0 - moves, theta0[None]])
    values = reference_total_loss(points, head, batch, part, np.asarray(w_global, np.float32),
                                  cfg.mu, cfg.lam)
    fd = (values[:p] - values[p : 2 * p]) / (2.0 * h)
    loss64 = float(values[-1])
    if not np.isfinite(fd).all():
        raise NumericError("non-finite finite-difference gradient")
    return {
        "max_scaled_err": _scaled_err(analytic, fd),
        "loss_rel_err": abs(loss32 - loss64) / max(abs(loss64), 1e-12),
        "params": int(theta0.size),
    }


def _min_preactivation(head: TrainableHead, x: np.ndarray) -> float:
    """Distance of the hidden relu inputs of the features ``x`` from the
    kink; small values would poison central differences."""
    pre = head.conv_w.astype(np.float64) @ x.T.astype(np.float64)
    return float(np.abs(pre + head.conv_b.astype(np.float64)[:, None]).min())


def _make_case(idx: int, seed: int):
    """Deterministic case family cycling dims, weights and branches."""
    rng = np.random.default_rng(np.random.SeedSequence((seed, idx)))
    dims = [(2, 2, 4), (3, 2, 5), (4, 3, 6), (2, 3, 3), (5, 2, 4)][idx % 5]
    mu, lam = [(2.0, 3.8), (0.0, 3.8), (2.0, 0.0), (0.7, 1.3)][idx % 4]
    branch = ("both", "fallback", "no_old")[idx % 3]
    c_feat, _, classes = dims
    for _ in range(50):
        params = np.empty(_size(dims), np.float32)
        for view in _parts(params, dims):  # drawn in layout order
            view[...] = rng.standard_normal(view.shape).astype(np.float32) * 0.6
        head = TrainableHead(params, dims)
        targets = rng.integers(0, classes, size=3)
        x = rng.standard_normal((3, c_feat)).astype(np.float32)
        if branch == "both":
            split = classes // 2
            part = ClassPartition(frozenset(range(split)), frozenset(range(split, classes)))
            # keep every target inside the partition's new side
            targets = split + targets % (classes - split)
        elif branch == "fallback":
            part = ClassPartition(frozenset(range(classes - 1)), frozenset({classes - 1}))
            targets = np.full(3, classes - 1)  # target the lone new class
        else:
            part = ClassPartition(frozenset(), frozenset(range(classes)))
        w_global = (
            head.params + rng.standard_normal(head.parameter_count).astype(np.float32) * 0.2
        )
        if _min_preactivation(head, x) > 0.05:
            break
    else:
        raise NumericError(f"case {idx}: could not avoid the relu kink")
    cfg = LossConfig(mu=mu, lam=lam, lr=0.01, batch_size=len(targets))
    name = f"case{idx:02d}_{branch}_mu{mu}_lam{lam}_p{head.parameter_count}"
    return name, head, (x, targets), part, w_global, cfg


def run_gradcheck(n_cases: int = 20, seed: int = 7) -> list:
    """The battery behind both the CLI and the acceptance gate."""
    results = []
    for idx in range(n_cases):
        name, head, batch, part, w_global, cfg = _make_case(idx, seed)
        r = check_case(head, batch, part, w_global, cfg)
        r["name"] = name
        r["ok"] = bool(r["max_scaled_err"] < REL_TOL)
        results.append(r)
    return results


def format_gradcheck(results) -> str:
    lines = []
    for r in results:
        status = "ok  " if r["ok"] else "FAIL"
        lines.append(
            f"{status} {r['name']:<38} max_err={r['max_scaled_err']:.3e}"
            f" loss_err={r['loss_rel_err']:.3e}"
        )
    n_ok = sum(1 for r in results if r["ok"])
    lines.append(f"{n_ok}/{len(results)} gradient checks passed (tol {REL_TOL:g})")
    return "\n".join(lines) + "\n"
