"""Finite-difference validation of the analytic loss gradients.

The production objective (``losses.total_loss``) runs in float32 as one
closed-form forward and backward pass over the whole minibatch, with
the gradient of every term written out by hand. This module recomputes
the same math independently in float64 with plain numpy reductions
(different accumulation order on purpose) and differentiates it by
central differences. Agreement on random heads validates that fused
backward pass as a whole. The float64 round is what makes the 1e-4
tolerance reachable: differencing the float32 loss itself would drown
in rounding noise at any usable step size.
"""

from __future__ import annotations

import numpy as np

from .errors import NumericError
from .losses import ClassPartition, LossConfig, total_loss
from .model import TrainableHead, flatten_params
from .tensor import Tensor

__all__ = ["reference_total_loss", "check_case", "run_gradcheck", "format_gradcheck"]

REL_TOL = 1e-4
ABS_TOL = 1e-6


def reference_total_loss(theta, head: TrainableHead, batch, part, w_global, mu, lam):
    """The objective recomputed in float64 from a flat parameter vector."""
    h64 = head.with_params(np.array(theta, dtype=np.float64))  # flat layout, float64 values
    conv_w, conv_b, cls_w, cls_b = h64.conv_w, h64.conv_b, h64.cls_w, h64.cls_b
    total = 0.0
    for feats, target in batch:
        f = np.asarray(feats.data if isinstance(feats, Tensor) else feats, np.float64)
        hidden = np.maximum(conv_w @ f + conv_b, 0.0)
        z = cls_w @ hidden + cls_b
        zs = z - z.max()
        ce = np.log(np.exp(zs).sum()) - zs[target]
        a = sorted(part.new_classes - {target})
        b = sorted(part.old_classes - {target})
        if not b:
            mol = 0.0
        elif a:
            mol = (z[a].mean() - z[b].mean()) ** 2
        else:
            mol = z[b].mean() ** 2
        total += ce + mu * mol
    total /= len(batch)
    d = theta - np.asarray(w_global, dtype=np.float64)
    return total + 0.5 * lam * (d * d).sum()


def _scaled_err(analytic: np.ndarray, expected: np.ndarray) -> float:
    """max |a-e| / max(|e|, ABS_TOL/REL_TOL): < REL_TOL means both
    the relative and the near-zero absolute criteria hold."""
    denom = np.maximum(np.abs(expected), ABS_TOL / REL_TOL)
    return float(np.max(np.abs(analytic - expected) / denom))


def check_case(head, batch, part, w_global, cfg: LossConfig, h: float = 1e-3) -> dict:
    """One head instance: analytic f32 gradient vs f64 central differences."""
    loss32, grads = total_loss(head, batch, part, w_global, cfg)
    analytic = grads.astype(np.float64)
    theta0 = flatten_params(head).data.astype(np.float64)
    wg = w_global.data

    def f(theta):
        return reference_total_loss(theta, head, batch, part, wg, cfg.mu, cfg.lam)

    fd = np.empty_like(theta0)
    for i in range(theta0.size):
        tp = theta0.copy()
        tp[i] += h
        tm = theta0.copy()
        tm[i] -= h
        fd[i] = (f(tp) - f(tm)) / (2.0 * h)
    loss64 = f(theta0)
    if not np.isfinite(fd).all():
        raise NumericError("non-finite finite-difference gradient")
    return {
        "max_scaled_err": _scaled_err(analytic, fd),
        "loss_rel_err": abs(loss32 - loss64) / max(abs(loss64), 1e-12),
        "params": int(theta0.size),
    }


def _min_preactivation(head: TrainableHead, batch) -> float:
    """Distance of the hidden relu inputs from the kink; small values
    would poison central differences."""
    worst = np.inf
    cw = head.conv_w.astype(np.float64)
    cb = head.conv_b.astype(np.float64)
    for feats, _ in batch:
        f = np.asarray(feats.data, np.float64)
        worst = min(worst, float(np.abs(cw @ f + cb).min()))
    return worst


def _make_case(idx: int, seed: int):
    """Deterministic case family cycling dims, weights and branches."""
    rng = np.random.default_rng(np.random.SeedSequence((seed, idx)))
    dims = [(2, 2, 4), (3, 2, 5), (4, 3, 6), (2, 3, 3), (5, 2, 4)][idx % 5]
    mu, lam = [(2.0, 3.8), (0.0, 3.8), (2.0, 0.0), (0.7, 1.3)][idx % 4]
    branch = ("both", "fallback", "no_old")[idx % 3]
    c_feat, hidden, classes = dims
    for _ in range(50):
        head = TrainableHead(
            conv_w=Tensor(rng.standard_normal((hidden, c_feat)).astype(np.float32) * 0.6),
            conv_b=Tensor(rng.standard_normal(hidden).astype(np.float32) * 0.6),
            cls_w=Tensor(rng.standard_normal((classes, hidden)).astype(np.float32) * 0.6),
            cls_b=Tensor(rng.standard_normal(classes).astype(np.float32) * 0.6),
        )
        batch = [
            (Tensor(rng.standard_normal(c_feat).astype(np.float32)), t)
            for t in rng.integers(0, classes, size=3)
        ]
        if branch == "both":
            split = classes // 2
            part = ClassPartition(frozenset(range(split)), frozenset(range(split, classes)))
            # keep every target inside the partition's new side
            batch = [(fx, split + int(t) % (classes - split)) for fx, t in batch]
        elif branch == "fallback":
            part = ClassPartition(frozenset(range(classes - 1)), frozenset({classes - 1}))
            batch = [(fx, classes - 1) for fx, _ in batch]  # target the lone new class
        else:
            part = ClassPartition(frozenset(), frozenset(range(classes)))
            batch = [(fx, int(t)) for fx, t in batch]
        w_global = Tensor(
            flatten_params(head).data + rng.standard_normal(head.parameter_count).astype(np.float32) * 0.2
        )
        if _min_preactivation(head, batch) > 0.05:
            break
    else:
        raise NumericError(f"case {idx}: could not avoid the relu kink")
    cfg = LossConfig(mu=mu, lam=lam, lr=0.01, batch_size=len(batch))
    name = f"case{idx:02d}_{branch}_mu{mu}_lam{lam}_p{head.parameter_count}"
    return name, head, batch, part, w_global, cfg


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
