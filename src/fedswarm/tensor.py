"""Dense float32 tensors, ordered-scan kernels and a reverse-mode tape.

Every contraction in the package goes through ``_scan``: a float32 sum
in a fixed index order, seeded with +0.0. Determinism rests on that
order, not on precision: a scan gives the same bits whatever numpy's
vector width. The production objective (``losses.total_loss``) calls
these kernels directly in closed form. The tape (``Graph``) is
the reference it is tested against bit for bit; its op set covers
exactly the two-layer head (pointwise conv + linear classifier).
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DimensionError, NumericError

__all__ = ["Tensor", "Graph", "finite_diff_grad"]


class Tensor:
    """Immutable dense float32 value: a shape plus row-major flat data."""

    __slots__ = ("shape", "data")

    def __init__(self, data, shape=None):
        if shape is None:
            arr = np.asarray(data, dtype=np.float32)
            shape = tuple(int(s) for s in arr.shape)
            flat = arr.reshape(-1)
        else:
            shape = tuple(int(s) for s in shape)
            flat = np.asarray(data, dtype=np.float32).reshape(-1)
        if any(s <= 0 for s in shape):
            raise DimensionError(f"shape entries must be positive, got {shape}")
        expected = 1
        for s in shape:
            expected *= s
        if flat.size != expected:
            raise DimensionError(
                f"shape {shape} expects {expected} elements, got {flat.size}"
            )
        flat = np.array(flat, dtype=np.float32, copy=True)
        flat.flags.writeable = False
        self.shape = shape
        self.data = flat

    @classmethod
    def zeros(cls, shape):
        shape = tuple(int(s) for s in shape)
        n = 1
        for s in shape:
            n *= s
        return cls(np.zeros(n, dtype=np.float32), shape)

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def array(self) -> np.ndarray:
        """Read-only view of the data in its natural shape."""
        return self.data.reshape(self.shape)

    def tobytes(self) -> bytes:
        return self.data.astype("<f4").tobytes()

    def __eq__(self, other):
        if not isinstance(other, Tensor):
            return NotImplemented
        return self.shape == other.shape and bool(
            np.array_equal(self.data, other.data)
        )

    def __hash__(self):
        return hash((self.shape, self.data.tobytes()))

    def __repr__(self):
        return f"Tensor(shape={self.shape})"


def _as_array(x) -> np.ndarray:
    if isinstance(x, Tensor):
        return x.array
    return np.asarray(x, dtype=np.float32)


# product elements per ``mm_f32`` block: bounds the scan's temporaries
_SCAN_BLOCK = 1 << 14


def _scan(x: np.ndarray) -> np.ndarray:
    """Float32 sum of ``x`` over its leading axis, in index order from +0.0.

    ``np.add.accumulate`` adds strictly left to right, so this equals the
    loop ``acc = 0.0; for v in x: acc += v`` at every trailing index. The
    leading zero slice is part of that contract: the loop turns a lone
    -0.0 into +0.0, an unseeded scan would keep it. The last slice is
    copied out so the prefix sums can be freed.
    """
    x = np.asarray(x, dtype=np.float32)
    seeded = np.concatenate([np.zeros((1,) + x.shape[1:], np.float32), x])
    return np.add.accumulate(seeded, axis=0)[-1].copy()


def seq_sum(values: np.ndarray) -> np.float32:
    """Left-to-right float32 sum of a 1-D array."""
    return _scan(values)


def mm_f32(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(m,k) x (k,n) float32 product, accumulated over k in index order.

    Rows of ``a`` are independent, so they are taken in blocks that keep
    the (k, rows, n) product small; the order within each sum is fixed.
    """
    m, k = a.shape
    n = b.shape[1]
    step = max(1, _SCAN_BLOCK // max(1, k * n))
    if m <= step:
        return _scan(a.T[:, :, None] * b[:, None, :])
    return np.concatenate(
        [mm_f32(a[i : i + step], b) for i in range(0, m, step)]
    )


def _sum_cols(x: np.ndarray) -> np.ndarray:
    """Sum a 2-D float32 array over axis 1, columns added in index order."""
    return _scan(x.T)


class _Node:
    __slots__ = ("kind", "inputs", "value", "grad", "backward_fn")

    def __init__(self, kind, inputs, value, backward_fn=None):
        self.kind = kind
        self.inputs = inputs
        self.value = value
        self.grad = None
        self.backward_fn = backward_fn


class Graph:
    """Reverse-mode tape over float32 arrays.

    Nodes are appended in topological order; ``backward`` walks them in
    reverse insertion order, so gradient accumulation order is fixed.
    Each node records its op kind, input node ids, output value and a
    gradient slot filled by ``backward``.
    """

    def __init__(self):
        self.nodes: list[_Node] = []

    # -- plumbing ---------------------------------------------------------

    def push_op(self, kind: str, inputs, value: np.ndarray, backward_fn) -> int:
        """Append a custom op node; ``backward_fn(g) -> per-input grads``.

        Extension point for modules that add their own differentiable
        ops (the loss terms live outside this module).
        """
        value = np.asarray(value, dtype=np.float32)
        self.nodes.append(_Node(kind, tuple(inputs), value, backward_fn))
        return len(self.nodes) - 1

    def leaf(self, x) -> int:
        self.nodes.append(_Node("leaf", (), _as_array(x).copy()))
        return len(self.nodes) - 1

    def value(self, nid: int) -> Tensor:
        return Tensor(self.nodes[nid].value)

    def raw_value(self, nid: int) -> np.ndarray:
        return self.nodes[nid].value

    def grad(self, nid: int) -> Tensor:
        g = self.nodes[nid].grad
        if g is None:
            g = np.zeros_like(self.nodes[nid].value)
        return Tensor(g)

    # -- ops ---------------------------------------------------------------

    def matmul(self, a: int, b: int) -> int:
        av, bv = self.nodes[a].value, self.nodes[b].value
        if av.ndim != 2 or bv.ndim != 2 or av.shape[1] != bv.shape[0]:
            raise DimensionError(
                f"matmul expects (m,k)x(k,n), got {av.shape} x {bv.shape}"
            )

        def backward_fn(g):
            return mm_f32(g, bv.T), mm_f32(av.T, g)

        return self.push_op("matmul", (a, b), mm_f32(av, bv), backward_fn)

    def pointwise_conv(self, x: int, w: int, bias: int) -> int:
        xv, wv, bv = (self.nodes[i].value for i in (x, w, bias))
        if xv.ndim != 3:
            raise DimensionError(f"pointwise_conv input must be C x H x W, got {xv.shape}")
        if wv.ndim != 2 or wv.shape[1] != xv.shape[0]:
            raise DimensionError(
                f"channel mismatch: weights {wv.shape} vs input {xv.shape}"
            )
        if bv.shape != (wv.shape[0],):
            raise DimensionError(f"bias {bv.shape} does not match weights {wv.shape}")
        c_in, h, wid = xv.shape
        xr = xv.reshape(c_in, h * wid)
        out = mm_f32(wv, xr) + bv[:, None]

        def backward_fn(g):
            gr = g.reshape(wv.shape[0], h * wid)
            dx = mm_f32(wv.T, gr).reshape(c_in, h, wid)
            dw = mm_f32(gr, xr.T)
            db = _sum_cols(gr)
            return dx, dw, db

        return self.push_op(
            "pointwise_conv", (x, w, bias), out.reshape(wv.shape[0], h, wid), backward_fn
        )

    def relu(self, x: int) -> int:
        xv = self.nodes[x].value
        mask = xv > 0  # subgradient at 0 is 0

        def backward_fn(g):
            return (np.where(mask, g, np.float32(0.0)),)

        return self.push_op("relu", (x,), np.where(mask, xv, np.float32(0.0)), backward_fn)

    def add(self, a: int, b: int) -> int:
        av, bv = self.nodes[a].value, self.nodes[b].value
        if av.shape != bv.shape:
            raise DimensionError(f"add shape mismatch: {av.shape} vs {bv.shape}")

        def backward_fn(g):
            return g, g

        return self.push_op("add", (a, b), av + bv, backward_fn)

    def sub(self, a: int, b: int) -> int:
        av, bv = self.nodes[a].value, self.nodes[b].value
        if av.shape != bv.shape:
            raise DimensionError(f"sub shape mismatch: {av.shape} vs {bv.shape}")

        def backward_fn(g):
            return g, -g

        return self.push_op("sub", (a, b), av - bv, backward_fn)

    def scale(self, a: int, c: float) -> int:
        av = self.nodes[a].value
        cf = np.float32(c)

        def backward_fn(g):
            return (g * cf,)

        return self.push_op("scale", (a,), av * cf, backward_fn)

    def global_avg_pool(self, x: int) -> int:
        xv = self.nodes[x].value
        if xv.ndim != 3:
            raise DimensionError(f"global_avg_pool input must be C x H x W, got {xv.shape}")
        c, h, w = xv.shape
        n = np.float32(h * w)
        out = _sum_cols(xv.reshape(c, h * w)) / n

        def backward_fn(g):
            return (np.broadcast_to((g / n)[:, None, None], (c, h, w)).copy(),)

        return self.push_op("global_avg_pool", (x,), out, backward_fn)

    # -- reverse pass -------------------------------------------------------

    def backward(self, loss: int) -> None:
        """Populate gradient slots of every node feeding ``loss``.

        ``loss`` must be scalar-valued. Earlier gradients are cleared, so
        repeated calls do not accumulate across passes.
        """
        if self.nodes[loss].value.size != 1:
            raise DimensionError(
                f"backward needs a scalar loss, got shape {self.nodes[loss].value.shape}"
            )
        for node in self.nodes:
            node.grad = None
        self.nodes[loss].grad = np.ones_like(self.nodes[loss].value)
        for nid in range(loss, -1, -1):
            node = self.nodes[nid]
            if node.grad is None or node.backward_fn is None:
                continue
            grads_in = node.backward_fn(node.grad)
            for iid, gin in zip(node.inputs, grads_in):
                if gin is None:
                    continue
                tgt = self.nodes[iid]
                if tgt.grad is None:
                    tgt.grad = np.zeros_like(tgt.value)
                tgt.grad += np.asarray(gin, dtype=np.float32)


def finite_diff_grad(f, x: Tensor, h: float) -> Tensor:
    """Central-difference gradient of scalar ``f`` at ``x`` with step ``h``.

    The validation oracle for every backward rule in this package:
    (f(x + h*e_i) - f(x - h*e_i)) / (2h) per element.
    """
    if not h > 0:
        raise NumericError(f"step must be positive, got {h}")
    base = x.data
    step = np.float32(h)
    out = np.empty(base.size, dtype=np.float64)
    for i in range(base.size):
        xp = base.copy()
        xp[i] += step
        xm = base.copy()
        xm[i] -= step
        fp = float(f(Tensor(xp, x.shape)))
        fm = float(f(Tensor(xm, x.shape)))
        if not (math.isfinite(fp) and math.isfinite(fm)):
            raise NumericError(f"non-finite value from f at element {i}")
        out[i] = (fp - fm) / (2.0 * h)
    return Tensor(out.astype(np.float32), x.shape)
