"""Known answers for the primitives the report bytes rest on.

Each case runs one primitive on a fixed input and compares the sha256
of its output (dtype, shape and bytes) with a digest computed once and
committed here. A report digest that fails on another host says only
that the bytes moved; these cases say which primitive moved. Float32
``exp`` and ``log`` take numpy's SIMD dispatch path, which rounds
differently on different CPU targets, so a failure lists the targets
numpy is running on.
"""

import hashlib

import numpy as np
import pytest
from numpy._core._multiarray_umath import __cpu_baseline__, __cpu_dispatch__, __cpu_features__
from numpy.lib.introspect import opt_func_info

from fedswarm import FrozenBackbone, QuantLayer, QuantParams, QuantTensor, backbone_forward, fedavg
from fedswarm.tensor import Fold


def _exp():
    # the shifted logits losses._Rows.run exponentiates are <= 0
    return np.exp(np.linspace(-80.0, 0.0, 4096, dtype=np.float32))


def _log():
    # _Rows.run takes the log of a softmax denominator: 1 up to the class count
    return np.log(np.linspace(1.0, 64.0, 4096, dtype=np.float32))


def _rng():
    return np.random.default_rng(np.random.SeedSequence(1234))


def _permuted():
    # the (epochs, n) shuffle table of federation._Lockstep.run
    block = np.empty((3, 50), np.int64)
    _rng().permuted(np.broadcast_to(np.arange(50), block.shape), axis=1, out=block)
    return block


def _standard_normal():
    return _rng().standard_normal(1024)


def _spawn():
    # harness._rng's independent streams
    children = np.random.SeedSequence(1234).spawn(6)
    return np.concatenate([c.generate_state(4) for c in children])


def _int8(n: int, step: int) -> np.ndarray:
    return ((np.arange(n) * step) % 255 - 127).astype(np.int8)


def _backbone():
    dims = [(16, 4), (8, 16)]
    layers = [
        QuantLayer(_int8(co * ci, 53 + i).reshape(co, ci),
                   np.arange(co, dtype=np.int32) * 7 - 20, 0.02, 0.05)
        for i, (co, ci) in enumerate(dims)
    ]
    frames = QuantTensor(_int8(5 * 4 * 6 * 6, 31), (5, 4, 6, 6), QuantParams(0.1, 3))
    return backbone_forward(FrozenBackbone(layers), frames)


def _fold():
    # terms spread over eight decades, so the sum depends on their order;
    # width 6 folds by a reduce, width 1 by an accumulate
    totals = []
    for shape in ((16, 3, 2), (16, 1)):
        fold = Fold(shape)
        n = fold.terms.size
        spread = 10.0 ** (np.arange(n) % 9 - 4)
        fold.terms[...] = (np.linspace(-1.0, 1.0, n) * spread).reshape(shape)
        fold.run()
        totals.append(fold.total.reshape(-1))
    return np.concatenate(totals)


def _fedavg():
    heads = [(((np.arange(257) * (k + 1) * 7919) % 1000 - 500) / 37.0).astype(np.float32)
             for k in range(4)]
    return fedavg(heads, weights=[1.0, 2.5, 0.3, 4.0])


CASES = {  # name -> (run, sha256 of its output with numpy 2.4.6 on x86-64 AVX-512)
    "np.exp float32": (
        _exp, "c90cd4e351012704e50db57f6b7d8c3803d0687af8432c155b33d78c88fe8d97"),
    "np.log float32": (
        _log, "9b3b013f58e764f6cb8f4def738d687182a56433d418f07a134827dce8e02fc2"),
    "Generator.permuted": (
        _permuted, "19ea662d53197fe5cfaf04712db8221784bc9dc5082ba185d19e5b0632ab5a8a"),
    "Generator.standard_normal": (
        _standard_normal, "8b99b49d6047de070b79ede6449e33e892360cf2b3e733e47f3f616afe47015d"),
    "SeedSequence.spawn": (
        _spawn, "9dfee66dab1acc07d74d43694c02eacd8a831300abac9635edd0ffc9abc86cdf"),
    "quant.backbone_forward": (
        _backbone, "ecad63cd243139c85962a0e544c1aeed11c551b1deab0b2c0bf95349d79c48df"),
    "tensor.Fold": (
        _fold, "331c3859737b51173642bf6cc10052dd52166d63ea803371bedda9bedf19fc2e"),
    "federation.fedavg": (
        _fedavg, "f085bde6b8c329d680f74cf4e6a641f9e06c44b19589e355416f549685b4b02d"),
}


def _digest(a: np.ndarray) -> str:
    h = hashlib.sha256(f"{a.dtype.str} {a.shape} ".encode())
    h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def _dispatch() -> str:
    """numpy's version, the dispatch targets this CPU enables and the
    ones its float32 exp and log run on."""
    enabled = " ".join(t for t in __cpu_dispatch__ if __cpu_features__.get(t))
    info = opt_func_info(func_name="^(exp|log)$", signature="float32")
    ufuncs = ", ".join(f"{f} on {t['current']}"
                       for f, sigs in sorted(info.items()) for t in sigs.values())
    return (f"numpy {np.__version__}, baseline {' '.join(__cpu_baseline__)}, "
            f"dispatch targets enabled: {enabled or 'none'}; {ufuncs}")


@pytest.mark.parametrize("name", list(CASES))
def test_known_answer(name):
    run, want = CASES[name]
    got = _digest(run())
    assert got == want, f"{name} moved: sha256 {got}, known answer {want}; {_dispatch()}"
