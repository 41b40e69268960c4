"""Known answers for the primitives the report bytes rest on.

Each case runs one primitive on a fixed input and compares the sha256
of its output (dtype, shape and bytes) with a digest computed once and
committed here. A report digest that fails on another host says only
that the bytes moved; these cases say which primitive moved. Float32
``exp`` and ``log`` take numpy's SIMD dispatch path, which rounds
differently on different CPU targets, so a failure lists the targets
numpy is running on; a subprocess case reruns them on each x86 target
below the one this CPU would pick.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

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
    frames = QuantTensor(_int8(5 * 4 * 6 * 6, 31).reshape(5, 4, 6, 6), QuantParams(0.1, 3))
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


# x86 targets from the baseline up, and the cases that differ from the
# known answers when numpy runs on that target, every one above it turned
# off: the baseline's float32 exp and log round differently (known defect 1)
X86_TARGETS = {
    "X86_V2": {"np.exp float32", "np.log float32"},
    "X86_V3": set(),
    "X86_V4": set(),
    "AVX512_ICL": set(),
    "AVX512_SPR": set(),
}

# the differing cases and the dispatch targets in force, as the subprocess sees them
_CHILD = """
import json, sys
sys.path.insert(0, sys.argv[1])
import test_known_answers as t
print(json.dumps({
    "enabled": [d for d in t.__cpu_dispatch__ if t.__cpu_features__.get(d)],
    "differ": sorted(n for n, (run, want) in t.CASES.items() if t._digest(run()) != want),
}))
"""


@pytest.mark.parametrize("target", list(X86_TARGETS))
def test_known_answers_on_each_dispatch_target(target):
    # numpy runs on its baseline or a dispatch target, listed from the lowest up
    reachable = list(__cpu_baseline__[-1:]) + list(__cpu_dispatch__)
    if not __cpu_features__.get(target):
        reason = f"this CPU lacks {target}"
    elif target not in reachable:
        reason = f"numpy {np.__version__} does not run on {target}"
    else:
        reason = None
    if reason:
        print(f"skipping the {target} known answers: {reason}")
        pytest.skip(reason)
    # turn off what this CPU enables above the target; a feature it lacks may not be named
    above = [t for t in reachable[reachable.index(target) + 1:] if __cpu_features__.get(t)]
    here = Path(__file__).resolve().parent
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=" ".join(above))
    src = str(here.parent / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    res = subprocess.run([sys.executable, "-c", _CHILD, str(here)], env=env,
                         capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stderr
    got = json.loads(res.stdout)
    assert (got["enabled"] or reachable[:1])[-1] == target, got["enabled"]
    assert set(got["differ"]) == X86_TARGETS[target], (target, got["differ"])
