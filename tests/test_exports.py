"""Every name a module exports in ``__all__`` exists on that module."""

import importlib
import pkgutil
from pathlib import Path

import pytest

import fedswarm

# __main__ runs the CLI when imported
MODULES = sorted(
    m.name for m in pkgutil.iter_modules(fedswarm.__path__) if m.name != "__main__"
)


def test_modules_found():
    assert {"losses", "model", "tensor", "quant"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_all_entries_resolve(name):
    module = importlib.import_module(f"fedswarm.{name}")
    missing = [e for e in getattr(module, "__all__", ()) if not hasattr(module, e)]
    assert not missing, f"fedswarm.{name}.__all__ names missing attributes: {missing}"


def test_package_exports_every_module_all():
    # the package re-exports each library module's __all__ (the CLI's
    # ``main`` stays in ``fedswarm.cli``), so the lists cannot drift
    for name in set(MODULES) - {"cli"}:
        module = importlib.import_module(f"fedswarm.{name}")
        for entry in getattr(module, "__all__", ()):
            assert getattr(fedswarm, entry) is getattr(module, entry), f"{name}.{entry}"


def test_retired_names_are_gone():
    # one flat gradient replaced HeadGrads; tests reach the loss kernels
    # and the scan directly
    # float data is plain float32 arrays, so the Tensor wrapper is gone too
    for name in ("HeadGrads", "cross_entropy", "mol_loss", "prox_loss", "seq_sum", "Tensor"):
        assert not hasattr(fedswarm, name), name
    assert not hasattr(fedswarm.tensor, "Tensor")


def test_benchmark_trace_sites_resolve(monkeypatch):
    # the traced benchmark pass wraps each site at the module attribute its
    # caller looks up; a renamed or deleted function would break that pass
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    layers = importlib.import_module("layers")
    for module, attr, *_ in layers.SITES:
        assert callable(getattr(importlib.import_module(module), attr, None)), f"{module}.{attr}"
    assert callable(fedswarm.federation.SimNetwork.send)
