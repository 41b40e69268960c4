"""Every name a module exports in ``__all__`` exists on that module."""

import importlib
import pkgutil
from dataclasses import replace
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
    # a split is columns, so the per-sample record and the per-sample
    # batching helpers of the backbone are gone as well
    for name in ("HeadGrads", "cross_entropy", "mol_loss", "prox_loss", "seq_sum", "Tensor",
                 "Sample"):
        assert not hasattr(fedswarm, name), name
    assert not hasattr(fedswarm.tensor, "Tensor")
    for name in ("_blocks", "_check_input"):
        assert not hasattr(fedswarm.quant, name), name
    # config fields are declared once, in their dataclasses
    for name in ("check_int_fields", "check_float_fields", "int_tuple"):
        assert not hasattr(fedswarm.errors, name), name
    for name in ("_LOSS_KEYS", "_build"):
        assert not hasattr(fedswarm.harness, name), name
    # a training view is (features, targets) columns, not per-sample pairs
    assert not hasattr(fedswarm.losses, "stack_pairs")
    assert not hasattr(fedswarm.harness, "_pairs")
    # the swarm's state is one global head between syncs, and nothing
    # reads or writes a head checkpoint
    for name in ("NodeState", "write_head", "read_head"):
        assert not hasattr(fedswarm, name), name


def _perfbench(monkeypatch, *names):
    """perfbench's modules, imported from its directory; nothing there is edited."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    return [importlib.import_module(n) for n in names]


def test_benchmark_trace_sites_resolve(monkeypatch):
    # the traced benchmark pass wraps each site at the module attribute its
    # caller looks up; a renamed or deleted function would break that pass
    (layers,) = _perfbench(monkeypatch, "layers")
    for module, attr, *_ in layers.SITES:
        assert callable(getattr(importlib.import_module(module), attr, None)), f"{module}.{attr}"
    assert callable(fedswarm.federation.SimNetwork.send)


@pytest.mark.parametrize("strategy", fedswarm.STRATEGIES)
def test_benchmark_trace_counts_match_the_config(monkeypatch, strategy):
    # the traced pass checks its sample and link counters against what the
    # config implies; a wrapped function that stops being called where the
    # tracer looks, or is called with other arguments, shows up here
    spans, layers, workloads = _perfbench(monkeypatch, "spans", "layers", "workloads")
    base = fedswarm.default_config(strategy, seed=7)
    cfg = replace(base, loss=replace(base.loss, local_epochs_per_round=1),
                  train=fedswarm.TrainSpec(t0_epochs=1, rounds_per_session=1))
    untraced = fedswarm.run_experiment(cfg)
    tracer = spans.Tracer()
    with spans.installed(layers.patches(tracer)):
        traced = fedswarm.harness.run_experiment(cfg)
    messages = workloads.link_messages(cfg)
    assert tracer.counts["losses.total_loss.samples"] == workloads.train_samples(cfg)
    assert tracer.counts["federation.link_messages"] == len(messages)
    assert tracer.counts["federation.link_bytes"] == sum(messages)
    assert traced == untraced
