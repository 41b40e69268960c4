"""Every name a module exports in ``__all__`` exists on that module, and
no module, demo, test or tool imports a name it never uses."""

import ast
import importlib
import pkgutil
from dataclasses import fields, replace
from pathlib import Path

import pytest

import fedswarm

ROOT = Path(__file__).resolve().parents[1]
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
    # inference is a head pass over precomputed feature rows, with no
    # backbone/head pair object and no one-frame eager path beside it
    for name in ("SplitModel", "forward"):
        assert not hasattr(fedswarm, name), name
        assert not hasattr(fedswarm.model, name), name
    # every run rebuilds the backbone from its seed, so nothing reads a
    # backbone file or fingerprints one; the plan answers which classes
    # are seen, with no second copy of it
    for name in ("ClassRegistry", "RegistryEntry", "registry_from_plan", "write_backbone",
                 "read_backbone", "backbone_digest"):
        assert not hasattr(fedswarm, name), name
    for name in ("ClassRegistry", "RegistryEntry"):
        assert not hasattr(fedswarm.sessions, name), name
    for name in ("write_backbone", "read_backbone", "backbone_digest", "_MAGIC"):
        assert not hasattr(fedswarm.quant, name), name
    # the cost block is priced in one function: peak memory is one sum,
    # not a byte-accounting record, and a message takes its bytes over
    # the throughput, with no per-message overhead that no run set
    for name in ("MemoryModel", "training_memory"):
        assert not hasattr(fedswarm, name), name
        assert not hasattr(fedswarm.costs, name), name
    assert [f.name for f in fields(fedswarm.LinkModel)] == ["throughput_bps"]
    # a head's flat layout is written once, in model._parts: its vector is
    # h.params, a head over another vector is h.with_params(v)
    for name in ("flatten_params", "unflatten_params"):
        assert not hasattr(fedswarm, name), name
        assert not hasattr(fedswarm.model, name), name
    assert not hasattr(fedswarm.TrainableHead, "_view")
    assert not hasattr(fedswarm.model, "_fill")
    # TrainableHead(params, dims) is the one head constructor, and it
    # checks finiteness itself; a report checks its own rows; every
    # ordered sum runs on a Fold
    assert not hasattr(fedswarm.model, "_head")
    for module in (fedswarm, fedswarm.model):
        assert not hasattr(module, "check_finite")
    assert not hasattr(fedswarm.tensor, "_scan")
    assert not hasattr(fedswarm.harness, "_check_session_rows")
    with pytest.raises(TypeError):
        fedswarm.TrainableHead(conv_w=[[0.0]], conv_b=[0.0], cls_w=[[0.0]], cls_b=[0.0])
    # a config's plan section is a SessionPlan; harness keeps its old name
    # bound to it, outside __all__, for the frozen benchmark alone
    assert not hasattr(fedswarm, "PlanSpec")
    assert fedswarm.harness.PlanSpec is fedswarm.SessionPlan
    assert "PlanSpec" not in fedswarm.harness.__all__
    # a session plan is its four counts, with no stored per-session maps
    assert not hasattr(fedswarm.make_plan(10, 3, 4), "sessions")
    assert [f.name for f in fields(fedswarm.SessionPlan)] == [
        "num_classes", "num_nodes", "base_count", "classes_per_session_per_node"]
    # the retired (classes, base tuple, session maps) form: a tuple is no count
    with pytest.raises(fedswarm.PlanError, match="num_nodes must be a 64-bit integer"):
        fedswarm.SessionPlan(2, (0, 1), ({0: (2,)},))
    # a backbone is checked against int32 when it is built, so the
    # forward pass has no exact per-frame fallback
    for name in ("_forward_checked", "_check_int32"):
        assert not hasattr(fedswarm.quant, name), name
    # one host budget, priced from the config, replaced the four size caps
    # and the checks built on them
    caps = ("MAX_TENSOR_ELEMENTS", "MAX_TRAINING_BYTES", "MAX_DATA_BYTES", "MAX_SAMPLES")
    for module in (fedswarm, fedswarm.harness, fedswarm.federation, fedswarm.sessions):
        for name in caps:
            assert not hasattr(module, name), (module.__name__, name)
    for name in ("_check_sizes", "_check_shuffle_tables"):
        assert not hasattr(fedswarm.ExperimentConfig, name), name
    for module in (fedswarm, fedswarm.harness, fedswarm.federation):
        assert not hasattr(module, "_table_bytes"), module.__name__
    # central training calls federation.local_epoch itself
    assert not hasattr(fedswarm.harness, "_central_epochs")
    # tests compare heads, splits and int8 tensors field by field
    for cls in (fedswarm.TrainableHead, fedswarm.LabeledDataset, fedswarm.QuantTensor):
        assert cls.__eq__ is object.__eq__, cls.__name__
    assert fedswarm.QuantTensor.__repr__ is object.__repr__


# the package's __init__ imports only to re-export
IMPORTING = sorted(p for p in (ROOT / "src" / "fedswarm").glob("*.py") if p.name != "__init__.py")
for folder in ("demos", "tests", "tools"):
    IMPORTING += sorted((ROOT / folder).glob("*.py"))


def unused_imports(source: str) -> list:
    """Names bound by an import statement that nothing in ``source`` reads.

    A name counts as read when it appears as a name anywhere, or as a
    string in ``__all__``. An import statement with ``# noqa`` on one of
    its lines, ``from __future__`` and star imports are skipped."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}  # bound name -> line
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any("# noqa" in ln for ln in lines[node.lineno - 1 : node.end_lineno]):
            continue
        for alias in node.names:
            if alias.name != "*":
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(e.value for e in ast.walk(node.value) if isinstance(e, ast.Constant))
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", IMPORTING, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    unused = unused_imports(path.read_text())
    assert not unused, f"{path.name} imports names it never uses: {unused}"


def test_unused_import_guard_catches_leftovers():
    source = "import hashlib\nimport math\nfrom .errors import PlanError, RegistryError\n" \
             "__all__ = ['PlanError']\nx = math.pi\n"
    assert unused_imports(source) == ["RegistryError (line 3)", "hashlib (line 1)"]
    assert unused_imports("import struct  # noqa: F401\n") == []


def _int_conversion(call: ast.Call):
    """The dtype named by an ``np.asarray`` or ``np.array`` call that
    converts to int8, int32 or int64, as its second argument or its
    ``dtype`` keyword; else None."""
    func = call.func
    if not (isinstance(func, ast.Attribute) and func.attr in ("asarray", "array")
            and getattr(func.value, "id", None) in ("np", "numpy")):
        return None
    for d in call.args[1:2] + [k.value for k in call.keywords if k.arg == "dtype"]:
        name = getattr(d, "attr", None) or getattr(d, "value", None)
        if name in ("int8", "int32", "int64"):
            return f"np.{func.attr}(..., {name})"
    return None


def number_rules(source: str) -> list:
    """Lines of ``source`` that decide for themselves what a number is:
    an import of ``numbers``, an ``isinstance`` call that names ``bool``,
    or an ``np.asarray``/``np.array`` conversion to int8, int32 or int64.
    ``errors._is_int``, ``errors._is_finite`` and ``errors._int_array``
    decide it."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names if alias.name == "numbers"]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module] if node.module == "numbers" else []
        elif isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance":
            names = [n.id for arg in node.args[1:] for n in ast.walk(arg)
                     if isinstance(n, ast.Name)]
            names = ["isinstance(..., bool)"] if "bool" in names else []
        elif isinstance(node, ast.Call):
            names = [name] if (name := _int_conversion(node)) else []
        else:
            continue
        found += [f"{name} (line {node.lineno})" for name in names]
    return found


@pytest.mark.parametrize("path", sorted(p for p in (ROOT / "src" / "fedswarm").glob("*.py")
                                         if p.name != "errors.py"), ids=lambda p: p.name)
def test_only_errors_decides_what_a_number_is(path):
    assert not number_rules(path.read_text())


def test_number_rule_guard_catches_leftovers():
    source = ("import numbers\nfrom numbers import Integral\nimport math\n"
              "ok = isinstance(v, (int, float))\nbad = isinstance(v, (bool, int))\n"
              "w = np.asarray(weight, dtype=np.int8)\nids = np.array(ids, np.int64)\n"
              "b = numpy.asarray(b, 'int32')\nx = np.asarray(x, np.float32)\n"
              "n = np.array(gather, np.intp)\nv = np.asarray(v)\n")
    assert number_rules(source) == ["numbers (line 1)", "numbers (line 2)",
                                    "isinstance(..., bool) (line 5)",
                                    "np.asarray(..., int8) (line 6)",
                                    "np.array(..., int64) (line 7)",
                                    "np.asarray(..., int32) (line 8)"]


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
