"""Hostile-input fuzzing: mutated configs, manifests and containers.

Every test runs in process (no subprocess per example) under the
conftest hypothesis profile. A malformed input may be rejected, but
only with a ``FedswarmError`` subclass; the CLI maps those to exit 1 or
2 with a single stderr line.
"""

import contextlib
import io
import json

import numpy as np
from hypothesis import example, given
from hypothesis import strategies as st

from fedswarm import (
    FedswarmError,
    SyntheticSpec,
    build_backbone,
    config_from_dict,
    config_to_dict,
    default_config,
    gen_synthetic,
    init_head,
    read_backbone,
    read_head,
    read_manifest,
    write_backbone,
    write_head,
    write_manifest,
)
from fedswarm.cli import main

# Sizes beyond the config caps (harness.MAX_TENSOR_ELEMENTS,
# MAX_TRAINING_BYTES and MAX_DATA_BYTES) must be rejected before the
# cost table allocates a head, or a run its data, of the configured
# size; 10**400 still reaches every int field as an integer that no
# float can hold.
_LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 64),
    st.sampled_from([2**20 + 1, 2**31, 2**62]),
    st.just(10**400),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=4),
)
_VALUES = st.recursive(
    _LEAVES,
    lambda kids: st.lists(kids, max_size=3) | st.dictionaries(st.text(max_size=4), kids, max_size=3),
    max_leaves=6,
)


def _paths(node, prefix=()):
    """Every (container path, key) inside a nested JSON value."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for k, v in items:
        yield prefix, k
        if isinstance(v, (dict, list)):
            yield from _paths(v, prefix + (k,))


def _at(root, path):
    for k in path:
        root = root[k]
    return root


@st.composite
def hostile_configs(draw):
    d = config_to_dict(default_config())
    for _ in range(draw(st.integers(1, 3))):
        paths = list(_paths(d))
        if not paths:
            break
        where, key = draw(st.sampled_from(paths))
        parent = _at(d, where)
        op = draw(st.sampled_from(["replace", "delete", "add"]))
        if op == "replace":
            parent[key] = draw(_VALUES)
        elif op == "delete" and isinstance(parent, dict):
            del parent[key]
        elif op == "delete":
            parent.pop(key)
        elif isinstance(parent, dict):
            parent[draw(st.text(max_size=6))] = draw(_VALUES)
        else:
            parent.append(draw(_VALUES))
    return d


def _cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


@given(d=hostile_configs())
# escapes a longer random run found, kept as fixed cases
@example(d={"cost": {"calibration_seconds": 10**400}})  # OverflowError in the float check
@example(d={"head": {"hidden": 10**400}})  # ValueError from numpy in the cost table
@example(d={"data": {"input_shape": []}})  # IndexError in the channel check
@example(d={"head": {"hidden": 2**62}})  # ValueError: array is too big
@example(d={"plan": {"num_classes": 10**7}})  # plan and head of 10**7 classes: no end
@example(d={"data": {"train_per_class": 2**40}})  # synthetic data past MAX_DATA_BYTES
@example(d={"data": {"test_per_class": 2**40}})
@example(d={"data": {"input_shape": [4, 4096, 4096]}})
def test_mutated_config_raises_only_package_errors(tmp_path_factory, d):
    try:
        config_from_dict(d)
    except FedswarmError:
        pass
    path = tmp_path_factory.mktemp("cfg") / "config.json"
    path.write_text(json.dumps(d))
    code, err = _cli(["cost", "--config", str(path)])
    assert code in (0, 1, 2)
    assert err.count("\n") == (0 if code == 0 else 1), err


def _manifest(root):
    spec = SyntheticSpec(num_classes=2, train_per_class=2, test_per_class=1)
    train, test = gen_synthetic(spec, np.random.default_rng(6))
    return write_manifest(train, test, root).read_bytes()


_CELLS = st.one_of(
    st.text(alphabet="0123456789x-.+eE_ab/\\\t\n ", max_size=8),
    st.sampled_from(["", ".", "..", "blobs", "manifest.tsv", "nan", "inf", "-0", "1e400",
                     "4x3x2", "4x0x3", "0", "-1", "128", "blobs/000000.bin"]),
)


@given(data=st.data())
def test_mutated_manifest_raises_only_package_errors(tmp_path_factory, data):
    root = tmp_path_factory.mktemp("manifest")
    raw = _manifest(root)
    if data.draw(st.booleans()):
        lines = raw.decode().splitlines()
        row = data.draw(st.integers(0, len(lines) - 1))
        cells = lines[row].split("\t")
        col = data.draw(st.integers(0, len(cells) - 1))
        cells[col] = data.draw(_CELLS)
        lines[row] = "\t".join(cells)
        raw = ("\n".join(lines) + "\n").encode()
    else:
        raw = _mutate_bytes(data, raw)
    (root / "manifest.tsv").write_bytes(raw)
    try:
        read_manifest(root)
    except FedswarmError:
        pass


def _mutate_bytes(data, raw: bytes) -> bytes:
    """Truncate, pad, or overwrite a run of bytes (header fields included)."""
    op = data.draw(st.sampled_from(["truncate", "pad", "overwrite"]))
    if op == "truncate":
        return raw[: data.draw(st.integers(0, len(raw) - 1))]
    if op == "pad":
        return raw + data.draw(st.binary(min_size=1, max_size=16))
    at = data.draw(st.integers(0, len(raw) - 1))
    patch = data.draw(st.binary(min_size=1, max_size=8))
    return raw[:at] + patch + raw[at + len(patch):]


@given(data=st.data())
def test_mutated_head_container_raises_only_package_errors(tmp_path_factory, data):
    path = tmp_path_factory.mktemp("fch") / "head.fch"
    write_head(init_head(6, 5, 3, np.random.default_rng(0)), path)
    path.write_bytes(_mutate_bytes(data, path.read_bytes()))
    try:
        read_head(path)
    except FedswarmError:
        pass


@given(data=st.data())
def test_mutated_backbone_container_raises_only_package_errors(tmp_path_factory, data):
    path = tmp_path_factory.mktemp("fcb") / "backbone.fcb"
    write_backbone(build_backbone((2, 3, 4), np.random.default_rng(0)), path)
    path.write_bytes(_mutate_bytes(data, path.read_bytes()))
    try:
        read_backbone(path)
    except FedswarmError:
        pass
