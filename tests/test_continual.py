"""Session planning, seen classes, node data views and evaluation."""

import contextlib
import errno
import os
import signal
from dataclasses import astuple
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fedswarm import (
    ClassPartition,
    ConfigError,
    DimensionError,
    EvaluationError,
    FrozenBackbone,
    LabeledDataset,
    PlanError,
    QuantLayer,
    QuantParams,
    QuantTensor,
    RegistryError,
    TrainableHead,
    build_backbone,
    evaluate,
    gen_synthetic,
    head_logits,
    init_head,
    make_plan,
    node_train_view,
    precompute_features,
    predict,
    read_manifest,
    write_manifest,
)
import fedswarm.sessions
from fedswarm.model import _parts, _size
from fedswarm.synthetic import SyntheticSpec

DESK = dict(num_classes=10, num_nodes=3, base_count=4, classes_per_session_per_node=1)


# -- planning -------------------------------------------------------------------


def test_make_plan_desk_configuration():
    plan = make_plan(**DESK)
    assert plan.base_classes == (0, 1, 2, 3)
    assert plan.num_sessions == 2
    assert [plan.node_classes(1, n) for n in range(3)] == [(4,), (5,), (6,)]
    assert [plan.node_classes(2, n) for n in range(3)] == [(7,), (8,), (9,)]


def test_make_plan_no_incremental_classes():
    plan = make_plan(4, 3, 4)
    assert plan.num_sessions == 0


def test_make_plan_two_nodes():
    plan = make_plan(5, 2, 3)
    assert plan.num_sessions == 1
    assert [plan.node_classes(1, n) for n in range(2)] == [(3,), (4,)]


def test_make_plan_infeasible():
    with pytest.raises(PlanError):
        make_plan(9, 3, 4)  # 5 classes cannot split over 3 nodes
    with pytest.raises(PlanError):
        make_plan(10, 3, 0)
    with pytest.raises(PlanError):
        make_plan(10, 3, 11)
    with pytest.raises(PlanError):
        make_plan(10, 0, 4)


@pytest.mark.parametrize("counts, name", [
    ((10.0, 3, 4), "num_classes"),
    ((10, 3.0, 4), "num_nodes"),
    ((10, 3, 4.0), "base_count"),
    ((10, 3, 4, 1.0), "classes_per_session_per_node"),
    (("10", 3, 4), "num_classes"),
    ((True, 1, 1), "num_classes"),
    ((10, 3, 4, True), "classes_per_session_per_node"),
    ((10, 3, np.float32(4)), "base_count"),
    # numpy's integers are counts, as Python's are, and neither past 64 bits
    ((2**70, 1, 2**70), "num_classes"),
    ((10, 3, 4, -(2**63) - 1), "classes_per_session_per_node"),
    ((10, np.uint64(2**63), 4), "num_nodes"),
    ((10, 3, np.bool_(True)), "base_count"),
])
def test_make_plan_refuses_counts_that_are_not_integers(counts, name):
    with pytest.raises(PlanError, match=f"^{name} must be a 64-bit integer"):
        make_plan(*counts)


def test_make_plan_stores_numpy_counts_as_int():
    plan = make_plan(np.int64(10), np.int32(3), np.uint8(4), np.int16(1))
    assert plan == make_plan(**DESK)
    assert all(type(v) is int for v in astuple(plan))
    assert plan.node_classes(np.int64(2), np.int64(1)) == (8,)


def test_plan_classes_partition_everything():
    for k, n, base, per in [(10, 3, 4, 1), (16, 4, 4, 1), (14, 2, 4, 5), (7, 3, 4, 1)]:
        plan = make_plan(k, n, base, per)
        seen = set(plan.base_classes)
        for t in range(1, plan.num_sessions + 1):
            cs = plan.session_classes(t)
            assert not (set(cs) & seen)
            seen |= set(cs)
        assert seen == set(range(k))


def test_node_classes_bounds():
    plan = make_plan(**DESK)
    assert plan.node_classes(1, 0) == (4,)
    assert plan.node_classes(2, 2) == (9,)
    with pytest.raises(PlanError):
        plan.node_classes(3, 0)
    with pytest.raises(PlanError):
        plan.node_classes(1, 3)


# -- seen classes -----------------------------------------------------------------


def test_seen_through_desk():
    plan = make_plan(**DESK)
    assert plan.seen_through(0) == [0, 1, 2, 3]
    assert plan.seen_through(1) == [0, 1, 2, 3, 4, 5, 6]
    assert plan.seen_through(2) == list(range(10))


def test_seen_through_bounds():
    plan = make_plan(**DESK)
    for session in (-1, plan.num_sessions + 1):
        with pytest.raises(PlanError):
            plan.seen_through(session)


@given(nodes=st.integers(1, 4), per=st.integers(1, 3), base=st.integers(1, 6),
       sessions=st.integers(0, 4))
def test_seen_through_is_base_plus_dealt_classes(nodes, per, base, sessions):
    plan = make_plan(base + sessions * nodes * per, nodes, base, per)
    before = set()
    for t in range(plan.num_sessions + 1):
        seen = plan.seen_through(t)
        dealt = [c for s in range(1, t + 1) for c in plan.session_classes(s)]
        assert seen == sorted(list(plan.base_classes) + dealt)
        assert all(type(c) is int for c in seen)
        assert before <= set(seen)
        before = set(seen)


def _dealing_loop(num_classes, num_nodes, base_count, per):
    """The reference deal: per session, a {node: classes} map filled by
    handing out ids in order, cycling over the nodes."""
    sessions, next_id = [], base_count
    for _ in range((num_classes - base_count) // (num_nodes * per)):
        assignment = {n: [] for n in range(num_nodes)}
        for i in range(num_nodes * per):
            assignment[i % num_nodes].append(next_id)
            next_id += 1
        sessions.append({n: tuple(cs) for n, cs in assignment.items()})
    return sessions


@given(nodes=st.integers(1, 4), per=st.integers(1, 3), base=st.integers(1, 6),
       sessions=st.integers(0, 4))
def test_plan_answers_equal_the_dealing_loop(nodes, per, base, sessions):
    plan = make_plan(base + sessions * nodes * per, nodes, base, per)
    deal = _dealing_loop(base + sessions * nodes * per, nodes, base, per)
    assert plan.num_sessions == len(deal) == sessions

    def ints(xs, kind):
        return type(xs) is kind and all(type(c) is int for c in xs)

    assert plan.base_classes == tuple(range(base)) and ints(plan.base_classes, tuple)
    seen = list(range(base))
    assert plan.seen_through(0) == seen and ints(plan.seen_through(0), list)
    for t, assignment in enumerate(deal, start=1):
        for n in range(nodes):
            got = plan.node_classes(t, n)
            assert got == assignment[n] and ints(got, tuple)
        dealt = sorted(c for cs in assignment.values() for c in cs)
        assert plan.session_classes(t) == dealt and ints(plan.session_classes(t), list)
        seen = sorted(seen + dealt)
        assert plan.seen_through(t) == seen and ints(plan.seen_through(t), list)


def test_registry_hook_is_the_plan():
    # perfbench/workloads.py still calls registry_from_plan(plan).seen_through(t),
    # in its joint pooling and its link-message count
    plan = make_plan(**DESK)
    assert fedswarm.sessions.registry_from_plan(plan) is plan


# -- datasets and views -------------------------------------------------------------


def _desk_data(seed=0, sigma_within=0.35):
    spec = SyntheticSpec(num_classes=10, sigma_within=sigma_within)
    return gen_synthetic(spec, np.random.default_rng(seed))


def test_node_view_desk_session_one():
    train, _ = _desk_data()
    plan = make_plan(**DESK)
    rows = node_train_view(train, plan, 1, 0)
    assert rows.dtype == bool and rows.shape == (len(train),)
    assert np.count_nonzero(rows) == 28
    assert set(train.classes[rows].tolist()) == {4}


def test_node_view_union_covers_session():
    train, _ = _desk_data()
    plan = make_plan(**DESK)
    for t in (1, 2):
        ids = set()
        for n in range(3):
            got = set(train.ids[node_train_view(train, plan, t, n)].tolist())
            assert not (got & ids)  # disjoint across nodes
            ids |= got
        full = set(train.ids[np.isin(train.classes, plan.session_classes(t))].tolist())
        assert ids == full


def test_node_view_never_replays_old_classes():
    train, _ = _desk_data()
    plan = make_plan(**DESK)
    for t in (1, 2):
        earlier = set(plan.seen_through(t - 1))
        for n in range(3):
            rows = node_train_view(train, plan, t, n)
            assert not (set(train.classes[rows].tolist()) & earlier)


def test_view_requires_train_split():
    _, test = _desk_data()
    plan = make_plan(**DESK)
    with pytest.raises(PlanError):
        node_train_view(test, plan, 1, 0)


def _frames(n, qp=QuantParams(0.1)):
    return QuantTensor(np.zeros(4 * n, np.int8), (n, 4, 1, 1), qp)


def test_dataset_rejects_duplicate_ids():
    with pytest.raises(PlanError):
        LabeledDataset([1, 1], [0, 1], _frames(2), "train")


@pytest.mark.parametrize("ids, classes, n", [
    ([1, 2], [0], 2),
    ([1], [0, 1], 2),
    ([1, 2], [0, 1], 3),
    ([], [], 1),
])
def test_dataset_rejects_columns_of_unequal_length(ids, classes, n):
    with pytest.raises(DimensionError, match="columns of unequal length"):
        LabeledDataset(ids, classes, _frames(n), "train")


def test_dataset_columns_are_read_only_and_frames_batched():
    ds = LabeledDataset([3, 1], [0, 2], _frames(2), "test")
    assert ds.ids.dtype == ds.classes.dtype == np.int64
    assert not ds.ids.flags.writeable and not ds.classes.flags.writeable
    with pytest.raises(DimensionError, match="N x C x H x W"):
        LabeledDataset([1], [0], QuantTensor(np.zeros(4, np.int8), (4, 1, 1), QuantParams(0.1)),
                       "test")


@pytest.mark.parametrize("frames", [np.zeros((1, 4, 1, 1), np.int8),
                                    np.zeros((1, 4, 1, 1), np.int8).data, [[[[0]]]] * 4])
def test_dataset_refuses_frames_that_are_not_a_quant_tensor(frames):
    # a stored wrong kind would fail only later, in precompute_features or write_manifest
    with pytest.raises(DimensionError, match="frames must be a QuantTensor"):
        LabeledDataset([0], [0], frames, "train")


def test_empty_split_is_representable():
    bb = build_backbone((4, 6), np.random.default_rng(0))
    empty = LabeledDataset([], [], _frames(0), "test")
    assert len(empty) == 0
    assert precompute_features(bb, empty).shape == (0, 6)


# -- evaluation -----------------------------------------------------------------
# Hand-built identity pipeline: input channel c holds the class signal,
# the backbone passes it through, the head reads it off. Predictions are
# fully controlled, so accuracy values are exact.


def _identity_world(classes=4, per_class=3):
    bb = FrozenBackbone(
        [
            QuantLayer(
                weight=(127 * np.eye(classes)).astype(np.int8),
                bias=np.zeros(classes, np.int32),
                weight_scale=1.0 / 127.0,
                out_scale=0.1,
            )
        ]
    )
    labels = np.repeat(np.arange(classes), per_class)
    q = np.zeros((len(labels), classes), np.int8)
    q[np.arange(len(labels)), labels] = 5  # feature 0.5 on the class channel
    frames = QuantTensor(q, (len(labels), classes, 1, 1), QuantParams(0.1))
    ds = LabeledDataset(np.arange(len(labels)), labels, frames, "test")
    dims = (classes, classes, classes)
    params = np.zeros(_size(dims), np.float32)
    conv_w, _, cls_w, _ = _parts(params, dims)
    conv_w[...] = cls_w[...] = np.eye(classes, dtype=np.float32)
    perfect = TrainableHead(params, dims)
    return bb, ds, perfect


def test_perfect_model_scores_one():
    bb, ds, head = _identity_world()
    assert evaluate(head, ds, precompute_features(bb, ds)) == 1.0
    # rows of ids the head has no class for (-1 and 4) are not scored
    frames = QuantTensor(np.concatenate([ds.frames.array, ds.frames.array[:2]]),
                         (len(ds) + 2,) + ds.frames.shape[1:], ds.frames.qparams)
    more = LabeledDataset(np.arange(len(ds) + 2), np.append(ds.classes, [-1, 4]), frames, "test")
    assert evaluate(head, more, precompute_features(bb, more)) == 1.0


def test_constant_predictor_scores_chance():
    bb, ds, _ = _identity_world()
    params = np.zeros(4 * 4 + 4 + 4 * 4 + 4, np.float32)
    params[-4] = 1.0  # cls_b[0]: always argmax class 0
    biased = TrainableHead(params, (4, 4, 4))
    assert evaluate(biased, ds, precompute_features(bb, ds)) == 0.25


def test_tie_break_is_lowest_class_id():
    bb, ds, _ = _identity_world()
    flat = TrainableHead(np.zeros(4 * 4 + 4 + 4 * 4 + 4, np.float32), (4, 4, 4))
    # all logits equal: every sample is predicted as the lowest class id
    feats = precompute_features(bb, ds)
    assert evaluate(flat, ds, feats) == 0.25
    assert predict(flat, feats).tolist() == [0] * len(ds)


def test_evaluate_permutation_invariant():
    bb, ds, head = _identity_world()
    rng = np.random.default_rng(3)
    p = rng.permutation(len(ds))
    frames = QuantTensor(ds.frames.array[p], ds.frames.shape, ds.frames.qparams)
    shuffled = LabeledDataset(ds.ids[p], ds.classes[p], frames, "test")
    assert (evaluate(head, ds, precompute_features(bb, ds))
            == evaluate(head, shuffled, precompute_features(bb, shuffled)))


def test_evaluate_narrowed_sample_classes():
    bb, ds, head = _identity_world()
    # argmax still spans all four of the head's classes; only class-0 samples scored
    feats = precompute_features(bb, ds)
    assert evaluate(head, ds, feats, sample_classes=[0]) == 1.0


def test_evaluate_uses_feature_cache():
    bb, ds, _ = _identity_world()
    feats = precompute_features(bb, ds)
    assert feats.shape == (len(ds), 4) and feats.dtype == np.float32
    assert not feats.flags.writeable  # shared, so read-only


def test_evaluate_matches_per_sample_argmax():
    # the batched head pass must pick the same class as one pass per sample
    train, test = gen_synthetic(SyntheticSpec(num_classes=6, train_per_class=1, test_per_class=9,
                                              input_shape=(3, 2, 2)), np.random.default_rng(4))
    bb = build_backbone((3, 8, 12), np.random.default_rng(5))
    head = init_head(12, 5, 6, np.random.default_rng(6), sigma=1.0)
    feats = precompute_features(bb, test)
    for scored in (None, [3], [0, 2, 5]):
        wanted = range(6) if scored is None else scored
        hits = total = 0
        for f, c in zip(feats, test.classes.tolist()):
            if c in wanted:
                hits += int(np.argmax(head_logits(head, f))) == c
                total += 1
        got = evaluate(head, test, feats, sample_classes=scored)
        assert got == hits / total


def test_evaluate_error_cases():
    bb, ds, head = _identity_world()
    feats = precompute_features(bb, ds)
    with pytest.raises(EvaluationError):
        evaluate(head, ds, feats, sample_classes=[17])  # nothing to score


def test_evaluate_refuses_sample_classes_the_head_has_no_row_for():
    # a 4-class head over a 6-class split: class 5 has no logit, so its
    # rows could only ever count as misses
    _, test = gen_synthetic(SyntheticSpec(num_classes=6, train_per_class=1, test_per_class=3,
                                          input_shape=(3, 2, 2)), np.random.default_rng(4))
    head = init_head(12, 5, 4, np.random.default_rng(6))
    feats = precompute_features(build_backbone((3, 8, 12), np.random.default_rng(5)), test)
    for scored, stray in (([5], 5), ([0, 5], 5), ([-1, 2], -1), ([4], 4)):
        with pytest.raises(EvaluationError, match=f"^sample class {stray} is not one of the "
                                                  "head's 4 classes$"):
            evaluate(head, test, feats, sample_classes=scored)
    assert evaluate(head, test, feats, sample_classes=[0, 3]) == evaluate(
        head, test, feats, sample_classes=np.array([0, 3], np.uint8))


def _scored(sample_classes):
    bb, ds, head = _identity_world()
    return evaluate(head, ds, precompute_features(bb, ds), sample_classes=sample_classes)


def _partition(old, new) -> tuple:
    part = ClassPartition(frozenset(old), frozenset(new))
    return part.old_classes, part.new_classes


_QP = QuantParams(0.1)
_SPEC = SyntheticSpec(num_classes=2, train_per_class=1, test_per_class=1)

# (what is built, the error it maps to or what it holds, compared by repr
# so that a numpy number does not pass for the Python one it equals, and
# what the error's message ends with)
IDS_AND_DIMS = {
    "tensor_fraction_shape": (lambda: QuantTensor(np.zeros(4, np.int8), (2, 2.9), _QP),
                              DimensionError),
    "tensor_string_and_bool_shape": (
        lambda: QuantTensor(np.zeros(4, np.int8), ("2", True, 2), _QP), DimensionError),
    "backbone_fraction_dim": (lambda: build_backbone((3.7, 6), np.random.default_rng(0)),
                              DimensionError),
    "backbone_zero_dim": (lambda: build_backbone((3, 0), np.random.default_rng(0)),
                          DimensionError),
    "partition_fraction_id": (lambda: _partition({2.9}, {"3"}), RegistryError),
    "partition_bool_id": (lambda: _partition({True}, ()), RegistryError),
    "evaluate_fraction_class": (lambda: _scored([2.9]), EvaluationError),
    "evaluate_string_class": (lambda: _scored(["0"]), EvaluationError),
    # a seed is no Generator, and the error names what it got
    "synthetic_int_seed": (lambda: gen_synthetic(_SPEC, 3), ConfigError, "got int$"),
    "synthetic_fraction_seed": (lambda: gen_synthetic(_SPEC, 3.9), ConfigError, "got float$"),
    "synthetic_numpy_seed": (lambda: gen_synthetic(_SPEC, np.int64(3)), ConfigError,
                             "got int64$"),
    # numpy integers are taken and stored as the Python ints they equal
    "numpy_tensor_shape": (
        lambda: QuantTensor(np.zeros(4, np.int8), (np.int64(2), np.uint8(2)), _QP).shape, (2, 2)),
    "numpy_backbone_dims": (
        lambda: [layer.weight.shape for layer in
                 build_backbone((np.int64(3), np.int32(6)), np.random.default_rng(0)).layers],
        [(6, 3)]),
    "numpy_partition_ids": (lambda: _partition({np.int64(2)}, {np.uint8(3)}),
                            (frozenset({2}), frozenset({3}))),
    "numpy_sample_classes": (lambda: _scored([np.int64(0), np.int16(1)]), 1.0),
}


@pytest.mark.parametrize("case", sorted(IDS_AND_DIMS))
def test_ids_and_dims_follow_the_integer_rule(case):
    # a shape, a layer dim, a class id or a sample class is a 64-bit
    # integer, never a bool, fraction or string: anything else is its
    # module's error, not a truncation
    build, expected, *match = IDS_AND_DIMS[case]
    if isinstance(expected, type):
        with pytest.raises(expected, match=match[0] if match else None):
            build()
    else:
        assert repr(build()) == repr(expected)


def test_predict_and_evaluate_reject_features_that_do_not_match_the_rows():
    bb, ds, head = _identity_world()
    feats = precompute_features(bb, ds)
    assert np.array_equal(predict(head, feats), ds.classes)
    with pytest.raises(DimensionError):
        evaluate(head, ds, feats[1:])  # a row short
    with pytest.raises(DimensionError):
        evaluate(head, ds, feats[:, :3])
    with pytest.raises(DimensionError):
        predict(head, feats[0])  # one vector, not rows
    with pytest.raises(DimensionError):
        predict(head, np.zeros((len(ds), 5), np.float32))  # rows wider than the head


# -- manifest I/O -----------------------------------------------------------------


def _same_splits(got, want) -> bool:
    """Each split of ``got`` holds what its ``want`` does: split name,
    ids, classes, frame shape, quantization and frame bytes."""
    return len(got) == len(want) and all(
        a.split == b.split and np.array_equal(a.ids, b.ids)
        and np.array_equal(a.classes, b.classes) and a.frames.shape == b.frames.shape
        and a.frames.qparams == b.frames.qparams
        and np.array_equal(a.frames.data, b.frames.data)
        for a, b in zip(got, want)
    )


def test_manifest_round_trip(tmp_path):
    spec = SyntheticSpec(num_classes=3, train_per_class=5, test_per_class=2)
    train, test = gen_synthetic(spec, np.random.default_rng(4))
    write_manifest(train, test, tmp_path)
    train2, test2 = read_manifest(tmp_path)
    assert _same_splits([train2], [train])
    assert _same_splits([test2], [test])


@pytest.mark.parametrize("old", ["fresh", "longer", "shorter", "identical", "other_bytes",
                                 "missing", "mixed"])
def test_manifest_written_over_an_old_one_equals_a_fresh_write(tmp_path, old):
    spec = SyntheticSpec(num_classes=3, train_per_class=4, test_per_class=2, input_shape=(3, 2, 2))
    train, test = gen_synthetic(spec, np.random.default_rng(4))
    fresh, root = tmp_path / "fresh", tmp_path / "over"
    missing = None  # names of the blobs the last write creates; None: all of them
    mask = os.umask(0o027)
    try:
        write_manifest(train, test, fresh)
        if old != "fresh":
            write_manifest(train, test, root)
            blobs = sorted((root / "blobs").iterdir())
            for k, blob in enumerate(blobs):
                kind = old if old != "mixed" else ["longer", "shorter", "identical",
                                                    "other_bytes", "missing"][k % 5]
                if kind == "longer":
                    blob.write_bytes(blob.read_bytes() + b"\x7f" * 13)
                elif kind == "shorter":
                    blob.write_bytes(blob.read_bytes()[:5])
                elif kind == "other_bytes":
                    blob.write_bytes(bytes(255 - b for b in blob.read_bytes()))
                elif kind == "missing":
                    blob.unlink()
            (root / "manifest.tsv").write_text("an older, longer index\n" * 40)
            missing = {b.name for b in blobs if not b.exists()}
        path = write_manifest(train, test, root)
    finally:
        os.umask(mask)
    assert path == root / "manifest.tsv"
    assert path.read_bytes() == (fresh / "manifest.tsv").read_bytes()
    frames = {int(i): f.tobytes() for ds in (train, test)
              for i, f in zip(ds.ids, ds.frames.array)}
    assert sorted(p.name for p in (root / "blobs").iterdir()) == [
        f"{i:06d}.bin" for i in sorted(frames)]
    for i, frame in frames.items():
        blob = root / "blobs" / f"{i:06d}.bin"
        assert blob.read_bytes() == frame == (fresh / "blobs" / blob.name).read_bytes()
        if missing is None or blob.name in missing:  # a new blob: the mode open() gives
            assert blob.stat().st_mode & 0o777 == 0o666 & ~0o027
    assert _same_splits(read_manifest(root), (train, test))


def test_manifest_blobs_are_whole_after_short_writes(tmp_path, monkeypatch):
    spec = SyntheticSpec(num_classes=2, train_per_class=3, test_per_class=1, input_shape=(3, 2, 2))
    train, test = gen_synthetic(spec, np.random.default_rng(5))
    write = os.write
    monkeypatch.setattr(os, "write", lambda fd, data: write(fd, data[:5]))  # 5 bytes a call
    write_manifest(train, test, tmp_path)
    monkeypatch.undo()
    assert _same_splits(read_manifest(tmp_path), (train, test))


def test_manifest_without_test_rows_loads(tmp_path):
    spec = SyntheticSpec(num_classes=3, train_per_class=2, test_per_class=1)
    train, test = gen_synthetic(spec, np.random.default_rng(4))
    path = write_manifest(train, test, tmp_path)
    lines = path.read_text().splitlines()
    path.write_text("\n".join(ln for ln in lines if "\ttest\t" not in ln) + "\n")
    train2, test2 = read_manifest(tmp_path)
    assert _same_splits([train2], [train])
    assert len(test2) == 0 and test2.split == "test"
    bb = build_backbone((4, 5), np.random.default_rng(0))
    assert precompute_features(bb, test2).shape == (0, 5)


def test_manifest_missing_or_malformed(tmp_path, monkeypatch):
    for missing in ("nowhere", "x" * 300):  # absent, or a name too long to look up
        with pytest.raises(PlanError, match="no manifest.tsv under"):
            read_manifest(tmp_path / missing)
    bad = tmp_path / "bad"
    bad.mkdir()
    (bad / "manifest.tsv").write_text("not\ta\theader\n")
    with pytest.raises(PlanError):
        read_manifest(bad)

    def unreadable(path, *args, **kwargs):
        raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), str(path))

    monkeypatch.setattr(Path, "read_text", unreadable)
    with pytest.raises(PlanError, match=f"cannot read {bad / 'manifest.tsv'}: "):
        read_manifest(bad)


def _hostile_manifest(tmp_path, edit, row=2):
    """Write a small manifest, then rewrite data row ``row`` with ``edit``."""
    spec = SyntheticSpec(num_classes=2, train_per_class=2, test_per_class=1)
    train, test = gen_synthetic(spec, np.random.default_rng(6))
    root = tmp_path / "m"
    write_manifest(train, test, root)
    (tmp_path / "outside.bin").write_bytes(train.frames.array[1].tobytes())
    (root / "blobs" / "short.bin").write_bytes(train.frames.array[1].tobytes()[1:])
    (root / "blobs" / "long.bin").write_bytes(train.frames.array[1].tobytes() + b"\x00")
    path = root / "manifest.tsv"
    lines = path.read_text().splitlines()
    cells = lines[row].split("\t")
    lines[row] = "\t".join(edit(cells, root))
    path.write_text("\n".join(lines) + "\n")
    return root


def _set(col, value):
    def edit(cells, root):
        cells[col] = value(root) if callable(value) else value
        return cells
    return edit


def _special_blob(make):
    """Point the row at ``blobs/special.bin``, made by ``make(path)``."""
    def edit(cells, root):
        make(root / "blobs" / "special.bin")
        cells[6] = "blobs/special.bin"
        return cells
    return edit


HOSTILE_ROWS = {
    "too_few_columns": lambda cells, root: cells[:-1],
    "too_many_columns": lambda cells, root: cells + ["extra"],
    "sample_id_not_numeric": _set(0, "seven"),
    "class_id_not_numeric": _set(2, "1.0"),
    "zero_point_not_numeric": _set(4, "zp"),
    "scale_not_numeric": _set(3, "big"),
    "shape_not_numeric": _set(5, "4xAx3"),
    "shape_not_positive": _set(5, "4x-1x-9"),
    "shape_mismatch": _set(5, "4x3x2"),
    "scale_differs": _set(3, "0.1"),
    "zero_point_differs": _set(4, "1"),
    "sample_id_beyond_int64": _set(0, str(2**63)),
    "class_id_beyond_int64": _set(2, str(-(2**63) - 1)),
    "blob_wrong_size": _set(6, "blobs/short.bin"),
    "blob_too_long": _set(6, "blobs/long.bin"),
    "blob_is_directory": _set(6, "blobs"),
    "blob_missing": _set(6, "blobs/999999.bin"),
    "blob_absolute": _set(6, lambda root: str((root / "blobs" / "000001.bin").resolve())),
    "blob_climbs_out": _set(6, "../outside.bin"),
    "blob_climbs_back_in": _set(6, "blobs/../blobs/000001.bin"),
    "blob_nul_byte": _set(6, "blobs/\x00.bin"),
    # a reader that waits for a writer, or reads to the end, never returns
    "blob_is_fifo": _special_blob(os.mkfifo),
    "blob_never_ends": _special_blob(lambda path: path.symlink_to("/dev/zero")),
}


@contextlib.contextmanager
def _deadline(seconds):
    """Fail the test once the block has run ``seconds``, so that a read
    that blocks fails instead of hanging the suite. ``pytest.fail`` is no
    OSError (as TimeoutError is), so no handler in the code under test
    can turn it into an ordinary error."""
    def expire(signum, frame):
        pytest.fail(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("case", sorted(HOSTILE_ROWS))
def test_manifest_rejects_hostile_rows(tmp_path, case):
    root = _hostile_manifest(tmp_path, HOSTILE_ROWS[case])
    with _deadline(10), pytest.raises(PlanError, match="line 3"):
        read_manifest(root)


@pytest.mark.parametrize("case, reason", [
    ("blob_is_directory", "is not a regular file"),
    ("blob_is_fifo", "is not a regular file"),
    ("blob_never_ends", "is not a regular file"),
    ("blob_too_long", r"expects 36 elements, got 37$"),
    ("blob_wrong_size", r"expects 36 elements, got 35$"),
])
def test_manifest_names_what_is_wrong_with_a_blob(tmp_path, case, reason):
    root = _hostile_manifest(tmp_path, HOSTILE_ROWS[case])
    with _deadline(10), pytest.raises(PlanError, match=f"line 3: .*{reason}"):
        read_manifest(root)


@pytest.mark.parametrize("rel", ["./blobs/000001.bin", "blobs//000001.bin"])
def test_manifest_blob_path_spellings_load_the_same_frame(tmp_path, rel):
    plain = _hostile_manifest(tmp_path / "plain", _set(6, "blobs/000001.bin"))
    spelled = _hostile_manifest(tmp_path / "spelled", _set(6, rel))
    assert _same_splits(read_manifest(spelled), read_manifest(plain))


@pytest.mark.parametrize("case", ["shape_mismatch", "scale_differs", "zero_point_differs"])
def test_manifest_row_must_share_its_splits_layout(tmp_path, case):
    root = _hostile_manifest(tmp_path, HOSTILE_ROWS[case])
    with pytest.raises(PlanError, match="line 3: .* differ from the split's first row"):
        read_manifest(root)


@pytest.mark.parametrize("shape, scale", [("36", "0.05"), ("4x9", "0.05"), ("4x3x3", "0")])
def test_manifest_first_row_sets_a_valid_layout(tmp_path, shape, scale):
    root = _hostile_manifest(tmp_path, lambda cells, root: cells[:3] + [scale, cells[4], shape]
                             + cells[6:], row=1)
    with pytest.raises(PlanError, match="line 2: "):
        read_manifest(root)


def test_manifest_splits_keep_their_own_layouts(tmp_path):
    train, _ = gen_synthetic(SyntheticSpec(num_classes=2, train_per_class=3, test_per_class=1),
                             np.random.default_rng(1))
    spec = SyntheticSpec(num_classes=2, train_per_class=1, test_per_class=2,
                         input_shape=(4, 1, 2), input_scale=0.02, input_zero_point=3)
    _, test = gen_synthetic(spec, np.random.default_rng(2))
    test = LabeledDataset(test.ids + 100, test.classes, test.frames, "test")
    write_manifest(train, test, tmp_path)
    assert _same_splits(read_manifest(tmp_path), (train, test))
