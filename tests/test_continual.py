"""Session planning, class registry, node data views and evaluation."""

import numpy as np
import pytest

from fedswarm import (
    ClassRegistry,
    EvaluationError,
    FrozenBackbone,
    LabeledDataset,
    PlanError,
    QuantLayer,
    QuantParams,
    QuantTensor,
    RegistryEntry,
    RegistryError,
    Sample,
    SessionPlan,
    SplitModel,
    TrainableHead,
    build_backbone,
    evaluate,
    gen_synthetic,
    head_logits,
    init_head,
    make_plan,
    node_train_view,
    precompute_features,
    read_manifest,
    registry_from_plan,
    write_manifest,
)
from fedswarm.synthetic import SyntheticSpec

DESK = dict(num_classes=10, num_nodes=3, base_count=4, classes_per_session_per_node=1)


# -- planning -------------------------------------------------------------------


def test_make_plan_desk_configuration():
    plan = make_plan(**DESK)
    assert plan.base_classes == (0, 1, 2, 3)
    assert plan.num_sessions == 2
    assert plan.sessions[0] == {0: (4,), 1: (5,), 2: (6,)}
    assert plan.sessions[1] == {0: (7,), 1: (8,), 2: (9,)}


def test_make_plan_no_incremental_classes():
    plan = make_plan(4, 3, 4)
    assert plan.num_sessions == 0


def test_make_plan_two_nodes():
    plan = make_plan(5, 2, 3)
    assert plan.sessions == ({0: (3,), 1: (4,)},)


def test_make_plan_infeasible():
    with pytest.raises(PlanError):
        make_plan(9, 3, 4)  # 5 classes cannot split over 3 nodes
    with pytest.raises(PlanError):
        make_plan(10, 3, 0)
    with pytest.raises(PlanError):
        make_plan(10, 3, 11)
    with pytest.raises(PlanError):
        make_plan(10, 0, 4)


def test_plan_classes_partition_everything():
    for k, n, base, per in [(10, 3, 4, 1), (16, 4, 4, 1), (14, 2, 4, 5), (7, 3, 4, 1)]:
        plan = make_plan(k, n, base, per)
        seen = set(plan.base_classes)
        for t in range(1, plan.num_sessions + 1):
            cs = plan.session_classes(t)
            assert not (set(cs) & seen)
            seen |= set(cs)
        assert seen == set(range(k))


def test_plan_rejects_duplicate_assignment():
    with pytest.raises(PlanError):
        SessionPlan(2, (0, 1), ({0: (2,), 1: (2,)},))
    with pytest.raises(PlanError):
        SessionPlan(2, (0, 1), ({5: (2,)},))  # unknown node


def test_node_classes_bounds():
    plan = make_plan(**DESK)
    assert plan.node_classes(1, 0) == (4,)
    assert plan.node_classes(2, 2) == (9,)
    with pytest.raises(PlanError):
        plan.node_classes(3, 0)
    with pytest.raises(PlanError):
        plan.node_classes(1, 3)


# -- registry ---------------------------------------------------------------------


def test_registry_from_plan():
    reg = registry_from_plan(make_plan(**DESK))
    assert reg.num_classes == 10
    assert reg.seen_through(0) == [0, 1, 2, 3]
    assert reg.seen_through(1) == [0, 1, 2, 3, 4, 5, 6]
    assert reg.seen_through(2) == list(range(10))
    assert reg.introduced_at(2) == [7, 8, 9]


def test_registry_requires_dense_ids():
    with pytest.raises(RegistryError):
        ClassRegistry((RegistryEntry(0, 0), RegistryEntry(2, 1, 0)))


def test_registry_requires_nondecreasing_sessions():
    with pytest.raises(RegistryError):
        ClassRegistry((RegistryEntry(0, 1, 0), RegistryEntry(1, 0)))


# -- datasets and views -------------------------------------------------------------


def _desk_data(seed=0, sigma_within=0.35):
    spec = SyntheticSpec(num_classes=10, sigma_within=sigma_within)
    return gen_synthetic(spec, np.random.default_rng(seed))


def test_node_view_desk_session_one():
    train, _ = _desk_data()
    plan = make_plan(**DESK)
    view = node_train_view(train, plan, 1, 0)
    assert len(view) == 28
    assert view.class_ids() == {4}


def test_node_view_union_covers_session():
    train, _ = _desk_data()
    plan = make_plan(**DESK)
    for t in (1, 2):
        ids = set()
        for n in range(3):
            view = node_train_view(train, plan, t, n)
            got = {s.sample_id for s in view.samples}
            assert not (got & ids)  # disjoint across nodes
            ids |= got
        full = {s.sample_id for s in train.of_classes(plan.session_classes(t)).samples}
        assert ids == full


def test_node_view_never_replays_old_classes():
    train, _ = _desk_data()
    plan = make_plan(**DESK)
    reg = registry_from_plan(plan)
    for t in (1, 2):
        earlier = set(reg.seen_through(t - 1))
        for n in range(3):
            assert not (node_train_view(train, plan, t, n).class_ids() & earlier)


def test_unassigned_node_gets_empty_view():
    plan = SessionPlan(2, (0, 1), ({0: (2,)},))  # node 1 sits this one out
    spec = SyntheticSpec(num_classes=3, train_per_class=4, test_per_class=2)
    train, _ = gen_synthetic(spec, np.random.default_rng(1))
    assert len(node_train_view(train, plan, 1, 1)) == 0
    assert len(node_train_view(train, plan, 1, 0)) == 4


def test_view_requires_train_split():
    _, test = _desk_data()
    plan = make_plan(**DESK)
    with pytest.raises(PlanError):
        node_train_view(test, plan, 1, 0)


def test_dataset_rejects_duplicate_ids():
    qp = QuantParams(0.1)
    x = QuantTensor(np.zeros(4, np.int8), (4, 1, 1), qp)
    with pytest.raises(PlanError):
        LabeledDataset((Sample(1, 0, x), Sample(1, 1, x)), "train")


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
    qp = QuantParams(0.1)
    samples = []
    for c in range(classes):
        for i in range(per_class):
            q = np.zeros(classes, np.int8)
            q[c] = 5  # feature 0.5 on the class channel
            samples.append(
                Sample(c * per_class + i, c, QuantTensor(q, (classes, 1, 1), qp))
            )
    ds = LabeledDataset(tuple(samples), "test")
    eye = np.eye(classes, dtype=np.float32)
    perfect = TrainableHead(
        conv_w=eye, conv_b=np.zeros((classes,), np.float32),
        cls_w=eye, cls_b=np.zeros((classes,), np.float32),
    )
    return bb, ds, perfect


def test_perfect_model_scores_one():
    bb, ds, head = _identity_world()
    assert evaluate(SplitModel(bb, head), ds, range(4)) == 1.0


def test_constant_predictor_scores_chance():
    bb, ds, _ = _identity_world()
    biased = TrainableHead(
        conv_w=np.zeros((4, 4), np.float32), conv_b=np.zeros((4,), np.float32),
        cls_w=np.zeros((4, 4), np.float32),
        cls_b=np.asarray([1.0, 0.0, 0.0, 0.0], np.float32),  # always argmax class 0
    )
    assert evaluate(SplitModel(bb, biased), ds, range(4)) == 0.25


def test_tie_break_is_lowest_class_id():
    bb, ds, _ = _identity_world()
    flat = TrainableHead(
        conv_w=np.zeros((4, 4), np.float32), conv_b=np.zeros((4,), np.float32),
        cls_w=np.zeros((4, 4), np.float32), cls_b=np.zeros((4,), np.float32),
    )
    # all logits equal: every sample is predicted as the lowest seen id
    assert evaluate(SplitModel(bb, flat), ds, range(4)) == 0.25
    assert evaluate(SplitModel(bb, flat), ds, [2, 3]) == 0.5


def test_evaluate_permutation_invariant():
    bb, ds, head = _identity_world()
    rng = np.random.default_rng(3)
    shuffled = LabeledDataset(
        tuple(ds.samples[i] for i in rng.permutation(len(ds.samples))), "test"
    )
    model = SplitModel(bb, head)
    assert evaluate(model, ds, range(4)) == evaluate(model, shuffled, range(4))


def test_evaluate_narrowed_sample_classes():
    bb, ds, head = _identity_world()
    # argmax still spans all four seen classes; only class-0 samples scored
    assert evaluate(SplitModel(bb, head), ds, range(4), sample_classes=[0]) == 1.0


def test_evaluate_uses_feature_cache():
    bb, ds, head = _identity_world()
    model = SplitModel(bb, head)
    feats = precompute_features(bb, ds)
    assert evaluate(model, ds, range(4), features=feats) == evaluate(model, ds, range(4))
    assert not any(f.flags.writeable for f in feats.values())  # shared, so read-only


def test_evaluate_matches_per_sample_argmax():
    # the batched head pass must pick the same class as one pass per sample
    train, test = gen_synthetic(SyntheticSpec(num_classes=6, train_per_class=1, test_per_class=9,
                                              input_shape=(3, 2, 2)), np.random.default_rng(4))
    bb = build_backbone((3, 8, 12), np.random.default_rng(5))
    head = init_head(12, 5, 6, np.random.default_rng(6), sigma=1.0)
    feats = precompute_features(bb, test)
    for seen, scored in (([0, 1, 2, 3, 4, 5], None), ([1, 3, 4], [3]), ([0, 2], [0, 2, 5])):
        wanted = seen if scored is None else scored
        subset = [s for s in test.samples if s.class_id in wanted]
        hits = 0
        for s in subset:
            z = head_logits(head, feats[s.sample_id])
            hits += seen[int(np.argmax(z[seen]))] == s.class_id
        got = evaluate(SplitModel(bb, head), test, seen, features=feats, sample_classes=scored)
        assert got == hits / len(subset)


def test_evaluate_error_cases():
    bb, ds, head = _identity_world()
    model = SplitModel(bb, head)
    with pytest.raises(EvaluationError):
        evaluate(model, ds, [])
    with pytest.raises(EvaluationError):
        evaluate(model, ds, [9])  # beyond classifier outputs
    with pytest.raises(EvaluationError):
        evaluate(model, ds, range(4), sample_classes=[17])  # nothing to score


# -- manifest I/O -----------------------------------------------------------------


def test_manifest_round_trip(tmp_path):
    spec = SyntheticSpec(num_classes=3, train_per_class=5, test_per_class=2)
    train, test = gen_synthetic(spec, np.random.default_rng(4))
    write_manifest(train, test, tmp_path)
    train2, test2 = read_manifest(tmp_path)
    assert train2 == train
    assert test2 == test


def test_manifest_missing_or_malformed(tmp_path):
    with pytest.raises(PlanError):
        read_manifest(tmp_path / "nowhere")
    bad = tmp_path / "bad"
    bad.mkdir()
    (bad / "manifest.tsv").write_text("not\ta\theader\n")
    with pytest.raises(PlanError):
        read_manifest(bad)


def _hostile_manifest(tmp_path, edit):
    """Write a small manifest, then rewrite its second data row with ``edit``."""
    spec = SyntheticSpec(num_classes=2, train_per_class=2, test_per_class=1)
    train, test = gen_synthetic(spec, np.random.default_rng(6))
    root = tmp_path / "m"
    write_manifest(train, test, root)
    (tmp_path / "outside.bin").write_bytes(train.samples[1].x.data.tobytes())
    path = root / "manifest.tsv"
    lines = path.read_text().splitlines()
    cells = lines[2].split("\t")
    lines[2] = "\t".join(edit(cells, root))
    path.write_text("\n".join(lines) + "\n")
    return root


def _set(col, value):
    def edit(cells, root):
        cells[col] = value(root) if callable(value) else value
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
    "blob_missing": _set(6, "blobs/999999.bin"),
    "blob_absolute": _set(6, lambda root: str((root / "blobs" / "000001.bin").resolve())),
    "blob_climbs_out": _set(6, "../outside.bin"),
    "blob_climbs_back_in": _set(6, "blobs/../blobs/000001.bin"),
    "blob_nul_byte": _set(6, "blobs/\x00.bin"),
}


@pytest.mark.parametrize("case", sorted(HOSTILE_ROWS))
def test_manifest_rejects_hostile_rows(tmp_path, case):
    root = _hostile_manifest(tmp_path, HOSTILE_ROWS[case])
    with pytest.raises(PlanError, match="line 3"):
        read_manifest(root)
