"""Class-incremental sessions on a small swarm, without federation yet.

Lays out the bookkeeping: a session plan deals unseen classes to
nodes, the registry tracks what is known when, node views expose only
the current session's data (no replay), and the classifier grows rows
for new classes while older logits stay bit-identical.
"""

import numpy as np

from fedswarm import (
    SyntheticSpec,
    expand_classifier,
    gen_synthetic,
    head_logits,
    init_head,
    make_plan,
    node_train_view,
    registry_from_plan,
)

plan = make_plan(num_classes=10, num_nodes=3, base_count=4)
registry = registry_from_plan(plan)
print(f"base classes        : {list(plan.base_classes)}")
for t in range(1, plan.num_sessions + 1):
    deal = {n: plan.node_classes(t, n) for n in range(plan.num_nodes)}
    print(f"session {t} deal      : {deal}")
print(f"seen through T1     : {registry.seen_through(1)}")

rng = np.random.default_rng(11)
train, _ = gen_synthetic(SyntheticSpec(num_classes=10, train_per_class=6, test_per_class=2), rng)

# each node sees only its own new classes, and only this session's
view = node_train_view(train, plan, session=1, node=0)
print(f"node 0, T1 view     : {len(view)} samples, classes {sorted(view.class_ids())}")
view2 = node_train_view(train, plan, session=2, node=0)
print(f"node 0, T2 view     : {len(view2)} samples, classes {sorted(view2.class_ids())}")

# growing the classifier must not disturb what the old classes compute
head = init_head(c_feat=48, c_out=24, num_classes=4, rng=rng)
feats = rng.standard_normal(48).astype(np.float32)
before = head_logits(head, feats)
grown = expand_classifier(head, registry.introduced_at(1))
after = head_logits(grown, feats)
print(f"logits before       : {np.round(before, 4)}")
print(f"logits after expand : {np.round(after, 4)}")
assert np.array_equal(before, after[:4])
print("old logits unchanged; new classes start at exactly zero")
