"""Class-incremental sessions on a small swarm, without federation yet.

Lays out the bookkeeping: a session plan deals unseen classes to
nodes and records what is known when, node views expose only
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
)

plan = make_plan(num_classes=10, num_nodes=3, base_count=4)
print(f"base classes        : {list(plan.base_classes)}")
for t in range(1, plan.num_sessions + 1):
    deal = {n: plan.node_classes(t, n) for n in range(plan.num_nodes)}
    print(f"session {t} deal      : {deal}")
print(f"seen through T1     : {plan.seen_through(1)}")

rng = np.random.default_rng(11)
train, _ = gen_synthetic(SyntheticSpec(num_classes=10, train_per_class=6, test_per_class=2), rng)

# each node sees only its own new classes, and only this session's:
# a view is a mask over the rows of the train split
for t in (1, 2):
    rows = node_train_view(train, plan, session=t, node=0)
    classes = sorted(set(train.classes[rows].tolist()))
    print(f"node 0, T{t} view     : {rows.sum()} samples, classes {classes}")

# growing the classifier must not disturb what the old classes compute
head = init_head(c_feat=48, c_out=24, num_classes=4, rng=rng)
feats = rng.standard_normal((1, 48)).astype(np.float32)  # a batch of one feature row
before = head_logits(head, feats)[0]
grown = expand_classifier(head, len(plan.session_classes(1)))
after = head_logits(grown, feats)[0]
print(f"logits before       : {np.round(before, 4)}")
print(f"logits after expand : {np.round(after, 4)}")
assert np.array_equal(before, after[:4])
print("old logits unchanged; new classes start at exactly zero")
