"""Check the training objective's hand-written gradient against an oracle.

``total_loss`` computes the loss and the gradient of every head
parameter (one flat vector in ``flatten_params`` order) in float32 in
one closed-form pass. ``gradcheck.reference_total_loss`` recomputes
the same objective independently in float64; ``check_case``
differentiates that reference by central differences and compares it
with the analytic gradient. Features, the snapshot and the gradient are
plain float32 numpy arrays. This is the check behind criterion 1 of the
acceptance gate and behind ``fedswarm gradcheck``.
"""

import numpy as np

from fedswarm import (
    ClassPartition,
    LossConfig,
    flatten_params,
    init_head,
    total_loss,
    unflatten_params,
)
from fedswarm.gradcheck import REL_TOL, check_case

rng = np.random.default_rng(17)

# a 6-feature head with 4 hidden units over 5 classes: 0-2 learned in
# earlier sessions, 3-4 arriving now, so all three loss terms are live
head = init_head(6, 4, 5, rng, sigma=0.6)
batch = [(rng.standard_normal(6).astype(np.float32), t) for t in (3, 4, 3)]
part = ClassPartition(frozenset({0, 1, 2}), frozenset({3, 4}))
w_global = flatten_params(head) + np.float32(0.1)
cfg = LossConfig(mu=2.0, lam=3.8, lr=0.01, batch_size=len(batch))

loss, grads = total_loss(head, batch, part, w_global, cfg)
print(f"float32 loss              : {loss:.6f}")
print(f"analytic dLoss/dcls_b     : {unflatten_params(head, grads).cls_b}")

r = check_case(head, batch, part, w_global, cfg)
print(f"parameters checked        : {r['params']}")
print(f"max scaled gradient error : {r['max_scaled_err']:.2e} (tol {REL_TOL:g})")
print(f"loss relative error       : {r['loss_rel_err']:.2e}")
assert r["max_scaled_err"] < REL_TOL
assert r["loss_rel_err"] < 1e-5
print("analytic gradient agrees with the float64 oracle")
