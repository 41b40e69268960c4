"""One federated sync cycle, watched closely.

Three nodes train locally against the composite objective (CE plus
the mean-logit separation term plus the proximal pull toward the last
broadcast), stepped in lockstep by one ``local_epoch`` call, then
upload their heads over a simulated serial link. A head crosses the
link as its one flat float32 vector, ``head.params``. The master
averages those vectors and broadcasts one global head, which every
node starts the next round from and is pulled toward (the prox anchor).
"""

import numpy as np

from fedswarm import (
    ClassPartition,
    LinkModel,
    LossConfig,
    SimNetwork,
    fedavg,
    init_head,
    local_epoch,
    sync_round,
)

rng = np.random.default_rng(5)
shared = init_head(8, 6, 4, rng)  # everyone starts from the same broadcast
heads = [shared] * 3  # node i is position i, its prox anchor the head it starts from
p = shared.parameter_count
print(f"head parameters     : {p} ({4 * p} bytes per message)")

# node i trains class 2+i%2; classes 0,1 are the old ones to protect
part = ClassPartition(old_classes=frozenset({0, 1}), new_classes=frozenset({2, 3}))
# each node's view: six rows of features and their class ids
views = [(rng.standard_normal((6, 8)).astype(np.float32), np.full(6, 2 + i % 2))
         for i in range(3)]
cfg = LossConfig(mu=2.0, lam=3.8, lr=0.05, batch_size=3)

# one lockstep call trains every node: minibatch k of all three nodes is
# one stacked pass, bit-identical to training the nodes one by one
trained, losses = local_epoch(heads, views, [part] * 3, cfg, rng)
for i, (head, loss) in enumerate(zip(trained, losses)):
    drift = np.abs(head.params - shared.params).max()
    print(f"node {i} local epoch  : mean loss {loss:.4f}, max drift {drift:.4f}")

pre = [h.params for h in trained]
# the simulated link prices each message with the costs module's model
net = SimNetwork(LinkModel(throughput_bps=4 * p / 0.25))  # 0.25 s per message
global_head, comm = sync_round(trained, net)
print(f"sync round          : {len(net.events)} messages, {comm:.2f} s on the link")

agree = np.array_equal(global_head.params, fedavg(pre))
print(f"consensus           : {agree} (the broadcast head equals the fedavg exactly)")
# the next round: every node starts from, and is anchored to, the broadcast head
_, losses = local_epoch([global_head] * 3, views, [part] * 3, cfg, rng)
print(f"next round losses   : {', '.join(f'{loss:.4f}' for loss in losses)}")
assert agree
