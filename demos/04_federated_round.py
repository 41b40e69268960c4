"""One federated sync cycle, watched closely.

Three nodes train locally against the composite objective (CE plus
the mean-logit separation term plus the proximal pull toward the last
broadcast), stepped in lockstep by one ``local_epoch`` call, then
upload their heads over a simulated serial link. The
master averages and broadcasts; everyone leaves in bit-exact consensus.
"""

import numpy as np

from fedswarm import (
    ClassPartition,
    LinkModel,
    LossConfig,
    NodeState,
    SimNetwork,
    fedavg,
    flatten_params,
    init_head,
    local_epoch,
    sync_round,
)

rng = np.random.default_rng(5)
shared = init_head(8, 6, 4, rng)  # everyone starts from the same broadcast
nodes = [NodeState(i, shared, shared) for i in range(3)]
p = shared.parameter_count
print(f"head parameters     : {p} ({4 * p} bytes per message)")

# node i trains class 2+i%2; classes 0,1 are the old ones to protect
part = ClassPartition(old_classes=frozenset({0, 1}), new_classes=frozenset({2, 3}))
views = {
    i: [(rng.standard_normal(8).astype(np.float32), 2 + i % 2) for _ in range(6)]
    for i in range(3)
}
cfg = LossConfig(mu=2.0, lam=3.8, lr=0.05, batch_size=3)

# one lockstep call trains every node: minibatch k of all three nodes is
# one stacked pass, bit-identical to training the nodes one by one
losses = local_epoch(nodes, [views[i] for i in range(3)], [part] * 3, cfg, rng)
for i, (node, loss) in enumerate(zip(nodes, losses)):
    drift = np.abs(flatten_params(node.head) - flatten_params(shared)).max()
    print(f"node {i} local epoch  : mean loss {loss:.4f}, max drift {drift:.4f}")

pre = [flatten_params(n.head) for n in nodes]
# the simulated link prices each message with the costs module's model
net = SimNetwork(LinkModel(throughput_bps=4 * p / 0.25))  # 0.25 s per message
comm = sync_round(nodes, net)
print(f"sync round          : {len(net.events)} messages, {comm:.2f} s on the link")

expected = fedavg(pre)
agree = all(
    np.array_equal(flatten_params(n.head), expected) for n in nodes
)
print(f"consensus           : {agree} (every head equals the fedavg exactly)")
anchored = all(n.snapshot is n.head for n in nodes)
print(f"prox anchor updated : {anchored}")
assert agree and anchored
