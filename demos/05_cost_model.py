"""Latency, power, energy and memory arithmetic for the target node.

Reproduces the headline numbers for the reference deployment: a
158-feature backbone feeding a 32-hidden / 32-class trainable head,
trained at two DVFS operating points and synchronized over a slow
serial link.
"""

import numpy as np

from fedswarm import (
    HPM,
    LPM,
    calibrated_uwb_link,
    cost_block,
    cost_report,
    epoch_energy,
    init_head,
    peak_training_memory,
    per_sample_latency,
)

head = init_head(158, 32, 32, np.random.default_rng(0))
link = calibrated_uwb_link()  # 24576 bytes measured at 1.7 s

print(cost_report(head, link))

# the duty-cycle argument, spelled out from the report's cost block
block = cost_block(head, link, n_nodes=3, batch_size=4)
print(f"one federated epoch holds the link for {block['federated_epoch_s']:.4f} s;")
print(f"a node that skips the sync fits {block['free_local_epochs']} low-power epochs "
      "in that window")
print(f"energy ratio HPM/LPM : {epoch_energy(HPM) / epoch_energy(LPM):.2f}x")
print(f"per-sample at LPM    : {1e3 * per_sample_latency(LPM, 28):.2f} ms")

# the working set is params + grads + the widest layer's activations;
# a node also stores a global and a local copy of the head
peak = peak_training_memory(head, batch_size=4)
p_bytes = 4 * head.parameter_count
print(f"training working set : {peak} bytes "
      f"(params {p_bytes} + grads {p_bytes} + activations {peak - 2 * p_bytes})")
print(f"resident with copies : {peak + 2 * p_bytes} bytes")
