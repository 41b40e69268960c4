"""The headline experiment: three strategies over the same class stream.

`naive` federates without any regularizer and forgets the base
classes, `odfcl` adds the mean-logit separation and proximal terms,
`joint` retrains centrally on everything seen (the upper bound no
device could afford). Takes a second or two at the package defaults;
identical seeds reproduce identical reports, byte for byte.
"""

import time

from fedswarm import STRATEGIES, default_config, report_table, run_experiment

reports = []
for strategy in STRATEGIES:
    start = time.perf_counter()
    r = run_experiment(default_config(strategy=strategy))
    reports.append(r)
    print(f"{strategy:<6} done in {time.perf_counter() - start:5.1f} s")

print()
print(report_table(reports), end="")

print()
print("base-class accuracy over sessions (forgetting curve):")
for r in reports:
    curve = "  ".join(f"{100 * s['accuracy_base']:5.1f}" for s in r.sessions)
    print(f"  {r.strategy:<6} {curve}")

odfcl = reports[1]
print()
print(f"comm time per run    : {odfcl.cost['total_comm_s']:.1f} s simulated")
print(f"message size         : {odfcl.cost['message_bytes']} bytes")
print(f"free local epochs    : {odfcl.cost['free_local_epochs']} per skipped sync")
