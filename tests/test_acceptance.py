"""End-to-end acceptance gate.

Eight independent checks, each printing a single verdict line. Run
with ``pytest -s tests/test_acceptance.py`` to see the verdicts; every
check also asserts, so a FAIL line always comes with a failing test.
"""

import subprocess
import sys
import time
from dataclasses import replace

import numpy as np
import pytest

import fedswarm as fs

# Pinned outputs of the default desk config (seed 1234). These are
# regression anchors: the shipped default must reproduce exactly. Over
# seeds 0-23 the ordering held at every seed, and the mitigation gap
# (odfcl minus naive final accuracy) had a median of 0.21 and a minimum
# of 0.114, at seeds 4 and 14, against the 0.10 bound.
NAIVE_SEEN = [1.0, 0.5714285714285714, 0.32857142857142857]
ODFCL_SEEN = [1.0, 0.6122448979591837, 0.5285714285714286]
JOINT_SEEN = [1.0, 1.0, 1.0]
NAIVE_BASE_FINAL = 0.25


def _verdict(num: int, name: str, ok: bool, detail: str = "") -> bool:
    status = "PASS" if ok else "FAIL"
    extra = f" ({detail})" if detail else ""
    print(f"\ncriterion {num} {name}: {status}{extra}")
    return ok


@pytest.fixture(scope="module")
def triple():
    """All three strategies at the package defaults, with wall time."""
    start = time.perf_counter()
    reports = {s: fs.run_experiment(fs.default_config(strategy=s)) for s in fs.STRATEGIES}
    return reports, time.perf_counter() - start


def test_criterion_1_gradient_oracle():
    start = time.perf_counter()
    results = fs.run_gradcheck(n_cases=20)
    elapsed = time.perf_counter() - start
    worst = max(r["max_scaled_err"] for r in results)
    n_ok = sum(1 for r in results if r["ok"])
    ok = n_ok == len(results) == 20 and elapsed < 30.0
    assert _verdict(1, "gradient oracle", ok,
                    f"{n_ok}/20 heads, worst scaled err {worst:.2e}, {elapsed:.1f}s")
    assert worst < 1e-4


def test_criterion_2_quantizer_round_trip():
    worst_ratio = 0.0  # error relative to the scale/2 bound, across grids
    bounds_ok = True
    for scale, zp in ((0.05, 0), (0.1, -28), (0.5, 5), (0.0125, 0)):
        qp = fs.QuantParams(scale, zp)
        lo, hi = scale * (-128 - zp), scale * (127 - zp)
        x = np.linspace(lo - 20 * scale, hi + 20 * scale, 4001).astype(np.float32)
        back = fs.dequantize(fs.quantize(x, qp))
        err = float(np.abs(back - np.clip(x, lo, hi)).max())
        bounds_ok = bounds_ok and err <= scale / 2 + 1e-6
        worst_ratio = max(worst_ratio, err / (scale / 2))
    sat = fs.quantize(np.array([1e4, -1e4], np.float32), fs.QuantParams(0.1, 0))
    sat_ok = sat.array.tolist() == [127, -128]
    ok = bounds_ok and sat_ok
    assert _verdict(2, "quantizer round trip", ok,
                    f"worst err {worst_ratio:.3f}x the half-step bound, "
                    f"saturation exact: {sat_ok}")


def test_criterion_3_cost_regression():
    start = time.perf_counter()
    head = fs.init_head(158, 32, 32, np.random.default_rng(0))
    link = fs.calibrated_uwb_link()
    lpm_mj = 1e3 * fs.epoch_energy(fs.LPM)
    hpm_mj = 1e3 * fs.epoch_energy(fs.HPM)
    ps_ms = 1e3 * fs.per_sample_latency(fs.LPM, 28)
    msg = fs.head_message_bytes(head)
    fed_s = fs.federated_epoch_time(fs.HPM, link, 3, msg)
    free = fs.free_local_epochs(fed_s, fs.LPM.local_epoch_latency_s)
    elapsed = time.perf_counter() - start
    checks = {
        "lpm": abs(lpm_mj - 4.3) / 4.3 <= 0.02,
        "hpm": abs(hpm_mj - 6.2) / 6.2 <= 0.02,
        "per_sample": abs(ps_ms - 6.4) / 6.4 <= 0.02,
        "bytes": msg == 24576 and head.parameter_count == 6144,
        "fed_epoch": abs(fed_s - 10.5) / 10.5 <= 0.05,
        "free": abs(free - 58) <= 1,
        "time": elapsed < 1.0,
    }
    ok = all(checks.values())
    assert _verdict(
        3, "cost model regression", ok,
        f"LPM {lpm_mj:.3f}mJ, HPM {hpm_mj:.3f}mJ, {ps_ms:.2f}ms/sample, "
        f"{msg}B, fed epoch {fed_s:.4f}s, {free} free epochs, {elapsed * 1e3:.0f}ms",
    ), checks


def test_criterion_4_aggregation_algebra():
    bad = []
    for case in range(100):
        rng = np.random.default_rng(np.random.SeedSequence((4242, case)))
        n = int(rng.integers(2, 7))
        size = int(rng.integers(1, 40))
        vecs = [rng.standard_normal(size).astype(np.float32) for _ in range(n)]
        w = [float(v) for v in rng.uniform(0.5, 2.0, size=n)]
        ids = [int(i) for i in rng.permutation(n * 3)[:n]]

        same = fs.fedavg([vecs[0]] * n, weights=w, node_ids=ids)
        idempotent = np.array_equal(same, vecs[0])

        avg = fs.fedavg(vecs, weights=w, node_ids=ids)
        perm = [int(i) for i in rng.permutation(n)]
        avg_p = fs.fedavg([vecs[i] for i in perm], weights=[w[i] for i in perm],
                          node_ids=[ids[i] for i in perm])
        permutable = np.array_equal(avg, avg_p)

        ref = np.average(np.stack([v.astype(np.float64) for v in vecs]),
                         axis=0, weights=w).astype(np.float32)
        correct = np.allclose(avg, ref, rtol=1e-6, atol=1e-7)

        stack = np.stack(vecs)
        inside = bool(
            np.all(avg >= stack.min(axis=0) - 1e-6)
            and np.all(avg <= stack.max(axis=0) + 1e-6)
        )
        if not (idempotent and permutable and correct and inside):
            bad.append(case)
    ok = not bad
    assert _verdict(4, "aggregation algebra", ok,
                    f"100 seeded cases, failures: {bad if bad else 'none'}")


def test_criterion_5_forgetting_ordering(triple):
    reports, elapsed = triple
    naive, odfcl, joint = (reports[s] for s in ("naive", "odfcl", "joint"))
    t0_base = naive.sessions[0]["accuracy_base"]
    drop = t0_base - naive.sessions[-1]["accuracy_base"]
    gap = odfcl.final_accuracy() - naive.final_accuracy()
    slack = joint.final_accuracy() - odfcl.final_accuracy()
    ordering = drop >= 0.25 and gap >= 0.10 and slack >= -0.05
    pinned = (
        [s["accuracy_seen"] for s in naive.sessions] == NAIVE_SEEN
        and [s["accuracy_seen"] for s in odfcl.sessions] == ODFCL_SEEN
        and [s["accuracy_seen"] for s in joint.sessions] == JOINT_SEEN
        and naive.sessions[-1]["accuracy_base"] == NAIVE_BASE_FINAL
    )
    ok = ordering and pinned and elapsed < 300.0
    assert _verdict(
        5, "forgetting ordering", ok,
        f"base drop {drop:.2f} >= 0.25, mitigation gap {gap:.2f} >= 0.10, "
        f"upper-bound slack {slack:.2f} >= -0.05, pinned values: {pinned}, {elapsed:.0f}s",
    )


def test_criterion_6_consensus_and_privacy():
    rng = np.random.default_rng(99)
    # three different heads at the start, the global head in every later round
    heads = [fs.init_head(6, 5, 4, np.random.default_rng(i)) for i in range(3)]
    p = heads[0].parameter_count
    part = fs.ClassPartition(frozenset({0, 1}), frozenset({2, 3}))
    views = [(rng.standard_normal((6, 6)).astype(np.float32), np.full(6, 2 + i % 2))
             for i in range(3)]
    cfg = fs.LossConfig(mu=2.0, lam=3.8, lr=0.05, batch_size=3)
    net = fs.SimNetwork(fs.LinkModel(throughput_bps=4 * p / 0.5))
    rounds, consensus = 4, True
    for _ in range(rounds):
        trained, _ = fs.local_epoch(heads, views, [part] * len(heads), cfg, rng)
        expected = fs.fedavg([h.params for h in trained])
        head, _ = fs.sync_round(trained, net)
        consensus = consensus and np.array_equal(head.params, expected)
        heads = [head] * len(heads)
    events = net.events
    privacy = (
        len(events) == rounds * 2 * len(heads)
        and all(e.kind in ("upload", "broadcast") for e in events)
        and all(e.n_bytes == 4 * p for e in events)
        # the event log carries metadata only: no payload field at all
        and set(fs.TraceEvent.__dataclass_fields__) == {"time_s", "node", "kind", "n_bytes"}
    )
    ok = consensus and privacy
    assert _verdict(6, "sync consensus and weight-only messages", ok,
                    f"{rounds} rounds, bit-exact consensus: {consensus}, "
                    f"{len(events)} link events of {4 * p}B each")


def test_criterion_7_deterministic_reports(tmp_path):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        res = subprocess.run(
            [sys.executable, "-m", "fedswarm", "run", "--out", str(out), "--trace"],
            capture_output=True, text=True,
        )
        assert res.returncode == 0, res.stderr
        outs.append(out)
    rep_a = (outs[0] / "report.json").read_bytes()
    rep_b = (outs[1] / "report.json").read_bytes()
    tr_a = (outs[0] / "trace.tsv").read_bytes()
    tr_b = (outs[1] / "trace.tsv").read_bytes()
    ok = rep_a == rep_b and tr_a == tr_b
    assert _verdict(7, "deterministic reports", ok,
                    f"two CLI runs, report {len(rep_a)}B and trace {len(tr_a)}B identical")


def test_criterion_8_regularizers_off_equals_naive(triple):
    reports, _ = triple
    cfg = fs.default_config()
    zero = replace(cfg, loss=replace(cfg.loss, mu=0.0, lam=0.0))
    zero_report = fs.run_experiment(zero)
    a = fs.strategy_block_bytes(reports["naive"])
    b = fs.strategy_block_bytes(zero_report)
    ok = a == b
    assert _verdict(8, "zero-weight objective equals naive", ok,
                    f"session+cost blocks identical: {len(a)}B vs {len(b)}B")
