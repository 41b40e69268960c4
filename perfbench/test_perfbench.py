"""Self-tests of the benchmark: span arithmetic, tracing, pass accounting.

    python3 -m pytest -q perfbench
"""

import json
from dataclasses import replace

import pytest

import run

assert run._import_program(), "simulator source not found under src/"

import layers  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from fedswarm import harness  # noqa: E402


def test_self_time_subtracts_direct_children():
    tree = [
        ["root", 0.0, 10.0, -1],
        ["a", 1.0, 4.0, 0],
        ["leaf", 2.0, 3.0, 1],
        ["b", 5.0, 9.0, 0],
        ["a", 6.0, 7.0, 3],
    ]
    t = spans.layer_times(tree)
    assert t["root"] == (1, 10.0, 3.0)
    assert t["a"] == (2, 4.0, 3.0)
    assert t["leaf"] == (1, 1.0, 1.0)
    assert t["b"] == (1, 4.0, 3.0)


def test_wrapped_calls_nest_count_and_restore():
    tracer = spans.Tracer()
    inner = tracer.wrap(lambda x: x + 1, "inner")

    def count(counts, x):
        counts["outer.items"] += x

    outer = tracer.wrap(lambda x: inner(x) * 2, lambda x: f"outer.{x}", count)
    with tracer.span("pass"):
        assert outer(3) == 8
    assert [(n, p) for n, _, _, p in tracer.spans] == [("pass", -1), ("outer.3", 0), ("inner", 1)]
    assert tracer.counts["outer.items"] == 3

    original = harness.report_table
    with spans.installed([("fedswarm.harness", "report_table", "patched")]):
        assert harness.report_table == "patched"
    assert harness.report_table is original


def _tiny() -> workloads.Workload:
    base = harness.ExperimentConfig(seed=7)
    cfg = replace(
        base,
        loss=replace(base.loss, local_epochs_per_round=1),
        train=harness.TrainSpec(t0_epochs=1, rounds_per_session=1),
    )
    out_dir = run.ROOT / run.WORK / "selftest"
    out_dir.mkdir(parents=True, exist_ok=True)
    return workloads.Workload("tiny", 7, (cfg,), out_dir)


class _CorruptSecond:
    """The workloads module, except that the second pass's report is altered."""

    run_pass = staticmethod(workloads.run_pass)
    check = staticmethod(workloads.check)

    def __init__(self):
        self.calls = 0

    def report_bytes(self, w, out):
        got = workloads.report_bytes(w, out)
        self.calls += 1
        if self.calls == 2:
            rep = json.loads(got["odfcl"])
            rep["cost"]["message_bytes"] += 4
            got["odfcl"] = json.dumps(rep, sort_keys=True, indent=2).encode() + b"\n"
        return got


def test_corrupted_report_is_a_failed_op_not_a_timing():
    runner = run.Runner(_CorruptSecond(), _tiny())
    runner.timed_pass()
    runner.timed_pass()
    assert runner.attempted == 2
    assert runner.failed == 1
    assert len(runner.times) == 1


def test_clean_passes_check_out_at_any_seed():
    w = _tiny()
    out = workloads.run_pass(w)
    got = workloads.report_bytes(w, out)
    assert workloads.check(w, out, got, None) == []
    assert workloads.check(w, out, got, got) == []


def test_tail_leaves_ten_samples_beyond():
    assert run._tail([1.0] * 10) is None
    pct, value = run._tail([float(i) for i in range(20)])
    assert value == 9.0 and pct == pytest.approx(50.0)


def test_benchmark_json_names_what_the_benchmark_prints():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == [n for n, _ in layers.PER_LAYER]
    assert [m["unit"] for m in spec["per_layer"]] == [u for _, u in layers.PER_LAYER]
    assert {m["name"] for m in spec["end_to_end"]} == {
        "run_s", "train_samples_per_s", "setup_s", "peak_rss_mb"
    }
    assert [w["name"] for w in spec["workloads"]] == list(workloads.NAMES)


def test_rescale_takes_kernel_time_out_and_scales_by_mean_speed():
    import hostspeed

    probe = hostspeed.Sampler()
    assert probe.rescale(2.0) == (2.0, 2.0)
    probe.samples = [hostspeed.REF_S, 4 * hostspeed.REF_S]  # mean speed 5/8
    probe.spent = 0.5
    wall, scaled = probe.rescale(8.5)
    assert wall == 8.0
    assert scaled == pytest.approx(5.0)
