"""The pair rule of ``tools/pairs.py`` on canned samples."""

import importlib.util
import json
import os
import py_compile
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "pairs", Path(__file__).resolve().parents[1] / "tools" / "pairs.py")
pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(pairs)

PARENT = [0.60, 0.59, 0.61, 0.60, 0.62, 0.58, 0.60, 0.61, 0.59, 0.60]


def test_quartiles_of_ten_samples():
    assert pairs.quartiles(PARENT) == pytest.approx((0.5925, 0.60, 0.6075))
    assert pairs.quartiles([3.0]) == (3.0, 3.0, 3.0)


def test_a_clear_gain_is_met():
    change = [p - 0.03 for p in PARENT]
    v = pairs.verdict(PARENT, change, lower_is_better=True)
    assert v["wins"] == 10 and v["verdict"] == "met"


def test_nine_wins_of_ten_suffice_and_eight_do_not():
    change = [p - 0.03 for p in PARENT]
    change[0] = PARENT[0] + 0.01  # a loss
    assert pairs.verdict(PARENT, change, True)["verdict"] == "met"
    change[1] = PARENT[1]  # a tie counts for neither side
    v = pairs.verdict(PARENT, change, True)
    assert v["wins"] == 8 and v["verdict"] == "unresolved"


def test_a_gain_inside_the_parent_spread_is_unresolved():
    # every pair won, but the medians differ by less than the parent's IQR
    change = [p - 0.01 for p in PARENT]
    v = pairs.verdict(PARENT, change, True)
    assert v["wins"] == 10 and v["verdict"] == "unresolved"


def test_fewer_than_ten_pairs_never_meet_the_rule():
    change = [p - 0.03 for p in PARENT]
    v = pairs.verdict(PARENT[:9], change[:9], True)
    assert v["wins"] == 9 and v["verdict"] == "unresolved"


def test_a_flagged_pair_counts_as_a_pair_not_won_and_never_meets_the_rule():
    # eleven pairs, ten clear wins and one pair whose change run failed
    change = [p - 0.03 for p in PARENT]
    v = pairs.verdict(PARENT, change, True, flagged=1)
    assert (v["pairs"], v["wins"], v["verdict"]) == (11, 10, "unresolved")
    assert pairs.verdict(PARENT, change, True, flagged=0)["verdict"] == "met"


def test_higher_is_better_metrics_flip_the_sign():
    rate = [1 / p for p in PARENT]
    assert pairs.verdict(rate, [r * 1.1 for r in rate], False)["verdict"] == "met"
    assert pairs.verdict(rate, [r * 0.9 for r in rate], False)["wins"] == 0
    assert pairs.verdict(PARENT, [p * 1.1 for p in PARENT], True)["verdict"] == "unresolved"


def test_unpaired_samples_are_refused():
    with pytest.raises(ValueError):
        pairs.verdict(PARENT, PARENT[:9], True)
    with pytest.raises(ValueError):
        pairs.verdict([], [], True)


def _traced(**spans):
    """A ``--trace 1`` result's metrics: span -> (calls, self_s)."""
    out = {"losses.total_loss.samples": {"value": 33600, "unit": "count"}}
    for name, (calls, self_s) in spans.items():
        out.update({f"{name}.calls": {"value": calls, "unit": "count"},
                    f"{name}.busy_s": {"value": 2 * self_s, "unit": "s"},
                    f"{name}.self_s": {"value": self_s, "unit": "s"}})
    return out


def test_trace_table_sets_each_span_beside_its_parent_figures():
    parent = _traced(**{"federation.run_session": (4, 0.005), "federation.local_epoch": (25, 0.09),
                        "sessions.evaluate": (0, 0.0)})
    change = _traced(**{"federation.run_session": (4, 0.04), "federation.local_epoch": (1, 0.02),
                        "sessions.evaluate": (0, 0.0), "quant.backbone_forward": (2, 0.003)})
    header, *rows = pairs.trace_table([parent], [change])
    assert header.split() == ["span", "calls", "parent", "change", "self_s", "parent", "median",
                              "(q1-q3)", "change", "median", "(q1-q3)", "delta"]
    # spans neither side called are left out; one side's missing span reads 0;
    # one pass per side is its own median and quartiles
    assert [r.split() for r in rows] == [
        ["federation.run_session", "4", "4", "0.005000", "(0.005000-0.005000)",
         "0.040000", "(0.040000-0.040000)", "+0.035000"],
        ["federation.local_epoch", "25", "1", "0.090000", "(0.090000-0.090000)",
         "0.020000", "(0.020000-0.020000)", "-0.070000"],
        ["quant.backbone_forward", "0", "2", "0.000000", "(0.000000-0.000000)",
         "0.003000", "(0.003000-0.003000)", "+0.003000"],
    ]


def test_trace_table_gives_each_sides_median_and_quartiles_over_its_passes():
    # five passes per side of one span whose time drifts with the host
    parent = [_traced(**{"quant.backbone_forward": (2, t)}) for t in (0.10, 0.14, 0.09, 0.12, 0.11)]
    change = [_traced(**{"quant.backbone_forward": (2, t)}) for t in (0.08, 0.07, 0.13, 0.09, 0.06)]
    # a span one change pass alone called reads 0 calls and 0 s in the others
    change[2]["sessions.predict.calls"] = {"value": 3, "unit": "count"}
    change[2]["sessions.predict.self_s"] = {"value": 0.5, "unit": "s"}
    _, *rows = pairs.trace_table(parent, change)
    assert [r.split() for r in rows] == [
        ["quant.backbone_forward", "2", "2", "0.110000", "(0.100000-0.120000)",
         "0.080000", "(0.070000-0.090000)", "-0.030000"],
        ["sessions.predict", "0", "0", "0.000000", "(0.000000-0.000000)",
         "0.000000", "(0.000000-0.000000)", "+0.000000"],
    ]


def test_traced_runs_alternate_and_fill_the_table(tmp_path, monkeypatch, capsys):
    # canned runs in place of perfbench: one pair, then three traced passes per side
    (tmp_path / "BENCHMARK.json").write_text(json.dumps({
        "run_seconds": 30,
        "end_to_end": [{"name": "run_s", "unit": "s", "better": "lower", "bound": 0.25}]}))
    calls = []

    def canned(root, args, seconds, trace=0):
        calls.append((root.name, trace))
        if not trace:
            return {"correct": True, "failed": 0, "metrics": {"run_s": {"value": 0.2}}}
        side = "p" if root.name == "parent" else "c"
        n = sum(1 for c in calls if c == (root.name, 1))
        if side == "c" and n == 2:  # a traced run that is not correct is flagged
            return {"correct": False, "failed": 1, "metrics": {}}
        return {"correct": True, "failed": 0,
                "metrics": _traced(**{"quant.backbone_forward": (2, {"p": 0.1, "c": 0.05}[side]
                                                                 * n)})}

    for side in ("parent", "change"):
        (tmp_path / side).mkdir()
        (tmp_path / side / "BENCHMARK.json").write_text(
            (tmp_path / "BENCHMARK.json").read_text())
    monkeypatch.setattr(pairs, "run_once", canned)
    code = pairs.main([str(tmp_path / "parent"), str(tmp_path / "change"),
                       "--workload", "ingest", "--pairs", "1", "--traced", "3"])
    out = capsys.readouterr().out
    assert code == 1  # the flagged traced run
    assert calls == [("parent", 0), ("change", 0), ("parent", 1), ("change", 1),
                     ("change", 1), ("parent", 1), ("parent", 1), ("change", 1)]
    assert "FLAG traced 2 change: correct=False failed=1" in out
    assert "ingest seed 1234, 3 traced passes per side, 3 and 2 correct" in out
    row = out.splitlines()[-1].split()
    # parent 0.1, 0.2, 0.3 s; change 0.05 and 0.15 s (its second pass was flagged)
    assert row == ["quant.backbone_forward", "2", "2", "0.200000", "(0.150000-0.250000)",
                   "0.100000", "(0.075000-0.125000)", "-0.100000"]
    assert pairs.main([str(tmp_path / "parent"), str(tmp_path / "change"),
                       "--workload", "ingest", "--pairs", "1", "--traced"]) == 0
    assert calls[-2:] == [("parent", 1), ("change", 1)]
    assert "1 traced passes per side, 1 and 1 correct" in capsys.readouterr().out
    # a failed untraced run flags its pair: no complete pairs, exit 1
    monkeypatch.setattr(pairs, "run_once", lambda root, args, seconds, trace=0: (
        {"correct": True, "failed": 2, "metrics": {"run_s": {"value": 0.2}}}
        if root.name == "change" else canned(root, args, seconds, trace)))
    assert pairs.main([str(tmp_path / "parent"), str(tmp_path / "change"),
                       "--workload", "ingest", "--pairs", "1"]) == 1
    out = capsys.readouterr().out
    assert "FLAG pair 1 change: correct=True failed=2" in out
    assert "1 runs flagged" in out and "run_s: no complete pairs" in out


def _tree(root):
    """Every file under ``root``: path -> (bytes, mtime_ns)."""
    return {p: (p.read_bytes(), p.stat().st_mtime_ns) for p in root.rglob("*") if p.is_file()}


def test_bytecode_caches_are_checked_before_the_pairs(tmp_path, monkeypatch, capsys):
    # two checkouts of three sources each, compiled; then the change side
    # gets one stale cache and one missing cache
    for side in ("parent", "change"):
        for rel in ("src/pkg/a.py", "src/pkg/b.py", "perfbench/run.py"):
            source = tmp_path / side / rel
            source.parent.mkdir(parents=True, exist_ok=True)
            source.write_text("X = 1\n")
            mode = py_compile.PycInvalidationMode
            py_compile.compile(str(source), doraise=True, invalidation_mode=(
                mode.CHECKED_HASH if rel.endswith("b.py") else mode.TIMESTAMP))
        (tmp_path / side / "BENCHMARK.json").write_text(json.dumps({
            "run_seconds": 30,
            "end_to_end": [{"name": "run_s", "unit": "s", "better": "lower", "bound": 0.25}]}))
    parent, change = tmp_path / "parent", tmp_path / "change"
    assert pairs.bytecode_state(parent) == {"fresh": 3}
    # a clear gain over ten pairs meets the rule while the caches agree
    monkeypatch.setattr(pairs, "run_once", lambda root, args, seconds, trace=0: {
        "correct": True, "failed": 0,
        "metrics": {"run_s": {"value": 0.6 if root.name == "parent" else 0.5}}})
    argv = [str(parent), str(change), "--workload", "desk"]
    assert pairs.main(argv) == 0
    out = capsys.readouterr().out
    assert "bytecode parent: 3 fresh, 0 stale, 0 missing" in out and "FLAG" not in out
    assert out.splitlines()[-1].endswith("change won 10/10: met")
    # a source edited after compiling (same size, new mtime; new bytes
    # under a hash-based cache) is stale; a deleted cache is missing
    a, b = change / "src/pkg/a.py", change / "src/pkg/b.py"
    st = a.stat()
    os.utime(a, ns=(st.st_atime_ns, st.st_mtime_ns + 2 * 10**9))
    b.write_text("X = 2\n")
    Path(importlib.util.cache_from_source(change / "perfbench/run.py")).unlink()
    states = {str(p.relative_to(change)): pairs.pyc_state(p) for p in change.rglob("*.py")}
    assert states == {"perfbench/run.py": "missing", "src/pkg/a.py": "stale",
                      "src/pkg/b.py": "stale"}
    before = _tree(tmp_path)
    assert pairs.main(argv) == 1
    out = capsys.readouterr().out
    assert "bytecode change: 0 fresh, 2 stale, 1 missing" in out
    assert "FLAG bytecode: parent fresh, change missing+stale;" in out
    assert out.splitlines()[-1].endswith("change won 10/10: unresolved")
    assert _tree(tmp_path) == before  # nothing in either checkout is written
    # the same states on both sides compare alike again
    os.utime(parent / "src/pkg/a.py", ns=(0, 10**9))
    (parent / "src/pkg/b.py").write_text("X = 3\n")
    Path(importlib.util.cache_from_source(parent / "perfbench/run.py")).unlink()
    assert pairs.main(argv) == 0
    assert "FLAG" not in capsys.readouterr().out
