"""Alternating benchmark pairs of two checkouts, judged by the pair rule.

    python3 tools/pairs.py PARENT CHANGE --workload swarm [--pairs 10] [--seed 1234]
        [--traced [N]]

PARENT and CHANGE are checkout roots, each with its own ``perfbench/``
and ``src/``. Each pair runs ``perfbench/run.py --trace 0`` once in
each, for the ``run_seconds`` of CHANGE's ``BENCHMARK.json``, in a
fresh process whose working directory is that checkout; odd pairs run
PARENT first, even pairs CHANGE first. Nothing in either checkout is
edited; perfbench itself writes under ``.bench_work/``.

For each end-to-end metric of that ``BENCHMARK.json`` the summary
gives each side's median and quartiles, the pairs CHANGE won (ties
count for neither side) and the verdict: ``met`` when at least ten
pairs ran, CHANGE won at least nine tenths of them and the medians
differ, in its favour, by more than the distance between PARENT's
quartiles; ``unresolved`` otherwise. A run whose result is not
``correct`` or counts failed passes is flagged; its pair keeps its
place in the pair count as a pair CHANGE did not win, its metrics are
left out of the quartiles, and the verdict is ``unresolved``. The
summary also gives each checkout's library line count, the newlines in
its ``src/fedswarm/*.py`` as ``wc -l`` counts them, so a change that
cuts code can quote both counts from the run that gives its verdicts.

With ``--traced N`` (``--traced`` alone is N = 1), after the pairs each
checkout runs ``--trace 1`` N times, alternating as the pairs do, and a
table gives every span that either side called: its median ``calls``
and its ``self_s`` median and quartiles on each side, and the change in
the median ``self_s``, so a saving can be placed in the layer where it
landed. Span times are wall seconds of single passes and drift with the
host, so a delta inside either side's quartiles places nothing. A
traced run that is not ``correct`` is flagged too and left out of the
table.

Before pair 1, each checkout's ``src/`` and ``perfbench/`` sources are
checked against their bytecode caches for this interpreter: a ``.pyc``
whose header (magic number and source mtime and size, or source hash
for a hash-based one) matches its source is fresh, any other is stale,
and a source without one is missing. Where caches are not written
(``PYTHONDONTWRITEBYTECODE``), a stale or missing cache is compiled
from source in every process, which lands in ``setup_s``. Each side's
counts are printed; when the two sides differ in which of the three
states occur, a FLAG line is printed and every verdict is
``unresolved``. The check reads files and writes none.
"""

import argparse
import importlib.util
import json
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path

MIN_PAIRS = 10


def quartiles(samples) -> tuple:
    """(first quartile, median, third quartile); one sample is all three."""
    if len(samples) == 1:
        return (samples[0],) * 3
    return tuple(statistics.quantiles(samples, n=4, method="inclusive"))


def verdict(parent, change, lower_is_better: bool, flagged: int = 0) -> dict:
    """The pair rule on paired samples: ``parent[i]`` and ``change[i]``
    ran in the same pair, and ``flagged`` more pairs ran with a failed
    run. Returns the wins out of all pairs, both sides' quartiles and
    ``met`` or ``unresolved``; fewer than ten pairs, or any flagged
    pair, never meet it."""
    if len(parent) != len(change) or not parent:
        raise ValueError(f"{len(parent)} parent and {len(change)} change samples")
    sign = 1.0 if lower_is_better else -1.0
    wins = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
    total = len(parent) + flagged
    q_parent, q_change = quartiles(parent), quartiles(change)
    gap = sign * (q_parent[1] - q_change[1])
    met = (not flagged and total >= MIN_PAIRS and 10 * wins >= 9 * total
           and gap > q_parent[2] - q_parent[0])
    return {"pairs": total, "wins": wins, "parent": q_parent, "change": q_change,
            "verdict": "met" if met else "unresolved"}


def trace_table(parent: list, change: list) -> list:
    """Lines comparing two sides' ``--trace 1`` results, each a list of
    passes' metrics (name -> {"value": ...}): one row per span with
    calls on either side, in the order the spans first appear, parent's
    first. A span a pass lacks reads 0 calls and 0 s in that pass."""
    names = [n[: -len(".calls")] for side in (parent, change) for run in side for n in run
             if n.endswith(".calls")]
    lines = [f"{'span':<36} {'calls parent':>12} {'change':>8} "
             f"{'self_s parent median (q1-q3)':>30} {'change median (q1-q3)':>30} {'delta':>10}"]
    for name in dict.fromkeys(names):
        calls, self_s = ([[run.get(f"{name}.{key}", {"value": 0})["value"] for run in side]
                          for side in (parent, change)] for key in ("calls", "self_s"))
        if not any(map(any, calls)):
            continue
        calls = [quartiles(c)[1] for c in calls]
        self_s = [quartiles(t) for t in self_s]
        spread = [f"{q[1]:.6f} ({q[0]:.6f}-{q[2]:.6f})" for q in self_s]
        lines.append(f"{name:<36} {calls[0]:>12g} {calls[1]:>8g} {spread[0]:>30} "
                     f"{spread[1]:>30} {self_s[1][1] - self_s[0][1]:>+10.6f}")
    return lines


def checked(label: str, result: dict) -> bool:
    """Whether a run counts: its result is ``correct`` and no pass
    failed. A run that does not count is printed as a FLAG line."""
    if result.get("correct") and result.get("failed") == 0:
        return True
    print(f"FLAG {label}: correct={result.get('correct')} failed={result.get('failed')} "
          f"{result.get('error', '')}", flush=True)
    return False


def pyc_state(source: Path) -> str:
    """``fresh``, ``stale`` or ``missing``: the state of the bytecode
    cache this interpreter would load for ``source``."""
    try:
        with open(importlib.util.cache_from_source(source), "rb") as f:
            header = f.read(16)
    except OSError:
        return "missing"
    if len(header) < 16 or header[:4] != importlib.util.MAGIC_NUMBER:
        return "stale"
    if int.from_bytes(header[4:8], "little") & 1:  # hash-based
        expected = importlib.util.source_hash(source.read_bytes())
    else:
        st = source.stat()
        expected = b"".join((int(n) & 0xFFFFFFFF).to_bytes(4, "little")
                            for n in (st.st_mtime, st.st_size))
    return "fresh" if header[8:16] == expected else "stale"


def bytecode_state(root: Path) -> Counter:
    """How many of ``root``'s ``src/`` and ``perfbench/`` sources have a
    fresh, stale or missing bytecode cache."""
    return Counter(pyc_state(source) for top in ("src", "perfbench")
                   for source in (root / top).rglob("*.py"))


def library_lines(root: Path) -> int:
    """Newlines in ``root``'s ``src/fedswarm/*.py``: the total of ``wc -l``."""
    return sum(p.read_bytes().count(b"\n") for p in (root / "src" / "fedswarm").glob("*.py"))


def run_once(root: Path, args, seconds, trace: int = 0) -> dict:
    """One benchmark run in ``root``; its last output line is the result."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", args.workload, "--seed",
           str(args.seed), "--seconds", str(seconds), "--trace", str(trace)]
    res = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    lines = res.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return {"correct": False, "failed": None, "metrics": {},
                "error": f"exit {res.returncode}: {res.stderr.strip()[-300:]}"}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("parent", type=Path)
    p.add_argument("change", type=Path)
    p.add_argument("--workload", required=True)
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seed", type=int, default=1234)
    p.add_argument("--traced", type=int, nargs="?", const=1, default=0, metavar="N",
                   help="after the pairs, compare N alternating --trace 1 runs of each side")
    args = p.parse_args(argv)
    if args.pairs < 1:
        p.error("--pairs must be at least 1")
    if args.traced < 0:
        p.error("--traced must be at least 0")
    bench = json.loads((args.change / "BENCHMARK.json").read_text())
    spec, seconds = bench["end_to_end"], bench["run_seconds"]
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    values = {name: {m["name"]: [] for m in spec} for name in sides}
    flagged = flagged_pairs = 0
    caches = {}
    for name, root in sides.items():
        counts = bytecode_state(root)
        caches[name] = "+".join(sorted(counts)) or "none"
        print(f"bytecode {name}: " + ", ".join(
            f"{counts[k]} {k}" for k in ("fresh", "stale", "missing")), flush=True)
    unlike = caches["parent"] != caches["change"]
    if unlike:
        print(f"FLAG bytecode: parent {caches['parent']}, change {caches['change']}; "
              "setup_s would compare unlike imports", flush=True)
    for i in range(1, args.pairs + 1):
        results, counted = {}, []
        for name in ("parent", "change") if i % 2 else ("change", "parent"):
            results[name] = result = run_once(sides[name], args, seconds)
            cells = " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items())
            print(f"pair {i} {name}: {cells}", flush=True)
            counted.append(checked(f"pair {i} {name}", result))
        flagged += counted.count(False)
        if not all(counted):
            flagged_pairs += 1
        else:
            for name, r in results.items():
                for metric in values[name]:
                    if metric in r["metrics"]:
                        values[name][metric].append(r["metrics"][metric]["value"])
    print(f"{args.workload} seed {args.seed}, {args.pairs} pairs of {seconds:g} s, "
          f"{flagged} runs flagged")
    lines = {name: library_lines(root) for name, root in sides.items()}
    print(f"library lines (src/fedswarm/*.py): parent {lines['parent']}, "
          f"change {lines['change']} ({lines['change'] - lines['parent']:+d})")
    for m in spec:
        parent, change = values["parent"][m["name"]], values["change"][m["name"]]
        if not parent or len(parent) != len(change):
            print(f"{m['name']}: no complete pairs")
            continue
        v = verdict(parent, change, m["better"] == "lower", flagged_pairs)
        if unlike:
            v["verdict"] = "unresolved"
        q = " / ".join
        print(f"{m['name']} ({m['unit']}, {m['better']} is better): "
              f"parent q1/median/q3 {q(f'{x:.6g}' for x in v['parent'])}, "
              f"change {q(f'{x:.6g}' for x in v['change'])}, "
              f"change won {v['wins']}/{v['pairs']}: {v['verdict']}")
    if args.traced:
        traced = {name: [] for name in sides}
        for i in range(1, args.traced + 1):
            for name in ("parent", "change") if i % 2 else ("change", "parent"):
                result = run_once(sides[name], args, seconds, trace=1)
                if checked(f"traced {i} {name}", result):
                    traced[name].append(result["metrics"])
                else:
                    flagged += 1
        print(f"{args.workload} seed {args.seed}, {args.traced} traced passes per side, "
              f"{len(traced['parent'])} and {len(traced['change'])} correct (wall seconds)")
        if traced["parent"] and traced["change"]:
            print("\n".join(trace_table(traced["parent"], traced["change"])))
    return 1 if flagged or unlike else 0


if __name__ == "__main__":
    sys.exit(main())
