"""Alternating benchmark pairs of two checkouts, judged by the pair rule.

    python3 tools/pairs.py PARENT CHANGE --workload swarm [--pairs 10] [--seed 1234]
        [--traced]

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
left out of the quartiles, and the verdict is ``unresolved``.

With ``--traced``, after the pairs each checkout runs ``--trace 1``
once, in the same order as the first pair, and a table gives every
span that either side called: its ``calls`` and ``self_s`` on each
side and the change in ``self_s``, so a saving can be placed in the
layer where it landed. A traced run that is not ``correct`` is flagged
too.
"""

import argparse
import json
import statistics
import subprocess
import sys
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


def trace_table(parent: dict, change: dict) -> list:
    """Lines comparing two ``--trace 1`` results' metrics (name ->
    {"value": ...}): one row per span with calls on either side, in the
    order the spans first appear, parent's first."""
    names = [n[: -len(".calls")] for n in [*parent, *change] if n.endswith(".calls")]
    lines = [f"{'span':<36} {'calls parent':>12} {'change':>8} "
             f"{'self_s parent':>14} {'change':>10} {'delta':>10}"]
    for name in dict.fromkeys(names):
        calls, self_s = ([side.get(f"{name}.{key}", {"value": 0})["value"]
                          for side in (parent, change)] for key in ("calls", "self_s"))
        if not any(calls):
            continue
        lines.append(f"{name:<36} {calls[0]:>12} {calls[1]:>8} {self_s[0]:>14.6f} "
                     f"{self_s[1]:>10.6f} {self_s[1] - self_s[0]:>+10.6f}")
    return lines


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
    p.add_argument("--traced", action="store_true",
                   help="after the pairs, compare one --trace 1 run of each side")
    args = p.parse_args(argv)
    if args.pairs < 1:
        p.error("--pairs must be at least 1")
    bench = json.loads((args.change / "BENCHMARK.json").read_text())
    spec, seconds = bench["end_to_end"], bench["run_seconds"]
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    values = {name: {m["name"]: [] for m in spec} for name in sides}
    flagged = flagged_pairs = 0
    for i in range(1, args.pairs + 1):
        results = {}
        for name in ("parent", "change") if i % 2 else ("change", "parent"):
            results[name] = result = run_once(sides[name], args, seconds)
            cells = " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items())
            print(f"pair {i} {name}: {cells}", flush=True)
            if not result.get("correct") or result.get("failed") != 0:
                flagged += 1
                print(f"FLAG pair {i} {name}: correct={result.get('correct')} "
                      f"failed={result.get('failed')} {result.get('error', '')}", flush=True)
        if not all(r.get("correct") and r.get("failed") == 0 for r in results.values()):
            flagged_pairs += 1
        else:
            for name, r in results.items():
                for metric in values[name]:
                    if metric in r["metrics"]:
                        values[name][metric].append(r["metrics"][metric]["value"])
    print(f"{args.workload} seed {args.seed}, {args.pairs} pairs of {seconds:g} s, "
          f"{flagged} runs flagged")
    for m in spec:
        parent, change = values["parent"][m["name"]], values["change"][m["name"]]
        if not parent or len(parent) != len(change):
            print(f"{m['name']}: no complete pairs")
            continue
        v = verdict(parent, change, m["better"] == "lower", flagged_pairs)
        q = " / ".join
        print(f"{m['name']} ({m['unit']}, {m['better']} is better): "
              f"parent q1/median/q3 {q(f'{x:.6g}' for x in v['parent'])}, "
              f"change {q(f'{x:.6g}' for x in v['change'])}, "
              f"change won {v['wins']}/{v['pairs']}: {v['verdict']}")
    if args.traced:
        traced = {name: run_once(sides[name], args, seconds, trace=1)
                  for name in ("parent", "change")}
        for name, result in traced.items():
            if not result.get("correct") or result.get("failed") != 0:
                flagged += 1
                print(f"FLAG traced {name}: correct={result.get('correct')} "
                      f"failed={result.get('failed')} {result.get('error', '')}")
        print(f"{args.workload} seed {args.seed}, one traced pass per side (wall seconds)")
        print("\n".join(trace_table(traced["parent"]["metrics"], traced["change"]["metrics"])))
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
