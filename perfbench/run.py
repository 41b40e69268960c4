"""fedswarm benchmark: host time of the simulator's loop, checked outputs.

    python3 perfbench/run.py --workload desk|swarm|ingest
        [--seed 1234] [--seconds 20] [--trace 0|1]

Run from the root of a checkout; the simulator is imported from its
``src/``. Set-up builds the workload (configs; for ingest, the
manifest), then whole passes of the workload run until ``--seconds``
would be exceeded, at least one. Each pass's outputs are checked (see
``workloads.check``); a pass that fails a check counts in ``failed`` and
its time is dropped.

--trace 0 prints the end-to-end metrics: run_s (median pass time at
reference host speed, see ``hostspeed``; the wall median is logged
beside it), train_samples_per_s, setup_s (median over fresh processes,
also at reference host speed) and peak_rss_mb. --trace 1 runs untraced
passes for half the time, then one traced pass, and prints the
per-layer metrics of ``layers.PER_LAYER``. Span times are wall seconds
without the calibration kernel's; the trace.* pass times are at
reference host speed, so their difference is the tracing overhead.

Every metric is printed by name with its unit, the result is saved with
an environment record under ``.bench_work/results/``, a one-line diff
against the previous result of the same workload and mode is printed,
and the last line is the JSON result. Work files go under ``.bench_work/``.
"""

import os

# one BLAS thread: the benchmark times the simulator, not a thread pool
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed

ROOT = Path(__file__).resolve().parent.parent
WORK = Path(".bench_work")
SETUP_REPEATS = 9


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=1234)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", metavar="DIR", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def _import_program():
    """Put the checkout's ``src/`` first on the path; False if it is absent."""
    if not (ROOT / "src" / "fedswarm" / "__init__.py").is_file():
        return False
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(1, str(Path(__file__).resolve().parent))
    import fedswarm

    return Path(fedswarm.__file__).resolve().is_relative_to(ROOT / "src")


class Runner:
    """Runs and checks passes; only passes whose outputs check out are timed."""

    def __init__(self, workloads, w):
        self.wl = workloads
        self.w = w
        self.times = []  # pass seconds at reference host speed
        self.wall = []  # the same passes in wall seconds, kernel time taken out
        self.attempted = 0
        self.failed = 0
        self.first = None  # report bytes of the first pass

    def record(self, out, problems=()) -> bool:
        """Check one pass's outputs; True when every check holds."""
        self.attempted += 1
        got = self.wl.report_bytes(self.w, out)
        problems = list(problems) + self.wl.check(self.w, out, got, self.first)
        if self.first is None:
            self.first = got
        for p in problems:
            print(f"check failed, pass {self.attempted}: {p}", file=sys.stderr)
        self.failed += bool(problems)
        return not problems

    def timed_pass(self) -> None:
        with hostspeed.Sampler() as probe:
            t0 = time.perf_counter()
            out = self.wl.run_pass(self.w)
            seconds = time.perf_counter() - t0
        if self.record(out):
            wall, scaled = probe.rescale(seconds)
            self.wall.append(wall)
            self.times.append(scaled)

    def loop(self, budget_s: float) -> None:
        """Whole passes while the next one is expected to end in budget."""
        start = time.perf_counter()
        last = 0.0
        while self.attempted == 0 or time.perf_counter() - start + last <= budget_s:
            t0 = time.perf_counter()
            self.timed_pass()
            last = time.perf_counter() - t0


def _tail(times):
    """(percentile, value) of the highest percentile with >= 10 samples beyond it."""
    if len(times) < 11:
        return None
    ordered = sorted(times)
    k = len(ordered) - 11
    return 100.0 * (k + 1) / len(ordered), ordered[k]


def _setup_s(args) -> float:
    """Median time of fresh processes that only import and set up, at
    reference host speed: each is rescaled by the host's speed measured
    just before and just after it (see ``hostspeed``)."""
    samples = []
    for _ in range(SETUP_REPEATS):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
               "--seed", str(args.seed), "--setup-only", str(WORK / "setup")]
        before = hostspeed.speed_now()
        t0 = time.perf_counter()
        subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)
        elapsed = time.perf_counter() - t0
        samples.append(elapsed * (before + hostspeed.speed_now()) / 2)
    return statistics.median(samples)


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def _git_sha() -> str:
    head = Path(".git/HEAD")
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = Path(".git") / ref[5:]
    if loose.is_file():
        return loose.read_text().strip()
    packed = Path(".git/packed-refs")
    for line in packed.read_text().splitlines() if packed.is_file() else []:
        if line.endswith(" " + ref[5:]):
            return line.split()[0]
    return "unknown"


def _blas_threads():
    """Thread count the loaded OpenBLAS reports, or None if not found."""
    import ctypes

    libs = {ln.split()[-1] for ln in Path("/proc/self/maps").read_text().splitlines()
            if "openblas" in ln.lower() and ln.split()[-1].startswith("/")}
    for lib in sorted(libs):
        try:
            dll = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(dll, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment() -> dict:
    import numpy as np

    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy < 2
        from numpy.core import _multiarray_umath as umath

    features = umath.__cpu_features__
    return {
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "simd_baseline": list(umath.__cpu_baseline__),
        "simd_dispatch": [t for t in umath.__cpu_dispatch__ if features.get(t)],
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas_threads": _blas_threads(),
        "blas_env": {v: os.environ.get(v) for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        "machine": platform.machine(),
    }


def _diff_line(previous: dict | None, metrics: dict) -> str:
    if previous is None:
        return "diff: no previous result"
    old = previous.get("metrics", {})
    cells = []
    for name, m in metrics.items():
        if name in old:
            cells.append(f"{name} {old[name]['value']:.6g} -> {m['value']:.6g} {m['unit']}")
    sha = previous.get("environment", {}).get("git_sha", "?")[:10]
    return f"diff vs {sha} seed {previous.get('seed')}: " + "; ".join(cells)


def _save(args, result: dict, extra: dict) -> None:
    path = WORK / "results" / f"{args.workload}-trace{args.trace}.json"
    if not args.trace:
        previous = json.loads(path.read_text()) if path.is_file() else None
        print(f"[{args.workload}] " + _diff_line(previous, result["metrics"]))
    path.parent.mkdir(parents=True, exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": environment(), **result, **extra}
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")


def _metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    args = _parse(argv)
    os.chdir(ROOT)
    if not _import_program():
        print(f"perfbench: no simulator source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    import layers
    import spans
    import workloads

    if args.workload not in workloads.NAMES:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if args.setup_only:
        workloads.setup(args.workload, args.seed, Path(args.setup_only))
        return 0

    tracer = spans.Tracer()
    if args.trace:
        with spans.installed(layers.patches(tracer)), tracer.span("setup"):
            w = workloads.setup(args.workload, args.seed, WORK)
    else:
        w = workloads.setup(args.workload, args.seed, WORK)
    runner = Runner(workloads, w)

    if not args.trace:
        setup_s = _setup_s(args)
    runner.loop(args.seconds / 2 if args.trace else args.seconds)
    if not runner.times:
        print("perfbench: no pass passed its checks", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": runner.attempted,
                          "failed": runner.failed, "metrics": {}}))
        return 1
    run_s = statistics.median(runner.times)

    if args.trace:
        with hostspeed.Sampler() as probe:
            tracer.clock = probe.own_clock
            t0 = time.perf_counter()
            with spans.installed(layers.patches(tracer)), tracer.span("pass"):
                out = workloads.run_pass(w)
            _, traced_s = probe.rescale(time.perf_counter() - t0)
        expected = {
            "losses.total_loss.samples": sum(workloads.train_samples(c) for c in w.configs),
            "federation.link_messages": sum(len(workloads.link_messages(c)) for c in w.configs),
            "federation.link_bytes": sum(sum(workloads.link_messages(c)) for c in w.configs),
        }
        runner.record(out, [f"traced {n} = {tracer.counts[n]}, expected {v}"
                            for n, v in expected.items() if tracer.counts[n] != v])
        tracer.write(w.out_dir / "spans.tsv")
        metrics = {n: _metric(v, u) for n, (v, u) in layers.per_layer(tracer, run_s, traced_s).items()}
        extra = {}
    else:
        samples = sum(workloads.train_samples(c) for c in w.configs)
        metrics = {
            "run_s": _metric(run_s, "s"),
            "train_samples_per_s": _metric(samples / run_s, "1/s"),
            "setup_s": _metric(setup_s, "s"),
            "peak_rss_mb": _metric(_peak_rss_mb(), "MB"),
        }
        tail = _tail(runner.times)
        extra = {"run_s_samples": runner.times, "wall_s_samples": runner.wall,
                 "train_samples_per_pass": samples, "run_s_tail": tail}
        print(f"[{args.workload}] run_s over {len(runner.times)} passes; tail: "
              + (f"p{tail[0]:.0f} = {tail[1]:.6f} s" if tail else "needs >= 11 passes")
              + f"; median wall {statistics.median(runner.wall):.6f} s")

    result = {"correct": runner.failed == 0, "attempted": runner.attempted, "failed": runner.failed,
              "metrics": metrics}
    for name, m in metrics.items():
        print(f"[{args.workload}] {name} = {m['value']} {m['unit']}")
    _save(args, result, extra)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
