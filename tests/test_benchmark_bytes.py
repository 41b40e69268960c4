"""The benchmark's report checks as a tier-1 tripwire.

Each ``perfbench`` workload runs one pass at the digest seed and must
reproduce the seed commit's report bytes, its cost block and the link
model's per-round ``comm_s``. The benchmark is only read: its
``workloads`` module is loaded from its file.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "perfbench_workloads", Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
)
workloads = sys.modules[_SPEC.name] = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(workloads)


@pytest.mark.parametrize("name", workloads.NAMES)
def test_benchmark_workload_keeps_the_seed_commit_bytes(name, tmp_path, monkeypatch):
    # the ingest manifest path is echoed into its report, so it is relative
    monkeypatch.chdir(tmp_path)
    w = workloads.setup(name, workloads.DIGEST_SEED, Path(".bench_work"))
    out = workloads.run_pass(w)
    assert workloads.check(w, out, workloads.report_bytes(w, out), None) == []
