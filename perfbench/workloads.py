"""The benchmark's three workloads: set-up, one timed pass, output checks.

desk    naive, odfcl and joint at the desk default, with report and
        trace I/O, ``report_table`` and ``run_gradcheck``: the paper's
        headline table. Central training (T0, joint) dominates.
swarm   odfcl on 36 classes over 8 nodes (4 sessions, 16 link messages
        a round): federated local training, per-class evaluation and
        per-node sync grow here.
ingest  odfcl reading 10 classes of 4x16x16 int8 frames from a manifest
        with one epoch everywhere: the backbone and evaluation dominate,
        training is small.

Every simulated figure in a report (accuracies, link bytes and
messages, seconds and joules of the cost block) is checked for exact
equality; only host time is ever measured.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from fedswarm import costs, gradcheck, harness, model, sessions, synthetic

NAMES = ("desk", "swarm", "ingest")
# sha256 of each report at seed 1234, as the seed commit writes it
DIGESTS = json.loads((Path(__file__).parent / "digests.json").read_text())
DIGEST_SEED = 1234
GRADCHECK_CASES = 20


@dataclass
class Workload:
    name: str
    seed: int
    configs: tuple  # ExperimentConfig per strategy, run in this order
    out_dir: Path


@dataclass
class PassOutput:
    reports: dict  # strategy -> MetricsReport as run_experiment returned it
    parsed: dict = field(default_factory=dict)  # desk: reports read back from disk
    table: str = ""
    gradcheck: list = field(default_factory=list)


def make_configs(name: str, seed: int, manifest_dir: Path) -> tuple:
    if name == "desk":
        return tuple(harness.default_config(s, seed) for s in harness.STRATEGIES)
    if name == "swarm":
        plan = harness.PlanSpec(num_classes=36, num_nodes=8, base_count=4)
        return (harness.ExperimentConfig(seed=seed, plan=plan),)
    if name == "ingest":
        base = harness.ExperimentConfig(seed=seed)
        return (harness.ExperimentConfig(
            seed=seed,
            loss=replace(base.loss, local_epochs_per_round=1),
            train=harness.TrainSpec(t0_epochs=1, rounds_per_session=1),
            data=harness.DataSpec(
                kind="manifest", train_per_class=100, test_per_class=50,
                input_shape=(4, 16, 16), manifest_dir=manifest_dir.as_posix(),
            ),
        ),)
    raise ValueError(f"unknown workload {name!r}; choose from {NAMES}")


def setup(name: str, seed: int, work_dir: Path) -> Workload:
    """Build and validate the configs; for ingest, write the manifest.

    ``work_dir`` is relative to the checkout root, and the ingest
    manifest path is echoed into the report, so it must not vary. A
    manifest left by an earlier run is overwritten in place: creating
    1500 fresh files costs several times more, and that cost drifts
    with the state of the host's disk.
    """
    out_dir = work_dir / name
    out_dir.mkdir(parents=True, exist_ok=True)
    configs = make_configs(name, seed, out_dir / "manifest")
    if name == "ingest":
        (cfg,) = configs
        train, test = synthetic.gen_synthetic(
            cfg.data.synthetic_spec(cfg.plan.num_classes), np.random.default_rng(seed)
        )
        sessions.write_manifest(train, test, cfg.data.manifest_dir)
    return Workload(name, seed, configs, out_dir)


def run_pass(w: Workload) -> PassOutput:
    """The timed work. Callees are looked up on their modules at call
    time so that a traced pass sees the wrapped functions."""
    if w.name != "desk":
        return PassOutput({c.strategy: harness.run_experiment(c) for c in w.configs})
    out = PassOutput({})
    for cfg in w.configs:
        d = w.out_dir / cfg.strategy
        d.mkdir(exist_ok=True)
        out.reports[cfg.strategy] = harness.run_experiment(cfg, trace_out=d / "trace.tsv")
        harness.emit_report(out.reports[cfg.strategy], d / "report.json")
        out.parsed[cfg.strategy] = harness.parse_report(d / "report.json")
    out.table = harness.report_table(out.parsed.values())
    out.gradcheck = gradcheck.run_gradcheck(GRADCHECK_CASES)
    return out


# -- what the outputs must be --------------------------------------------------


def _plan(cfg):
    p = cfg.plan
    return sessions.make_plan(p.num_classes, p.num_nodes, p.base_count,
                              p.classes_per_session_per_node)


def _head(cfg, num_classes: int):
    return model.init_head(cfg.backbone.layer_dims[-1], cfg.head.hidden, num_classes,
                           np.random.default_rng(0))


def train_samples(cfg) -> int:
    """Samples fed through ``total_loss`` by one run, from plan and config."""
    plan = _plan(cfg)
    registry = sessions.registry_from_plan(plan)
    epochs = cfg.train.rounds_per_session * cfg.loss.local_epochs_per_round
    classes = cfg.train.t0_epochs * len(plan.base_classes)
    for t in range(1, plan.num_sessions + 1):
        pooled = registry.seen_through(t) if cfg.strategy == "joint" else plan.session_classes(t)
        classes += epochs * len(pooled)
    return classes * cfg.data.train_per_class


def link_messages(cfg) -> list:
    """Byte size of every link message of one run, in send order."""
    if cfg.strategy == "joint":
        return []
    plan = _plan(cfg)
    registry = sessions.registry_from_plan(plan)
    sizes = []
    for t in range(1, plan.num_sessions + 1):
        n_bytes = model.head_message_bytes(_head(cfg, len(registry.seen_through(t))))
        sizes += [n_bytes] * (2 * plan.num_nodes * cfg.train.rounds_per_session)
    return sizes


def _link(cfg):
    return costs.calibrated_uwb_link(cfg.cost.calibration_bytes, cfg.cost.calibration_seconds)


def round_comm_s(cfg) -> list:
    """Per session, the ``comm_s`` of each round, summed like the link does."""
    link, per_round = _link(cfg), 2 * cfg.plan.num_nodes
    sizes = link_messages(cfg)
    out = []
    for i in range(0, len(sizes), per_round):
        elapsed = 0.0
        for n_bytes in sizes[i : i + per_round]:
            elapsed += costs.message_time(link, n_bytes)
        out.append(elapsed)
    return out


def expected_cost(cfg) -> dict:
    """The report's cost block, recomputed from ``costs`` for the final head."""
    head = _head(cfg, cfg.plan.num_classes)
    link = _link(cfg)
    msg = model.head_message_bytes(head)
    fed_s = costs.federated_epoch_time(costs.HPM, link, cfg.plan.num_nodes, msg)
    clock = 0.0
    for n_bytes in link_messages(cfg):
        clock += costs.message_time(link, n_bytes)
    return {
        "message_bytes": msg,
        "federated_epoch_s": fed_s,
        "epoch_energy_lpm_j": costs.epoch_energy(costs.LPM),
        "epoch_energy_hpm_j": costs.epoch_energy(costs.HPM),
        "free_local_epochs": costs.free_local_epochs(fed_s, costs.LPM.local_epoch_latency_s),
        "peak_training_memory_bytes": costs.peak_training_memory(head, cfg.loss.batch_size),
        "total_comm_s": clock,
    }


def report_bytes(w: Workload, out: PassOutput) -> dict:
    """strategy -> canonical report bytes. desk reads what the pass wrote;
    the others serialize here, outside the timed pass."""
    got = {}
    for cfg in w.configs:
        path = w.out_dir / cfg.strategy / "report.json"
        if w.name != "desk":
            path.parent.mkdir(exist_ok=True)
            harness.emit_report(out.reports[cfg.strategy], path)
        got[cfg.strategy] = path.read_bytes()
    return got


def check(w: Workload, out: PassOutput, got: dict, first: dict | None) -> list:
    """Problems with one pass's outputs; empty when every check holds.

    ``got`` is ``report_bytes`` of this pass, ``first`` that of the run's
    first pass (None for the first pass itself).
    """
    problems = []
    blocks = {}
    for cfg in w.configs:
        s = cfg.strategy
        raw = got[s]
        if w.seed == DIGEST_SEED and hashlib.sha256(raw).hexdigest() != DIGESTS[w.name][s]:
            problems.append(f"{s}: report differs from the seed commit's at seed {w.seed}")
        if first is not None and raw != first[s]:
            problems.append(f"{s}: report bytes differ from the run's first pass")
        try:
            rep = json.loads(raw)
        except ValueError:
            problems.append(f"{s}: report is not valid JSON")
            continue
        if rep.get("cost") != expected_cost(cfg):
            problems.append(f"{s}: cost block differs from the costs model")
        comm = [r["comm_s"] for ses in rep.get("sessions", [])[1:] for r in ses["rounds"]]
        if comm != round_comm_s(cfg):
            problems.append(f"{s}: per-round comm_s differs from the link model")
        blocks[s] = json.dumps(rep.get("sessions", [None])[0], sort_keys=True)
        if w.name == "desk":
            problems += _check_desk_files(w, cfg, out)
    if w.name == "desk":
        if len(set(blocks.values())) != 1:
            problems.append("strategies disagree on the session-0 block")
        if len(out.table.splitlines()) != 1 + len(w.configs):
            problems.append("report_table has the wrong number of rows")
        if len(out.gradcheck) != GRADCHECK_CASES or not all(r["ok"] for r in out.gradcheck):
            problems.append("gradcheck battery did not pass")
    return problems


def _check_desk_files(w: Workload, cfg, out: PassOutput) -> list:
    s = cfg.strategy
    problems = []
    if out.parsed.get(s) != out.reports[s]:
        problems.append(f"{s}: parse_report does not round-trip the report")
    rows = (w.out_dir / s / "trace.tsv").read_text().splitlines()[1:]
    sizes = link_messages(cfg)
    if [int(r.split("\t")[3]) for r in rows] != sizes:
        problems.append(f"{s}: trace.tsv message bytes differ from the link model")
    elif rows and float(rows[-1].split("\t")[0]) != expected_cost(cfg)["total_comm_s"]:
        problems.append(f"{s}: trace.tsv clock differs from total_comm_s")
    return problems
