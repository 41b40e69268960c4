"""Config-driven experiment driver and report I/O.

One experiment = one strategy (naive, odfcl or joint) over a session
plan, from a single seed. The seed is split hierarchically (``_rng``)
so data, initialization and the shuffle streams stay independent:
adding a consumer never perturbs the others. Central training (T0
pretraining, the joint strategy) runs ``federation.local_epoch`` on
one node that holds the pooled data, so the package has a single
minibatch-SGD loop. Reports are canonical JSON, byte reproducible for
identical configs.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field, fields, is_dataclass, replace
from pathlib import Path

import numpy as np

from .costs import (
    HPM,
    LPM,
    calibrated_uwb_link,
    epoch_energy,
    federated_epoch_time,
    free_local_epochs,
    peak_training_memory,
)
from .errors import (ConfigError, EvaluationError, NumericError, PlanError, _is_int,
                     check_fields, json_key)
from . import federation
from .federation import (
    MAX_TRAINING_BYTES,
    SimNetwork,
    _table_bytes,
    run_session,
    write_trace,
)
from .losses import ClassPartition, LossConfig
# not called here; kept importable because perfbench/layers.py wraps them on this module
from .losses import sgd_step, total_loss  # noqa: F401
from .sessions import evaluate  # noqa: F401
from .model import (
    _head,
    expand_classifier,
    head_message_bytes,
    init_head,
)
from .quant import INT8_MAX, INT8_MIN, build_backbone
from .sessions import (
    MAX_DATA_BYTES,
    MAX_SAMPLES,
    accuracy,
    make_plan,
    node_train_view,
    precompute_features,
    predict,
    read_manifest,
    registry_from_plan,
)
from .synthetic import SyntheticSpec, gen_synthetic

__all__ = [
    "MAX_TENSOR_ELEMENTS",
    "MAX_TRAINING_BYTES",
    "MAX_DATA_BYTES",
    "MAX_SAMPLES",
    "BackboneSpec",
    "HeadSpec",
    "PlanSpec",
    "TrainSpec",
    "CostSpec",
    "DataSpec",
    "ExperimentConfig",
    "STRATEGIES",
    "default_config",
    "config_to_dict",
    "config_from_dict",
    "load_config",
    "load_dataset",
    "save_config",
    "MetricsReport",
    "run_experiment",
    "emit_report",
    "parse_report",
    "strategy_block_bytes",
    "report_table",
]

STRATEGIES = ("naive", "odfcl", "joint")
# size caps: a config is rejected before anything is allocated when a
# head or backbone weight tensor holds more elements, the cost model's
# peak training memory or a training call's shuffle table is larger
# than ``federation.MAX_TRAINING_BYTES``, or its synthetic train+test
# data holds more int8 bytes than ``sessions.MAX_DATA_BYTES`` or more
# samples than ``sessions.MAX_SAMPLES``
MAX_TENSOR_ELEMENTS = 1 << 20


def _take(d: dict, allowed, where: str) -> dict:
    if not isinstance(d, dict):
        raise ConfigError(f"{where} must be a mapping, got {type(d).__name__}")
    unknown = set(d) - set(allowed)
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {sorted(unknown)}")
    return d


@dataclass(frozen=True)
class BackboneSpec:
    layer_dims: tuple = (4, 32, 48)
    weight_sigma: float = 0.25
    activation_range: float = 4.0

    def __post_init__(self):
        check_fields(self)
        if len(self.layer_dims) < 2 or any(d < 1 for d in self.layer_dims):
            raise ConfigError(f"layer_dims needs >= 2 positive entries, got {self.layer_dims}")
        if not self.activation_range > 0:
            raise ConfigError(f"activation_range must be positive, got {self.activation_range}")


@dataclass(frozen=True)
class HeadSpec:
    hidden: int = 24
    init_sigma: float = 0.1

    def __post_init__(self):
        check_fields(self)
        if self.hidden < 1:
            raise ConfigError(f"hidden must be positive, got {self.hidden}")
        if not self.init_sigma > 0:
            raise ConfigError(f"init_sigma must be positive, got {self.init_sigma}")


@dataclass(frozen=True)
class PlanSpec:
    num_classes: int = 10
    num_nodes: int = 3
    base_count: int = 4
    classes_per_session_per_node: int = 1

    def __post_init__(self):
        check_fields(self)


@dataclass(frozen=True)
class TrainSpec:
    t0_epochs: int = 60
    rounds_per_session: int = 6

    def __post_init__(self):
        check_fields(self)
        if self.t0_epochs < 0 or self.rounds_per_session < 0:
            raise ConfigError("epoch and round counts must be nonnegative")


@dataclass(frozen=True)
class CostSpec:
    calibration_bytes: int = 24576
    calibration_seconds: float = 1.7
    samples_per_epoch: int = 28

    def __post_init__(self):
        check_fields(self)
        if self.calibration_bytes < 1 or not self.calibration_seconds > 0:
            raise ConfigError("link calibration needs positive bytes and seconds")
        if self.samples_per_epoch < 1:
            raise ConfigError("samples_per_epoch must be positive")


@dataclass(frozen=True)
class DataSpec:
    """Either synthetic generation params or a manifest to load."""

    kind: str = "synthetic"
    train_per_class: int = 28
    test_per_class: int = 7
    input_shape: tuple = (4, 3, 3)
    sigma_between: float = 1.0
    sigma_within: float = 0.2
    input_scale: float = 0.05
    input_zero_point: int = 0
    manifest_dir: str = ""

    def __post_init__(self):
        check_fields(self)
        if self.kind not in ("synthetic", "manifest"):
            raise ConfigError(f"data kind must be synthetic or manifest, got {self.kind!r}")
        if not INT8_MIN <= self.input_zero_point <= INT8_MAX:
            raise ConfigError(f"input_zero_point must fit int8, got {self.input_zero_point}")
        if self.kind == "manifest" and not self.manifest_dir:
            raise ConfigError("manifest data needs manifest_dir")

    def synthetic_spec(self, num_classes: int) -> SyntheticSpec:
        return SyntheticSpec(
            num_classes=num_classes,
            train_per_class=self.train_per_class,
            test_per_class=self.test_per_class,
            input_shape=self.input_shape,
            sigma_between=self.sigma_between,
            sigma_within=self.sigma_within,
            input_scale=self.input_scale,
            input_zero_point=self.input_zero_point,
        )


@dataclass(frozen=True)
class ExperimentConfig:
    seed: int = 1234
    strategy: str = "odfcl"
    backbone: BackboneSpec = field(default_factory=BackboneSpec)
    head: HeadSpec = field(default_factory=HeadSpec)
    plan: PlanSpec = field(default_factory=PlanSpec)
    # desk default trains hotter than the LossConfig baseline: few sync
    # rounds of several local epochs is where the prox anchor pays off
    loss: LossConfig = field(default_factory=lambda: LossConfig(lr=0.1, local_epochs_per_round=5))
    train: TrainSpec = field(default_factory=TrainSpec)
    cost: CostSpec = field(default_factory=CostSpec)
    data: DataSpec = field(default_factory=DataSpec)

    def __post_init__(self):
        check_fields(self)
        if self.seed < 0:
            raise ConfigError(f"seed must be nonnegative, got {self.seed}")
        if self.strategy not in STRATEGIES:
            raise ConfigError(f"strategy must be one of {STRATEGIES}, got {self.strategy!r}")
        shape_only = self._check_sizes()
        if self.data.kind == "synthetic":
            self.data.synthetic_spec(self.plan.num_classes)  # checks shape and counts
            if self.backbone.layer_dims[0] != self.data.input_shape[0]:
                raise ConfigError(
                    f"backbone input channels {self.backbone.layer_dims[0]} do not match "
                    f"data channels {self.data.input_shape[0]}"
                )
        # surfaces infeasible class counts early, as a config problem
        try:
            plan = make_plan(**asdict(self.plan))
        except PlanError as e:
            raise ConfigError(str(e))
        if self.data.kind == "synthetic":
            self._check_shuffle_tables(plan)
        # the cost block, priced now: a link too slow to price fails before training
        try:
            link = calibrated_uwb_link(self.cost.calibration_bytes, self.cost.calibration_seconds)
            fed_s = federated_epoch_time(HPM, link, plan.num_nodes, head_message_bytes(shape_only))
            free_local_epochs(fed_s, LPM.local_epoch_latency_s)
        except NumericError as e:
            raise ConfigError(str(e)) from None

    def _check_sizes(self):
        """ConfigError if a weight tensor, training memory or data exceeds
        its cap; returns a shape-only head of the final shape."""
        dims = self.backbone.layer_dims
        # a class count below 1 is the plan's to reject
        feat, hidden, classes = dims[-1], self.head.hidden, max(self.plan.num_classes, 1)
        tensors = [("backbone layer", a, b) for a, b in zip(dims, dims[1:])]
        tensors += [("head conv", hidden, feat), ("head classifier", classes, hidden)]
        for name, rows, cols in tensors:
            if rows * cols > MAX_TENSOR_ELEMENTS:
                raise ConfigError(
                    f"{name} weights of {rows}x{cols} exceed the cap of {MAX_TENSOR_ELEMENTS}"
                )
        # a head of the configured shape; zero strides, so nothing is allocated
        size = hidden * (feat + 1) + classes * (hidden + 1)
        shape_only = _head(np.broadcast_to(np.float32(0.0), (size,)), feat, hidden, classes)
        peak = peak_training_memory(shape_only, self.loss.batch_size)
        if peak > MAX_TRAINING_BYTES:
            raise ConfigError(
                f"peak training memory of {peak} bytes exceeds the cap of {MAX_TRAINING_BYTES}"
            )
        d = self.data  # nonpositive counts are the data spec's to reject
        counts = (self.plan.num_classes, d.train_per_class + d.test_per_class, *d.input_shape)
        n_bytes = math.prod(max(n, 0) for n in counts)
        n_samples = math.prod(max(n, 0) for n in counts[:2])
        if d.kind == "synthetic" and n_bytes > MAX_DATA_BYTES:
            raise ConfigError(
                f"synthetic data of {n_bytes} int8 bytes exceeds the cap of {MAX_DATA_BYTES}"
            )
        if d.kind == "synthetic" and n_samples > MAX_SAMPLES:
            raise ConfigError(
                f"synthetic data of {n_samples} samples exceeds the cap of {MAX_SAMPLES}"
            )
        return shape_only

    def _check_shuffle_tables(self, plan):
        """ConfigError if a ``local_epoch`` call of the run would draw a
        shuffle table past ``MAX_TRAINING_BYTES``: T0 over the base
        classes, joint over the seen pool of the last session, a
        federated round over the largest node view. Synthetic data
        only; a manifest's sizes are checked by ``local_epoch``."""
        per_class, rounds = self.data.train_per_class, self.train.rounds_per_session
        local = self.loss.local_epochs_per_round
        views = [len(cs) for s in plan.sessions for cs in s.values()]
        calls = [("t0_epochs", self.train.t0_epochs, len(plan.base_classes))]
        if self.strategy == "joint":
            calls.append(("rounds_per_session x local_epochs_per_round", rounds * local,
                          len(plan.base_classes) + sum(views)))
        elif rounds:
            calls.append(("local_epochs_per_round", local, max(views, default=0)))
        for name, epochs, classes in calls:
            n_bytes = _table_bytes(epochs, classes * per_class)
            if n_bytes > MAX_TRAINING_BYTES:
                raise ConfigError(
                    f"{name} = {epochs} over {classes * per_class} training samples needs a "
                    f"shuffle table of {n_bytes} bytes, which exceeds the cap of "
                    f"{MAX_TRAINING_BYTES}"
                )


def default_config(strategy: str = "odfcl", seed: int = 1234) -> ExperimentConfig:
    return ExperimentConfig(seed=seed, strategy=strategy)


# -- config (de)serialization ------------------------------------------------

def config_to_dict(cfg: ExperimentConfig) -> dict:
    """``cfg`` as plain JSON values: a mapping per section, keyed by
    each field's ``json_key``, tuples as lists."""

    def plain(v):
        if is_dataclass(v):
            return {json_key(f): plain(getattr(v, f.name)) for f in fields(v)}
        return list(v) if isinstance(v, tuple) else v

    return plain(cfg)


def config_from_dict(d: dict) -> ExperimentConfig:
    """The config ``d`` describes: its keys replace those of
    ``ExperimentConfig()`` section by section, so a key it leaves out
    keeps the experiment's default."""
    base = ExperimentConfig()
    changes = {}
    for name, value in _take(d, [f.name for f in fields(base)], "config").items():
        section = getattr(base, name)
        if is_dataclass(section):
            names = {json_key(f): f.name for f in fields(section)}
            value = replace(section, **{names[k]: v for k, v in _take(value, names, name).items()})
        changes[name] = value
    return replace(base, **changes)


def _read_json(p: Path, what: str):
    """Parsed JSON file; ConfigError if it is missing, unreadable, not
    UTF-8 or not JSON."""
    try:
        return json.loads(p.read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise ConfigError(f"{what} file not found: {p}") from None
    except OSError as e:
        raise ConfigError(f"cannot read {what} {p}: {e.strerror or e}") from None
    except UnicodeDecodeError as e:
        raise ConfigError(f"{what} {p} is not UTF-8 text ({e.reason})") from None
    except (json.JSONDecodeError, RecursionError) as e:
        raise ConfigError(f"{what} {p} is not valid JSON: {e}") from None


def load_config(path) -> ExperimentConfig:
    return config_from_dict(_read_json(Path(path), "config"))


def save_config(cfg: ExperimentConfig, path) -> None:
    Path(path).write_text(json.dumps(config_to_dict(cfg), sort_keys=True, indent=2) + "\n")


# -- the experiment ----------------------------------------------------------


@dataclass(frozen=True)
class MetricsReport:
    """Everything one run produced: per-session metrics plus cost summary."""

    seed: int
    strategy: str
    config: dict
    sessions: list
    cost: dict

    def __post_init__(self):
        last = -1
        for s in self.sessions:
            if s["session"] != last + 1:
                raise EvaluationError("sessions must be consecutive from 0")
            last = s["session"]
            for key in ("accuracy_seen", "accuracy_base"):
                if not 0.0 <= s[key] <= 1.0:
                    raise EvaluationError(f"{key}={s[key]} outside [0, 1]")

    def final_accuracy(self) -> float:
        return self.sessions[-1]["accuracy_seen"]


def _central_epochs(head, view, cfg: LossConfig, epochs: int, part, rng):
    """Central training (T0, joint): local epochs of one node on pooled data."""
    # looked up at call time, so a wrapper on federation (a tracer) sees it
    (head,), _ = federation.local_epoch([head], [view], [part], cfg, rng, epochs)
    return head


def _rng(seed: int, stream: int) -> np.random.Generator:
    """Independent stream of ``seed``: 0 data, 1 backbone, 2 head init,
    3 T0, 4 federated shuffles, 5 joint shuffles."""
    return np.random.default_rng(np.random.SeedSequence(seed).spawn(stream + 1)[stream])


def load_dataset(cfg: ExperimentConfig) -> tuple:
    """(train, test) of a run: generated from the data stream, or read
    from the manifest, which must hold train and test rows of every
    planned class in frames of the backbone's channel count."""
    if cfg.data.kind == "synthetic":
        return gen_synthetic(cfg.data.synthetic_spec(cfg.plan.num_classes), _rng(cfg.seed, 0))
    train, test = read_manifest(cfg.data.manifest_dir)
    for ds, rows in ((train, "training"), (test, "test")):
        missing = sorted(set(range(cfg.plan.num_classes)) - set(ds.classes.tolist()))
        if missing:
            raise ConfigError(f"manifest lacks {rows} classes {missing}")
        if ds.frames.shape[1] != cfg.backbone.layer_dims[0]:
            raise ConfigError(f"manifest {rows} frames have {ds.frames.shape[1]} channels, "
                              f"the backbone takes {cfg.backbone.layer_dims[0]}")
    return train, test


def run_experiment(cfg: ExperimentConfig, trace_out=None) -> MetricsReport:
    """Execute one strategy over the full session plan.

    All strategies share the T0 head: pretraining consumes dedicated
    RNG streams, so naive, odfcl and joint runs from the same seed
    start every session sequence from identical parameters. Pass
    ``trace_out`` to dump the simulated link's event log.
    """
    rng_backbone, rng_head, rng_t0, rng_fed, rng_joint = (_rng(cfg.seed, i) for i in range(1, 6))
    plan = make_plan(**asdict(cfg.plan))
    registry = registry_from_plan(plan)
    train, test = load_dataset(cfg)
    backbone = build_backbone(
        cfg.backbone.layer_dims,
        rng_backbone,
        weight_sigma=cfg.backbone.weight_sigma,
        activation_range=cfg.backbone.activation_range,
    )
    train_f, test_f = (precompute_features(backbone, ds) for ds in (train, test))

    # T0: joint pretraining of the head on the base classes, plain CE
    ce_cfg = replace(cfg.loss, mu=0.0, lam=0.0)
    base = list(plan.base_classes)
    base_part = ClassPartition(frozenset(), frozenset(base))
    head = init_head(backbone.feature_dim, cfg.head.hidden, len(base), rng_head, cfg.head.init_sigma)
    rows = np.isin(train.classes, base)
    head = _central_epochs(head, (train_f[rows], train.classes[rows]), ce_cfg,
                           cfg.train.t0_epochs, base_part, rng_t0)

    scored = []  # head, seen, truth, hits of the last scoring

    def hits_of(h, seen) -> list:
        # one prediction vector over the seen classes' test samples; a session's
        # last round scores the head its row reports, so the row reuses that pass
        if scored[:2] != [h, seen]:
            rows = np.isin(test.classes, seen)
            truth = test.classes[rows]
            scored[:] = h, seen, truth, predict(h, test_f[rows], seen) == truth
        return scored[2:]

    def scores(h, seen) -> dict:
        # the base and per-class rates narrow the scored samples, never
        # the argmax (the usual forgetting measurement)
        truth, hits = hits_of(h, seen)
        return {
            "accuracy_seen": accuracy(hits),
            "accuracy_base": accuracy(hits[np.isin(truth, base)]),
            "accuracy_per_class": {str(c): accuracy(hits[truth == c]) for c in seen},
        }

    sessions = [{"session": 0, "seen_classes": base, "new_classes": base, "rounds": [],
                 **scores(head, base)}]

    link = calibrated_uwb_link(cfg.cost.calibration_bytes, cfg.cost.calibration_seconds)
    net = SimNetwork(link)

    # strategy semantics: naive is the federated pipeline with both
    # regularizers off; odfcl uses the configured weights; joint pools
    # all seen data centrally with plain CE as the upper bound.
    fed_cfg = ce_cfg if cfg.strategy == "naive" else cfg.loss

    for t in range(1, plan.num_sessions + 1):
        new_ids = plan.session_classes(t)
        seen = registry.seen_through(t)
        old = registry.seen_through(t - 1)
        head = expand_classifier(head, new_ids)
        trace = []
        if cfg.strategy == "joint":
            rows = np.isin(train.classes, seen)
            epochs = cfg.train.rounds_per_session * cfg.loss.local_epochs_per_round
            part = ClassPartition(frozenset(), frozenset(seen))
            head = _central_epochs(head, (train_f[rows], train.classes[rows]), ce_cfg, epochs,
                                   part, rng_joint)
        else:
            masks = [node_train_view(train, plan, t, n) for n in range(plan.num_nodes)]
            views = [(train_f[m], train.classes[m]) for m in masks]
            parts = [ClassPartition(frozenset(old), frozenset(plan.node_classes(t, n)))
                     for n in range(plan.num_nodes)]
            head, trace = run_session(
                head, net, cfg.train.rounds_per_session, views, parts, fed_cfg,
                rng_fed, evaluator=lambda h: accuracy(hits_of(h, seen)[1]),
            )
        sessions.append({"session": t, "seen_classes": seen, "new_classes": new_ids,
                         "rounds": trace, **scores(head, seen)})

    msg_bytes = head_message_bytes(head)
    fed_s = federated_epoch_time(HPM, link, plan.num_nodes, msg_bytes)
    cost = {
        "message_bytes": msg_bytes,
        "federated_epoch_s": fed_s,
        "epoch_energy_lpm_j": epoch_energy(LPM),
        "epoch_energy_hpm_j": epoch_energy(HPM),
        "free_local_epochs": free_local_epochs(fed_s, LPM.local_epoch_latency_s),
        "peak_training_memory_bytes": peak_training_memory(head, cfg.loss.batch_size),
        "total_comm_s": net.clock_s,
    }
    if trace_out is not None:
        write_trace(net, trace_out)
    return MetricsReport(
        seed=cfg.seed,
        strategy=cfg.strategy,
        config=config_to_dict(cfg),
        sessions=sessions,
        cost=cost,
    )


# -- report I/O ---------------------------------------------------------------


def emit_report(r: MetricsReport, path) -> None:
    """Canonical JSON: sorted keys, two-space indent, trailing newline.

    Identical reports serialize to identical bytes, which is what the
    determinism checks compare.
    """
    payload = {f.name: getattr(r, f.name) for f in fields(r)}
    Path(path).write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")


def parse_report(path) -> MetricsReport:
    p = Path(path)
    raw = _read_json(p, "report")
    keys = [f.name for f in fields(MetricsReport)]
    raw = _take(raw, keys, f"report {p}")
    missing = [k for k in keys if k not in raw]
    if missing:
        raise ConfigError(f"report {p} lacks keys {missing}")
    if not isinstance(raw["strategy"], str):
        raise ConfigError(f"report {p}: strategy must be a string, got {raw['strategy']!r}")
    _check_session_rows(raw["sessions"], p)
    try:
        return MetricsReport(**{k: raw[k] for k in keys})
    except EvaluationError as e:
        raise ConfigError(f"report {p}: {e}") from None


def _check_session_rows(rows, p: Path) -> None:
    """ConfigError unless ``rows`` is a list of mappings, each with an
    int ``session`` and numeric accuracies; ranges stay with MetricsReport."""
    if not isinstance(rows, list) or not all(isinstance(r, dict) for r in rows):
        raise ConfigError(f"report {p}: sessions must be a list of mappings")
    for i, row in enumerate(rows):
        if not _is_int(row.get("session")):
            raise ConfigError(f"report {p}: sessions[{i}] needs an integer 'session'")
        for key in ("accuracy_seen", "accuracy_base"):
            v = row.get(key)
            if isinstance(v, bool) or not isinstance(v, (int, float)):
                raise ConfigError(f"report {p}: sessions[{i}].{key} must be a number, got {v!r}")


def strategy_block_bytes(r: MetricsReport) -> bytes:
    """Session results + cost, serialized without the config echo.

    Two runs that differ only in declared strategy labels (naive vs
    odfcl with both weights zero) must agree on these bytes exactly.
    """
    return json.dumps(
        {"sessions": r.sessions, "cost": r.cost}, sort_keys=True, indent=2
    ).encode()


def report_table(reports) -> str:
    """Accuracy [%] per strategy and session, one row per report."""
    reports = list(reports)
    if not reports:
        raise EvaluationError("no reports to tabulate")
    n_sessions = max(len(r.sessions) for r in reports)
    header = "strategy   " + "  ".join(f"T{t}[%]" for t in range(n_sessions))
    lines = [header]
    for r in reports:
        cells = [f"{100.0 * s['accuracy_seen']:5.1f}" for s in r.sessions]
        lines.append(f"{r.strategy:<10} " + "  ".join(cells))
    return "\n".join(lines) + "\n"
