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
import os
from collections import Counter
from dataclasses import dataclass, field, fields, is_dataclass, replace
from pathlib import Path

import numpy as np

from .costs import calibrated_uwb_link, cost_block
from .errors import (ConfigError, EvaluationError, NumericError, PlanError, _is_finite,
                     _is_int, _plain, check_budget, check_fields, json_key)
from . import federation
from .federation import SimNetwork, _lockstep_bytes, run_session, write_trace
from .losses import ClassPartition, LossConfig
# not called here; kept importable because perfbench/layers.py wraps them on this module
from .losses import sgd_step, total_loss  # noqa: F401
from .sessions import evaluate  # noqa: F401
from .model import _shape_head, _size, expand_classifier, init_head
from .quant import INT8_MAX, INT8_MIN, _backbone_bytes, _check_acc_bound, build_backbone
from .sessions import (
    _MANIFEST_NAME,
    _head_rows,
    _split_bytes,
    SessionPlan,
    accuracy,
    node_train_view,
    precompute_features,
    predict,
    read_manifest,
    _write_file,
)
from .synthetic import _DRAW_BLOCK, SyntheticSpec, gen_synthetic
from .tensor import _SCAN_BLOCK

__all__ = [
    "BackboneSpec",
    "HeadSpec",
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
# the plan section's old name, kept only for the frozen perfbench/workloads.py
PlanSpec = SessionPlan


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
        # build_backbone's weights are within +-127 and its biases zero
        for li, c_in in enumerate(self.layer_dims[:-1]):
            try:
                _check_acc_bound(li, [0], [c_in * INT8_MAX])
            except NumericError as e:
                raise ConfigError(str(e)) from None
        if not self.weight_sigma > 0:
            raise ConfigError(f"weight_sigma must be positive, got {self.weight_sigma}")
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
    plan: SessionPlan = field(default_factory=SessionPlan)
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
        if self.data.kind == "synthetic":
            self.data.synthetic_spec(self.plan.num_classes)  # checks shape and counts
            if self.backbone.layer_dims[0] != self.data.input_shape[0]:
                raise ConfigError(
                    f"backbone input channels {self.backbone.layer_dims[0]} do not match "
                    f"data channels {self.data.input_shape[0]}"
                )
        check_budget(_host_price(self))  # a manifest's rows again once read
        # the cost block, priced now: a link too slow to price fails before training
        try:
            link = calibrated_uwb_link(self.cost.calibration_bytes, self.cost.calibration_seconds)
            head = _shape_head(self.backbone.layer_dims[-1], self.head.hidden, self.plan.num_classes)
            cost_block(head, link, self.plan.num_nodes, self.loss.batch_size)
        except NumericError as e:
            raise ConfigError(str(e)) from None


def _host_price(cfg: ExperimentConfig, splits=None) -> dict:
    """Host bytes a run of ``cfg`` takes at most, by term, as arithmetic
    on counts: from the config for synthetic data, from the read
    (train, test) ``splits`` for a manifest (no rows before it is read).
    Terms never held at once are added all the same; the report's
    accuracy entries grow as the sum of base + t * S over sessions t."""
    plan = cfg.plan
    d, k, n, base = cfg.data, plan.num_classes, plan.num_nodes, plan.base_count
    last, per = plan.num_sessions, plan.classes_per_session_per_node
    fd, b, local = cfg.backbone.layer_dims[-1], cfg.loss.batch_size, cfg.loss.local_epochs_per_round
    # train rows of T0, and {view rows: nodes} of each session priced
    if splits is None:  # synthetic data, priced at the last session, or a manifest unread
        tr, te, shape = ((d.train_per_class, d.test_per_class, d.input_shape)
                         if d.kind == "synthetic" else (0, 0, (1, 1, 1)))
        shapes, sizes, dim = (shape,) * 2, (k * tr, k * te), math.prod(shape)
        # the generator's float64 class centers and one draw's blocks
        data = 8 * dim * (k + 6 * min(max(tr, te), max(1, _DRAW_BLOCK // dim))) if tr else 0
        t0, views = base * tr, [(last, {per * tr: n})] if last else []
    else:  # a manifest, priced at each session
        shapes, sizes = [ds.frames.shape[1:] for ds in splits], [len(ds) for ds in splits]
        data = _split_bytes(0, 0, os.path.getsize(Path(d.manifest_dir) / _MANIFEST_NAME))
        classes = splits[0].classes
        counts = np.bincount(classes[(classes >= 0) & (classes < k)], minlength=k)
        t0 = int(counts[:base].sum())
        views = [(t, Counter(int(counts[list(plan.node_classes(t, i))].sum()) for i in range(n)))
                 for t in range(1, last + 1)]
    dims = lambda classes: (fd, cfg.head.hidden, classes)  # noqa: E731
    rounds, p = cfg.train.rounds_per_session, _size(dims(k))
    if cfg.strategy == "joint":  # its pool grows to every class, at most every row
        session = _lockstep_bytes(dims(k), {sizes[0]: 1}, b, rounds * local) if last else 0
        entries = 0
    else:  # a round holds each node's loss and link events
        session = max([_lockstep_bytes(dims(base + t * n * per), nodes, b, local)
                       for t, nodes in views if rounds], default=0)
        entries = last * rounds * (3 * n + 4)
    return {
        "data frames": data + sum(map(_split_bytes, sizes, map(math.prod, shapes))),
        "train features": 4 * fd * sizes[0],
        "test features": 4 * fd * sizes[1],
        "backbone": _backbone_bytes(cfg.backbone.layer_dims,
                                    max(math.prod(s[1:]) for s in shapes)),
        "T0 lockstep": _lockstep_bytes(dims(base), {t0: 1}, b, cfg.train.t0_epochs),
        # with the row masks of two sessions' node views and of the pools
        "session lockstep": session + (2 * n + 64) * sizes[0],
        # the scored rows' features, logits and masks, and head_logits' chunks
        "evaluation": sizes[1] * (4 * fd + 8 * k + 64) + 8 * p
        + 16 * p * min(max(1, sizes[1]), max(1, _SCAN_BLOCK // p)),
        # 256 bytes an entry at most (measured: about 150 an accuracy entry)
        "report rows": 256 * (entries + (last + 1) * base + n * per * last * (last + 1) // 2),
    }


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
    keeps the experiment's default; a plan that cannot be dealt is a ConfigError."""
    base = ExperimentConfig()
    changes = {}
    for name, value in _take(d, [f.name for f in fields(base)], "config").items():
        section = getattr(base, name)
        if is_dataclass(section):
            names = {json_key(f): f.name for f in fields(section)}
            value = {names[k]: v for k, v in _take(value, names, name).items()}
            try:  # the plan section checks itself as it is built
                value = replace(section, **value)
            except PlanError as e:
                raise ConfigError(str(e)) from None
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
    _write_file(path, (json.dumps(config_to_dict(cfg), sort_keys=True, indent=2) + "\n").encode())


# -- the experiment ----------------------------------------------------------


@dataclass(frozen=True)
class MetricsReport:
    """Everything one run produced: per-session metrics plus cost summary.

    EvaluationError unless ``strategy`` is a string and ``sessions`` a
    list of mappings, one per session from 0 on, each with an integer
    ``session`` and accuracies that are finite numbers in [0, 1], a
    numpy one stored as the Python number it equals; a parsed report and
    a report built in code get the same checks."""

    seed: int
    strategy: str
    config: dict
    sessions: list
    cost: dict

    def __post_init__(self):
        if not isinstance(self.strategy, str):
            raise EvaluationError(f"strategy must be a string, got {self.strategy!r}")
        rows = self.sessions
        if not isinstance(rows, list) or not all(isinstance(s, dict) for s in rows):
            raise EvaluationError("sessions must be a list of mappings")
        if not rows:
            raise EvaluationError("a report needs session 0")
        for i, s in enumerate(rows):
            if not _is_int(s.get("session")):
                raise EvaluationError(f"sessions[{i}] needs an integer 'session'")
            if s["session"] != i:
                raise EvaluationError("sessions must be consecutive from 0")
            s["session"] = i
            for key in ("accuracy_seen", "accuracy_base"):
                v = s.get(key)
                if not _is_finite(v):
                    raise EvaluationError(f"sessions[{i}].{key} must be finite, got {v!r}")
                if not 0.0 <= v <= 1.0:
                    raise EvaluationError(f"{key}={v} outside [0, 1]")
                s[key] = _plain(v)

    def final_accuracy(self) -> float:
        return self.sessions[-1]["accuracy_seen"]


def _rng(seed: int, stream: int) -> np.random.Generator:
    """Independent stream of ``seed``: 0 data, 1 backbone, 2 head init,
    3 T0, 4 federated shuffles, 5 joint shuffles."""
    return np.random.default_rng(np.random.SeedSequence(seed).spawn(stream + 1)[stream])


def load_dataset(cfg: ExperimentConfig) -> tuple:
    """(train, test) of a run: generated from the data stream, or read
    from the manifest, which must hold train and test rows of every
    planned class in frames of the backbone's channel count and keep the
    run's price within the host budget (ConfigErrors otherwise)."""
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
    check_budget(_host_price(cfg, (train, test)))
    return train, test


def run_experiment(cfg: ExperimentConfig, trace_out=None) -> MetricsReport:
    """Execute one strategy over the full session plan.

    All strategies share the T0 head: pretraining consumes dedicated
    RNG streams, so naive, odfcl and joint runs from the same seed
    start every session sequence from identical parameters. Pass
    ``trace_out`` to dump the simulated link's event log.
    """
    rng_backbone, rng_head, rng_t0, rng_fed, rng_joint = (_rng(cfg.seed, i) for i in range(1, 6))
    plan = cfg.plan
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
    # looked up on federation at call time, so a wrapper there (a tracer) sees it
    (head,), _ = federation.local_epoch([head], [(train_f[rows], train.classes[rows])],
                                        [base_part], ce_cfg, rng_t0, cfg.train.t0_epochs)

    scored = []  # head, truth, hits of the last scoring

    def hits_of(h) -> list:
        # one prediction vector over the test samples of the head's classes; a
        # session's last round scores the head its row reports, so the row
        # reuses that pass
        if not (scored and scored[0] is h):
            rows = _head_rows(h, test.classes)
            truth = test.classes[rows]
            scored[:] = h, truth, predict(h, test_f[rows]) == truth
        return scored[1:]

    def scores(h) -> dict:
        # the base and per-class rates narrow the scored samples, never the
        # argmax (the usual forgetting measurement)
        truth, hits = hits_of(h)
        seen = range(h.num_classes)
        rows, right = (np.bincount(t, minlength=len(seen)).tolist() for t in (truth, truth[hits]))
        return {
            "accuracy_seen": accuracy(hits),
            "accuracy_base": accuracy(hits[np.isin(truth, base)]),
            "accuracy_per_class": {str(c): right[c] / rows[c] for c in seen},
        }

    sessions = [{"session": 0, "seen_classes": base, "new_classes": base, "rounds": [],
                 **scores(head)}]

    link = calibrated_uwb_link(cfg.cost.calibration_bytes, cfg.cost.calibration_seconds)
    net = SimNetwork(link)

    # strategy semantics: naive is the federated pipeline with both
    # regularizers off; odfcl uses the configured weights; joint pools
    # all seen data centrally with plain CE as the upper bound.
    fed_cfg = ce_cfg if cfg.strategy == "naive" else cfg.loss

    for t in range(1, plan.num_sessions + 1):
        new_ids = plan.session_classes(t)
        seen = plan.seen_through(t)
        old = plan.seen_through(t - 1)
        head = expand_classifier(head, len(new_ids))
        trace = []
        if cfg.strategy == "joint":
            rows = np.isin(train.classes, seen)
            epochs = cfg.train.rounds_per_session * cfg.loss.local_epochs_per_round
            part = ClassPartition(frozenset(), frozenset(seen))
            (head,), _ = federation.local_epoch([head], [(train_f[rows], train.classes[rows])],
                                                [part], ce_cfg, rng_joint, epochs)
        else:
            masks = [node_train_view(train, plan, t, n) for n in range(plan.num_nodes)]
            views = [(train_f[m], train.classes[m]) for m in masks]
            parts = [ClassPartition(frozenset(old), frozenset(plan.node_classes(t, n)))
                     for n in range(plan.num_nodes)]
            head, trace = run_session(
                head, net, cfg.train.rounds_per_session, views, parts, fed_cfg,
                rng_fed, evaluator=lambda h: accuracy(hits_of(h)[1]),
            )
        sessions.append({"session": t, "seen_classes": seen, "new_classes": new_ids,
                         "rounds": trace, **scores(head)})

    cost = {**cost_block(head, link, plan.num_nodes, cfg.loss.batch_size),
            "total_comm_s": net.clock_s}
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
    _write_file(path, (json.dumps(payload, sort_keys=True, indent=2) + "\n").encode())


def parse_report(path) -> MetricsReport:
    p = Path(path)
    raw = _read_json(p, "report")
    keys = [f.name for f in fields(MetricsReport)]
    raw = _take(raw, keys, f"report {p}")
    missing = [k for k in keys if k not in raw]
    if missing:
        raise ConfigError(f"report {p} lacks keys {missing}")
    try:
        return MetricsReport(**{k: raw[k] for k in keys})
    except EvaluationError as e:
        raise ConfigError(f"report {p}: {e}") from None


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
