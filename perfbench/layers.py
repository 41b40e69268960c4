"""Where the traced pass records spans and counts, and the per-layer metrics.

Each site wraps one public function at the module attribute its caller
looks up. ``total_loss`` is wrapped twice under two names, split by the
calling module: ``harness`` (T0 and joint) or ``federation`` (local
epochs). ``costs`` gets no span (pure arithmetic), nor does ``tensor``
(its kernels run inside the ``losses`` and ``model`` spans).
"""

from __future__ import annotations

from fedswarm import federation

from spans import layer_times, resolve


def _by_strategy(cfg, *args, **kwargs):
    return f"harness.run_experiment.{cfg.strategy}"


def _batch_samples(counts, head, batch, *args, **kwargs):
    counts["losses.total_loss.samples"] += len(batch)


def _evaluate_samples(counts, model, ds_test, seen_classes, features=None, sample_classes=None):
    scored = set(int(c) for c in (seen_classes if sample_classes is None else sample_classes))
    counts["sessions.evaluate.samples_scanned"] += len(ds_test.samples)
    counts["sessions.evaluate.samples_scored"] += sum(
        1 for s in ds_test.samples if s.class_id in scored
    )


# (module the caller looks the function up on, attribute, span name, counter)
SITES = (
    ("fedswarm.harness", "run_experiment", _by_strategy, None),
    ("fedswarm.harness", "emit_report", "harness.emit_report", None),
    ("fedswarm.harness", "parse_report", "harness.parse_report", None),
    ("fedswarm.harness", "write_trace", "federation.write_trace", None),
    ("fedswarm.harness", "total_loss", "losses.total_loss.central", _batch_samples),
    ("fedswarm.federation", "total_loss", "losses.total_loss.local", _batch_samples),
    ("fedswarm.harness", "sgd_step", "losses.sgd_step", None),
    ("fedswarm.federation", "sgd_step", "losses.sgd_step", None),
    ("fedswarm.harness", "run_session", "federation.run_session", None),
    ("fedswarm.federation", "local_epoch", "federation.local_epoch", None),
    ("fedswarm.federation", "sync_round", "federation.sync_round", None),
    ("fedswarm.federation", "fedavg", "federation.fedavg", None),
    ("fedswarm.sessions", "backbone_forward", "quant.backbone_forward", None),
    ("fedswarm.harness", "precompute_features", "sessions.precompute_features", None),
    ("fedswarm.harness", "evaluate", "sessions.evaluate", _evaluate_samples),
    ("fedswarm.sessions", "head_logits", "model.head_logits", None),
    ("fedswarm.harness", "read_manifest", "sessions.read_manifest", None),
    ("fedswarm.harness", "gen_synthetic", "synthetic.gen_synthetic", None),
    ("fedswarm.synthetic", "gen_synthetic", "synthetic.gen_synthetic", None),
    ("fedswarm.sessions", "write_manifest", "sessions.write_manifest", None),
    ("fedswarm.gradcheck", "run_gradcheck", "gradcheck.run_gradcheck", None),
)

SPAN_NAMES = (
    "harness.run_experiment.naive",
    "harness.run_experiment.odfcl",
    "harness.run_experiment.joint",
    "harness.emit_report",
    "harness.parse_report",
    "federation.write_trace",
    "losses.total_loss.central",
    "losses.total_loss.local",
    "losses.sgd_step",
    "federation.run_session",
    "federation.local_epoch",
    "federation.sync_round",
    "federation.fedavg",
    "quant.backbone_forward",
    "sessions.precompute_features",
    "sessions.evaluate",
    "model.head_logits",
    "sessions.read_manifest",
    "synthetic.gen_synthetic",
    "sessions.write_manifest",
    "gradcheck.run_gradcheck",
)
# spans the benchmark itself opens around set-up and the traced pass
ROOTS = ("setup", "pass")

COUNTERS = (
    ("losses.total_loss.samples", "count"),
    ("federation.link_messages", "count"),
    ("federation.link_bytes", "B"),
    ("sessions.evaluate.samples_scanned", "count"),
    ("sessions.evaluate.samples_scored", "count"),
)

PER_LAYER = tuple(
    [(f"{n}.{k}", u) for n in SPAN_NAMES for k, u in (("calls", "count"), ("busy_s", "s"), ("self_s", "s"))]
    + list(COUNTERS)
    + [
        ("sessions.evaluate.scored_per_scanned", "ratio"),
        ("trace.run_s_traced", "s"),
        ("trace.run_s_untraced", "s"),
        ("trace.overhead_s", "s"),
    ]
)


def patches(tracer) -> list:
    """(target, attribute, wrapped) for ``spans.installed``."""
    out = []
    for target, attr, name, count in SITES:
        out.append((target, attr, tracer.wrap(getattr(resolve(target), attr), name, count)))
    send = federation.SimNetwork.send

    def counted_send(net, msg):
        tracer.counts["federation.link_messages"] += 1
        tracer.counts["federation.link_bytes"] += msg.byte_size
        return send(net, msg)

    out.append(("fedswarm.federation:SimNetwork", "send", counted_send))
    return out


def per_layer(tracer, run_s_untraced: float, run_s_traced: float) -> dict:
    """name -> (value, unit) for every PER_LAYER metric; zero when unused."""
    times = layer_times(tracer.spans)
    unknown = set(times) - set(SPAN_NAMES) - set(ROOTS)
    if unknown:
        raise RuntimeError(f"spans without a metric: {sorted(unknown)}")
    values = dict(tracer.counts)
    for n in SPAN_NAMES:
        calls, busy, self_s = times.get(n, (0, 0.0, 0.0))
        values.update({f"{n}.calls": calls, f"{n}.busy_s": busy, f"{n}.self_s": self_s})
    scanned = values.get("sessions.evaluate.samples_scanned", 0)
    values["sessions.evaluate.scored_per_scanned"] = (
        values.get("sessions.evaluate.samples_scored", 0) / scanned if scanned else 0.0
    )
    values["trace.run_s_traced"] = run_s_traced
    values["trace.run_s_untraced"] = run_s_untraced
    values["trace.overhead_s"] = run_s_traced - run_s_untraced
    return {name: (values.get(name, 0), unit) for name, unit in PER_LAYER}
