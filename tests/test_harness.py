"""Synthetic data, experiment configs, the three-strategy driver, CLI."""

import contextlib
import errno
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
import typing
from dataclasses import fields, is_dataclass, replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fedswarm as fs
from fedswarm import errors, harness, sessions
from fedswarm.cli import main
from test_continual import _deadline


def _small_config(strategy="odfcl", seed=5, **over):
    base = dict(
        seed=seed,
        strategy=strategy,
        backbone=fs.BackboneSpec(layer_dims=(3, 6, 8)),
        head=fs.HeadSpec(hidden=5),
        plan=fs.make_plan(num_classes=8, num_nodes=2, base_count=4,
                          classes_per_session_per_node=1),
        loss=fs.LossConfig(mu=2.0, lam=3.8, lr=0.05, batch_size=4,
                           local_epochs_per_round=2),
        train=fs.TrainSpec(t0_epochs=4, rounds_per_session=3),
        data=fs.DataSpec(input_shape=(3, 2, 2), train_per_class=8, test_per_class=3),
    )
    base.update(over)
    return fs.ExperimentConfig(**base)


# -- synthetic data -------------------------------------------------------------


def test_synthetic_counts():
    spec = fs.SyntheticSpec(num_classes=10)
    train, test = fs.gen_synthetic(spec, np.random.default_rng(0))
    assert len(train) == 280 and len(test) == 70
    for c in range(10):
        assert np.count_nonzero(train.classes == c) == 28
        assert np.count_nonzero(test.classes == c) == 7


def test_synthetic_zero_within_noise_collapses_clusters():
    spec = fs.SyntheticSpec(num_classes=3, train_per_class=4, test_per_class=2,
                            sigma_within=0.0)
    train, test = fs.gen_synthetic(spec, np.random.default_rng(1))
    for c in range(3):
        group = np.concatenate([ds.frames.array[ds.classes == c] for ds in (train, test)])
        assert (group == group[0]).all()  # all equal the quantized center


def test_synthetic_deterministic():
    spec = fs.SyntheticSpec(num_classes=4, train_per_class=3, test_per_class=2)
    a = fs.gen_synthetic(spec, np.random.default_rng(7))
    b = fs.gen_synthetic(spec, np.random.default_rng(7))
    c = fs.gen_synthetic(spec, np.random.default_rng(8))
    # the splits agree field by field with a same-seed draw, and a
    # different seed changes the train split
    def same(x, y):
        return (x.split == y.split and np.array_equal(x.ids, y.ids)
                and np.array_equal(x.classes, y.classes) and x.frames.shape == y.frames.shape
                and x.frames.qparams == y.frames.qparams
                and np.array_equal(x.frames.array, y.frames.array))

    assert same(a[0], b[0]) and same(a[1], b[1])
    assert not same(a[0], c[0])


def test_synthetic_ids_globally_unique():
    spec = fs.SyntheticSpec(num_classes=4, train_per_class=3, test_per_class=2)
    train, test = fs.gen_synthetic(spec, np.random.default_rng(2))
    ids = train.ids.tolist() + test.ids.tolist()
    assert len(set(ids)) == len(ids) == 20


def _per_sample_synthetic(spec, rng):
    """The generator one sample at a time: one noise draw and one
    ``quantize`` call per sample, the order the batched draws follow."""
    dim = int(np.prod(spec.input_shape))
    centers = rng.standard_normal((spec.num_classes, dim)) * spec.sigma_between
    splits, sample_id = ([], []), 0
    for class_id in range(spec.num_classes):
        for bucket, count in zip(splits, (spec.train_per_class, spec.test_per_class)):
            for _ in range(count):
                x = centers[class_id] + rng.standard_normal(dim) * spec.sigma_within
                q = fs.quantize(x.reshape(spec.input_shape), spec.qparams)
                bucket.append((sample_id, class_id, q.array.tobytes(), q.shape, q.qparams))
                sample_id += 1
    return splits


@pytest.mark.parametrize("spec", [
    fs.SyntheticSpec(num_classes=10),
    fs.SyntheticSpec(num_classes=3, train_per_class=1, test_per_class=5, input_shape=(2, 1, 3)),
    fs.SyntheticSpec(num_classes=5, train_per_class=4, test_per_class=2, sigma_within=0.0),
    fs.SyntheticSpec(num_classes=2, train_per_class=3, test_per_class=3, sigma_between=40.0,
                     input_scale=0.02, input_zero_point=-7),
    # frames large enough that a split is drawn in several blocks
    fs.SyntheticSpec(num_classes=2, train_per_class=70, test_per_class=33, input_shape=(4, 16, 16)),
])
def test_synthetic_batched_draws_equal_the_per_sample_loop(spec):
    rng, ref_rng = np.random.default_rng(11), np.random.default_rng(11)
    got = [
        [(sid, cid, frame.tobytes(), frame.shape, ds.frames.qparams)
         for sid, cid, frame in zip(ds.ids.tolist(), ds.classes.tolist(), ds.frames.array)]
        for ds in fs.gen_synthetic(spec, rng)
    ]
    assert got == [list(b) for b in _per_sample_synthetic(spec, ref_rng)]
    # the generator is left where the per-sample draws leave it
    assert rng.bit_generator.state == ref_rng.bit_generator.state


def test_synthetic_spec_validation():
    with pytest.raises(fs.ConfigError):
        fs.SyntheticSpec(num_classes=0)
    with pytest.raises(fs.ConfigError):
        fs.SyntheticSpec(num_classes=2, sigma_between=0.0)
    with pytest.raises(fs.ConfigError):
        fs.SyntheticSpec(num_classes=2, sigma_within=-0.1)


# -- configuration ---------------------------------------------------------------


def test_config_dict_round_trip():
    cfg = _small_config()
    assert fs.config_from_dict(fs.config_to_dict(cfg)) == cfg


def test_config_file_round_trip(tmp_path):
    cfg = fs.default_config(strategy="joint", seed=99)
    path = tmp_path / "config.json"
    fs.save_config(cfg, path)
    assert fs.load_config(path) == cfg
    # the proximal weight is spelled "lambda" on disk
    assert "lambda" in json.loads(path.read_text())["loss"]


def test_config_rejects_unknown_keys():
    d = fs.config_to_dict(_small_config())
    d["typo"] = 1
    with pytest.raises(fs.ConfigError):
        fs.config_from_dict(d)
    d.pop("typo")
    d["loss"]["momentum"] = 0.9
    with pytest.raises(fs.ConfigError):
        fs.config_from_dict(d)


def test_config_validation():
    with pytest.raises(fs.ConfigError):
        _small_config(strategy="magic")
    with pytest.raises(fs.ConfigError):
        # channel count disagrees with the backbone input
        _small_config(data=fs.DataSpec(input_shape=(4, 2, 2)))
    with pytest.raises(fs.ConfigError):
        # 2 incremental classes cannot be dealt to 3 nodes, 1 each
        fs.config_from_dict({"plan": {"num_classes": 6, "num_nodes": 3, "base_count": 4}})
    with pytest.raises(fs.ConfigError):
        _small_config(data=fs.DataSpec(kind="manifest"))
    with pytest.raises(fs.ConfigError):
        fs.load_config("/nonexistent/config.json")
    # a plan built in Python is checked where it is built, as the plan it is
    with pytest.raises(fs.PlanError):
        fs.SessionPlan(6, 3, 4)
    assert fs.default_config().plan == fs.make_plan(10, 3, 4)
    for sigma in (-0.25, 0.0):  # a flipped backbone, or an all-zero one
        with pytest.raises(fs.ConfigError, match="weight_sigma must be positive"):
            _small_config(backbone=fs.BackboneSpec(layer_dims=(3, 6, 8), weight_sigma=sigma))


def test_config_omitted_keys_take_the_experiment_defaults():
    assert fs.config_from_dict({}) == fs.default_config()
    cfg = fs.config_from_dict({"seed": 7, "loss": {"mu": 1.0}})
    default = fs.default_config(seed=7)
    assert cfg == replace(default, loss=replace(default.loss, mu=1.0))
    assert (cfg.loss.lr, cfg.loss.local_epochs_per_round) == (0.1, 5)


def _section_fields(kind) -> list:
    """(section, JSON key) of every field of a config section annotated ``kind``."""
    cfg = fs.default_config()
    sections = [(s.name, getattr(cfg, s.name)) for s in fields(cfg)]
    return [(name, fs.errors.json_key(f)) for name, section in sections if is_dataclass(section)
            for f in fields(section) if typing.get_type_hints(type(section))[f.name] is kind]


@pytest.mark.parametrize("section, key", _section_fields(int))
@pytest.mark.parametrize("value", [1.5, True, "4"])
def test_config_rejects_non_integer_counts(section, key, value):
    d = fs.config_to_dict(_small_config())
    d[section][key] = value
    with pytest.raises(fs.ConfigError, match=key):
        fs.config_from_dict(d)


@pytest.mark.parametrize("section, key", _section_fields(float))
@pytest.mark.parametrize("value", [float("nan"), -math.inf, False, "0.5", None], ids=repr)
def test_config_rejects_non_finite_floats(section, key, value):
    d = fs.config_to_dict(_small_config())
    d[section][key] = value
    with pytest.raises(fs.ConfigError, match=key):
        fs.config_from_dict(d)


def test_config_rejects_integers_out_of_range():
    # JSON integers have no size limit: counts must fit 64 bits, and a
    # float field's int must fit a float
    for section, key, value in [("plan", "num_nodes", 2**63), ("head", "hidden", -(2**63) - 1),
                                ("loss", "mu", 10**400), ("cost", "calibration_seconds", -10**400)]:
        d = fs.config_to_dict(_small_config())
        d[section][key] = value
        with pytest.raises(fs.ConfigError, match=key):
            fs.config_from_dict(d)
    d = fs.config_to_dict(_small_config())
    d["plan"]["num_nodes"], d["loss"]["mu"] = 2**63 - 1, 10**300
    with pytest.raises(fs.ConfigError, match="incremental classes"):  # in range, fails the plan
        fs.config_from_dict(d)


MISTYPED = [
    {"seed": "abc"},
    {"seed": 12.5},
    {"seed": True},
    {"seed": -1},
    {"loss": {"lr": "0.1"}},
    {"loss": {"mu": None}},
    {"loss": {"lambda": False}},
    {"loss": {"mu": float("nan")}},
    {"cost": {"calibration_seconds": "x"}},
    {"cost": {"calibration_bytes": "24576"}},
    {"head": {"init_sigma": [0.1]}},
    {"backbone": {"layer_dims": "ab"}},
    {"backbone": {"layer_dims": [3, 6.0, 8]}},
    {"backbone": {"activation_range": None}},
    {"data": {"input_shape": [4, "a"]}},
    {"data": {"input_scale": "0.05"}},
    {"data": {"input_zero_point": 0.5}},
    {"data": {"manifest_dir": 7, "kind": "manifest"}},
    {"loss": 3},
]


@pytest.mark.parametrize("bad", MISTYPED, ids=json.dumps)
def test_config_rejects_mistyped_values(bad):
    d = fs.config_to_dict(_small_config())
    for section, value in bad.items():
        if isinstance(value, dict):
            d[section].update(value)
        else:
            d[section] = value
    with pytest.raises(fs.ConfigError):
        fs.config_from_dict(d)


def _report_row(**row):
    """The sessions of a one-session report built from ``row``."""
    row = {"session": 0, "accuracy_seen": 1.0, "accuracy_base": 1.0, **row}
    return fs.MetricsReport(0, "naive", {}, [row], {}).sessions


# (what is built, the error it maps to, or what it holds, compared by repr
# so that a numpy number does not pass for the Python one it equals)
NUMBERS = {
    # numpy numbers are taken and stored as the Python numbers they equal;
    # a Python int in a float field stays an int
    "numpy_seed": (lambda: fs.config_to_dict(fs.default_config(seed=np.int64(3)))["seed"], 3),
    "numpy_float32_lr": (lambda: fs.LossConfig(lr=np.float32(0.1)).lr, float(np.float32(0.1))),
    "numpy_float64_lr": (lambda: fs.LossConfig(lr=np.float64(0.1)).lr, 0.1),
    "numpy_int_mu": (lambda: fs.LossConfig(mu=np.int64(2)).mu, 2),
    "int_mu_echo": (lambda: fs.config_to_dict(fs.config_from_dict({"loss": {"mu": 2}}))["loss"]
                    ["mu"], 2),
    "numpy_shape": (lambda: fs.SyntheticSpec(2, input_shape=[np.int8(4), 3, 3]).input_shape,
                    (4, 3, 3)),
    "numpy_report_row": (lambda: _report_row(session=np.int64(0), accuracy_seen=np.float32(0.5)),
                         [{"session": 0, "accuracy_seen": 0.5, "accuracy_base": 1.0}]),
    # bools, fractions and strings are no integers, and nothing is truncated
    "spec_bool_classes": (lambda: fs.SyntheticSpec(num_classes=True), fs.ConfigError),
    "spec_fraction_count": (lambda: fs.SyntheticSpec(3, train_per_class=2.5), fs.ConfigError),
    "spec_string_classes": (lambda: fs.SyntheticSpec(num_classes="3"), fs.ConfigError),
    "spec_fraction_shape": (lambda: fs.SyntheticSpec(3, input_shape=(4, 3.5, 3)), fs.ConfigError),
    "numpy_bool_seed": (lambda: fs.default_config(seed=np.bool_(True)), fs.ConfigError),
    "seed_past_64_bits": (lambda: fs.default_config(seed=np.uint64(2**63)), fs.ConfigError),
    "numpy_nan_lr": (lambda: fs.LossConfig(lr=np.float32("nan")), fs.ConfigError),
    "numpy_bool_accuracy": (lambda: _report_row(accuracy_base=np.bool_(True)),
                            fs.EvaluationError),
    "numpy_nan_accuracy": (lambda: _report_row(accuracy_seen=np.float64("nan")),
                           fs.EvaluationError),
    "session_past_64_bits": (lambda: _report_row(session=2**64), fs.EvaluationError),
}


@pytest.mark.parametrize("case", sorted(NUMBERS))
def test_config_spec_and_report_numbers_follow_the_two_rules(case):
    build, expected = NUMBERS[case]
    if isinstance(expected, type):
        with pytest.raises(expected):
            build()
    else:
        assert repr(build()) == repr(expected)


def test_default_config_is_desk_scale():
    cfg = fs.default_config()
    assert cfg.plan.num_classes == 10
    assert cfg.plan.num_nodes == 3
    assert cfg.plan.base_count == 4
    assert cfg.loss.mu == 2.0 and cfg.loss.lam == 3.8
    assert cfg.data.train_per_class == 28 and cfg.data.test_per_class == 7
    # session budget: local epochs stay inside the free-epoch window
    assert cfg.train.rounds_per_session * cfg.loss.local_epochs_per_round <= 58


# -- experiments ------------------------------------------------------------------


def test_zero_incremental_sessions_identical_across_strategies():
    cfgs = {
        s: _small_config(strategy=s,
                         plan=fs.make_plan(num_classes=4, num_nodes=2, base_count=4),
                         data=fs.DataSpec(input_shape=(3, 2, 2), train_per_class=8,
                                          test_per_class=3))
        for s in fs.STRATEGIES
    }
    reports = {s: fs.run_experiment(c) for s, c in cfgs.items()}
    for r in reports.values():
        assert len(r.sessions) == 1
    accs = {r.sessions[0]["accuracy_seen"] for r in reports.values()}
    assert len(accs) == 1  # identical shared pretraining


def test_strategies_share_t0_exactly():
    reports = [fs.run_experiment(_small_config(strategy=s)) for s in fs.STRATEGIES]
    t0 = {r.sessions[0]["accuracy_seen"] for r in reports}
    assert len(t0) == 1


def test_report_structure_and_cost_block():
    cfg = _small_config()
    r = fs.run_experiment(cfg)
    assert r.strategy == "odfcl"
    assert [s["session"] for s in r.sessions] == [0, 1, 2]
    assert r.sessions[1]["seen_classes"] == [0, 1, 2, 3, 4, 5]
    assert r.sessions[2]["new_classes"] == [6, 7]
    for s in r.sessions:
        assert 0.0 <= s["accuracy_seen"] <= 1.0
        assert set(s["accuracy_per_class"]) == {str(c) for c in s["seen_classes"]}
    assert len(r.sessions[1]["rounds"]) == cfg.train.rounds_per_session
    p = 5 * 8 + 5 + 8 * 5 + 8  # head after both expansions
    assert r.cost["message_bytes"] == 4 * p
    assert r.cost["free_local_epochs"] >= 0
    assert r.cost["total_comm_s"] > 0.0


def _config_head_cost(cfg, total_comm_s):
    """``cost_block`` of a head of the config's final shape, plus the link clock."""
    head = fs.init_head(cfg.backbone.layer_dims[-1], cfg.head.hidden, cfg.plan.num_classes,
                        np.random.default_rng(0))
    link = fs.calibrated_uwb_link(cfg.cost.calibration_bytes, cfg.cost.calibration_seconds)
    return {**fs.cost_block(head, link, cfg.plan.num_nodes, cfg.loss.batch_size),
            "total_comm_s": total_comm_s}


@pytest.mark.parametrize("case", ["sessions", "zero_sessions", "manifest"])
@pytest.mark.parametrize("strategy", fs.STRATEGIES)
def test_report_cost_is_the_cost_block_of_the_config_head(tmp_path, strategy, case):
    # one pricing path: the run's cost block is the config head's, whatever
    # the strategy, the session count or where the data comes from
    cfg = _small_config(strategy=strategy, cost=fs.CostSpec(8304, 0.5, 40),
                        loss=fs.LossConfig(lr=0.05, batch_size=3, local_epochs_per_round=1))
    if case == "zero_sessions":
        cfg = replace(cfg, plan=fs.make_plan(num_classes=4, num_nodes=2, base_count=4))
    elif case == "manifest":
        fs.write_manifest(*fs.load_dataset(cfg), tmp_path)
        cfg = replace(cfg, data=fs.DataSpec(kind="manifest", manifest_dir=str(tmp_path)))
    r = fs.run_experiment(cfg)
    assert r.cost == _config_head_cost(cfg, r.cost["total_comm_s"])
    assert (r.cost["total_comm_s"] > 0.0) == (case != "zero_sessions" and strategy != "joint")


def test_run_experiment_deterministic():
    a = fs.run_experiment(_small_config())
    b = fs.run_experiment(_small_config())
    assert a.sessions == b.sessions and a.cost == b.cost


def test_naive_marks_no_regularizers():
    naive = fs.run_experiment(_small_config(strategy="naive"))
    zero = fs.run_experiment(
        _small_config(loss=fs.LossConfig(mu=0.0, lam=0.0, lr=0.05, batch_size=4,
                                         local_epochs_per_round=2))
    )
    assert fs.strategy_block_bytes(naive) == fs.strategy_block_bytes(zero)


def test_manifest_runs_match_synthetic_runs(tmp_path):
    cfg = _small_config()
    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed).spawn(1)[0])
    train, test = fs.gen_synthetic(cfg.data.synthetic_spec(cfg.plan.num_classes), rng)
    fs.write_manifest(train, test, tmp_path)
    from_disk = replace(
        cfg, data=fs.DataSpec(kind="manifest", manifest_dir=str(tmp_path))
    )
    a = fs.run_experiment(cfg)
    b = fs.run_experiment(from_disk)
    assert a.sessions == b.sessions  # data stream does not perturb training


def test_manifest_rows_outside_the_plan_are_never_scored(tmp_path):
    # the desk-default data as a manifest plus train and test rows of
    # class -1 and class 10 (the plan has 0..9): no view, pool or score
    # takes them, so the run's bytes are those of the synthetic data and
    # of the manifest without them
    for name in ("plain", "extra"):
        fs.write_manifest(*fs.load_dataset(fs.default_config()), tmp_path / name)
    manifest = tmp_path / "extra" / "manifest.tsv"
    rows = [ln.split("\t") for ln in manifest.read_text().splitlines()[1:]]
    sid = 1 + max(int(r[0]) for r in rows)
    with manifest.open("a") as f:
        for split in ("train", "test"):
            first = next(r for r in rows if r[1] == split)  # its blob is shared
            for cid in (-1, 10):
                f.write("\t".join([str(sid), split, str(cid)] + first[3:]) + "\n")
                sid += 1
    assert np.isin([-1, 10], fs.read_manifest(tmp_path / "extra")[1].classes).all()
    cfg = fs.default_config()
    runs = [cfg] + [replace(cfg, data=replace(cfg.data, kind="manifest",
                                              manifest_dir=str(tmp_path / name)))
                    for name in ("plain", "extra")]
    synthetic, plain, extra = (fs.strategy_block_bytes(fs.run_experiment(c)) for c in runs)
    assert extra == plain == synthetic


def test_trace_output(tmp_path):
    cfg = _small_config()
    path = tmp_path / "trace.tsv"
    fs.run_experiment(cfg, trace_out=path)
    lines = path.read_text().splitlines()
    rounds = cfg.train.rounds_per_session * 2  # two incremental sessions
    assert len(lines) == 1 + rounds * 2 * cfg.plan.num_nodes


def test_metrics_report_validation():
    with pytest.raises(fs.EvaluationError):
        fs.MetricsReport(0, "naive", {}, [{"session": 1, "accuracy_seen": 0.5,
                                           "accuracy_base": 0.5}], {})
    with pytest.raises(fs.EvaluationError):
        fs.MetricsReport(0, "naive", {}, [{"session": 0, "accuracy_seen": 1.5,
                                           "accuracy_base": 0.5}], {})
    with pytest.raises(fs.EvaluationError, match="session 0"):  # every run writes it
        fs.MetricsReport(0, "naive", {}, [], {})


# -- report files and tables --------------------------------------------------------


def test_emit_parse_round_trip(tmp_path):
    r = fs.run_experiment(_small_config())
    path = tmp_path / "report.json"
    fs.emit_report(r, path)
    assert fs.parse_report(path) == r


def test_report_table_layout():
    reports = [fs.run_experiment(_small_config(strategy=s)) for s in fs.STRATEGIES]
    table = fs.report_table(reports)
    lines = table.strip().splitlines()
    assert len(lines) == 4  # header + one row per strategy
    assert lines[0].split() == ["strategy", "T0[%]", "T1[%]", "T2[%]"]
    for ln, s in zip(lines[1:], fs.STRATEGIES):
        assert ln.startswith(s)
    with pytest.raises(fs.EvaluationError):
        fs.report_table([])


# -- CLI -------------------------------------------------------------------------


def _cli(*args, cwd=None):
    """``fedswarm *args`` as a new process: the smoke tests, one per subcommand."""
    return subprocess.run(
        [sys.executable, "-m", "fedswarm", *args],
        capture_output=True, text=True, cwd=cwd,
    )


def _main(*args):
    """``fedswarm *args`` run in process through ``cli.main``, as a
    CompletedProcess of its exit code and captured output.

    Each warning the call emits is appended to its stderr as Python's
    warning printer would write it, so stderr reads as the process's
    would; an exception that escapes ``main`` fails the test, as a
    traceback would. The call must leave numpy's error state, the working
    directory and ``sys.argv`` as it found them."""
    state = (np.geterr(), os.getcwd(), list(sys.argv))
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(list(args))
    for w in caught:
        err.write(warnings.formatwarning(w.message, w.category, w.filename, w.lineno, w.line))
    assert (np.geterr(), os.getcwd(), list(sys.argv)) == state, "main leaked process state"
    return subprocess.CompletedProcess(["fedswarm", *args], code, out.getvalue(), err.getvalue())


def test_cli_run_and_report(tmp_path):
    cfg_path = tmp_path / "config.json"
    fs.save_config(_small_config(), cfg_path)
    out = tmp_path / "out"
    res = _cli("run", "--config", str(cfg_path), "--out", str(out), "--trace")
    assert res.returncode == 0, res.stderr
    assert (out / "report.json").is_file()
    assert (out / "config.json").is_file()
    assert (out / "trace.tsv").is_file()
    assert "odfcl" in res.stdout

    rep = _cli("report", str(out))
    assert rep.returncode == 0
    assert rep.stdout.splitlines()[0].startswith("strategy")


def test_cli_strategy_override(tmp_path):
    cfg_path = tmp_path / "config.json"
    fs.save_config(_small_config(), cfg_path)
    out = tmp_path / "out"
    res = _main("run", "--config", str(cfg_path), "--out", str(out),
               "--strategy", "joint")
    assert res.returncode == 0, res.stderr
    assert fs.parse_report(out / "report.json").strategy == "joint"


def test_cli_gen_data(tmp_path):
    cfg_path = tmp_path / "config.json"
    fs.save_config(_small_config(), cfg_path)
    res = _cli("gen-data", "--config", str(cfg_path), "--out", str(tmp_path / "data"))
    assert res.returncode == 0, res.stderr
    train, test = fs.read_manifest(tmp_path / "data")
    assert len(train) == 8 * 8 and len(test) == 8 * 3


@pytest.mark.parametrize("command", ["run", "gen-data"])
@pytest.mark.parametrize("where", ["a_file", "under_a_file"])
def test_cli_unwritable_out_is_one_line_runtime_error(tmp_path, capsys, command, where):
    cfg_path = tmp_path / "config.json"
    fs.save_config(_small_config(), cfg_path)
    blocker = tmp_path / "taken"
    blocker.write_text("not a directory\n")
    out = blocker if where == "a_file" else blocker / "sub"
    assert main([command, "--config", str(cfg_path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    # the path named is the output directory or the first one under it
    assert err.startswith(f"error: cannot write {out}") and err.count("\n") == 1
    assert blocker.read_text() == "not a directory\n"


def _no_space(fd, data):
    raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


@pytest.mark.parametrize("blocker, reason", [
    ("enospc", os.strerror(errno.ENOSPC)),  # every write fails, as on a full disk
    ("fifo", os.strerror(errno.ENXIO)),  # no reader: refused at once, never waited on
    ("dev_full", "not a regular file"),
])
def test_cli_gen_data_unwritable_blob_is_one_line_runtime_error(tmp_path, monkeypatch,
                                                                 blocker, reason):
    cfg_path = tmp_path / "config.json"
    fs.save_config(_small_config(), cfg_path)
    out = tmp_path / "data"
    blob = out / "blobs" / "000000.bin"
    blob.parent.mkdir(parents=True)
    if blocker == "fifo":
        os.mkfifo(blob)
    elif blocker == "dev_full":
        blob.symlink_to("/dev/full")
    with monkeypatch.context() as m:
        if blocker == "enospc":
            m.setattr(os, "write", _no_space)
        res = _main("gen-data", "--config", str(cfg_path), "--out", str(out))
    assert res.returncode == 2
    assert res.stderr == f"error: cannot write {blob}: {reason}\n"
    assert not (out / "manifest.tsv").exists()


def _fifo(path):
    if not hasattr(os, "mkfifo"):
        pytest.skip("no os.mkfifo on this platform")
    os.mkfifo(path)


def _dev_full(path):
    if not os.path.exists("/dev/full"):
        pytest.skip("no /dev/full on this platform")
    path.symlink_to("/dev/full")


@pytest.mark.parametrize("make, reason", [
    (_fifo, os.strerror(errno.ENXIO)),  # no reader: refused at once, never waited on
    (_dev_full, "not a regular file"),  # every write would fail with ENOSPC
], ids=["fifo", "dev_full"])
@pytest.mark.parametrize("name", ["report.json", "config.json", "trace.tsv", "manifest.tsv"])
def test_cli_unwritable_output_file_is_one_line_runtime_error(tmp_path, name, make, reason):
    # every file the package writes goes through one writer, so each one
    # fails alike: exit 2, one line naming the file, and no wait on a FIFO
    cfg_path = tmp_path / "config.in.json"
    fs.save_config(_small_config(train=fs.TrainSpec(t0_epochs=1, rounds_per_session=1)),
                   cfg_path)
    out = tmp_path / "out"
    out.mkdir()
    make(out / name)
    args = ["gen-data"] if name == "manifest.tsv" else ["run", "--trace"]
    with _deadline(10):
        res = _main(*args, "--config", str(cfg_path), "--out", str(out))
    assert res.returncode == 2
    assert res.stderr == f"error: cannot write {out / name}: {reason}\n"


_COST_DEFAULT = """\
operating point   freq[MHz]  V[mV]  latency[ms]  power[mW]  energy[mJ]
LPM                     240    650        178.4       24.3        4.34
HPM                     370    800        117.6       53.1        6.24

head parameters            : 6144
message size [bytes]       : 24576
message time [s]           : 1.7
per-sample latency [ms]    : 6.371 (LPM, 28 samples)
federated epoch [s]        : 10.32 (HPM, 3 nodes)
free local epochs          : 57 (LPM)
peak training memory [B]   : 52704 (batch 4)
resident with copies [B]   : 101856
"""
_COST_SWARM = """\
operating point   freq[MHz]  V[mV]  latency[ms]  power[mW]  energy[mJ]
LPM                     240    650        178.4       24.3        4.34
HPM                     370    800        117.6       53.1        6.24

head parameters            : 2076
message size [bytes]       : 8304
message time [s]           : 0.5068
per-sample latency [ms]    : 4.46 (LPM, 40 samples)
federated epoch [s]        : 8.227 (HPM, 8 nodes)
free local epochs          : 46 (LPM)
peak training memory [B]   : 19680 (batch 8)
resident with copies [B]   : 36288
"""


def test_cli_cost():
    res = _cli("cost")
    assert (res.returncode, res.stdout, res.stderr) == (0, _COST_DEFAULT, "")


def test_cli_cost_of_a_config_prints_the_pinned_table(tmp_path):
    # 8 nodes over 36 classes, with its own batch, sample count and link
    # calibration
    path = tmp_path / "swarm.json"
    path.write_text(json.dumps({"plan": {"num_classes": 36, "num_nodes": 8},
                                "loss": {"batch_size": 8},
                                "cost": {"samples_per_epoch": 40, "calibration_seconds": 1.5}}))
    res = _main("cost", "--config", str(path))
    assert (res.returncode, res.stdout, res.stderr) == (0, _COST_SWARM, "")


@pytest.mark.parametrize("command", ["run", "report", "gradcheck", "cost", "gen-data"])
def test_cli_unwritable_stdout_is_one_line_runtime_error(tmp_path, command):
    # stdout on a full device: exit 2 with one stderr line, and no second
    # report of the same bytes when the interpreter flushes stdout at exit
    if not os.path.exists("/dev/full"):
        pytest.skip("no /dev/full on this platform")
    cfg_path = tmp_path / "config.json"
    fs.save_config(_small_config(train=fs.TrainSpec(t0_epochs=1, rounds_per_session=1)),
                   cfg_path)
    args = {
        "run": ["run", "--config", str(cfg_path), "--out", str(tmp_path / "out")],
        "report": ["report", str(tmp_path / "report.json")],
        "gradcheck": ["gradcheck"],
        "cost": ["cost"],
        "gen-data": ["gen-data", "--config", str(cfg_path), "--out", str(tmp_path / "data")],
    }[command]
    if command == "report":
        fs.emit_report(fs.run_experiment(fs.load_config(cfg_path)), tmp_path / "report.json")
    with open("/dev/full", "w") as full:
        res = subprocess.run([sys.executable, "-m", "fedswarm", *args], stdout=full,
                             stderr=subprocess.PIPE, text=True)
    assert res.returncode == 2
    assert res.stderr == f"error: cannot write stdout: {os.strerror(errno.ENOSPC)}\n"
    if command == "run":  # the report is written before stdout fails
        assert (tmp_path / "out" / "report.json").is_file()


def test_cli_stdout_closed_or_never_opened():
    # a reader that has gone away is the same runtime error as a full
    # device; a process started without stdout has nowhere to print and
    # succeeds, as print() does then
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        res = subprocess.run([sys.executable, "-m", "fedswarm", "cost"], stdout=write_end,
                             stderr=subprocess.PIPE, text=True)
    finally:
        os.close(write_end)
    assert res.returncode == 2
    assert res.stderr == f"error: cannot write stdout: {os.strerror(errno.EPIPE)}\n"
    res = subprocess.run([sys.executable, "-m", "fedswarm", "cost"], stderr=subprocess.PIPE,
                         text=True, preexec_fn=lambda: os.close(1))
    assert (res.returncode, res.stderr) == (0, "")


def test_cli_input_path_too_long_is_not_an_output_error(tmp_path):
    # a name the system cannot look up is an input problem, named as one,
    # not a failure to write
    long_name = str(tmp_path / ("x" * 300))
    res = _main("report", long_name)
    assert res.returncode == 1
    assert res.stderr == f"config error: cannot read report {long_name}: " \
                         f"{os.strerror(errno.ENAMETOOLONG)}\n"
    cfg_path = tmp_path / "config.json"
    fs.save_config(_small_config(data=fs.DataSpec(kind="manifest", manifest_dir=long_name)),
                   cfg_path)
    res = _main("run", "--config", str(cfg_path), "--out", str(tmp_path / "out"))
    assert (res.returncode, res.stderr) == (2, f"error: no manifest.tsv under {long_name}\n")


def test_cli_gradcheck():
    res = _cli("gradcheck")
    assert res.returncode == 0, res.stderr
    assert res.stdout.endswith("20/20 gradient checks passed (tol 0.0001)\n")


def test_cli_config_error_exit_code(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"strategy": "magic"}')
    res = _main("run", "--config", str(bad), "--out", str(tmp_path / "out"))
    assert res.returncode == 1
    assert "config error" in res.stderr
    # unreadable config files: a directory, non-UTF-8 bytes, nesting too deep to parse
    unreadable = {"a_directory": tmp_path, "not_utf8": tmp_path / "binary.json",
                  "nested_too_deep": tmp_path / "deep.json"}
    unreadable["not_utf8"].write_bytes(b'{"strategy": "\xff"}')
    unreadable["nested_too_deep"].write_text("[" * 100_000)
    for case, path in unreadable.items():
        res = _main("run", "--config", str(path), "--out", str(tmp_path / "out"))
        assert res.returncode == 1, case
        assert "Traceback" not in res.stderr, case
        assert res.stderr.count("\n") == 1 and res.stderr.startswith("config error: "), case


@pytest.mark.parametrize("bad", [
    {"train": {"t0_epochs": 1.5}},
    {"plan": {"num_nodes": True}},
    {"loss": {"batch_size": 2.0}},
    # mistyped floats, seed and shape lists
    {"seed": "abc"},
    {"loss": {"lr": "0.1"}},
    {"loss": {"mu": None}},
    {"cost": {"calibration_seconds": "x"}},
    {"backbone": {"layer_dims": "ab"}},
    {"data": {"input_shape": [4, "a"]}},
    # values the backbone and the input quantizer would refuse at run time
    {"backbone": {"activation_range": 0}},
    {"data": {"input_zero_point": 300}},
    # a flipped backbone, or one with every weight zero
    {"backbone": {"weight_sigma": -0.25}},
    {"backbone": {"weight_sigma": 0}},
    # the plan section is a SessionPlan: its PlanError is a config error here
    {"plan": {"num_classes": 7, "num_nodes": 2}},
    {"plan": {"base_count": 4.0}},
])
def test_cli_non_integer_count_is_a_config_error(tmp_path, bad):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    res = _main("run", "--config", str(path), "--out", str(tmp_path / "out"))
    assert res.returncode == 1
    assert "Traceback" not in res.stderr
    assert res.stderr.count("\n") == 1 and res.stderr.startswith("config error: ")


_WIDE_FEATURES = {"backbone": {"layer_dims": [2, 524288]}, "head": {"hidden": 2},
                  "data": {"train_per_class": 20000, "test_per_class": 6000,
                           "input_shape": [2, 1, 1]},
                  "train": {"t0_epochs": 1, "rounds_per_session": 1}}
_LONG_REPORT = {"plan": {"num_classes": 60000, "num_nodes": 1, "base_count": 1},
                "head": {"hidden": 16}, "data": {"train_per_class": 1, "test_per_class": 1}}


@pytest.mark.parametrize("bad", [
    {"head": {"hidden": 2**62}},
    {"plan": {"num_classes": 10**7}},
    {"data": {"train_per_class": 2**40}},
    {"data": {"test_per_class": 2**40}},
    {"data": {"input_shape": [4, 4096, 4096]}},
    # 120 MB of int8 data, but 30 million samples, each with its columns
    {"data": {"input_shape": [4, 1, 1], "train_per_class": 3000000}},
    # shuffle tables of T0, of a joint session and of a federated round
    {"train": {"t0_epochs": 4611686018427387904}},
    {"strategy": "joint", "train": {"rounds_per_session": 2**40}},
    {"loss": {"local_epochs_per_round": 2**50}},
    # 260000 x 524288 float32 train features, 508 GiB, under every old cap
    _WIDE_FEATURES,
    # 1.8e9 accuracy_per_class entries: report rows grow as the sum of the
    # classes seen over 60000 sessions
    _LONG_REPORT,
    # priced in O(1) of nodes and classes: 2**40 nodes, 2**62 base classes
    {"plan": {"num_classes": 2**40 + 4, "num_nodes": 2**40}},
    {"plan": {"num_classes": 2**62, "base_count": 2**62}},
], ids=json.dumps)
def test_cli_size_cap_is_a_config_error(tmp_path, bad):
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(bad))
    for args in (["cost", "--config", str(path)],
                 ["run", "--config", str(path), "--out", str(tmp_path / "out")]):
        res = _main(*args)
        assert res.returncode == 1, res.stderr
        assert res.stderr.count("\n") == 1 and res.stderr.startswith("config error: ")
        assert "exceeds the host budget" in res.stderr and "the largest term is" in res.stderr
    assert not (tmp_path / "out").exists()


def _price(d) -> dict:
    cfg = fs.config_from_dict(d) if isinstance(d, dict) else d
    return harness._host_price(cfg)


def _refused(d, term):
    """Assert the config ``d`` is refused, naming ``term`` as its largest."""
    with pytest.raises(fs.ConfigError, match=rf"exceeds the host budget of {errors.HOST_BUDGET} "
                       rf"bytes; the largest term is {term} at \d+$"):
        fs.config_from_dict(d)


@pytest.mark.parametrize("d, term", [(_WIDE_FEATURES, "T0 lockstep"),
                                     (_LONG_REPORT, "report rows")], ids=["wide", "long"])
def test_motivating_configs_name_their_largest_term(d, term):
    # built as configs only: the price is arithmetic on counts
    _refused(d, term)


def test_config_budget_prices_heads_and_backbones():
    # one host budget bounds heads and backbones: the defaults sit far
    # below it; a head tensor just past 2**20 elements and a batch of
    # 2**26 samples (the widest batch is a view's 28 rows) fit; a wider
    # head, a backbone layer of 2**20 weights or 2**20 classes do not
    assert sum(_price(fs.default_config()).values()) < errors.HOST_BUDGET // 100
    feat = fs.default_config().backbone.layer_dims[-1]
    for d in ({"head": {"hidden": 2**20 // feat + 1}}, {"loss": {"batch_size": 2**26}}):
        fs.config_from_dict(d)
    _refused({"head": {"hidden": 2**16}}, "session lockstep")
    _refused({"backbone": {"layer_dims": [4, 2**20 // 4 + 1]}}, "session lockstep")
    _refused({"plan": {"num_classes": 2**20}}, "evaluation")
    # the check is price <= budget, exactly
    price = sum(_price(fs.default_config()).values())
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(errors, "HOST_BUDGET", price)
        fs.default_config()
        mp.setattr(errors, "HOST_BUDGET", price - 1)
        with pytest.raises(fs.ConfigError, match=f"a price of {price} bytes exceeds the host "
                           f"budget of {price - 1} bytes"):
            fs.default_config()


@pytest.mark.parametrize("fits, past", [([66311, 1], [66312, 1]),
                                        ([4, 133144, 1], [4, 133145, 1])])
def test_backbone_past_the_int32_bound_is_a_config_error(tmp_path, fits, past):
    # build_backbone's weights are within +-127 and its biases zero, so a
    # layer's worst case is c_in * 127 * 255 in layer 0 and c_in * 127 * 127
    # after it; 4 x 133145 weights fit the host budget, so only the bound
    # refuses them. Configs only: nothing is built.
    fs.config_from_dict({"backbone": {"layer_dims": fits},
                         "data": {"input_shape": [fits[0], 1, 1]}})
    path = tmp_path / "wide.json"
    path.write_text(json.dumps({"backbone": {"layer_dims": past},
                                "data": {"input_shape": [past[0], 1, 1]}}))
    res = _main("cost", "--config", str(path))
    assert res.returncode == 1, res.stderr
    assert res.stderr.count("\n") == 1
    assert res.stderr.startswith(f"config error: backbone layer {len(past) - 2} can accumulate")


def test_config_budget_prices_shuffle_tables():
    # T0 draws a t0_epochs x base-samples intp table: 4 classes x 32 pairs
    # is 1 KiB per epoch of the price, so the last epoch count that fits
    # the budget follows from the price at 0 epochs
    d = fs.config_to_dict(fs.default_config())
    d["data"]["train_per_class"] = 32
    d["train"]["t0_epochs"] = 0
    d["train"]["t0_epochs"] = (errors.HOST_BUDGET - sum(_price(d).values())) // 1024
    assert errors.HOST_BUDGET - 1024 < sum(_price(d).values()) <= errors.HOST_BUDGET
    d["train"]["t0_epochs"] += 1
    _refused(d, "T0 lockstep")
    # a federated round's table counts only when there are rounds; joint
    # trains its pool for rounds_per_session x local_epochs_per_round epochs
    d = fs.config_to_dict(fs.default_config())
    d["loss"]["local_epochs_per_round"] = 2**50
    d["train"]["rounds_per_session"] = 0
    fs.config_from_dict(d)
    d["train"]["rounds_per_session"] = 1
    _refused(d, "session lockstep")
    d["strategy"] = "joint"
    _refused(d, "session lockstep")


def test_cli_manifest_run_past_the_budget_is_a_config_error(tmp_path):
    # a manifest's sizes are not in the config: the run prices them once
    # the manifest is read, before any feature is computed
    cfg, data, _ = _manifest_dir(tmp_path)
    cfg_path = tmp_path / "config.json"
    fs.save_config(replace(cfg, data=fs.DataSpec(kind="manifest", manifest_dir=str(data)),
                           train=replace(cfg.train, t0_epochs=2**62)), cfg_path)
    res = _main("run", "--config", str(cfg_path), "--out", str(tmp_path / "out"))
    assert res.returncode == 1
    assert res.stderr.count("\n") == 1 and res.stderr.startswith("config error: ")
    assert "exceeds the host budget" in res.stderr
    assert "the largest term is T0 lockstep" in res.stderr


@pytest.mark.parametrize("split", ["training", "test"])
def test_cli_manifest_with_the_wrong_channel_count_is_a_config_error(tmp_path, split):
    # the config's check of synthetic channels, applied to each manifest split
    cfg = _small_config()  # a 3-channel backbone
    spec = cfg.data.synthetic_spec(cfg.plan.num_classes)
    three, four = (fs.gen_synthetic(replace(spec, input_shape=shape), np.random.default_rng(0))
                   for shape in ((3, 2, 2), (4, 2, 2)))
    train, test = (four[0], three[1]) if split == "training" else (three[0], four[1])
    fs.write_manifest(train, test, tmp_path / "data")
    cfg_path = tmp_path / "config.json"
    fs.save_config(replace(cfg, data=fs.DataSpec(kind="manifest",
                                                 manifest_dir=str(tmp_path / "data"))), cfg_path)
    res = _main("run", "--config", str(cfg_path), "--out", str(tmp_path / "out"))
    assert res.returncode == 1
    assert res.stderr == (f"config error: manifest {split} frames have 4 channels, "
                          "the backbone takes 3\n")


def test_config_budget_prices_synthetic_frames():
    # synthetic train plus test data: classes x samples x (input bytes and
    # a row's columns); 64 KiB frames make the frames the largest term
    d = fs.config_to_dict(fs.default_config())
    d["data"]["input_shape"] = [4, 128, 128]
    price = _price(d)
    samples = 10 * (28 + 7)
    assert price["data frames"] == (samples * (2**16 + sessions._ROW_BYTES)
                                    + 8 * (10 * 2**16 + 6 * 2**16))
    d["data"]["train_per_class"] = 1600
    _refused(d, "data frames")
    # a manifest's data is priced when it is read, not in the config
    d["data"].update(kind="manifest", manifest_dir="unread")
    fs.config_from_dict(d)


def test_config_budget_prices_each_sample():
    # tiny frames: each sample still costs its columns, feature rows and
    # training rows, so a million of them pass the budget
    d = fs.config_to_dict(fs.default_config())
    d["plan"]["num_classes"] = 16
    d["data"]["input_shape"] = [4, 1, 1]
    d["data"]["train_per_class"] = 2**18 // 16  # 262256 samples, past the old cap: they fit
    fs.config_from_dict(d)
    d["data"]["train_per_class"] = 2**20 // 16
    _refused(d, "data frames")


@st.composite
def _small_runs(draw):
    """A small accepted config as a dict, and whether to run it from a
    manifest of its own synthetic data."""
    nodes, per, base = draw(st.integers(1, 4)), draw(st.integers(1, 2)), draw(st.integers(1, 3))
    c = draw(st.integers(1, 4))
    d = {
        "strategy": draw(st.sampled_from(fs.STRATEGIES)),
        "plan": {"num_classes": base + draw(st.integers(0, 2)) * nodes * per, "num_nodes": nodes,
                 "base_count": base, "classes_per_session_per_node": per},
        "backbone": {"layer_dims": [c, draw(st.integers(1, 16)), draw(st.integers(1, 24))]},
        "head": {"hidden": draw(st.integers(1, 16))},
        "loss": {"batch_size": draw(st.integers(1, 6)), "mu": draw(st.sampled_from([0.0, 2.0])),
                 "local_epochs_per_round": draw(st.integers(1, 3))},
        "train": {"t0_epochs": draw(st.integers(0, 3)),
                  "rounds_per_session": draw(st.integers(0, 3))},
        "data": {"train_per_class": draw(st.integers(1, 9)),
                 "test_per_class": draw(st.integers(1, 4)),
                 "input_shape": [c, draw(st.integers(1, 4)), draw(st.integers(1, 4))]},
    }
    return d, draw(st.booleans())


@pytest.fixture(scope="module")
def warm_runs(tmp_path_factory):
    """Run each strategy and read a manifest once, so that numpy's and the
    interpreter's first-call allocations are not charged to a run."""
    cfg = _small_config(train=fs.TrainSpec(t0_epochs=1, rounds_per_session=1))
    for strategy in fs.STRATEGIES:
        fs.run_experiment(replace(cfg, strategy=strategy))
    fs.read_manifest(_manifest_dir(tmp_path_factory.mktemp("warm"))[1])


@settings(max_examples=16)
@given(case=_small_runs())
@example(case=({}, False))  # the desk default
@example(case=({"plan": {"num_classes": 36, "num_nodes": 8, "base_count": 4}}, False))  # swarm
# allocations in chunks: T0 steps of 112 rows x 1276 parameters and a
# 16-node lockstep each pass tensor._SCAN_BLOCK, and 40 rows of 4x8x8
# frames are two draws of 32 rows
@example(case=({"loss": {"batch_size": 128, "local_epochs_per_round": 1},
                "train": {"t0_epochs": 2, "rounds_per_session": 1}}, False))
@example(case=({"plan": {"num_classes": 36, "num_nodes": 16, "base_count": 4},
                "loss": {"batch_size": 8, "local_epochs_per_round": 1},
                "train": {"t0_epochs": 2, "rounds_per_session": 1}}, False))
@example(case=({"data": {"input_shape": [4, 8, 8], "train_per_class": 40},
                "loss": {"local_epochs_per_round": 1},
                "train": {"t0_epochs": 2, "rounds_per_session": 1}}, False))
def test_run_peak_stays_within_its_price(tmp_path_factory, warm_runs, case):
    # tracemalloc sees numpy's buffers as well as Python's objects
    d, manifest = case
    cfg = fs.config_from_dict(d)
    splits = None
    if manifest:
        out = tmp_path_factory.mktemp("manifest")
        fs.write_manifest(*fs.load_dataset(cfg), out)
        cfg = replace(cfg, data=replace(cfg.data, kind="manifest", manifest_dir=str(out)))
        splits = fs.read_manifest(out)
    price = sum(harness._host_price(cfg, splits).values())
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        fs.run_experiment(cfg)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert 0 < peak <= price


def _manifest_dir(tmp_path):
    cfg = _small_config()
    train, test = fs.gen_synthetic(cfg.data.synthetic_spec(cfg.plan.num_classes),
                                   np.random.default_rng(0))
    data = tmp_path / "data"
    fs.write_manifest(train, test, data)
    return cfg, data, train.frames.array.size + test.frames.array.size


def _read_price(data) -> tuple:
    """(index term, rows term) of the small manifest's price as read."""
    manifest = data / "manifest.tsv"
    rows = sum(sessions._split_bytes(len(ds), math.prod(ds.frames.shape[1:]))
               for ds in fs.read_manifest(data))
    return sessions._split_bytes(0, 0, manifest.stat().st_size), rows


def test_manifest_budget_prices_index_and_rows(tmp_path, monkeypatch):
    # the index by its size, then every row with its frame, within the budget
    _, data, _ = _manifest_dir(tmp_path)
    index, rows = _read_price(data)
    lines = (data / "manifest.tsv").read_text().splitlines()
    monkeypatch.setattr(errors, "HOST_BUDGET", index + rows)
    train, test = fs.read_manifest(data)  # exactly at the budget
    assert len(train) + len(test) == len(lines) - 1
    monkeypatch.setattr(errors, "HOST_BUDGET", index + rows - 1)
    with pytest.raises(fs.PlanError, match=rf"manifest\.tsv line {len(lines)}: a price of "
                       rf"{index + rows} bytes exceeds the host budget of {index + rows - 1} "):
        fs.read_manifest(data)


def test_manifest_budget_prices_each_row(tmp_path, monkeypatch):
    # a row of a 12-byte frame still costs its parsed cells and columns
    _, data, _ = _manifest_dir(tmp_path)
    index, rows = _read_price(data)
    lines = (data / "manifest.tsv").read_text().splitlines()
    last = sessions._ROW_BYTES + 3 * 2 * 2  # the last test row's price
    # the row past the budget fails before its blob is read
    (data / lines[-1].split("\t")[-1]).unlink()
    monkeypatch.setattr(errors, "HOST_BUDGET", index + rows - last)
    with pytest.raises(fs.PlanError, match=rf"manifest\.tsv line {len(lines)}: a price of "):
        fs.read_manifest(data)


def _renumber(manifest, row, onto):
    """Give data row ``row`` (1-based, header excluded) the sample id of row ``onto``."""
    lines = manifest.read_text().splitlines()
    cells = lines[row].split("\t")
    cells[0] = lines[onto].split("\t")[0]
    lines[row] = "\t".join(cells)
    manifest.write_text("\n".join(lines) + "\n")
    return cells[0]


@pytest.mark.parametrize("split", ["train", "test"])
def test_manifest_rejects_repeated_sample_ids(tmp_path, split):
    # a test row on a train id would merge into the train features by id
    _, data, _ = _manifest_dir(tmp_path)
    manifest = data / "manifest.tsv"
    row = 2 if split == "train" else 8 * 8 + 1  # the first test row follows 64 train rows
    sid = _renumber(manifest, row, 1)
    with pytest.raises(fs.PlanError, match=rf"line {row + 1}: sample id {sid} repeats line 2$"):
        fs.read_manifest(data)


def test_cli_manifest_with_repeated_sample_ids_is_a_runtime_error(tmp_path):
    cfg, data, _ = _manifest_dir(tmp_path)
    manifest = data / "manifest.tsv"
    for i in range(8 * 3):  # every test row onto a train id
        _renumber(manifest, 8 * 8 + 1 + i, 1 + i)
    cfg_path = tmp_path / "config.json"
    fs.save_config(replace(cfg, data=fs.DataSpec(kind="manifest", manifest_dir=str(data))),
                   cfg_path)
    res = _main("run", "--config", str(cfg_path), "--out", str(tmp_path / "out"))
    assert res.returncode == 2
    assert res.stderr.count("\n") == 1 and res.stderr.startswith("error: ")
    assert f"{manifest} line 66: sample id 0 repeats line 2" in res.stderr


def test_cli_manifest_row_past_the_budget_is_a_runtime_error(tmp_path):
    # one row declares a frame far past the budget; its blob is never read
    cfg, data, _ = _manifest_dir(tmp_path)
    manifest = data / "manifest.tsv"
    lines = manifest.read_text().splitlines()
    cells = lines[1].split("\t")
    cells[5] = "3x32768x32768"
    lines[1] = "\t".join(cells)
    manifest.write_text("\n".join(lines) + "\n")
    cfg_path = tmp_path / "config.json"
    fs.save_config(replace(cfg, data=fs.DataSpec(kind="manifest", manifest_dir=str(data))),
                   cfg_path)
    res = _main("run", "--config", str(cfg_path), "--out", str(tmp_path / "out"))
    assert res.returncode == 2
    assert res.stderr.count("\n") == 1 and res.stderr.startswith("error: ")
    assert res.stderr.startswith(f"error: {manifest} line 2: a price of ")
    assert "exceeds the host budget" in res.stderr
    assert "the largest term is the rows through this line at" in res.stderr


def test_manifest_index_past_the_budget_is_refused_before_it_is_read(tmp_path):
    # blank lines are skipped, so no row is priced for a file of newlines;
    # its index is priced by its size, at the worst per-byte cost of a file
    # of short lines as read. A sparse file one byte past that takes no disk
    # blocks
    cfg = _small_config()
    data = tmp_path / "data"
    data.mkdir()
    manifest = data / "manifest.tsv"
    size = errors.HOST_BUDGET // sessions._INDEX_BYTE_COST + 1
    manifest.touch()
    os.truncate(manifest, size)
    with pytest.raises(fs.PlanError, match=rf"^{manifest}: a price of "
                       rf"{size * sessions._INDEX_BYTE_COST} bytes exceeds the host budget"):
        fs.read_manifest(data)
    cfg_path = tmp_path / "config.json"
    fs.save_config(replace(cfg, data=fs.DataSpec(kind="manifest", manifest_dir=str(data))),
                   cfg_path)
    res = _main("run", "--config", str(cfg_path), "--out", str(tmp_path / "out"))
    assert res.returncode == 2
    assert res.stderr.count("\n") == 1
    assert res.stderr.startswith(f"error: {manifest}: a price of ")
    assert "the largest term is the index as read" in res.stderr


def _manifest_run(tmp_path, capsys, edit):
    """Exit code and stderr of ``fedswarm run`` on the small manifest after
    ``edit`` rewrites its data rows (a list of cell lists)."""
    cfg, data, _ = _manifest_dir(tmp_path)
    manifest = data / "manifest.tsv"
    header, *rows = manifest.read_text().splitlines()
    rows = edit([r.split("\t") for r in rows])
    manifest.write_text("\n".join([header] + ["\t".join(r) for r in rows]) + "\n")
    cfg_path = tmp_path / "config.json"
    fs.save_config(replace(cfg, data=fs.DataSpec(kind="manifest", manifest_dir=str(data))),
                   cfg_path)
    code = main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "out")])
    return code, capsys.readouterr().err


@pytest.mark.parametrize("split, rows", [("train", "training"), ("test", "test")])
def test_cli_manifest_missing_a_planned_class_is_a_config_error(tmp_path, capsys, split, rows):
    def drop_class_0(cells):
        return [c for c in cells if (c[1], c[2]) != (split, "0")]

    code, err = _manifest_run(tmp_path, capsys, drop_class_0)
    assert code == 1
    assert err == f"config error: manifest lacks {rows} classes [0]\n"
    assert not (tmp_path / "out" / "report.json").exists()


@pytest.mark.parametrize("col, value", [(3, "0.25"), (4, "-3"), (5, "3x4x1")])
def test_cli_manifest_row_with_another_layout_is_a_runtime_error(tmp_path, capsys, col, value):
    def edit_fifth_test_row(cells):
        cells[8 * 8 + 4][col] = value  # 64 train rows come first
        return cells

    code, err = _manifest_run(tmp_path, capsys, edit_fifth_test_row)
    assert code == 2
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert "manifest.tsv line 70: " in err and "differ from the split's first row" in err


def test_synthetic_data_holds_few_heap_bytes_per_sample():
    # ids, classes and frames are one array each: about 20 B per 4-byte frame
    spec = fs.SyntheticSpec(num_classes=10, train_per_class=10000, test_per_class=1,
                            input_shape=(4, 1, 1))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        data = fs.gen_synthetic(spec, np.random.default_rng(0))
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    samples = sum(len(ds) for ds in data)
    assert samples == 100010
    assert held / samples <= 64


_NON_FINITE = (2, "error: non-finite values in conv_w\n")
_NO_FREE_EPOCHS = (1, "config error: a federated epoch of inf s holds no finite count "
                      "of 0.1784 s local epochs\n")
_DIVERGING = {
    # T0 pretraining blows up: every step runs at lr 1e30
    "t0": ({"loss": {"lr": 1e30}}, _NON_FINITE),
    # T0 trains plain CE (mu = 0); the federated rounds blow up
    "federated": ({"loss": {"mu": 1e30}}, _NON_FINITE),
    # values past float32's range where they are cast
    "lr_inf_in_float32": ({"loss": {"lr": 1e308}}, _NON_FINITE),
    "lambda_inf_in_float32": ({"loss": {"lambda": 1e39}}, _NON_FINITE),
    "init_sigma_inf_in_float32": ({"head": {"init_sigma": 1e300}}, _NON_FINITE),
    # backbone weights past float64's range
    "weight_sigma_overflow": ({"backbone": {"weight_sigma": 1e308}},
                              (2, "error: weight_scale must be positive and finite, got inf\n")),
    # input quotients past float64's range saturate: the run succeeds
    "input_scale_underflow": ({"data": {"input_scale": 1e-320}}, (0, "")),
    # an output scale past float32's range, or a layer multiplier past
    # float64's, gives non-finite features and then a non-finite head
    "activation_range_overflow": ({"backbone": {"activation_range": 1e308}}, _NON_FINITE),
    "activation_range_underflow": ({"backbone": {"activation_range": 1e-320}}, _NON_FINITE),
    # synthetic values past float64's range
    "sigma_between_overflow": ({"data": {"sigma_between": 1e308}},
                               (2, "error: cannot quantize non-finite values\n")),
    "sigma_within_overflow": ({"data": {"sigma_within": 1e308}},
                              (2, "error: cannot quantize non-finite values\n")),
    # a link so slow that no count of local epochs is finite: the config
    # check prices the cost block, so nothing trains and --out is not made
    "calibration_seconds_overflow": ({"cost": {"calibration_bytes": 1, "calibration_seconds": 1e308}},
                                     _NO_FREE_EPOCHS),
}


@pytest.mark.parametrize("case", sorted(_DIVERGING))
def test_cli_diverging_run_is_one_line_runtime_error(tmp_path, case):
    d = fs.config_to_dict(_small_config())
    change, (code, stderr) = _DIVERGING[case]
    for section, values in change.items():
        d[section].update(values)
    path = tmp_path / "diverge.json"
    path.write_text(json.dumps(d))
    res = _main("run", "--config", str(path), "--out", str(tmp_path / "out"))
    assert res.returncode == code
    # no numpy RuntimeWarning lines ahead of the error
    assert res.stderr == stderr
    if code == 1:  # rejected with the config, before anything is written
        assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("cost", [{"calibration_seconds": 1e308},
                                  {"calibration_bytes": 1, "calibration_seconds": 1e308}])
def test_cli_cost_without_a_finite_count_of_free_epochs_is_one_line_runtime_error(tmp_path, cost):
    # the config check prices the cost block, so this is a config error
    path = tmp_path / "slow_link.json"
    path.write_text(json.dumps({"cost": cost}))
    res = _main("cost", "--config", str(path))
    assert res.returncode == 1
    assert res.stderr.count("\n") == 1
    assert res.stderr.startswith("config error: a federated epoch of ")
    assert res.stderr.endswith(" s holds no finite count of 0.1784 s local epochs\n")


def test_session_end_head_is_scored_once(monkeypatch):
    # the last round's evaluation and the session row share one head
    # pass: one per round plus the T0 row (odfcl), one per row (joint)
    passes = []
    kernel = fs.sessions.head_logits

    def counted(head, features):
        passes.append(head)
        return kernel(head, features)

    monkeypatch.setattr(fs.sessions, "head_logits", counted)
    for strategy in ("odfcl", "joint"):
        cfg = _small_config(strategy)
        passes.clear()
        report = fs.run_experiment(cfg)
        rounds = cfg.train.rounds_per_session if strategy == "odfcl" else 0
        assert len(passes) == 1 + (len(report.sessions) - 1) * max(rounds, 1)
        for row in report.sessions[1:]:
            if row["rounds"]:
                assert row["rounds"][-1]["accuracy"] == row["accuracy_seen"]


def test_total_loss_lookups_count_every_trained_sample(monkeypatch):
    # the benchmark's traced pass wraps fedswarm.federation.total_loss
    # and checks that the summed len(batch) equals the samples trained
    calls = []
    kernel = fs.federation.total_loss

    def counted(head, batch, *args, **kwargs):
        calls.append(len(batch))
        return kernel(head, batch, *args, **kwargs)

    monkeypatch.setattr(fs.federation, "total_loss", counted)
    for strategy in ("odfcl", "joint"):
        cfg = _small_config(strategy)
        calls.clear()
        fs.run_experiment(cfg)
        plan = cfg.plan
        epochs = cfg.train.rounds_per_session * cfg.loss.local_epochs_per_round
        classes = cfg.train.t0_epochs * len(plan.base_classes)
        for t in range(1, plan.num_sessions + 1):
            pooled = plan.seen_through(t) if strategy == "joint" else plan.session_classes(t)
            classes += epochs * len(pooled)
        assert sum(calls) == classes * cfg.data.train_per_class
        if strategy == "odfcl":  # one lookup per lockstep step: both nodes at once
            assert len(calls) < sum(calls) // cfg.loss.batch_size


# (total_loss calls, sgd_step calls, samples in the batches) of one
# desk-default run: one call of each per lockstep step, as the benchmark's
# traced view counts them
_DESK_STEPS = {"naive": (2100, 2100, 11760), "odfcl": (2100, 2100, 11760),
               "joint": (5250, 5250, 21000)}


@pytest.mark.parametrize("strategy", sorted(_DESK_STEPS))
def test_every_step_calls_total_loss_and_sgd_step_once(monkeypatch, strategy):
    counts = {"total_loss": 0, "sgd_step": 0, "samples": 0}

    def counting(name, kernel):
        def counted(head, batch_or_grads, *args, **kwargs):
            counts[name] += 1
            if name == "total_loss":
                counts["samples"] += len(batch_or_grads)
            return kernel(head, batch_or_grads, *args, **kwargs)
        return counted

    for name in ("total_loss", "sgd_step"):
        monkeypatch.setattr(fs.federation, name, counting(name, getattr(fs.federation, name)))
    fs.run_experiment(fs.default_config(strategy))
    assert (counts["total_loss"], counts["sgd_step"], counts["samples"]) == _DESK_STEPS[strategy]


def test_per_class_accuracy_matches_a_mask_per_class(monkeypatch):
    # accuracy_per_class counts each session's one prediction vector by
    # class; the reference narrows it with one mask per seen class
    scored = []  # (head's class count, predictions) of every scoring pass, in order
    kernel = harness.predict

    def recorded(head, features):
        scored.append((head.num_classes, kernel(head, features)))
        return scored[-1][1]

    monkeypatch.setattr(harness, "predict", recorded)
    cfg = _small_config(plan=fs.make_plan(num_classes=52, num_nodes=4, base_count=4),
                        train=fs.TrainSpec(t0_epochs=2, rounds_per_session=1),
                        data=fs.DataSpec(input_shape=(3, 2, 2), train_per_class=2,
                                         test_per_class=3))
    report = fs.run_experiment(cfg)
    test = fs.load_dataset(cfg)[1]
    assert len(report.sessions) == 13
    for row in report.sessions:
        seen = row["seen_classes"]
        pred = [p for c, p in scored if c == len(seen)][-1]  # the pass the row reports
        truth = test.classes[np.isin(test.classes, seen)]
        hits = pred == truth
        assert row["accuracy_per_class"] == {str(c): fs.accuracy(hits[truth == c]) for c in seen}
        assert row["accuracy_seen"] == fs.accuracy(hits)


def test_central_training_goes_through_federation_local_epoch(monkeypatch):
    # T0 and every joint session look local_epoch up on federation, so a
    # wrapper there (as a tracer installs) sees each central call
    calls = []
    kernel = fs.federation.local_epoch

    def counted(nodes, *args, **kwargs):
        calls.append(len(nodes))
        return kernel(nodes, *args, **kwargs)

    monkeypatch.setattr(fs.federation, "local_epoch", counted)
    report = fs.run_experiment(_small_config("joint"))
    # one call for T0, then one per session after it
    assert len(report.sessions) == 3 and calls == [1, 1, 1]


_ROW = {"session": 0, "accuracy_seen": 1.0, "accuracy_base": 1.0}
_REPORT = {"seed": 1, "strategy": "odfcl", "config": {}, "sessions": [_ROW], "cost": {}}
HOSTILE_REPORTS = {
    "sessions_not_a_list": dict(_REPORT, sessions=5),
    "sessions_empty": dict(_REPORT, sessions=[]),
    "row_without_session": dict(_REPORT, sessions=[{}]),
    "accuracy_is_a_string": dict(_REPORT, sessions=[dict(_ROW, accuracy_seen="0.9")]),
    "accuracy_above_one": dict(_REPORT, sessions=[dict(_ROW, accuracy_seen=1.5)]),
    "accuracy_nan": dict(_REPORT, sessions=[dict(_ROW, accuracy_base=math.nan)]),
    "sessions_not_consecutive": dict(_REPORT, sessions=[_ROW, dict(_ROW, session=2)]),
    "strategy_is_null": dict(_REPORT, strategy=None),
    "cost_missing": {k: v for k, v in _REPORT.items() if k != "cost"},
    # raw bytes, or None for a report.json that is a directory
    "not_utf8": b'{"seed": 1, "strategy": "\xff"}',
    "nested_too_deep": b"[" * 100_000,
    "a_directory": None,
}


@pytest.mark.parametrize("case", sorted(HOSTILE_REPORTS))
def test_cli_hostile_report_is_a_config_error(tmp_path, case):
    run_dir = tmp_path / "out"
    body = HOSTILE_REPORTS[case]
    if body is None:
        (run_dir / "report.json").mkdir(parents=True)
    else:
        run_dir.mkdir()
        raw = body if isinstance(body, bytes) else json.dumps(body).encode()
        (run_dir / "report.json").write_bytes(raw)
    res = _main("report", str(run_dir))
    assert res.returncode == 1
    assert "Traceback" not in res.stderr
    assert res.stderr.count("\n") == 1 and res.stderr.startswith("config error: ")


# a report built in code gets the checks a parsed one gets
_MALFORMED_BODIES = sorted(
    [(case, body) for case, body in HOSTILE_REPORTS.items()
     if isinstance(body, dict) and body.keys() == _REPORT.keys()]
    + [("session_is_a_bool", dict(_REPORT, sessions=[dict(_ROW, session=False)])),
       ("session_is_a_string", dict(_REPORT, sessions=[dict(_ROW, session="0")])),
       ("accuracy_is_a_bool", dict(_REPORT, sessions=[dict(_ROW, accuracy_base=True)])),
       ("accuracy_missing", dict(_REPORT, sessions=[{"session": 0, "accuracy_seen": 1.0}])),
       ("row_not_a_mapping", dict(_REPORT, sessions=[_ROW, [1]])),
       ("strategy_is_a_number", dict(_REPORT, strategy=3))]
)


@pytest.mark.parametrize("case, body", _MALFORMED_BODIES, ids=[c for c, _ in _MALFORMED_BODIES])
def test_directly_built_malformed_report_is_an_evaluation_error(case, body):
    with pytest.raises(fs.EvaluationError):
        fs.MetricsReport(**body)


def test_well_formed_report_body_parses(tmp_path):
    path = tmp_path / "report.json"
    path.write_text(json.dumps(_REPORT))
    assert fs.parse_report(path).sessions == [_ROW]


@pytest.mark.parametrize("rel", ["../outside.bin", "blobs/missing.bin", "{tmp}/outside.bin"])
def test_cli_hostile_manifest_row_is_a_runtime_error(tmp_path, rel):
    cfg = _small_config()
    train, test = fs.gen_synthetic(cfg.data.synthetic_spec(cfg.plan.num_classes),
                                   np.random.default_rng(0))
    data = tmp_path / "data"
    fs.write_manifest(train, test, data)
    (tmp_path / "outside.bin").write_bytes(train.frames.array[0].tobytes())
    manifest = data / "manifest.tsv"
    lines = manifest.read_text().splitlines()
    lines[1] = "\t".join(lines[1].split("\t")[:-1] + [rel.format(tmp=tmp_path.resolve())])
    manifest.write_text("\n".join(lines) + "\n")
    cfg_path = tmp_path / "config.json"
    fs.save_config(replace(cfg, data=fs.DataSpec(kind="manifest", manifest_dir=str(data))),
                   cfg_path)
    res = _main("run", "--config", str(cfg_path), "--out", str(tmp_path / "out"))
    assert res.returncode == 2
    assert "Traceback" not in res.stderr
    assert res.stderr.count("\n") == 1 and res.stderr.startswith("error: ")
