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

import fedswarm as fs
from fedswarm import sessions
from fedswarm.cli import main


def _small_config(strategy="odfcl", seed=5, **over):
    base = dict(
        seed=seed,
        strategy=strategy,
        backbone=fs.BackboneSpec(layer_dims=(3, 6, 8)),
        head=fs.HeadSpec(hidden=5),
        plan=fs.PlanSpec(num_classes=8, num_nodes=2, base_count=4,
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
    assert a[0] == b[0] and a[1] == b[1]
    assert a[0] != c[0]


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
                bucket.append((sample_id, class_id, q.data.tobytes(), q.shape, q.qparams))
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
        _small_config(plan=fs.PlanSpec(num_classes=6, num_nodes=3, base_count=4))
    with pytest.raises(fs.ConfigError):
        _small_config(data=fs.DataSpec(kind="manifest"))
    with pytest.raises(fs.ConfigError):
        fs.load_config("/nonexistent/config.json")


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
                         plan=fs.PlanSpec(num_classes=4, num_nodes=2, base_count=4),
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


def test_cli_cost():
    res = _cli("cost")
    assert res.returncode == 0, res.stderr
    assert "24576" in res.stdout
    assert "federated epoch" in res.stdout


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
])
def test_cli_non_integer_count_is_a_config_error(tmp_path, bad):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    res = _main("run", "--config", str(path), "--out", str(tmp_path / "out"))
    assert res.returncode == 1
    assert "Traceback" not in res.stderr
    assert res.stderr.count("\n") == 1 and res.stderr.startswith("config error: ")


@pytest.mark.parametrize("bad", [
    {"head": {"hidden": 2**62}},
    {"plan": {"num_classes": 10**7}},
    {"data": {"train_per_class": 2**40}},
    {"data": {"test_per_class": 2**40}},
    {"data": {"input_shape": [4, 4096, 4096]}},
    # 120 MB of int8 data, under the byte cap, but 30 million samples
    {"data": {"input_shape": [4, 1, 1], "train_per_class": 3000000}},
    # shuffle tables of T0, of a joint session and of a federated round
    {"train": {"t0_epochs": 4611686018427387904}},
    {"strategy": "joint", "train": {"rounds_per_session": 2**40}},
    {"loss": {"local_epochs_per_round": 2**50}},
], ids=json.dumps)
def test_cli_size_cap_is_a_config_error(tmp_path, bad):
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(bad))
    for args in (["cost", "--config", str(path)],
                 ["run", "--config", str(path), "--out", str(tmp_path / "out")]):
        res = _main(*args)
        assert res.returncode == 1, res.stderr
        assert res.stderr.count("\n") == 1 and res.stderr.startswith("config error: ")
        assert "exceed" in res.stderr


def test_config_size_caps():
    # every weight tensor and the training memory have a cap; the
    # defaults sit far below them
    d = fs.config_to_dict(fs.default_config())
    feat = d["backbone"]["layer_dims"][-1]
    for section, key, value, message in [
        ("head", "hidden", fs.MAX_TENSOR_ELEMENTS // feat + 1, "head conv"),
        ("plan", "num_classes", fs.MAX_TENSOR_ELEMENTS, "head classifier"),
        ("loss", "batch_size", fs.MAX_TRAINING_BYTES, "peak training memory"),
    ]:
        bad = fs.config_to_dict(fs.default_config())
        bad[section][key] = value
        with pytest.raises(fs.ConfigError, match=message):
            fs.config_from_dict(bad)
    bad["backbone"]["layer_dims"] = [4, fs.MAX_TENSOR_ELEMENTS // 4 + 1, 48]
    with pytest.raises(fs.ConfigError, match="backbone layer"):
        fs.config_from_dict(bad)
    # a tensor of exactly the cap is allowed
    at_cap = fs.config_to_dict(fs.default_config())
    at_cap["head"]["hidden"] = fs.MAX_TENSOR_ELEMENTS // feat
    fs.config_from_dict(at_cap)


def test_config_shuffle_table_cap():
    # T0 draws a t0_epochs x base-samples intp table: 4 classes x 32 pairs
    # is 1 KiB per epoch, so 65536 epochs meet the cap exactly
    d = fs.config_to_dict(fs.default_config())
    d["data"]["train_per_class"] = 32
    d["train"]["t0_epochs"] = fs.MAX_TRAINING_BYTES // 1024
    fs.config_from_dict(d)
    d["train"]["t0_epochs"] += 1
    with pytest.raises(fs.ConfigError, match="t0_epochs = 65537 over 128 training samples"):
        fs.config_from_dict(d)
    # a federated round's table counts only when there are rounds; joint
    # trains its pool for rounds_per_session x local_epochs_per_round epochs
    d = fs.config_to_dict(fs.default_config())
    d["loss"]["local_epochs_per_round"] = 2**50
    d["train"]["rounds_per_session"] = 0
    fs.config_from_dict(d)
    d["train"]["rounds_per_session"] = 1
    with pytest.raises(fs.ConfigError, match="local_epochs_per_round"):
        fs.config_from_dict(d)
    d["strategy"] = "joint"
    with pytest.raises(fs.ConfigError, match="rounds_per_session x local_epochs_per_round"):
        fs.config_from_dict(d)


def test_cli_manifest_run_past_the_shuffle_cap_is_a_runtime_error(tmp_path):
    # a manifest's sizes are not in the config, so training refuses the count
    cfg, data, _ = _manifest_dir(tmp_path)
    cfg_path = tmp_path / "config.json"
    fs.save_config(replace(cfg, data=fs.DataSpec(kind="manifest", manifest_dir=str(data)),
                           train=replace(cfg.train, t0_epochs=2**62)), cfg_path)
    res = _main("run", "--config", str(cfg_path), "--out", str(tmp_path / "out"))
    assert res.returncode == 2
    assert res.stderr.count("\n") == 1 and res.stderr.startswith("error: ")
    assert f"epochs={2**62} over" in res.stderr and "shuffle table" in res.stderr


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


def test_config_data_cap():
    # synthetic train plus test data: classes x samples x input bytes; frames
    # of 1 KiB reach this cap below the sample cap
    d = fs.config_to_dict(fs.default_config())
    d["data"]["input_shape"] = [4, 16, 16]
    per_sample = math.prod(d["data"]["input_shape"])
    per_class = fs.MAX_DATA_BYTES // (d["plan"]["num_classes"] * per_sample)
    d["data"]["train_per_class"] = per_class - d["data"]["test_per_class"]
    fs.config_from_dict(d)  # exactly at the cap, or just below it
    d["data"]["train_per_class"] += 1
    with pytest.raises(fs.ConfigError, match="synthetic data of .* exceeds the cap"):
        fs.config_from_dict(d)
    # a manifest's data is checked when it is read, not in the config
    d["data"].update(kind="manifest", manifest_dir="unread")
    fs.config_from_dict(d)


def test_config_sample_cap():
    # synthetic train plus test samples: classes x samples per class
    d = fs.config_to_dict(fs.default_config())
    d["plan"]["num_classes"] = 16  # divides the cap
    d["data"]["train_per_class"] = fs.MAX_SAMPLES // 16 - d["data"]["test_per_class"]
    fs.config_from_dict(d)  # exactly at the cap
    d["data"]["train_per_class"] += 1
    with pytest.raises(fs.ConfigError, match="synthetic data of 262160 samples exceeds the cap"):
        fs.config_from_dict(d)


def _manifest_dir(tmp_path):
    cfg = _small_config()
    train, test = fs.gen_synthetic(cfg.data.synthetic_spec(cfg.plan.num_classes),
                                   np.random.default_rng(0))
    data = tmp_path / "data"
    fs.write_manifest(train, test, data)
    return cfg, data, train.frames.data.size + test.frames.data.size


def test_manifest_data_cap(tmp_path, monkeypatch):
    _, data, n_bytes = _manifest_dir(tmp_path)
    monkeypatch.setattr(sessions, "MAX_DATA_BYTES", n_bytes)
    train, test = fs.read_manifest(data)  # exactly at the cap
    assert len(train) + len(test) > 0
    monkeypatch.setattr(sessions, "MAX_DATA_BYTES", n_bytes - 1)
    with pytest.raises(fs.PlanError, match=r"manifest\.tsv: rows through line \d+ hold"):
        fs.read_manifest(data)


def test_manifest_sample_cap(tmp_path, monkeypatch):
    _, data, _ = _manifest_dir(tmp_path)
    lines = (data / "manifest.tsv").read_text().splitlines()
    monkeypatch.setattr(sessions, "MAX_SAMPLES", len(lines) - 1)
    train, test = fs.read_manifest(data)  # exactly at the cap
    assert len(train) + len(test) == len(lines) - 1
    # the row past the cap fails before its blob is read
    (data / lines[-1].split("\t")[-1]).unlink()
    monkeypatch.setattr(sessions, "MAX_SAMPLES", len(lines) - 2)
    with pytest.raises(fs.PlanError, match=rf"manifest\.tsv: rows through line {len(lines)} "
                       rf"hold {len(lines) - 1} samples, over the cap of {len(lines) - 2}"):
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


def test_cli_manifest_over_the_data_cap_is_a_runtime_error(tmp_path):
    # one row declares a frame far past the cap; its blob is never read
    cfg, data, _ = _manifest_dir(tmp_path)
    manifest = data / "manifest.tsv"
    lines = manifest.read_text().splitlines()
    cells = lines[1].split("\t")
    cells[5] = "3x8192x8192"
    lines[1] = "\t".join(cells)
    manifest.write_text("\n".join(lines) + "\n")
    cfg_path = tmp_path / "config.json"
    fs.save_config(replace(cfg, data=fs.DataSpec(kind="manifest", manifest_dir=str(data))),
                   cfg_path)
    res = _main("run", "--config", str(cfg_path), "--out", str(tmp_path / "out"))
    assert res.returncode == 2
    assert res.stderr.count("\n") == 1 and res.stderr.startswith("error: ")
    assert f"{manifest}: rows through line 2 hold" in res.stderr
    assert "over the cap" in res.stderr


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
        plan = fs.make_plan(**fs.config_to_dict(cfg)["plan"])
        epochs = cfg.train.rounds_per_session * cfg.loss.local_epochs_per_round
        classes = cfg.train.t0_epochs * len(plan.base_classes)
        for t in range(1, plan.num_sessions + 1):
            pooled = fs.registry_from_plan(plan).seen_through(t) if strategy == "joint" \
                else plan.session_classes(t)
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
