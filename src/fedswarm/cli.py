"""Command line front end.

Subcommands: run (config -> report), report (pretty-print), gradcheck
(oracle battery), cost (cost table), gen-data (materialize a synthetic
dataset). Exit codes: 0 on success, 1 for configuration problems, 2
for runtime or numeric failures, including an output path or stdout
that cannot be written.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace
from pathlib import Path

from .costs import calibrated_uwb_link, cost_report
from .errors import ConfigError, FedswarmError
from .gradcheck import format_gradcheck, run_gradcheck
from .harness import (
    STRATEGIES,
    default_config,
    emit_report,
    load_config,
    load_dataset,
    parse_report,
    report_table,
    run_experiment,
    save_config,
)
from .model import _shape_head
from .sessions import write_manifest

__all__ = ["main"]


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="fedswarm",
        description="Deterministic simulator for federated class-incremental learning",
    )
    sub = p.add_subparsers(dest="command", required=True)

    runp = sub.add_parser("run", help="run one experiment and write its report")
    runp.add_argument("--config", help="JSON config file (defaults used when omitted)")
    runp.add_argument("--out", required=True, help="output directory")
    runp.add_argument("--strategy", choices=STRATEGIES,
                      help="override the config's strategy")
    runp.add_argument("--trace", action="store_true", help="also write the link event log")

    repp = sub.add_parser("report", help="print the accuracy table of saved reports")
    repp.add_argument("paths", nargs="+", help="report files or run output directories")

    sub.add_parser("gradcheck", help="finite-difference validation of loss gradients")

    costp = sub.add_parser("cost", help="print the cost-model table")
    costp.add_argument("--config", help="derive head dimensions from this config")

    genp = sub.add_parser("gen-data", help="materialize a synthetic dataset manifest")
    genp.add_argument("--config", help="JSON config file (defaults used when omitted)")
    genp.add_argument("--out", required=True, help="manifest directory")
    return p


def _resolve_report(path: str) -> Path:
    p = Path(path)
    # os.path.isdir is False on any stat error; reading the file reports it
    return p / "report.json" if os.path.isdir(p) else p


def _cmd_run(args) -> int:
    cfg = load_config(args.config) if args.config else default_config()
    if args.strategy:
        cfg = replace(cfg, strategy=args.strategy)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    report = run_experiment(cfg, trace_out=out / "trace.tsv" if args.trace else None)
    emit_report(report, out / "report.json")
    save_config(cfg, out / "config.json")
    print(f"wrote {out / 'report.json'}")
    print(report_table([report]), end="")
    return 0


def _cmd_report(args) -> int:
    reports = [parse_report(_resolve_report(p)) for p in args.paths]
    print(report_table(reports), end="")
    return 0


def _cmd_gradcheck(_args) -> int:
    results = run_gradcheck()
    print(format_gradcheck(results), end="")
    return 0 if all(r["ok"] for r in results) else 2


def _cmd_cost(args) -> int:
    if args.config:
        cfg = load_config(args.config)
        head = _shape_head(cfg.backbone.layer_dims[-1], cfg.head.hidden, cfg.plan.num_classes)
        link = calibrated_uwb_link(cfg.cost.calibration_bytes, cfg.cost.calibration_seconds)
        print(cost_report(head, link, cfg.plan.num_nodes,
                          cfg.cost.samples_per_epoch, cfg.loss.batch_size), end="")
    else:
        # reference head: 158 features -> 32 hidden -> 32 classes, 6144 params
        head = _shape_head(158, 32, 32)
        print(cost_report(head), end="")
    return 0


def _cmd_gen_data(args) -> int:
    cfg = load_config(args.config) if args.config else default_config()
    if cfg.data.kind != "synthetic":
        raise ConfigError("gen-data needs a synthetic data spec")
    train, test = load_dataset(cfg)  # exactly what a run would generate
    path = write_manifest(train, test, args.out)
    print(f"wrote {path} ({len(train)} train / {len(test)} test samples)")
    return 0


_COMMANDS = {
    "run": _cmd_run,
    "report": _cmd_report,
    "gradcheck": _cmd_gradcheck,
    "cost": _cmd_cost,
    "gen-data": _cmd_gen_data,
}


def _discard_stdout() -> None:
    """Point stdout's file descriptor at the null device, so the output
    it could not take is not retried, and reported, at interpreter exit."""
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, OSError, ValueError):  # not a file: nothing is retried
        return
    null = os.open(os.devnull, os.O_WRONLY)
    os.dup2(null, fd)
    os.close(null)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        code = _COMMANDS[args.command](args)
        if sys.stdout is not None:  # None in a process started without one
            sys.stdout.flush()
        return code
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 1
    except FedswarmError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except OSError as e:
        # reading is checked where it happens, so this is an output that
        # cannot be written: a path under --out, or stdout itself
        if e.filename is None:
            _discard_stdout()
        where = "stdout" if e.filename is None else Path(e.filename)
        print(f"error: cannot write {where}: {e.strerror or e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
