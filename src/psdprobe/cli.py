"""Command-line front end: run experiments, calibrate constants, fit scaling.

Exit codes: 0 on success, 2 on any configuration problem (bad flags, bad
config file, unknown names), 3 when a calibration sweep fails to separate.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import MISSING, fields, replace
from pathlib import Path
from typing import List, Optional

from .harness import (CALIBRATION_SUITES, ConfigError, ExperimentConfig,
                      calibrate, run_experiment, scaling_report)

_CONFIG_FIELDS = tuple(f.name for f in fields(ExperimentConfig))
_REQUIRED_FIELDS = tuple(f.name for f in fields(ExperimentConfig)
                         if f.default is MISSING
                         and f.default_factory is MISSING)


def _number_list(text: str, kind=float) -> list:
    try:
        values = [kind(part) for part in text.split(",") if part.strip()]
    except ValueError as exc:
        raise ConfigError(f"expected a comma-separated list of {kind.__name__}"
                          f" values, got {text!r}") from exc
    if not values:
        raise ConfigError(f"expected a non-empty list, got {text!r}")
    return values


def _load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"config file {path} must hold a JSON object")
    unknown = sorted(set(data) - set(_CONFIG_FIELDS))
    if unknown:
        raise ConfigError(f"unknown config fields: {', '.join(unknown)}")
    absent = [name for name in _REQUIRED_FIELDS if name not in data]
    if absent:
        raise ConfigError(f"missing config fields: {', '.join(absent)}")
    return data


def _cmd_run(args) -> int:
    data = _load_config(args.config)
    if args.seed is not None:
        data["seed0"] = args.seed
    if args.trials is not None:
        data["trials"] = args.trials
    cfg = ExperimentConfig(**data)
    if args.out is not None:
        name = Path(cfg.output_path or f"{cfg.tester}.csv").name
        cfg = replace(cfg, output_path=str(Path(args.out) / name))
    elif cfg.output_path is None:
        cfg = replace(cfg, output_path=f"{cfg.tester}.csv")
    records, summary = run_experiment(cfg)
    if args.format == "json":
        json.dump(summary, sys.stdout, indent=2, sort_keys=True)
        print()
    else:
        print(f"{cfg.tester}: {len(records)} trials "
              f"(psd {summary['counts']['psd']}, far {summary['counts']['far']}, "
              f"gap {summary['counts']['gap']})")
        if summary["accept_given_psd"] is not None:
            print(f"  accept | psd : {summary['accept_given_psd']:.3f}")
        if summary["reject_given_far"] is not None:
            print(f"  reject | far : {summary['reject_given_far']:.3f}")
        print(f"  queries mean : mv {summary['queries']['mv_mean']:.1f}, "
              f"vmv {summary['queries']['vmv_mean']:.1f}")
        print(f"  wrote {cfg.output_path}")
    return 0


def _cmd_calibrate(args) -> int:
    constants, report = calibrate(args.suite, seed0=args.seed or 0,
                                  trials=args.trials, out_dir=args.out)
    if args.format == "json":
        json.dump(report, sys.stdout, indent=2, sort_keys=True)
        print()
    else:
        for name, value in constants.items():
            print(f"{name} = {value}")
        print(f"wrote {Path(args.out) / (args.suite + '.json')}")
    if not report["separated"]:
        print(f"calibration suite {args.suite} failed to separate; "
              f"see the report for the measured distributions",
              file=sys.stderr)
        return 3
    return 0


def _cmd_scaling(args) -> int:
    out_dir = Path(args.out)
    report = scaling_report(args.tester, args.p, _number_list(args.eps),
                            _number_list(args.dims, int), trials=args.trials,
                            seed0=args.seed or 0,
                            out_path=out_dir / f"{args.tester}_scaling.json")
    if args.format == "json":
        json.dump(report, sys.stdout, indent=2, sort_keys=True)
        print()
    else:
        rows_path = out_dir / f"{args.tester}_scaling.csv"
        fields = ("tester", "p", "eps", "d", "knob", "success_rate",
                  "queries_mean", "queries_max", "resolved")
        with open(rows_path, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(fields)
            for row in report["rows"]:
                writer.writerow([row[f] for f in fields])
        for axis, slope in report["slopes"].items():
            if slope is not None:
                print(f"slope {axis}: {slope:.3f}")
        for axis, slope in report["size_slopes"].items():
            if slope is not None:
                print(f"size slope {axis}: {slope:.3f}")
        print(f"wrote {rows_path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="psdprobe",
        description="PSD property testing experiments in the mv/vmv "
                    "query models")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment from a JSON config")
    p_run.add_argument("--config", required=True,
                       help="path to a JSON ExperimentConfig")

    p_cal = sub.add_parser("calibrate", help="resolve a calibration constant")
    p_cal.add_argument("--suite", required=True, choices=CALIBRATION_SUITES)

    p_sca = sub.add_parser("scaling",
                           help="fit query-scaling slopes for one tester")
    p_sca.add_argument("--tester", required=True)
    p_sca.add_argument("--p", type=float, default=1.0,
                       help="Schatten exponent (default 1)")
    p_sca.add_argument("--eps", required=True,
                       help="comma-separated eps values, e.g. 0.1,0.05,0.02")
    p_sca.add_argument("--dims", required=True,
                       help="comma-separated dimensions, e.g. 256,512,1024")

    for p, default_out, default_trials in ((p_run, "results", None),
                                           (p_cal, "calibration", None),
                                           (p_sca, "scaling", 20)):
        p.add_argument("--seed", type=int, default=None,
                       help="base seed (seed0)")
        p.add_argument("--trials", type=int, default=default_trials,
                       help="trial count override")
        p.add_argument("--out", default=None if p is p_run else default_out,
                       help="output directory")
        p.add_argument("--format", choices=("csv", "json"), default="csv",
                       help="csv writes files and prints a short text "
                            "summary; json prints the full report to stdout")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    handler = {"run": _cmd_run, "calibrate": _cmd_calibrate,
               "scaling": _cmd_scaling}[args.command]
    try:
        return handler(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
