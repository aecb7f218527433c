"""Command-line front end: run experiments, calibrate, print the gate table.

Exit codes: 0 success, 1 stdout closed, 2 configuration problems, 3 numerical failures.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys

import numpy as np

from .experiment import (
    ConfigError,
    _check_out_path,
    _is_int,
    _is_real,
    _read_yaml,
    calibrate,
    load_config,
    run_experiment,
)
from .gate import ZeroSuccessError, gate_channel
from .tomography import FitError

EXIT_OK = 0
EXIT_CLOSED_STDOUT = 1
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3

#: Points per calibration grid axis, and in the whole grid, at most; the scan is exhaustive.
MAX_GRID_POINTS = 1000
MAX_GRID_TOTAL = 10**6

DEFAULT_CAL_GRID = {
    "overlap": (0.85, 1.00, 16),
    "pair_mixedness": (0.00, 0.20, 11),
    "input_mixedness": (0.00, 0.20, 11),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="telegate",
                                     description="phase-gate Bell-analyzer experiment simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="simulate one experiment from a config file")
    run.add_argument("config", help="YAML experiment configuration")
    run.add_argument("--seed", type=int, default=None, help="override the config seed")
    run.add_argument("--out", default=None, help="output path base (.json / .counts.csv)")
    run.add_argument("--format", choices=("json", "csv"), default="json",
                     help="what to print on stdout")

    cal = sub.add_parser("calibrate", help="grid-fit noise parameters to target fidelities")
    cal.add_argument("config", help="YAML file with 'targets' and optional 'grid'")
    cal.add_argument("--out", default=None, help="write the calibration result as JSON")
    cal.add_argument("--format", choices=("json", "csv"), default="json")

    gt = sub.add_parser("gate-table", help="print the ideal gate truth table")
    gt.add_argument("--format", choices=("json", "csv", "text"), default="text")
    return parser


def _cmd_run(args) -> int:
    config = load_config(args.config)
    if args.seed is not None:
        config = dataclasses.replace(config, seed=args.seed)
    if args.out is not None:
        config = dataclasses.replace(config, out=args.out)
    report = run_experiment(config)
    if args.format == "json":
        print(report.to_json())
    else:
        print(report.counts_csv(), end="")
    return EXIT_OK


def _load_calibration_config(path: str):
    data = _read_yaml(path) or {}
    if not isinstance(data, dict):
        raise ConfigError("config root: expected a mapping")
    targets = data.get("targets")
    if not isinstance(targets, dict) or not targets:
        raise ConfigError("targets: a non-empty mapping of quantity -> value is required")
    grid_spec = data.get("grid", {})
    if not isinstance(grid_spec, dict):
        raise ConfigError("grid: expected a mapping of parameter -> [start, stop, points]")
    grids = {}
    for name, default in DEFAULT_CAL_GRID.items():
        raw = grid_spec.get(name, default)
        # every axis (overlap, pair and input mixedness) lies in [0, 1]
        if (not isinstance(raw, (list, tuple)) or len(raw) != 3
                or not all(_is_real(x) and 0.0 <= x <= 1.0 for x in raw[:2])
                or not _is_int(raw[2]) or not 1 <= raw[2] <= MAX_GRID_POINTS):
            raise ConfigError(f"grid.{name}: expected [start, stop, points] with start and stop "
                              f"in [0, 1] and 1 to {MAX_GRID_POINTS} points, got {raw!r}")
        grids[name] = np.linspace(float(raw[0]), float(raw[1]), raw[2])
    unknown = set(grid_spec) - set(DEFAULT_CAL_GRID)
    if unknown:
        raise ConfigError(f"grid: unknown parameters {sorted(unknown, key=str)}")
    total = math.prod(len(axis) for axis in grids.values())
    if total > MAX_GRID_TOTAL:
        raise ConfigError(f"grid: {total} points in all, at most {MAX_GRID_TOTAL}")
    for key, value in targets.items():
        # every calibratable figure is a fidelity in [0, 1] or an |S| in [0, 4]
        if not _is_real(value) or not 0.0 <= value <= 4.0:
            raise ConfigError(f"targets.{key}: must be a number in [0, 4], got {value!r}")
    return {str(k): float(v) for k, v in targets.items()}, grids


def _cmd_calibrate(args) -> int:
    targets, grids = _load_calibration_config(args.config)
    if args.out:
        _check_out_path(args.out)
    try:
        result = calibrate(targets, grids["overlap"], grids["pair_mixedness"],
                           grids["input_mixedness"])
    except ZeroSuccessError:
        raise  # a numerical failure, not a config error
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    payload = {
        "overlap": result.overlap,
        "pair_mixedness": result.pair_mixedness,
        "input_mixedness": result.input_mixedness,
        "residual": result.residual,
        "predictions": result.predictions,
        "targets": targets,
    }
    if args.format == "json":
        text = json.dumps(payload, sort_keys=True, indent=2)
    else:
        lines = ["quantity,value"]
        for key in ("overlap", "pair_mixedness", "input_mixedness", "residual"):
            lines.append(f"{key},{payload[key]!r}")
        for key in sorted(result.predictions):
            lines.append(f"prediction.{key},{result.predictions[key]!r}")
        text = "\n".join(lines)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
            fh.write("\n")
    print(text)
    return EXIT_OK


def _cmd_gate_table(args) -> int:
    channel = gate_channel(1.0)
    (kraus,) = channel.kraus
    basis = ("HH", "HV", "VH", "VV")
    rows = []
    for i, name in enumerate(basis):
        col = kraus[:, i]
        j = int(np.argmax(np.abs(col)))
        amp = col[j]
        sign = "-" if amp.real < 0 else ""
        rows.append({
            "input": name,
            "output": f"{sign}{basis[j]}",
            "amplitude": float(amp.real),
            "success_probability": float(np.abs(col) @ np.abs(col)),
        })
    if args.format == "json":
        print(json.dumps({"truth_table": rows}, indent=2))
    elif args.format == "csv":
        print("input,output,amplitude,success_probability")
        for r in rows:
            print(f"{r['input']},{r['output']},{r['amplitude']!r},{r['success_probability']!r}")
    else:
        print("input  ->  output   amplitude   success")
        for r in rows:
            print(f" {r['input']}   ->  {r['output']:>3}      {r['amplitude']:+.6f}    {r['success_probability']:.6f}")
    return EXIT_OK


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    commands = {"run": _cmd_run, "calibrate": _cmd_calibrate, "gate-table": _cmd_gate_table}
    try:
        code = commands[args.command](args)
        sys.stdout.flush()  # a closed pipe raises here, not at interpreter exit
        return code
    except BrokenPipeError:
        # the reader is gone: send the rest of the output, and the exit-time flush, to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_CLOSED_STDOUT
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (FitError, ZeroSuccessError, np.linalg.LinAlgError, RuntimeError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
