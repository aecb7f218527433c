#!/usr/bin/env python3
"""Benchmark telegate through its command-line entry point.

    python3 perfbench/run.py --workload teleport-cal --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

One operation is one ``telegate.cli.main([...])`` call on a config generated
from ``--seed``, made in this process with stdout captured and a cold gate
channel cache. Operations repeat the same config until ``--seconds`` are
used up, and every output is checked against the exact pipeline. With
``--trace 0`` the run reports the end-to-end metrics; with ``--trace 1`` it
runs one untraced operation and then traced ones, and reports the per-layer
metrics (see README.md). The last line of stdout is the result as JSON.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

#: Fresh interpreters started per run to measure set-up; the median counts.
SETUP_RUNS = 3
#: Traced operations per traced run, at the least; two give the count check.
MIN_TRACED_OPS = 2
#: Untraced runs give operation k the config seed ``seed + SEED_STRIDE * k``.
#: The fit work of a ``run`` varies with its counts, so a run spread over
#: several inputs varies less from seed to seed. Traced runs repeat the
#: config of ``seed`` itself: their checks compare operations on one input.
SEED_STRIDE = 1000

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}

# Set-up as a user pays it: interpreter start, CLI import, first channel.
# CLOCK_MONOTONIC is system-wide, so the probe's reading is comparable.
SETUP_PROBE = """\
import sys, time
sys.path.insert(0, sys.argv[1])
import telegate.cli
from telegate.gate import gate_channel
gate_channel(0.93)
print(time.monotonic())
"""


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric reported by a traced run, with its unit."""
    from tracing import FIT_LAYERS, SPAN_LAYERS

    units = {}
    for layer in SPAN_LAYERS:
        units[f"{layer}.calls"] = "count"
        units[f"{layer}.self_s"] = "s"
    for layer in FIT_LAYERS:
        units.update({f"{layer}.iters": "count", f"{layer}.fit_ms.p50": "ms",
                      f"{layer}.fit_ms.p99": "ms", f"{layer}.failed": "count",
                      f"{layer}.boundary_share": "ratio"})
    units.update({"experiment.bootstrap.resamples": "count",
                  "experiment.bootstrap.useful_ratio": "ratio",
                  "trace.wall_s": "s", "trace.untraced_wall_s": "s",
                  "trace.overhead_s": "s", "trace.unattributed_s": "s"})
    return units


@dataclass
class Op:
    wall_s: float
    stdout: str
    error: str | None  # None when the call exited 0 and its output checked out
    restored: bool = True  # every name a traced call patched is the original again


def run_op(workload, config_seed: int, workdir: Path, tracer=None) -> Op:
    """One CLI call on the config for ``config_seed``, timed, then checked.

    The config file and the exact reference are made before the timed call,
    and the channel cache is cleared. With a tracer the call runs with the
    layers patched; the check runs after they are restored, so its own
    calls stay out of the trace.
    """
    import tracing
    from telegate import cli
    from telegate.gate import gate_channel
    from workloads import CheckFailed

    config = workload.config(config_seed)
    reference = workload.reference(config)
    path = workdir / f"{workload.name}-{config_seed}.yaml"
    path.write_text(json.dumps(config, sort_keys=True))  # JSON is YAML
    argv = [workload.command, str(path)]
    gate_channel.cache_clear()
    out, err = io.StringIO(), io.StringIO()
    error = None
    patch = tracing.patched(tracer) if tracer else contextlib.nullcontext(())
    with patch as originals, contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # the op failed; record it and keep running
            code, error = None, f"raised {exc!r}"
        wall = time.perf_counter() - start
    if error is None and code != 0:
        error = f"exit code {code}: {err.getvalue().strip()}"
    if error is None:
        try:
            workload.check(out.getvalue(), config, reference)
        except (CheckFailed, KeyError, TypeError, ValueError) as exc:
            error = f"check failed: {exc!r}"
    if error is not None:
        print(f"perfbench: {workload.name}: {error}", file=sys.stderr)
    return Op(wall, out.getvalue(), error, tracing.restored(originals))


def measure_setup() -> float:
    start = time.monotonic()
    proc = subprocess.run([sys.executable, "-c", SETUP_PROBE, str(SRC)], cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
    return float(proc.stdout.split()[-1]) - start


def _result(ops, correct: bool, metrics: dict[str, float], units: dict[str, str]) -> dict:
    failed = sum(op.error is not None for op in ops)
    return {"correct": correct and failed == 0, "attempted": len(ops), "failed": failed,
            "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units}}


def _untraced_run(workload, seed, seconds, workdir) -> dict:
    setup = [measure_setup() for _ in range(SETUP_RUNS)]
    ops = []
    start = time.perf_counter()
    while True:
        ops.append(run_op(workload, seed + SEED_STRIDE * len(ops), workdir))
        wall = statistics.median(op.wall_s for op in ops)
        if time.perf_counter() - start + wall > seconds:
            break
    metrics = {"wall_s": wall, "setup_s": statistics.median(setup),
               "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    failed = sum(op.error is not None for op in ops)
    walls = [op.wall_s for op in ops]
    print(f"{workload.name}: {len(ops)} ops, {failed} failed")
    for metric, value, unit, note in (
            ("wall_s", wall, "s", f"median of {len(ops)} ops, one config each, tracing off "
                                  f"(min {min(walls):.4f}, max {max(walls):.4f})"),
            ("setup_s", metrics["setup_s"], "s", f"median of {SETUP_RUNS} fresh interpreters"),
            ("peak_rss_mb", metrics["peak_rss_mb"], "MiB", "of this process"),
            ("failed_frac", failed / len(ops), "ratio", f"{failed} of {len(ops)} ops")):
        print(f"  {metric:12s} {value:10.4f} {unit:5s}  {note}")
    return _result(ops, True, metrics, END_TO_END_UNITS)


def _percentile_ms(durations, q: float) -> float:
    import numpy as np

    return float(np.percentile(durations, q)) * 1e3 if durations else 0.0


def _traced_run(workload, seed, seconds, workdir) -> dict:
    import tracing

    start = time.perf_counter()
    untraced = run_op(workload, seed, workdir)
    traced = []  # (op, work counts, self seconds, fit durations)
    while len(traced) < MIN_TRACED_OPS or (
            time.perf_counter() - start + statistics.median(t[0].wall_s for t in traced)
            <= seconds):
        tracer = tracing.Tracer()
        op = run_op(workload, seed, workdir, tracer)
        traced.append((op, tracer.counts(), tracer.self_seconds(),
                       {k: f.durations for k, f in tracer.fits.items()}))
    ops = [untraced] + [t[0] for t in traced]
    identical = all(t[0].stdout == untraced.stdout for t in traced)
    stable = all(t[1] == traced[0][1] for t in traced)
    is_restored = all(op.restored for op in ops)
    counts = traced[0][1]

    metrics = {}
    for layer in tracing.SPAN_LAYERS:
        metrics[f"{layer}.calls"] = counts[f"{layer}.calls"]
        metrics[f"{layer}.self_s"] = statistics.median(t[2][layer] for t in traced)
    for layer in tracing.FIT_LAYERS:
        durations = [d for t in traced for d in t[3][layer]]
        metrics.update({
            f"{layer}.iters": counts[f"{layer}.iters"],
            f"{layer}.fit_ms.p50": _percentile_ms(durations, 50),
            f"{layer}.fit_ms.p99": _percentile_ms(durations, 99),
            f"{layer}.failed": counts[f"{layer}.failed"],
            f"{layer}.boundary_share": counts[f"{layer}.boundary_share"],
        })
    resamples = counts["experiment.bootstrap.resamples"]
    metrics["experiment.bootstrap.resamples"] = resamples
    metrics["experiment.bootstrap.useful_ratio"] = (
        counts["experiment.bootstrap.useful"] / resamples if resamples else 0.0)
    traced_wall = statistics.median(t[0].wall_s for t in traced)
    metrics["trace.wall_s"] = traced_wall
    metrics["trace.untraced_wall_s"] = untraced.wall_s
    metrics["trace.overhead_s"] = traced_wall - untraced.wall_s
    metrics["trace.unattributed_s"] = statistics.median(
        t[0].wall_s - sum(t[2].values()) for t in traced)

    units = per_layer_units()
    print(f"{workload.name}: 1 untraced + {len(traced)} traced ops; report identical: {identical}, "
          f"counts stable: {stable}, names restored: {is_restored}")
    for metric, unit in units.items():
        print(f"  {metric:44s} {metrics[metric]:14.6g} {unit}")
    for layer in tracing.FIT_LAYERS:
        if counts[f"{layer}.failed_by_type"]:
            print(f"  {layer} failures by type: {counts[f'{layer}.failed_by_type']}")
    return _result(ops, identical and stable and is_restored, metrics, units)


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    from workloads import WORKLOADS

    with tempfile.TemporaryDirectory(prefix=".work-", dir=BENCH_DIR) as workdir:
        run = _traced_run if trace else _untraced_run
        return run(WORKLOADS[name], seed, seconds, Path(workdir))


def _run_all(args) -> dict:
    """Every workload in its own process, so that each has its own peak RSS."""
    from workloads import WORKLOADS

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=600)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            raise RuntimeError(f"workload {name} exited with {proc.returncode}")
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = value
    return combined


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="a workload name, or 'all'")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    package = SRC / "telegate"
    if not (package / "__init__.py").is_file():
        print(f"perfbench: no telegate sources at {package}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH_DIR))
    import telegate

    if Path(telegate.__file__).resolve().parent != package:
        print(f"perfbench: imported telegate from {telegate.__file__}, not {package}",
              file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload == "all":
        result = _run_all(args)
    elif args.workload in WORKLOADS:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    else:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)} or 'all'")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    # One BLAS thread, set before numpy is first imported here or in a probe.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
        os.environ[var] = "1"
    sys.exit(main())
