"""The benchmark's workloads: config generation from a seed, and output checks.

One operation is one ``telegate`` CLI call on a generated config. Every
check raises :class:`CheckFailed` with the quantity that is off; the exact
references it compares against are computed outside the timed calls.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable

from telegate.experiment import swap_summary, teleport_summary
from telegate.gate import gate_channel

#: The paper's calibrated operating point (overlap, pair and input mixedness).
CAL_OVERLAP, CAL_PAIR, CAL_INPUT = 0.93, 0.01, 0.14

PROBES = ("H", "V", "+", "R")

#: A count-based figure must lie within Z_TOL reported error bars of its
#: exact value; an error bar outside (0, MAX_ERR] is itself a failure.
Z_TOL = 6.0
MAX_ERR = 0.25

#: The paper's teleport and swap figures, the targets of calibrate-grid.
CAL_TARGETS = {"F_H": 0.93, "F_V": 0.75, "F_+": 0.79, "F_R": 0.84, "F_p": 0.75,
               "F_swap_avg": 0.773, "S_abs_avg": 2.14}

#: calibrate-grid axes as [start, stop, points], inside the acceptance-suite
#: grid (overlap 0.86-1.00, both mixednesses 0-0.20). The seed picks one of
#: the overlap starts; every variant costs the same.
CAL_OVERLAP_STARTS = (0.86, 0.865, 0.87, 0.875)
CAL_GRID_POINTS = (6, 8, 5)

#: The argmin (overlap, pair, input) of each calibrate-grid variant, recorded
#: at the commit that introduced this benchmark. The runner-up residual is
#: at least 2e-5 above the minimum in every variant, far above rounding.
CAL_ARGMIN = {
    0.86: (0.944, 0.028571428571428574, 0.15000000000000002),
    0.865: (0.946, 0.028571428571428574, 0.15000000000000002),
    0.87: (0.922, 0.0, 0.1),
    0.875: (0.925, 0.0, 0.15000000000000002),
}

#: Calibrated predictions must match the exact pipeline re-run at the argmin
#: to this absolute tolerance (they are bit-identical when both share code).
PRED_TOL = 1e-9


class CheckFailed(AssertionError):
    """An operation's output disagrees with the exact reference."""


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # the CLI subcommand
    config: Callable[[int], dict]  # seed -> YAML config mapping
    reference: Callable[[dict], object]  # config -> exact reference values
    check: Callable[[str, dict, object], None]  # (stdout, config, reference)


def _near(label: str, value: float, exact: float, err: float) -> None:
    if not 0.0 < err <= MAX_ERR:
        raise CheckFailed(f"{label}: error bar {err!r} outside (0, {MAX_ERR}]")
    if abs(value - exact) > Z_TOL * err:
        raise CheckFailed(f"{label}: {value!r} is {abs(value - exact) / err:.1f} error bars "
                          f"from the exact {exact!r}")


def _report(stdout: str, config: dict) -> dict:
    report = json.loads(stdout)
    echo = report["config"]
    for key, value in config.items():
        if echo[key] != value:
            raise CheckFailed(f"config echo {key}: {echo[key]!r} != {value!r}")
    if report["seed"] != config["seed"]:
        raise CheckFailed(f"report seed {report['seed']!r} != {config['seed']!r}")
    return report["results"]


# -- teleport ------------------------------------------------------------------

def _teleport_config(overlap, pair, inp, counts):
    def config(seed: int) -> dict:
        return {"protocol": "teleport", "overlap": overlap, "pair_mixedness": pair,
                "input_mixedness": inp, "counts_per_setting": counts,
                "bootstrap_resamples": 100, "seed": seed}
    return config


def _teleport_reference(config: dict) -> dict:
    return teleport_summary(config["overlap"], config["pair_mixedness"],
                            config["input_mixedness"])


def _check_teleport_cal(stdout: str, config: dict, exact: dict) -> None:
    res = _report(stdout, config)
    for name in PROBES:
        blk = res["inputs"][name]
        _near(f"F_{name}", blk["fidelity"], exact[f"F_{name}"], blk["fidelity_err"])
        expected = {bell for bell, o in exact["per_outcome"][name].items()
                    if o["fidelity"] is not None}
        if set(blk["outcomes"]) != expected:
            raise CheckFailed(f"F_{name}: outcomes {sorted(blk['outcomes'])} != {sorted(expected)}")
        for bell, o in blk["outcomes"].items():
            _near(f"F_{name}/{bell}", o["fidelity"],
                  exact["per_outcome"][name][bell]["fidelity"], o["fidelity_err"])
    _near("F_p", res["process_fidelity"], exact["F_p"], res["process_fidelity_err"])


def _check_teleport_ideal(stdout: str, config: dict, exact: dict) -> None:
    # the acceptance suite's criterion-6 thresholds
    res = _report(stdout, config)
    for name in PROBES:
        if not res["inputs"][name]["fidelity"] > 0.99:
            raise CheckFailed(f"F_{name} = {res['inputs'][name]['fidelity']!r} <= 0.99")
    if not abs(res["process_fidelity"] - 1.0) < 0.01:
        raise CheckFailed(f"|F_p - 1| >= 0.01 (F_p = {res['process_fidelity']!r})")


# -- swap ----------------------------------------------------------------------

def _swap_config(seed: int) -> dict:
    return {"protocol": "swap", "overlap": CAL_OVERLAP, "pair_mixedness": CAL_PAIR,
            "counts_per_setting": 1000, "bootstrap_resamples": 100, "seed": seed}


def _swap_reference(config: dict) -> dict:
    return swap_summary(config["overlap"], config["pair_mixedness"])


def _check_swap_cal(stdout: str, config: dict, exact: dict) -> None:
    res = _report(stdout, config)
    if set(res["outcomes"]) != set(exact["outcomes"]):
        raise CheckFailed(f"outcomes {sorted(res['outcomes'])} != {sorted(exact['outcomes'])}")
    for label, o in res["outcomes"].items():
        ref = exact["outcomes"][label]
        if o["chsh_variant"] != ref["chsh_variant"]:
            raise CheckFailed(f"{label}: CHSH variant {o['chsh_variant']} != {ref['chsh_variant']}")
        _near(f"{label} fidelity", o["fidelity"], ref["fidelity"], o["fidelity_err"])
        _near(f"{label} chsh", o["chsh"], ref["chsh"], o["chsh_err"])
    _near("average_fidelity", res["average_fidelity"], exact["F_avg"],
          res["average_fidelity_err"])
    _near("average_chsh_abs", res["average_chsh_abs"], exact["S_abs_avg"],
          res["average_chsh_abs_err"])


# -- calibrate -----------------------------------------------------------------

def _calibrate_config(seed: int) -> dict:
    n_v, n_p, n_i = CAL_GRID_POINTS
    return {"seed": seed, "targets": dict(CAL_TARGETS),
            "grid": {"overlap": [CAL_OVERLAP_STARTS[seed % len(CAL_OVERLAP_STARTS)], 1.0, n_v],
                     "pair_mixedness": [0.0, 0.2, n_p],
                     "input_mixedness": [0.0, 0.2, n_i]}}


def exact_predictions(overlap: float, pair: float, inp: float) -> dict:
    """The exact figures that ``calibrate`` reports at one grid point."""
    channel = gate_channel(round(overlap, 12))
    tele = teleport_summary(channel, pair, inp)
    sw = swap_summary(channel, pair)
    pred = {k: tele[k] for k in ("F_H", "F_V", "F_+", "F_R", "F_p", "F_avg")}
    pred.update({"F_swap_avg": sw["F_avg"], "S_abs_avg": sw["S_abs_avg"]})
    return pred


def _calibrate_reference(config: dict):
    return CAL_ARGMIN[config["grid"]["overlap"][0]]


def _check_calibrate(stdout: str, config: dict, argmin) -> None:
    payload = json.loads(stdout)
    found = (payload["overlap"], payload["pair_mixedness"], payload["input_mixedness"])
    if found != argmin:
        raise CheckFailed(f"argmin {found} != recorded {argmin}")
    exact = exact_predictions(*found)
    pred = payload["predictions"]
    if set(pred) != set(exact) or any(abs(pred[k] - exact[k]) > PRED_TOL for k in exact):
        raise CheckFailed(f"predictions {pred} != recomputed {exact}")
    if payload["targets"] != config["targets"]:
        raise CheckFailed(f"targets echo {payload['targets']} != {config['targets']}")


WORKLOADS = {w.name: w for w in (
    Workload("teleport-cal", "run", _teleport_config(CAL_OVERLAP, CAL_PAIR, CAL_INPUT, 1000),
             _teleport_reference, _check_teleport_cal),
    Workload("teleport-ideal", "run", _teleport_config(1.0, 0.0, 0.0, 100_000),
             lambda config: None, _check_teleport_ideal),
    Workload("swap-cal", "run", _swap_config, _swap_reference, _check_swap_cal),
    Workload("calibrate-grid", "calibrate", _calibrate_config, _calibrate_reference,
             _check_calibrate),
)}
