"""One number rule for every numeric input of the package.

Python and numpy ints and floats pass, a numpy one coming back as a Python
number; bool, str, None, NaN and values out of range raise an error that
names the field: a ConfigError from a config, a ValueError elsewhere.
"""

import json
import re
from unittest import mock

import numpy as np
import pytest

from telegate import cli
from telegate.experiment import (
    ConfigError,
    CountTable,
    ExperimentConfig,
    calibrate,
    run_experiment,
    simulate_counts,
    swap_summary,
    teleport_summary,
)
from telegate.gate import PdbsSpec, fock_input, gate_channel
from telegate.sources import InputSpec, PairSpec

_DIST = {"Z": {"+": 0.5, "-": 0.5}}


def _calibration_config(targets=None, grid=None):
    """The CLI's checked calibration config for a parsed YAML document with these fields."""
    data = {"targets": targets or {"F_H": 0.9}, "grid": grid or {}}
    with mock.patch.object(cli, "_read_yaml", return_value=data):
        return cli._load_calibration_config("calibrate.yaml")


def _teleport(**fields):
    return ExperimentConfig(protocol="teleport", **fields)


#: Per entry point: the field its messages name, a call with one value in that field,
#: an in-range numpy value, an out-of-range value, and the error type.
ENTRY_POINTS = [
    ("overlap", lambda x: _teleport(overlap=x), np.float64(0.9), 1.5, ConfigError),
    ("pair_mixedness", lambda x: _teleport(pair_mixedness=x), np.float64(0.1), -0.1, ConfigError),
    ("input_mixedness", lambda x: _teleport(input_mixedness=x), np.float64(0.1), 1.5, ConfigError),
    ("counts_per_setting", lambda x: _teleport(counts_per_setting=x), np.int64(100), 0, ConfigError),
    ("seed", lambda x: _teleport(seed=x), np.int64(3), -1, ConfigError),
    ("bootstrap_resamples", lambda x: _teleport(bootstrap_resamples=x), np.int64(100), 99,
     ConfigError),
    ("efficiencies.a+", lambda x: _teleport(efficiencies={"a+": x}), np.float64(0.9), 0.0,
     ConfigError),
    ("n_per_setting", lambda x: simulate_counts(_DIST, x, {}, 0, ("a",)), np.int64(10), 0,
     ValueError),
    ("efficiency a+", lambda x: simulate_counts(_DIST, 10, {"a+": x}, 0, ("a",)), np.float64(0.9),
     1.5, ValueError),
    ("efficiency a+", lambda x: CountTable(("a",), ("Z",), ("+", "-"), np.array([[5, 5]]), {"a+": x}),
     np.float64(0.9), 0.0, ValueError),
    ("overlap", lambda x: teleport_summary(x), np.float64(0.9), 1.5, ValueError),
    ("pair_mixedness", lambda x: teleport_summary(1.0, x), np.float64(0.1), 1.5, ValueError),
    ("input_mixedness", lambda x: teleport_summary(1.0, 0.0, x), np.float64(0.1), -0.1, ValueError),
    ("overlap", lambda x: swap_summary(x), np.float64(0.9), -0.1, ValueError),
    ("pair_mixedness", lambda x: swap_summary(1.0, x), np.float64(0.1), 1.5, ValueError),
    ("overlap_grid", lambda x: calibrate({"F_H": 0.9}, (1.0, x)), np.float64(0.9), 1.5, ValueError),
    ("pair_grid", lambda x: calibrate({"F_H": 0.9}, (1.0,), (x,)), np.float64(0.1), -0.1,
     ValueError),
    ("input_grid", lambda x: calibrate({"F_H": 0.9}, (1.0,), (0.0,), (x,)), np.float64(0.1), 1.5,
     ValueError),
    ("calibration target 'F_H'", lambda x: calibrate({"F_H": x}, (1.0,)), np.float64(0.9), 4.5,
     ValueError),
    ("grid.overlap", lambda x: _calibration_config(grid={"overlap": [x, 1.0, 2]}),
     np.float64(0.9), 1.5, ConfigError),
    ("grid.pair_mixedness points", lambda x: _calibration_config(grid={"pair_mixedness": [0, 0.1, x]}),
     np.int64(2), 1001, ConfigError),
    ("targets.F_H", lambda x: _calibration_config(targets={"F_H": x}), np.float64(0.9), 4.5,
     ConfigError),
    ("mixedness", lambda x: PairSpec("phi+", x), np.float64(0.1), 1.5, ValueError),
    ("mixedness", lambda x: InputSpec("H", x), np.float64(0.1), -0.1, ValueError),
    ("t_h", lambda x: PdbsSpec(x, 0.5), np.float64(0.5), 1.5, ValueError),
    ("t_v", lambda x: PdbsSpec(0.5, x), np.float64(0.5), -0.1, ValueError),
    ("overlap", lambda x: gate_channel(x), np.float64(0.9), 1.5, ValueError),
    ("overlap", lambda x: fock_input([1, 0, 0, 0], x), np.float64(0.9), -0.1, ValueError),
]


@pytest.mark.parametrize("name, call, good, out_of_range, error", ENTRY_POINTS,
                         ids=[f"{i}-{entry[0]}" for i, entry in enumerate(ENTRY_POINTS)])
def test_every_numeric_entry_point_follows_one_rule(name, call, good, out_of_range, error):
    call(good)
    for bad in (True, "0.5", None, float("nan"), out_of_range):
        with pytest.raises(error, match=re.escape(f"{name}: must ")) as info:
            call(bad)
        assert type(info.value) is error, bad


def test_numpy_numbers_are_kept_as_python_numbers():
    config = _teleport(overlap=np.float32(0.5), seed=np.int64(3), counts_per_setting=np.int64(100),
                       efficiencies={"a+": np.float64(0.9)})
    assert [type(x) for x in (config.overlap, config.seed, config.counts_per_setting,
                              config.efficiencies["a+"])] == [float, int, int, float]
    json.dumps(config.echo())
    assert type(PairSpec("phi+", np.float64(0.1)).mixedness) is float
    assert type(PdbsSpec(np.int64(1), np.float64(0.5)).t_h) is int


def test_numpy_config_reports_the_same_bytes():
    plain = run_experiment(_teleport(overlap=0.93, seed=7, counts_per_setting=200))
    numpy = run_experiment(_teleport(overlap=np.float64(0.93), seed=np.int64(7),
                                     counts_per_setting=np.int64(200)))
    assert numpy.to_json() == plain.to_json()
    assert numpy.counts_csv() == plain.counts_csv()


def test_config_keeps_its_own_efficiencies():
    efficiencies = {"a+": 0.9}
    config = _teleport(efficiencies=efficiencies)
    efficiencies["a+"] = 5.0
    assert config.efficiencies == {"a+": 0.9}
    assert config.echo()["efficiencies"] == {"a+": 0.9}
