"""Every golden config's CLI output against its committed files (see golden/regenerate.py)."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import telegate
from golden.regenerate import FLOAT_TOL, GOLDEN, configs, largest_shift, parse, produce


@pytest.mark.parametrize("config", configs(), ids=lambda path: path.stem)
def test_output_matches_golden_files(config, tmp_path):
    for path in produce(config, tmp_path):
        # keys, strings and integers (the raw counts among them) exactly, floats to FLOAT_TOL
        assert largest_shift(parse(GOLDEN / path.name), parse(path)) <= FLOAT_TOL, path.name


def test_every_golden_file_has_a_config():
    names = {path.name.removesuffix(".json").removesuffix(".counts.csv")
             for path in GOLDEN.iterdir() if path.suffix in (".json", ".csv")}
    assert names == {config.stem for config in configs()}


@pytest.mark.parametrize("name", ["teleport-cal", "swap-cal"])
def test_report_bytes_do_not_depend_on_blas_threads(name):
    # batched matmuls are where a BLAS thread count could change the order of summation
    src = str(Path(telegate.__file__).resolve().parents[1])
    stdouts = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
        stdouts.append(subprocess.run(
            [sys.executable, "-m", "telegate.cli", "run", str(GOLDEN / f"{name}.yaml")],
            env=env, capture_output=True, check=True).stdout)
    assert stdouts[0].startswith(b"{") and stdouts[0] == stdouts[1]
