"""Golden outputs: the CLI's files for every config in this directory.

A ``calibrate-*.yaml`` config runs ``telegate calibrate`` and gives
``<name>.json``; any other runs ``telegate run`` and gives ``<name>.json``
and ``<name>.counts.csv``. The Tier-1 test ``tests/test_golden.py`` compares
fresh outputs against the committed ones. Run this file to rewrite them:

    python tests/golden/regenerate.py

It prints, per file, the largest float shift from the committed version.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import shutil
import sys
import tempfile
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent

#: Floats may move by this much, absolute; keys, strings and integers not at all.
FLOAT_TOL = 1e-12


class Mismatch(AssertionError):
    """Two outputs differ in structure, in a string or in an integer."""


def configs() -> list[Path]:
    return sorted(GOLDEN.glob("*.yaml"))


def produce(config: Path, out_dir: Path) -> list[Path]:
    """Run the CLI on ``config``, writing its files into ``out_dir``; returns their paths."""
    from telegate import cli
    from telegate.experiment import REPORT_SUFFIXES

    name = config.stem
    if name.startswith("calibrate-"):
        paths = [out_dir / f"{name}.json"]
        argv = ["calibrate", str(config), "--out", str(paths[0])]
    else:
        paths = [out_dir / f"{name}{suffix}" for suffix in REPORT_SUFFIXES]
        argv = ["run", str(config), "--out", str(out_dir / name)]
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"telegate {' '.join(argv)} exited {code}")
    return paths


def parse(path: Path):
    """A JSON file as parsed; a counts CSV as rows with integer raw and float corrected counts."""
    text = path.read_text()
    if path.suffix == ".json":
        return json.loads(text)
    header, *rows = csv.reader(io.StringIO(text))
    return [header] + [[*row[:4], int(row[4]), float(row[5])] for row in rows]


def largest_shift(want, got, where: str = "") -> float:
    """The largest |difference| of two parsed outputs' floats; raises Mismatch on anything else."""
    if isinstance(want, float) and isinstance(got, float):
        return abs(want - got)
    if type(want) is not type(got):
        raise Mismatch(f"{where or '/'}: {want!r} != {got!r}")
    if isinstance(want, dict):
        if list(want) != list(got):
            raise Mismatch(f"{where or '/'}: keys {list(want)} != {list(got)}")
        pairs = [(want[k], got[k], f"{where}/{k}") for k in want]
    elif isinstance(want, list):
        if len(want) != len(got):
            raise Mismatch(f"{where or '/'}: {len(want)} entries != {len(got)}")
        pairs = [(w, g, f"{where}/{i}") for i, (w, g) in enumerate(zip(want, got))]
    elif want != got:
        raise Mismatch(f"{where or '/'}: {want!r} != {got!r}")
    else:
        return 0.0
    return max((largest_shift(*pair) for pair in pairs), default=0.0)


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        for config in configs():
            for path in produce(config, Path(tmp)):
                golden = GOLDEN / path.name
                if not golden.exists():
                    change = "new"
                else:
                    try:
                        change = f"largest shift {largest_shift(parse(golden), parse(path)):.3g}"
                    except Mismatch as exc:
                        change = f"changed: {exc}"
                shutil.copyfile(path, golden)
                print(f"{path.name}: {change}")
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(GOLDEN.parents[1] / "src"))
    sys.exit(main())
