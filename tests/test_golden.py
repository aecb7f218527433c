"""Every golden config's CLI output against its committed files (see golden/regenerate.py)."""

import pytest

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
