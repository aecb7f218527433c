"""The README's code runs, and its figure-path diagram names functions that exist."""

import importlib
import re
from pathlib import Path

import pytest

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def fenced_blocks(language: str, text: str = README) -> list[tuple[int, str]]:
    """(first line number, body) of every ```<language> block of ``text``."""
    return [(text.count("\n", 0, m.start(1)) + 1, m.group(1))
            for m in re.finditer(rf"^```{language}\n(.*?)^```$", text, re.M | re.S)]


PYTHON_BLOCKS = fenced_blocks("python")


def test_readme_has_python_blocks():
    assert PYTHON_BLOCKS


@pytest.mark.parametrize("line, source", PYTHON_BLOCKS, ids=[f"line{n}" for n, _ in PYTHON_BLOCKS])
def test_python_block_runs(line, source):
    exec(compile(source, f"README.md:{line}", "exec"), {})


def test_figure_path_functions_resolve():
    tour = README[README.index("## Library tour"):README.index("## CLI")]
    ((_, diagram),) = fenced_blocks("text", tour)
    dotted = r"\b([a-z]+)\.(_?[a-z_]+)\b"
    # sources, analyzer, counts, fit and figure each name the function that makes them
    assert all(re.search(dotted, line) for line in diagram.splitlines()[:5]), diagram
    names = re.findall(dotted, diagram)
    for module, name in names:
        assert callable(getattr(importlib.import_module(f"telegate.{module}"), name)), (module, name)
