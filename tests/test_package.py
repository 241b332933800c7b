"""The package's public surface."""
from __future__ import annotations

import ast
import re
from pathlib import Path

import pytest

import evidim

MODULES = sorted(Path(evidim.__file__).parent.glob("*.py"))

# a number followed by a unit of time, size or speed-up: a measured figure
MEASUREMENT = re.compile(
    r"\d\s*(?:ms|µs|microseconds?|seconds?|MB|KB|bytes)\b|\d\s+times\s+(?:faster|slower)\b"
)


def test_all_lists_each_imported_name_once():
    # __init__.py names each public name twice, in its imports and in
    # __all__; the two lists must hold the same names
    tree = ast.parse(Path(evidim.__file__).read_text(encoding="utf-8"))
    imported = [
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    ]
    assert len(set(evidim.__all__)) == len(evidim.__all__)
    assert sorted(evidim.__all__) == sorted(imported)
    assert all(hasattr(evidim, name) for name in evidim.__all__)


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.stem)
def test_docstrings_quote_no_measurements(path):
    # a figure measured on one machine goes stale as the code changes; a
    # docstring states the rule, and CHANGES.md keeps the figures
    tree = ast.parse(path.read_text(encoding="utf-8"))
    nodes = [tree, *(
        node for node in ast.walk(tree)
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
    )]
    quoted = [
        (getattr(node, "name", path.stem), match.group())
        for node in nodes
        for match in MEASUREMENT.finditer(ast.get_docstring(node) or "")
    ]
    assert quoted == []


def test_measurement_pattern_tells_figures_from_rules():
    figures = ["about 220 microseconds", "0.2 ms", "150µs", "24.0 MB", "120 bytes",
               "3.8 times faster", "2 times slower", "25 seconds"]
    rules = ["capped at 64 elements", "log2(2^k - 1)", "N // 2", "the 53 bits of a double",
             "1024 layers", "times 2^N"]
    assert all(MEASUREMENT.search(text) for text in figures)
    assert not any(MEASUREMENT.search(text) for text in rules)
