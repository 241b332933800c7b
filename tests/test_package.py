"""The package's public surface."""
from __future__ import annotations

import ast
from pathlib import Path

import evidim


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
