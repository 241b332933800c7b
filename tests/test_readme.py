"""The README's Python examples run against the package as it is."""
from __future__ import annotations

import contextlib
import io
import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"),
                    flags=re.DOTALL | re.MULTILINE)


def test_the_readme_has_python_examples():
    assert BLOCKS


@pytest.mark.parametrize("block", BLOCKS, ids=[f"block-{i}" for i in range(len(BLOCKS))])
def test_readme_example_runs(block):
    # each block in a fresh namespace, its output kept off the test log
    with contextlib.redirect_stdout(io.StringIO()):
        exec(compile(block, str(README), "exec"), {"__name__": "__readme__"})
