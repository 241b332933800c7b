"""Each demo prints its recorded bytes under several string hash seeds.

The expected stdout lives in ``demos/expected/<demo>.txt``.  Two seeds
can happen to order a small set alike, so three are run.
"""
from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_every_demo_has_a_recording():
    assert DEMOS
    recorded = sorted(path.stem for path in (ROOT / "demos" / "expected").glob("*.txt"))
    assert recorded == [demo.stem for demo in DEMOS]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
@pytest.mark.parametrize("seed", ["0", "1", "2"])
def test_demo_prints_recorded_output(demo, seed):
    src = str(ROOT / "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=f"{src}{os.pathsep}{path}" if path else src)
    result = subprocess.run([sys.executable, str(demo)], capture_output=True, env=env, check=True)
    assert result.stdout == (ROOT / "demos" / "expected" / f"{demo.stem}.txt").read_bytes()
