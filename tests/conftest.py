"""Shared fixtures and random-object helpers for the test suite."""
from __future__ import annotations

import io
import json
import math
import random
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from evidim import Frame, MassFunction, Subset, mass_to_json
from evidim.cli import main


@pytest.fixture
def two_frame() -> Frame:
    return Frame(("w1", "w2"))


@pytest.fixture
def skewed_pair_mass(two_frame) -> MassFunction:
    """m(w1) = 5/6, m({w1, w2}) = 1/6: the hand-checked worked example."""
    return MassFunction.from_assignments(
        two_frame,
        {two_frame.subset(["w1"]): 5 / 6, two_frame.full_set(): 1 / 6},
    )


def random_mass(rng: random.Random, n: int, full_powerset: bool = False) -> MassFunction:
    """Random mass function on a generic n-element frame.

    Picks a random nonempty family of focal subsets (or the full power
    set) and normalizes random positive weights over it.
    """
    frame = Frame.generic(n)
    universe = range(1, 1 << n)
    if full_powerset:
        masks = list(universe)
    else:
        masks = rng.sample(universe, rng.randint(1, (1 << n) - 1))
    weights = [rng.uniform(0.05, 1.0) for _ in masks]
    total = math.fsum(weights)
    return MassFunction.from_assignments(
        frame, [(Subset(frame, mask), w / total) for mask, w in zip(masks, weights)]
    )


def permute_mass(mass: MassFunction, order: list[int]) -> MassFunction:
    """Relabel frame elements by the permutation ``order`` (old index i
    moves to position order[i])."""
    n = mass.frame.size
    labels = [""] * n
    for i, pos in enumerate(order):
        labels[pos] = mass.frame.labels[i]
    frame = Frame(tuple(labels))
    assignments = []
    for subset, m in mass.focal:
        mask = 0
        for i in range(n):
            if subset.mask >> i & 1:
                mask |= 1 << order[i]
        assignments.append((Subset(frame, mask), m))
    return MassFunction.from_assignments(frame, assignments)


def compute_by_base(mass: MassFunction, path: Path) -> dict[str, dict]:
    """``evidim compute <path> --base b --format json`` for b in 2, e and
    10, with ``mass`` written to ``path``: each base's parsed report."""
    path.write_text(mass_to_json(mass), encoding="utf-8")
    reports = {}
    for base in ("2", "e", "10"):
        out = io.StringIO()
        with redirect_stdout(out):
            assert main(["compute", str(path), "--base", base, "--format", "json"]) == 0
        reports[base] = json.loads(out.getvalue())
    return reports
