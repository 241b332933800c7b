"""Brute-force reference computations for the dimension report.

Ground truth for equivalence tests: sums run focal set by focal set with
no cardinality grouping and no shared code with the main path.  May be
exponentially slow; that is the point.
"""
from __future__ import annotations

import math

from .core import MassFunction
from .dimension import DimensionReport


def brute_force_report(mass: MassFunction) -> DimensionReport:
    """Per-focal-element evaluation of entropy, split scale, and dimension."""
    if len(mass.masks) == 1 and _popcount(mass.masks[0]) == 1:
        return DimensionReport(0.0, 0.0, 0.0, True)
    entropy_terms = []
    split_terms = []
    for mask, m in zip(mass.masks, mass.masses):
        splits = 2 ** _popcount(mask) - 1
        entropy_terms.append(-m * math.log2(m / splits))
        split_terms.append(splits ** m)
    entropy = math.fsum(entropy_terms)
    split = math.log2(math.fsum(split_terms))
    return DimensionReport(entropy, split, entropy / split, False)


def _popcount(mask: int) -> int:
    return bin(mask).count("1")


def compare_reports(a: DimensionReport, b: DimensionReport, tol: float) -> bool:
    """True iff the degenerate flags match and all numeric fields agree
    within ``tol``."""
    if not tol > 0.0:
        raise ValueError("tolerance must be positive")
    return (
        a.degenerate == b.degenerate
        and abs(a.entropy_bits - b.entropy_bits) <= tol
        and abs(a.split_scale_bits - b.split_scale_bits) <= tol
        and abs(a.dimension - b.dimension) <= tol
    )
