"""Brute-force reference computations for the dimension report.

Ground truth for equivalence tests: sums run focal set by focal set with
no cardinality grouping and no shared code with the main path.  Each
per-focal-set term is formed on its own, in C-level passes over the
columns (``map`` of ``math.log2``, ``operator.mul`` and ``pow``), and
summed once by ``math.fsum``: the same bits as a Python loop over the
entries, since ``(-m) * y == -(m * y)`` and ``fsum`` rounds a negated
sum to the negated result.  May be exponentially slow; that is the point.
"""
from __future__ import annotations

from math import fsum, log2
from operator import mul, truediv

from .core import EvidenceError, MassFunction, _is_real, _shown
from .dimension import DimensionReport


def brute_force_report(mass: MassFunction) -> DimensionReport:
    """Per-focal-element evaluation of entropy, split scale, and dimension."""
    # each focal set's 2^|A| - 1 nonempty subsets, its size counted afresh
    splits = [2 ** bin(mask).count("1") - 1 for mask in mass.masks]
    if splits == [1]:
        return DimensionReport(0.0, 0.0, 0.0, True)
    masses = mass.masses
    entropy = -fsum(map(mul, masses, map(log2, map(truediv, masses, splits))))
    split = log2(fsum(map(pow, splits, masses)))
    return DimensionReport(entropy, split, entropy / split, False)


def compare_reports(a: DimensionReport, b: DimensionReport, tol: float) -> bool:
    """True iff the degenerate flags match and all numeric fields agree
    within ``tol``, a real number (not a bool) above 0, or
    :class:`EvidenceError` names it."""
    if not (_is_real(tol) and tol > 0.0):
        raise EvidenceError(f"tolerance {_shown(tol)} is not a real number above 0")
    return (
        a.degenerate == b.degenerate
        and abs(a.entropy_bits - b.entropy_bits) <= tol
        and abs(a.split_scale_bits - b.split_scale_bits) <= tol
        and abs(a.dimension - b.dimension) <= tol
    )
