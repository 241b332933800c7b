"""Deng entropy, split scale, and the information fractal dimension of a
mass function.

Deng entropy credits each focal set A with the 2^|A| - 1 nonempty subsets
it could split into, H_D = -sum m(A) log(m(A) / (2^|A| - 1)); it reduces
to Shannon entropy when every |A| is 1, and peaks at log(3^n - 2^n) when
m(A) is proportional to 2^|A| - 1.  The dimension is H_D over the split
scale log(sum over focal A of (2^|A| - 1)^m(A)), which measures how far
the mass spreads over the power-set split; both scale alike under a
change of logarithm base, so the ratio is base-free.

The result is one :class:`DimensionReport` per input, with both sums in
bits, from one constructor per input type: :func:`information_dimension`
for a mass function, :func:`information_dimension_profile` for a
cardinality profile and :func:`probability_dimension` for a probability
distribution.  Each sum runs through one kernel, :func:`_bits`, over five
parallel columns that this module alone builds and reads: an explicit
mass function gives one entry per focal set, with a count column of 0.0,
a profile one entry per cardinality layer and a distribution one entry
per outcome.  No row object is built per entry.  A profile's columns
follow the order its construction kept, largest layer weight first, and
reuse the weights it formed then, so the kernel sorts nothing.  Another
base is a display choice, one division the caller makes.
"""
from __future__ import annotations

import math
from typing import NamedTuple, Sequence

from .core import (
    MAX_EXPLICIT_FRAME, CardinalityProfile, MassFunction, ProbabilityDistribution,
    _check_frame_size, _logsumexp2,
)

# Every sum runs over five parallel columns, one entry per layer of focal
# sets that share one mass: s, log2(2^k - 1) for the cardinality k (0.0
# exactly when k is 1); lc, log2 of the focal-set count; lm, log2 of the
# per-set mass; m, the per-set mass; and w, the layer's log2 weight lc + lm.
Columns = tuple[
    Sequence[float], Sequence[float], Sequence[float], Sequence[float], Sequence[float]
]

# log2(2^k - 1) for k = 0..64, the explicit frame cap, 0.0 at k = 0 unused.
# Past k = 53, 2^k - 1 rounds to 2^k in a double, so its log2 is k exactly:
# a profile reads a larger k as float(k) and never builds a k-bit integer.
_SPLITS = [0.0] + [math.log2((1 << k) - 1) for k in range(1, MAX_EXPLICIT_FRAME + 1)]


class DimensionReport(NamedTuple):
    """Deng entropy (Shannon entropy for a distribution) and split scale,
    both in bits, their ratio, and whether the 0/0 single-singleton case
    applied."""

    entropy_bits: float
    split_scale_bits: float
    dimension: float
    degenerate: bool


def _mass_columns(mass: MassFunction) -> Columns:
    # each set is a layer of one, and 0.0 + x is exact, so the count column
    # of 0.0 leaves every term as one set's term and every weight its lm.
    # The log2 masses come last: taken first, they left the benchmark's peak
    # RSS on a full 16-element power set about 2 MB higher in most runs,
    # with the same traced peak
    splits = [_SPLITS[mask.bit_count()] for mask in mass.masks]
    zeros = [0.0] * len(mass.masks)
    log2_masses = list(map(math.log2, mass.masses))
    return splits, zeros, log2_masses, mass.masses, log2_masses


def _profile_columns(profile: CardinalityProfile) -> Columns:
    # Largest layer weight 2^(log2 count + log2 mass) first, the order the
    # profile kept: math.fsum keeps one partial per non-overlapping
    # magnitude, and terms spanning hundreds of binary orders in ascending
    # order keep its partials list growing.  fsum is correctly rounded in
    # any order, so the order changes no bit.
    order = profile._order
    splits, top = _SPLITS, len(_SPLITS)
    return (
        [splits[k] if k < top else float(k) for k in map(profile.cards.__getitem__, order)],
        list(map(profile._log2_counts.__getitem__, order)),
        list(map(profile.log2_masses.__getitem__, order)),
        list(map(profile.masses.__getitem__, order)),
        profile._log2_weights,
    )


def _probability_columns(dist: ProbabilityDistribution) -> Columns:
    zeros = [0.0] * dist.size
    log2_masses = list(map(math.log2, dist.probabilities))
    return zeros, zeros, log2_masses, dist.probabilities, log2_masses


def _bits(splits: Sequence[float], log2_counts: Sequence[float],
          log2_masses: Sequence[float], masses: Sequence[float],
          log2_weights: Sequence[float]) -> tuple[float, float]:
    """(Deng entropy, split scale), both in bits, over nonempty columns.

    Layer weights 2^w, w = lc + lm, stay finite where count * mass would
    overflow or underflow a double; the split scale is a log-sum of
    count * (2^k - 1)^mass terms, each kept as its log2, lc + m * s.
    """
    entropy = math.fsum([
        2.0 ** w * (s - lm) for s, lm, w in zip(splits, log2_masses, log2_weights)
    ])
    split = _logsumexp2([lc + m * s for s, lc, m in zip(splits, log2_counts, masses)])
    return entropy, split


def _report(columns: Columns) -> DimensionReport:
    s, lc = columns[:2]
    # one focal set of cardinality 1 is the only split scale of exactly 0
    if len(s) == 1 and s[0] == 0.0 and lc[0] == 0.0:
        return DimensionReport(0.0, 0.0, 0.0, True)
    entropy, split = _bits(*columns)
    return DimensionReport(entropy, split, entropy / split, False)


def shannon_max(n: int) -> float:
    """log2(n), the entropy in bits of the uniform distribution on n outcomes."""
    _check_frame_size(n)
    return math.log2(n)


def max_deng_entropy(n: int) -> float:
    """log2(3^n - 2^n), the largest Deng entropy in bits on an n-element frame.

    Uses the exact integer 3^n - 2^n (equal to sum_k C(n,k) (2^k - 1));
    math.log2 takes arbitrary-precision integers, so no overflow for
    large n.
    """
    _check_frame_size(n)
    return math.log2(3 ** n - 2 ** n)


def information_dimension(mass: MassFunction) -> DimensionReport:
    """Deng entropy over split scale; structurally 0 for one singleton.

    The degenerate case (single focal element of cardinality 1, the only
    mass function with split scale exactly 0) is detected from the focal
    structure rather than by comparing the denominator to zero.
    """
    return _report(_mass_columns(mass))


def information_dimension_profile(profile: CardinalityProfile) -> DimensionReport:
    """Profile-evaluated dimension, grouped by cardinality so O(N) in the
    frame size; same contract as the explicit form."""
    return _report(_profile_columns(profile))


def probability_dimension(dist: ProbabilityDistribution) -> DimensionReport:
    """Shannon entropy over log(N) for a probability distribution.

    Singletons never split, so every power-set term is 1^p = 1 and the
    denominator collapses to log(N).  A single-outcome distribution is
    the degenerate 0/0 case.
    """
    return _report(_probability_columns(dist))
