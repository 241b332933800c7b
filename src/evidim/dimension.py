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
mass function gives one entry per focal set and a distribution one entry
per outcome, each with no count column, and a profile one entry per
cardinality layer.  No row object is built per entry.  A profile's columns
follow the order its construction kept, largest layer weight first, each
gathered by one ``operator.itemgetter`` call, and reuse the weights it
formed then, so the kernel sorts nothing and forms no power of two for
the entropy; an explicit mass or a distribution hands it the same powers,
2^(log2 m), as a lazy column.  The split column reads log2(2^k - 1) from
``core._SPLITS``, a table up to the widest family profile, k =
``PROFILE_LIMIT``: a profile whose cards are 1..n within it, as every
full-layer family's are, gathers the slice for 1..n in one call, and any
other reads the table per layer, a k past it as float(k), the same bits.
Another base is a display choice, one division the caller makes.
"""
from __future__ import annotations

import math
from itertools import repeat
from operator import add, mul, sub
from typing import Iterable, NamedTuple, Sequence

from .core import (
    _SPLITS, CardinalityProfile, MassFunction, ProbabilityDistribution, _check_frame_size,
    _gather,
)

# Every sum runs over five parallel columns, one entry per layer of focal
# sets that share one mass: s, log2(2^k - 1) for the cardinality k (0.0
# exactly when k is 1); lc, log2 of the focal-set count, or None when every
# layer is one set; lm, log2 of the per-set mass; m, the per-set mass; and
# w, the layer's weight, count * mass formed as 2^(lc + lm).  The kernel
# streams its terms into math.fsum, reading w once, so w may be a lazy
# iterable, and keeps one column of its own: the split scale's log2 terms,
# whose max it takes before their sum.
Columns = tuple[
    Sequence[float], Sequence[float] | None, Sequence[float], Sequence[float], Iterable[float]
]


class DimensionReport(NamedTuple):
    """Deng entropy (Shannon entropy for a distribution) and split scale,
    both in bits, their ratio, and whether the 0/0 single-singleton case
    applied."""

    entropy_bits: float
    split_scale_bits: float
    dimension: float
    degenerate: bool


def _mass_columns(mass: MassFunction) -> Columns:
    # each set is a layer of one, so there is no count column and every
    # weight is 2^lm.  The split column shares the table's floats, so an
    # explicit mass costs two columns of a new float per focal set: the
    # log2 masses here and the kernel's split terms.  The log2 masses come
    # last, which kept the process's peak RSS lower than taking them first
    splits = [_SPLITS[mask.bit_count()] for mask in mass.masks]
    log2_masses = list(map(math.log2, mass.masses))
    return splits, None, log2_masses, mass.masses, map(pow, repeat(2.0), log2_masses)


def _profile_columns(profile: CardinalityProfile) -> Columns:
    # Largest layer weight 2^(log2 count + log2 mass) first, the order the
    # profile kept: math.fsum keeps one partial per non-overlapping
    # magnitude, and terms spanning hundreds of binary orders in ascending
    # order keep its partials list growing.  fsum is correctly rounded in
    # any order, so the order changes no bit.  Cards 1..n within the split
    # table, as in every full-layer family, gather its slice 1..n; other
    # cards read it one by one, and a k past it, as in vacuous(20000), reads
    # as float(k), the same bits.
    gather = _gather(profile._order)
    cards, top = profile.cards, len(_SPLITS)
    if cards[-1] == len(cards) < top:
        splits = gather(_SPLITS[1:len(cards) + 1])
    else:
        splits = [_SPLITS[k] if k < top else float(k) for k in gather(cards)]
    return (
        splits,
        gather(profile._log2_counts),
        gather(profile.log2_masses),
        gather(profile.masses),
        profile._weights,
    )


def _probability_columns(dist: ProbabilityDistribution) -> Columns:
    zeros = [0.0] * dist.size
    log2_masses = list(map(math.log2, dist.probabilities))
    return zeros, None, log2_masses, dist.probabilities, map(pow, repeat(2.0), log2_masses)


def _bits(splits: Sequence[float], log2_counts: Sequence[float] | None,
          log2_masses: Sequence[float], masses: Sequence[float],
          weights: Iterable[float]) -> tuple[float, float]:
    """(Deng entropy, split scale), both in bits, over nonempty columns.

    Layer weights formed as 2^(lc + lm) stay finite where count * mass
    would overflow or underflow a double; the split scale is a log-sum of
    count * (2^k - 1)^mass terms, each kept as its log2, lc + m * s, or
    m * s with no count column.
    """
    entropy = math.fsum(map(mul, weights, map(sub, splits, log2_masses)))
    terms = map(mul, masses, splits)
    if log2_counts is not None:
        terms = map(add, log2_counts, terms)
    return entropy, _logsumexp2(list(terms))


def _logsumexp2(values: list[float]) -> float:
    """log2 of a sum of powers of two, shifted to avoid overflow."""
    top = max(values)
    return top + math.log2(math.fsum(map(pow, repeat(2.0), map(sub, values, repeat(top)))))


def _report(columns: Columns) -> DimensionReport:
    s, lc = columns[:2]
    # one focal set of cardinality 1 is the only split scale of exactly 0
    if len(s) == 1 and s[0] == 0.0 and (lc is None or lc[0] == 0.0):
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
