"""Information fractal dimension of a mass function.

The dimension is the ratio of Deng entropy to the split scale

    log( sum over focal A of (2^|A| - 1)^m(A) ),

which measures how far the mass spreads over the power-set split.  Both
numerator and denominator scale by the same factor under a change of
logarithm base, so the ratio is base-free.
"""
from __future__ import annotations

from dataclasses import dataclass

from .core import CardinalityProfile, MassFunction, ProbabilityDistribution
from .entropy import BASE_2, Row, _bits, _from_bits, _mass_rows, _probability_rows, _profile_rows


@dataclass(frozen=True)
class DimensionReport:
    """Entropy, split scale (both base-2), their ratio, and whether the
    0/0 single-singleton case applied."""

    entropy_bits: float
    split_scale_bits: float
    dimension: float
    degenerate: bool


_DEGENERATE = DimensionReport(0.0, 0.0, 0.0, True)


def split_scale(mass: MassFunction, base: float = BASE_2) -> float:
    """log of sum (2^|A| - 1)^m(A) over the focal elements.

    Every term is >= 1 (base >= 1, exponent in (0, 1]), so the sum is >= 1
    and hits exactly 1 only when the sole focal element is a singleton
    (term 1^1); the split scale is therefore 0 iff the mass function is
    that degenerate case, and positive otherwise.
    """
    return _from_bits(_bits(_mass_rows(mass))[1], base)


def split_scale_profile(profile: CardinalityProfile, base: float = BASE_2) -> float:
    """Split scale grouped by cardinality: log sum_k count_k (2^k - 1)^m_k."""
    return _from_bits(_bits(_profile_rows(profile))[1], base)


def _report(rows: list[Row]) -> DimensionReport:
    # one focal set of cardinality 1 is the only split scale of exactly 0
    if len(rows) == 1 and rows[0][:2] == (1, 0.0):
        return _DEGENERATE
    entropy, split = _bits(rows)
    return DimensionReport(entropy, split, entropy / split, False)


def information_dimension(mass: MassFunction) -> DimensionReport:
    """Deng entropy over split scale; structurally 0 for one singleton.

    The degenerate case (single focal element of cardinality 1, the only
    mass function with split scale exactly 0) is detected from the focal
    structure rather than by comparing the denominator to zero.
    """
    return _report(_mass_rows(mass))


def information_dimension_profile(profile: CardinalityProfile) -> DimensionReport:
    """Profile-evaluated dimension; same contract as the explicit form."""
    return _report(_profile_rows(profile))


def probability_dimension(dist: ProbabilityDistribution) -> DimensionReport:
    """Shannon entropy over log(N) for a probability distribution.

    Singletons never split, so every power-set term is 1^p = 1 and the
    denominator collapses to log(N).  A single-outcome distribution is
    the degenerate 0/0 case.
    """
    return _report(_probability_rows(dist))
