"""Shannon and Deng entropy, split scale, and the information fractal
dimension of a mass function.

Deng entropy credits each focal set A with the 2^|A| - 1 nonempty subsets
it could split into, H_D = -sum m(A) log(m(A) / (2^|A| - 1)); it reduces
to Shannon entropy when every |A| is 1, and peaks at log(3^n - 2^n) when
m(A) is proportional to 2^|A| - 1.  The dimension is H_D over the split
scale log(sum over focal A of (2^|A| - 1)^m(A)), which measures how far
the mass spreads over the power-set split; both scale alike under a
change of logarithm base, so the ratio is base-free.

Every entropy and split-scale sum runs through one kernel, :func:`_bits`,
in base 2, over rows that this module alone builds and reads.  A
requested ``base`` is one division at the return.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .core import CardinalityProfile, MassFunction, ProbabilityDistribution, _logsumexp2

BASE_2 = 2.0
BASE_E = math.e
BASE_10 = 10.0

# (cardinality k, log2 of the focal-set count, log2 of the per-set mass,
#  the per-set mass): one layer of focal sets that share one mass.
Row = tuple[int, float, float, float]


@dataclass(frozen=True)
class DimensionReport:
    """Entropy, split scale (both base-2), their ratio, and whether the
    0/0 single-singleton case applied."""

    entropy_bits: float
    split_scale_bits: float
    dimension: float
    degenerate: bool


def _from_bits(bits: float, base: float) -> float:
    base = float(base)
    if not 1.0 < base < math.inf:
        raise ValueError(f"logarithm base must be > 1 and finite, got {base!r}")
    return bits if base == 2.0 else bits / math.log2(base)


def _mass_rows(mass: MassFunction) -> list[Row]:
    return [(mask.bit_count(), 0.0, math.log2(m), m) for mask, m in zip(mass.masks, mass.masses)]


def _profile_rows(profile: CardinalityProfile) -> list[Row]:
    return list(zip(profile.cards, profile._log2_counts, profile.log2_masses, profile.masses))


def _probability_rows(dist: ProbabilityDistribution) -> list[Row]:
    return [(1, 0.0, math.log2(p), p) for p in dist.probabilities]


def _bits(rows: list[Row]) -> tuple[float, float]:
    """(Deng entropy, split scale), both in bits, over nonempty ``rows``.

    Layer weights 2^(log2 count + log2 mass) stay finite where count * mass
    would overflow or underflow a double; the split scale is a log-sum of
    count * (2^k - 1)^mass terms, each kept as its log2.
    """
    # log2(2^k - 1) once per cardinality, not once per focal set
    splits = [0.0] + [math.log2((1 << k) - 1) for k in range(1, max(r[0] for r in rows) + 1)]
    entropy = math.fsum([2.0 ** (lc + lm) * (splits[k] - lm) for k, lc, lm, _ in rows])
    split = _logsumexp2([lc + m * splits[k] for k, lc, _, m in rows])
    return entropy, split


def _report(rows: list[Row]) -> DimensionReport:
    # one focal set of cardinality 1 is the only split scale of exactly 0
    if len(rows) == 1 and rows[0][:2] == (1, 0.0):
        return DimensionReport(0.0, 0.0, 0.0, True)
    entropy, split = _bits(rows)
    return DimensionReport(entropy, split, entropy / split, False)


def shannon_entropy(dist: ProbabilityDistribution, base: float = BASE_2) -> float:
    """-sum p_i log(p_i); zero iff the distribution is deterministic."""
    return _from_bits(_bits(_probability_rows(dist))[0], base)


def shannon_max(n: int, base: float = BASE_2) -> float:
    """log(n), the entropy of the uniform distribution on n outcomes."""
    if n < 1:
        raise ValueError("outcome count must be at least 1")
    return _from_bits(math.log2(n), base)


def deng_entropy(mass: MassFunction, base: float = BASE_2) -> float:
    """-sum m(A) log(m(A) / (2^|A| - 1)) over the focal elements."""
    return _from_bits(_bits(_mass_rows(mass))[0], base)


def deng_entropy_profile(profile: CardinalityProfile, base: float = BASE_2) -> float:
    """Deng entropy grouped by cardinality: O(N) in the frame size.

    Each layer contributes count * mass * (log(2^k - 1) - log(mass)).
    """
    return _from_bits(_bits(_profile_rows(profile))[0], base)


def max_deng_entropy(n: int, base: float = BASE_2) -> float:
    """log(3^n - 2^n), the largest Deng entropy on an n-element frame.

    Uses the exact integer 3^n - 2^n (equal to sum_k C(n,k) (2^k - 1));
    math.log2 takes arbitrary-precision integers, so no overflow for
    large n.
    """
    if n < 1:
        raise ValueError("frame size must be at least 1")
    return _from_bits(math.log2(3 ** n - 2 ** n), base)


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
