"""Shannon entropy, Deng entropy, and the maximum-Deng-entropy value.

Deng entropy generalizes Shannon entropy to mass functions by crediting
each focal set A with the 2^|A| - 1 nonempty subsets it could split
into::

    H_D = -sum m(A) * log( m(A) / (2^|A| - 1) )

For a Bayesian mass function every |A| is 1 and this reduces to Shannon
entropy.  The maximum over all assignments on a full power set is
log(3^n - 2^n), reached when m(A) is proportional to 2^|A| - 1.

Every entropy and split-scale sum in the package runs through one kernel,
:func:`_bits`, in base 2.  A requested ``base`` is one division at the
return.
"""
from __future__ import annotations

import math

from .core import CardinalityProfile, MassFunction, ProbabilityDistribution, _logsumexp2

BASE_2 = 2.0
BASE_E = math.e
BASE_10 = 10.0

# (cardinality k, log2 of the focal-set count, log2 of the per-set mass,
#  the per-set mass): one layer of focal sets that share one mass.
Row = tuple[int, float, float, float]


def check_base(base: float) -> float:
    base = float(base)
    if not 1.0 < base < math.inf:
        raise ValueError(f"logarithm base must be > 1 and finite, got {base!r}")
    return base


def _from_bits(bits: float, base: float) -> float:
    base = check_base(base)
    return bits if base == 2.0 else bits / math.log2(base)


def _mass_rows(mass: MassFunction) -> list[Row]:
    return [(subset.cardinality, 0.0, math.log2(m), m) for subset, m in mass.focal]


def _profile_rows(profile: CardinalityProfile) -> list[Row]:
    return [
        (card, math.log2(row.count), row.log2_mass, row.mass) for card, row in profile.rows
    ]


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
    entropy = math.fsum(2.0 ** (lc + lm) * (splits[k] - lm) for k, lc, lm, _ in rows)
    split = _logsumexp2([lc + m * splits[k] for k, lc, _, m in rows])
    return entropy, split


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
