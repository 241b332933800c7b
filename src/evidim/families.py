"""Parametric mass-function families, generated as cardinality profiles.

All four families are cardinality-symmetric, so a profile represents them
exactly, and rational construction keeps their total mass exactly 1.  Each
family hands its layers to the profile as columns, with each per-set mass
the correctly rounded num/den and its log2 taken as log2(num) - log2(den)
from the exact ints, so the log2 stays accurate where num/den underflows a
double; max-deng reads each numerator 2^k - 1 from ``core._NUMERATORS``
and its log2 from ``core._SPLITS``, which hold them for every k up to
:data:`PROFILE_LIMIT`.  Past k = 64 max-deng takes the mass (2^k - 1)/den
as 2^(k - n) times c, the one correctly rounded division c = 2^n/den per
profile: the two exact values differ by a relative 2^-k < 2^-64, and no
double's rounding boundary falls between them for any n up to
:data:`PROFILE_LIMIT`, which the tests check at every k, so the exact
scaling 2^(k - n) c gives the same double wherever it lands on a normal
float.  Where it would be subnormal, and for k <= 64, each mass is its
own division.  The two
families that fill every layer 1..n pass no counts: the profile slices
each C(n, k) from the one binomial row it builds, so a row is built once,
and in a sweep by one Pascal step from the row before.
"""
from __future__ import annotations

import math
from itertools import repeat
from typing import Callable

from .core import (
    _NUMERATORS, _SPLITS, PROFILE_LIMIT, CardinalityProfile, EvidenceError,
    FrameTooLargeError, _check_frame_size, _shown,
)


class UnknownFamilyError(EvidenceError):
    pass


def vacuous(n: int) -> CardinalityProfile:
    """Total ignorance: the whole frame carries mass 1."""
    _check_size(n)
    return CardinalityProfile._from_columns(n, (n,), (1,), (1.0,), (0.0,))


def uniform_bayesian(n: int) -> CardinalityProfile:
    """Mass 1/n on each singleton (a uniform probability distribution)."""
    _check_size(n)
    mass, log2_mass = _ratio(1, n)
    return CardinalityProfile._from_columns(n, (1,), (n,), (mass,), (log2_mass,))


def uniform_powerset(n: int) -> CardinalityProfile:
    """Mass 1/(2^n - 1) on every nonempty subset."""
    _check_size(n, PROFILE_LIMIT)
    mass, log2_mass = _ratio(1, (1 << n) - 1)
    return CardinalityProfile._from_columns(
        n, range(1, n + 1), None, (mass,) * n, (log2_mass,) * n
    )


def max_deng(n: int) -> CardinalityProfile:
    """Mass proportional to 2^|A| - 1; attains the maximum Deng entropy.

    The normalizer sum_k C(n,k) (2^k - 1) collapses to 3^n - 2^n, so the
    total mass is exactly 1 by construction.
    """
    _check_size(n, PROFILE_LIMIT)
    den = 3 ** n - 2 ** n
    log2_den = math.log2(den)
    # _ratio's values, with log2(den) taken once and each 2^k - 1 and its
    # log2 read from the tables, which hold them for k <= n.  Past k = 64,
    # (2^k - 1)/den rounds to the same double as 2^k/den (see the module
    # docstring), and 2^(k - n) c is that double wherever it is normal, from
    # k = n - e - 1021 up, with e the exponent frexp gives c; below either
    # cut each mass is its own correctly rounded ratio
    scaled = (1 << n) / den
    cut = min(max(65, n - math.frexp(scaled)[1] - 1021), n + 1)
    masses = [num / den for num in _NUMERATORS[1:cut]]
    masses += map(math.ldexp, repeat(scaled), range(cut - n, 1))
    return CardinalityProfile._from_columns(
        n, range(1, n + 1), None, masses, [s - log2_den for s in _SPLITS[1:n + 1]]
    )


FAMILIES: dict[str, Callable[[int], CardinalityProfile]] = {
    "vacuous": vacuous,
    "uniform-bayesian": uniform_bayesian,
    "uniform-powerset": uniform_powerset,
    "max-deng": max_deng,
}


def family_profile(name: str, n: int) -> CardinalityProfile:
    try:
        generator = FAMILIES[name]
    except (KeyError, TypeError):  # TypeError: an unhashable name
        raise UnknownFamilyError(
            f"unknown family {_shown(name)}; choose from {sorted(FAMILIES)}"
        ) from None
    return generator(n)


def _check_size(n: int, limit: int | None = None):
    _check_frame_size(n)
    if limit is not None and n > limit:
        raise FrameTooLargeError(f"family profiles are capped at {limit} elements, got {n}")


def _ratio(num: int, den: int) -> tuple[float, float]:
    """Per-set mass num/den and its log2, each taken from the exact ints;
    num == den gives 1.0 and 0.0."""
    return num / den, math.log2(num) - math.log2(den)
