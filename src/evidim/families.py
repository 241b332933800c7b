"""Parametric mass-function families, generated as cardinality profiles.

All four families are cardinality-symmetric, so a profile represents them
exactly, and rational construction keeps their total mass exactly 1.  Each
family hands its layers to the profile as columns, with each per-set mass
num/den and its log2 taken as log2(num) - log2(den) from the exact ints, so
the log2 stays accurate where num/den underflows a double.  The two families
that fill every layer pass no counts: the profile takes each C(n, k) from the
one binomial row it walks to validate, so a row is walked once.
"""
from __future__ import annotations

import math
from typing import Callable

from .core import (
    CardinalityProfile, EvidenceError, FrameTooLargeError, _check_frame_size
)

PROFILE_LIMIT = 1024


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
    nums = [(1 << k) - 1 for k in range(1, n + 1)]
    # _ratio's values, with log2(den) taken once
    return CardinalityProfile._from_columns(
        n,
        range(1, n + 1),
        None,
        [num / den for num in nums],
        [math.log2(num) - log2_den for num in nums],
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
    except KeyError:
        raise UnknownFamilyError(
            f"unknown family {name!r}; choose from {sorted(FAMILIES)}"
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
