"""Independent references for the benchmark's correctness checks.

Nothing here imports evidim, not even its oracle: each value is derived
again from the definitions, so a defect shared by the program's paths
cannot hide in its own cross-check.

- Explicit mass functions: per-focal-set ``math.fsum`` sums of the Deng
  entropy ``-m log2(m / (2^k - 1))`` and of the split scale
  ``log2 sum (2^k - 1)^m``.
- Family sweeps (``uniform-powerset``, ``max-deng``): log-domain sums with
  ``math.lgamma`` binomials and closed forms, valid up to N = 1024 and
  beyond, where the program's exact big-integer path is the thing measured.
- Paper tables: byte-identical copies of the checked-in golden CSVs.

Numbers are compared with :func:`close`: within ``TOLERANCE`` absolute, or
relative to the reference once it exceeds 1 (a 1024-element sweep carries
entropies near 1600 bits).
"""
from __future__ import annotations

import math

TOLERANCE = 1e-9
LN2 = math.log(2.0)
LOG2_3 = math.log2(3.0)

# The proven suprema of the dimension per family.
SUPREMUM = {
    "vacuous": 1.0,
    "uniform-bayesian": 1.0,
    "uniform-powerset": 1.5,
    "max-deng": LOG2_3,
}

DEGENERATE = (0.0, 0.0, 0.0, True)


def close(value: float, reference: float, tolerance: float = TOLERANCE) -> bool:
    return abs(value - reference) <= tolerance * max(1.0, abs(reference))


def explicit_report(focal: list[tuple[int, float]]) -> tuple[float, float, float, bool]:
    """(entropy_bits, split_scale_bits, dimension, degenerate) of an explicit
    mass function given as (cardinality, mass) pairs, one per focal set."""
    if len(focal) == 1 and focal[0][0] == 1:
        return DEGENERATE
    entropy = -math.fsum(m * math.log2(m / ((1 << k) - 1)) for k, m in focal)
    split = math.log2(math.fsum(((1 << k) - 1) ** m for k, m in focal))
    return (entropy, split, entropy / split, False)


def _log2_comb(n: int, k: int) -> float:
    return (math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)) / LN2


def _log2_splits(k: int) -> float:
    """log2(2^k - 1), without forming 2^k."""
    return k + math.log1p(-(2.0 ** -k)) / LN2


def _log2_sum(exponents: list[float]) -> float:
    top = max(exponents)
    return top + math.log2(math.fsum(2.0 ** (x - top) for x in exponents))


def family_report(family: str, n: int) -> tuple[float, float, float, bool]:
    """Report of a parametric family at frame size ``n``.

    ``max-deng`` puts mass (2^k - 1)/(3^n - 2^n) on each k-subset, so its
    entropy is log2(3^n - 2^n) in closed form.  ``uniform-powerset`` puts
    1/(2^n - 1) on each nonempty subset; with sum_k C(n,k) k = n 2^(n-1) its
    entropy is log2(2^n - 1) + n/(2 - 2^(1-n)) + sum_k w_k log2(1 - 2^-k),
    w_k = C(n,k)/(2^n - 1).  Split scales are log-sum-exp over cardinalities.
    """
    if n == 1:
        return DEGENERATE
    ks = range(1, n + 1)
    if family == "max-deng":
        log2_den = n * LOG2_3 + math.log1p(-((2.0 / 3.0) ** n)) / LN2
        entropy = log2_den
        split = _log2_sum([
            _log2_comb(n, k) + 2.0 ** (_log2_splits(k) - log2_den) * _log2_splits(k)
            for k in ks
        ])
    elif family == "uniform-powerset":
        log2_den = _log2_splits(n)
        entropy = (
            log2_den
            + n / (2.0 - 2.0 ** (1 - n))
            + math.fsum(
                2.0 ** (_log2_comb(n, k) - log2_den) * math.log1p(-(2.0 ** -k)) / LN2
                for k in ks
            )
        )
        mass = 2.0 ** -log2_den
        split = _log2_sum([_log2_comb(n, k) + mass * _log2_splits(k) for k in ks])
    else:
        raise ValueError(f"no reference for family {family!r}")
    return (entropy, split, entropy / split, False)


def report_mismatch(got: tuple, want: tuple) -> str | None:
    """None when a (entropy, split, dimension, degenerate) report matches."""
    if got[3] is not want[3]:
        return f"degenerate {got[3]!r} != {want[3]!r}"
    for field, g, w in zip(("entropy_bits", "split_scale_bits", "dimension"), got, want):
        if isinstance(g, bool) or not isinstance(g, (int, float)):
            return f"{field} {g!r} is not a number"
        if not close(g, w):
            return f"{field} {g!r} != reference {w!r}"
    return None


def verdict(rows: list[tuple[int, float]], window: int, tol: float) -> dict:
    """Plateau verdict over (N, dimension) rows: converged iff the last
    ``window`` dimensions lie within ``tol`` of the last one; achieved at the
    first N of the longest such suffix."""
    limit = rows[-1][1]
    converged = all(abs(d - limit) <= tol for _, d in rows[-window:])
    achieved = None
    if converged:
        for n, d in reversed(rows):
            if abs(d - limit) > tol:
                break
            achieved = n
    return {"converged": converged, "limit_estimate": limit,
            "achieved_at_n": achieved, "tolerance": tol}


def above_supremum(family: str, dimensions: list[float]) -> int:
    """How many dimensions exceed the family's proven supremum."""
    bound = SUPREMUM[family]
    return sum(d > bound for d in dimensions)


def non_monotone(dimensions: list[float]) -> int:
    """How many steps of the sweep decrease the dimension."""
    return sum(b < a for a, b in zip(dimensions, dimensions[1:]))
