"""Convergence sweeps over the frame size, with limit detection and
table rendering.

A sweep evaluates one family at every N in a range and records the
(entropy, split scale, dimension) triple per row.  Output is
deterministic: each row's sums run in ascending cardinality with exact
summation.
"""
from __future__ import annotations

import json
from dataclasses import dataclass

from .core import EvidenceError
from .dimension import information_dimension_profile
from .families import PROFILE_LIMIT, family_profile


class InsufficientRowsError(EvidenceError):
    pass


@dataclass(frozen=True)
class ConvergenceRow:
    n: int
    entropy_bits: float
    split_scale_bits: float
    dimension: float


@dataclass(frozen=True)
class ConvergenceTable:
    family: str
    rows: tuple[ConvergenceRow, ...]


@dataclass(frozen=True)
class ConvergenceVerdict:
    converged: bool
    limit_estimate: float
    achieved_at_n: int | None
    tolerance: float


def run_convergence(family: str, n_min: int, n_max: int) -> ConvergenceTable:
    """One row per N in [n_min, n_max], evaluated through the profile path."""
    if not 1 <= n_min <= n_max:
        raise EvidenceError(f"invalid sweep range {n_min}..{n_max}")
    if n_max > PROFILE_LIMIT:
        raise EvidenceError(f"sweep range exceeds the profile limit {PROFILE_LIMIT}")
    rows = []
    for n in range(n_min, n_max + 1):
        report = information_dimension_profile(family_profile(family, n))
        rows.append(
            ConvergenceRow(n, report.entropy_bits, report.split_scale_bits, report.dimension)
        )
    return ConvergenceTable(family, tuple(rows))


def detect_limit(table: ConvergenceTable, window: int, tol: float) -> ConvergenceVerdict:
    """Empirical plateau check against the dimension at the largest N.

    Converged iff the last ``window`` dimensions sit within ``tol`` of
    that estimate; ``achieved_at_n`` is the first N of the longest such
    suffix (None when not converged).
    """
    if window < 2:
        raise ValueError("window must be at least 2")
    if not tol > 0.0:
        raise ValueError("tolerance must be positive")
    if len(table.rows) < window:
        raise InsufficientRowsError(
            f"need at least {window} rows, table has {len(table.rows)}"
        )
    limit = table.rows[-1].dimension
    converged = all(
        abs(row.dimension - limit) <= tol for row in table.rows[-window:]
    )
    achieved = None
    if converged:
        achieved = table.rows[-1].n
        for row in reversed(table.rows):
            if abs(row.dimension - limit) > tol:
                break
            achieved = row.n
    return ConvergenceVerdict(converged, limit, achieved, tol)


_HEADER = ("N", "entropy_bits", "split_scale_bits", "dimension")


def render_table(table: ConvergenceTable, fmt: str = "csv", decimals: int = 4) -> str:
    """Render as csv, markdown, or json.

    csv and markdown round half-to-even to ``decimals``; json always
    carries full-precision values.
    """
    if not 1 <= decimals <= 15:
        raise ValueError("decimals must be between 1 and 15")

    def cells(row: ConvergenceRow) -> tuple[str, ...]:
        return (
            str(row.n),
            f"{row.entropy_bits:.{decimals}f}",
            f"{row.split_scale_bits:.{decimals}f}",
            f"{row.dimension:.{decimals}f}",
        )

    if fmt == "csv":
        lines = [",".join(_HEADER)]
        lines += [",".join(cells(row)) for row in table.rows]
        return "\n".join(lines) + "\n"
    if fmt == "markdown":
        lines = ["| " + " | ".join(_HEADER) + " |", "|" + " --- |" * len(_HEADER)]
        lines += ["| " + " | ".join(cells(row)) + " |" for row in table.rows]
        return "\n".join(lines) + "\n"
    if fmt == "json":
        payload = {
            "family": table.family,
            "rows": [
                {
                    "N": row.n,
                    "entropy_bits": row.entropy_bits,
                    "split_scale_bits": row.split_scale_bits,
                    "dimension": row.dimension,
                }
                for row in table.rows
            ],
        }
        return json.dumps(payload, indent=2) + "\n"
    raise ValueError(f"unknown format {fmt!r}")


def render_plot_data(table: ConvergenceTable) -> str:
    """Full-precision (split_scale, entropy, N) columns for external plotting."""
    lines = ["split_scale_bits,entropy_bits,N"]
    lines += [
        f"{row.split_scale_bits!r},{row.entropy_bits!r},{row.n}" for row in table.rows
    ]
    return "\n".join(lines) + "\n"
