"""Convergence sweeps over the frame size, with limit detection and
table rendering.

A sweep evaluates one family at every N in a range and records the
(entropy, split scale, dimension) triple per row.  Output is
deterministic: each row's sums are exact (``math.fsum`` rounds correctly),
so no order of the terms changes a bit; the profile path feeds them
largest first, which keeps the exact sum cheap.
"""
from __future__ import annotations

import math
from json.encoder import encode_basestring_ascii
from typing import NamedTuple

from .core import EvidenceError, _check_frame_size, _is_real, _shown
from .dimension import information_dimension_profile
from .families import PROFILE_LIMIT, family_profile

# rounded display digits accepted by render_table and the CLI
DECIMALS = range(1, 16)


class InsufficientRowsError(EvidenceError):
    pass


class DetectionParameterError(EvidenceError):
    """A :func:`detect_limit` window that is not an int of at least 2, or a
    tolerance that is not a positive real number."""


class ConvergenceRow(NamedTuple):
    n: int
    entropy_bits: float
    split_scale_bits: float
    dimension: float


class ConvergenceTable(NamedTuple):
    family: str
    rows: tuple[ConvergenceRow, ...]


class ConvergenceVerdict(NamedTuple):
    converged: bool
    limit_estimate: float
    achieved_at_n: int | None
    tolerance: float


def run_convergence(family: str, n_min: int, n_max: int) -> ConvergenceTable:
    """One row per N in [n_min, n_max], evaluated through the profile path;
    each bound is a frame size, an int (not a bool) of at least 1."""
    _check_frame_size(n_min)
    _check_frame_size(n_max)
    if n_min > n_max:
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
    suffix (None when not converged).  ``window`` must be an int (not a
    bool) of at least 2 and ``tol`` a real number (not a bool) above 0, or
    :class:`DetectionParameterError` names the one that is not.
    """
    if type(window) is not int:
        raise DetectionParameterError(f"window {_shown(window)} is not an int")
    if window < 2:
        raise DetectionParameterError("window must be at least 2")
    if not _is_real(tol):
        raise DetectionParameterError(f"tolerance {_shown(tol)} is not a real number")
    if not tol > 0.0:
        raise DetectionParameterError("tolerance must be positive")
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


def render_rows(header: tuple[str, ...], rows, fmt: str, decimals: int) -> str:
    """csv or markdown text of ``rows`` under ``header``.

    Floats round half-to-even to ``decimals``; bools read ``true`` /
    ``false`` and ints print as they are.
    """
    def cell(value) -> str:
        if isinstance(value, bool):
            return "true" if value else "false"
        if isinstance(value, float):
            return f"{value:.{decimals}f}"
        return str(value)

    lines = [header, *([cell(value) for value in row] for row in rows)]
    if fmt == "csv":
        return "".join(",".join(line) + "\n" for line in lines)
    if fmt == "markdown":
        lines.insert(1, ["---"] * len(header))
        return "".join("| " + " | ".join(line) + " |\n" for line in lines)
    raise ValueError(f"unknown format {fmt!r}")


def render_json(payload) -> str:
    """The text of ``json.dumps(payload, indent=2)`` and a newline.

    ``json.dumps`` with an indent runs json's pure-Python encoder; this
    writes the same bytes directly: strings escaped to ASCII, floats as
    ``float.__repr__`` or ``NaN``, ``Infinity`` and ``-Infinity``, ints as
    ``int.__repr__``, ``true``, ``false`` and ``null``, and lists, tuples
    and dicts with str keys.  Any other value raises json's ``TypeError``.
    """
    return _json(payload, "\n") + "\n"


def _json(value, indent: str) -> str:
    # the order of json's own tests: a bool is an int, and an int or float
    # subclass is written as its base type
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        if value != value:
            return "NaN"
        if value == math.inf:
            return "Infinity"
        if value == -math.inf:
            return "-Infinity"
        return float.__repr__(value)
    inner = indent + "  "
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        items = [_json(item, inner) for item in value]
        return "[" + inner + ("," + inner).join(items) + indent + "]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = [
            encode_basestring_ascii(key) + ": " + _json(item, inner) for key, item in value.items()
        ]
        return "{" + inner + ("," + inner).join(items) + indent + "}"
    raise TypeError(f"Object of type {value.__class__.__name__} is not JSON serializable")


def render_table(
    table: ConvergenceTable,
    fmt: str = "csv",
    decimals: int = 4,
    verdict: ConvergenceVerdict | None = None,
) -> str:
    """Render as csv, markdown, or json, with an optional verdict.

    csv and markdown round half-to-even to ``decimals`` and end with a
    ``converged limit=...`` line when a verdict is given; json, written by
    :func:`render_json`, always carries full-precision values and the
    verdict as a ``"verdict"`` key.  ``decimals`` must be an int (not a
    bool or a float) in ``DECIMALS``.
    """
    if type(decimals) is not int or decimals not in DECIMALS:
        raise ValueError(f"decimals must be an int between {DECIMALS[0]} and {DECIMALS[-1]}")
    if fmt == "json":
        payload = {"family": table.family, "rows": [dict(zip(_HEADER, row)) for row in table.rows]}
        if verdict is not None:
            payload["verdict"] = verdict._asdict()
        return render_json(payload)
    out = render_rows(_HEADER, table.rows, fmt, decimals)
    if verdict is not None:
        word = "converged" if verdict.converged else "not-converged"
        out += f"{word} limit={verdict.limit_estimate:.{decimals}f}\n"
    return out


def render_plot_data(table: ConvergenceTable) -> str:
    """Full-precision (split_scale, entropy, N) columns for external plotting."""
    lines = ["split_scale_bits,entropy_bits,N"]
    lines += [
        f"{row.split_scale_bits!r},{row.entropy_bits!r},{row.n}" for row in table.rows
    ]
    return "\n".join(lines) + "\n"
