"""Command-line front end.

Thin adapter over the library: parses arguments, reads the JSON
mass-function format, runs the oracle check and rescales to the chosen
logarithm base; :mod:`evidim.experiments` renders the text.  Exit codes
are stable: 0 success, 2 input or validation error, 3 oracle mismatch.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from .dimension import DimensionReport, information_dimension
from .experiments import (
    DECIMALS,
    detect_limit,
    render_plot_data,
    render_rows,
    render_table,
    run_convergence,
)
from .families import FAMILIES
from .oracle import brute_force_report, compare_reports
from .wire import mass_from_json

ORACLE_TOLERANCE = 1e-9
_BASES = {"2": 2.0, "e": math.e, "10": 10.0}
_REPORT_HEADER = ("entropy_bits", "split_scale_bits", "dimension", "degenerate")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="evidim",
        description="Information dimension of Dempster-Shafer mass functions",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    compute = sub.add_parser("compute", help="dimension report for a mass-function JSON file")
    compute.add_argument("file", help="path to a mass-function JSON file")
    compute.add_argument("--format", choices=("json", "csv", "markdown"), default="json")
    compute.add_argument(
        "--oracle",
        action="store_true",
        help="cross-check against the brute-force reference; exit 3 on divergence",
    )
    _common_flags(compute)

    sweep = sub.add_parser("sweep", help="convergence table for a parametric family")
    sweep.add_argument("family", help=f"one of {', '.join(sorted(FAMILIES))}")
    sweep.add_argument("n_min", type=int)
    sweep.add_argument("n_max", type=int)
    sweep.add_argument("--format", choices=("json", "csv", "markdown"), default="csv")
    sweep.add_argument(
        "--detect-limit",
        nargs=2,
        metavar=("TOL", "WINDOW"),
        help="append a convergence verdict for the final WINDOW rows at tolerance TOL",
    )
    sweep.add_argument(
        "--plot-data",
        metavar="PATH",
        help="write full-precision split_scale/entropy/N columns to PATH",
    )
    _common_flags(sweep)
    return parser


def _common_flags(cmd: argparse.ArgumentParser):
    cmd.add_argument(
        "--decimals",
        type=int,
        choices=DECIMALS,
        default=4,
        metavar=f"{{{DECIMALS[0]}..{DECIMALS[-1]}}}",
        help="rounded display digits",
    )
    cmd.add_argument(
        "--base",
        choices=tuple(_BASES),
        default="2",
        help="logarithm base for the entropy and split-scale fields (the dimension is base-free)",
    )


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if args.command == "compute":
            return _cmd_compute(args)
        return _cmd_sweep(args)
    except (ValueError, OSError) as exc:
        # EvidenceError subclasses name the violated rule (NonUnitTotalError,
        # EmptySubsetError, ...); JSON and file errors land here too
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


def _cmd_compute(args) -> int:
    mass = mass_from_json(Path(args.file).read_text(encoding="utf-8"))
    report = information_dimension(mass)
    if args.oracle:
        reference = brute_force_report(mass)
        if not compare_reports(report, reference, ORACLE_TOLERANCE):
            print(
                f"oracle mismatch beyond {ORACLE_TOLERANCE}: "
                f"main={_triple(report)} oracle={_triple(reference)}",
                file=sys.stderr,
            )
            return 3
    scale = math.log2(_BASES[args.base])
    row = (report.entropy_bits / scale, report.split_scale_bits / scale,
           report.dimension, report.degenerate)
    if args.format == "json":
        sys.stdout.write(json.dumps(dict(zip(_REPORT_HEADER, row)), indent=2) + "\n")
    else:
        sys.stdout.write(render_rows(_REPORT_HEADER, [row], args.format, args.decimals))
    return 0


def _cmd_sweep(args) -> int:
    table = run_convergence(args.family, args.n_min, args.n_max)
    verdict = None
    if args.detect_limit is not None:
        tol, window = args.detect_limit
        verdict = detect_limit(table, _parsed(window, int), _parsed(tol, float))
    scale = math.log2(_BASES[args.base])
    display = table._replace(rows=tuple(
        row._replace(entropy_bits=row.entropy_bits / scale,
                     split_scale_bits=row.split_scale_bits / scale)
        for row in table.rows
    ))
    if args.plot_data:
        Path(args.plot_data).write_text(render_plot_data(display), encoding="utf-8")
    sys.stdout.write(render_table(display, args.format, args.decimals, verdict))
    return 0


def _parsed(text: str, kind: type):
    """``text`` read as a ``kind``, or as it is when it does not read, so
    that the library names what is wrong with it."""
    try:
        return kind(text)
    except ValueError:
        return text


def _triple(report: DimensionReport) -> str:
    return (
        f"({report.entropy_bits!r}, {report.split_scale_bits!r}, "
        f"{report.dimension!r}, degenerate={report.degenerate})"
    )


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
