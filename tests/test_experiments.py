"""Convergence sweeps, limit detection, rendering, and golden files."""
from __future__ import annotations

import enum
import json
import math
import re
from fractions import Fraction
from pathlib import Path

import pytest

from evidim import (
    ConvergenceRow,
    ConvergenceTable,
    ConvergenceVerdict,
    DetectionParameterError,
    EvidenceError,
    InsufficientRowsError,
    UnknownFamilyError,
    detect_limit,
    render_plot_data,
    render_table,
    run_convergence,
)
from evidim.cli import _REPORT_HEADER
from evidim.experiments import render_json

GOLDEN_DIR = Path(__file__).resolve().parent.parent / "golden"
GOLDEN_SWEEPS = {
    "table1.csv": ("vacuous", 1, 20),
    "table2.csv": ("uniform-bayesian", 1, 10),
    "table3.csv": ("uniform-powerset", 1, 25),
    "table4.csv": ("max-deng", 1, 20),
}


class TestRunConvergence:
    def test_row_count_and_order(self):
        table = run_convergence("max-deng", 1, 20)
        assert [row.n for row in table.rows] == list(range(1, 21))
        assert table.family == "max-deng"

    def test_single_degenerate_row(self):
        table = run_convergence("vacuous", 1, 1)
        row = table.rows[0]
        assert (row.entropy_bits, row.split_scale_bits, row.dimension) == (0, 0, 0)

    def test_unknown_family(self):
        with pytest.raises(UnknownFamilyError):
            run_convergence("bogus", 1, 5)
        # an unhashable name escaped as a bare TypeError
        with pytest.raises(UnknownFamilyError, match=r"^unknown family \['x'\]; "):
            run_convergence(["x"], 1, 3)

    def test_invalid_ranges(self):
        with pytest.raises(EvidenceError):
            run_convergence("vacuous", 5, 3)
        with pytest.raises(EvidenceError):
            run_convergence("vacuous", 0, 3)
        with pytest.raises(EvidenceError):
            run_convergence("vacuous", 1, 2000)

    @pytest.mark.parametrize("n_min, n_max, shown", [
        (1.5, 3, "1.5"),
        (1, 3.0, "3.0"),
        ("1", 3, "'1'"),
        (True, 3, "True"),
        (1, True, "True"),
    ])
    def test_bounds_that_are_not_ints_are_named(self, n_min, n_max, shown):
        # the first three escaped as bare TypeErrors, and (1, True) swept 1..1
        with pytest.raises(EvidenceError, match=rf"^frame size {re.escape(shown)} is not an int$"):
            run_convergence("max-deng", n_min, n_max)

    def test_deterministic_across_runs(self):
        first = run_convergence("uniform-powerset", 1, 25)
        again = run_convergence("uniform-powerset", 1, 25)
        assert first == again

    def test_row_identity(self):
        for row in run_convergence("max-deng", 2, 20).rows:
            assert row.dimension == pytest.approx(
                row.entropy_bits / row.split_scale_bits, abs=1e-12
            )


class TestMonotoneApproach:
    def test_growing_families_are_nondecreasing(self):
        for family in ("uniform-powerset", "max-deng"):
            dims = [row.dimension for row in run_convergence(family, 2, 25).rows]
            assert all(b >= a for a, b in zip(dims, dims[1:])), family

    def test_flat_families_are_constant_one(self):
        for family in ("vacuous", "uniform-bayesian"):
            for row in run_convergence(family, 2, 25).rows:
                assert row.dimension == pytest.approx(1.0, abs=1e-12), family


class TestDetectLimit:
    def test_max_deng_converges_at_loose_tolerance(self):
        verdict = detect_limit(run_convergence("max-deng", 1, 20), window=5, tol=1e-3)
        assert verdict.converged
        assert verdict.limit_estimate == pytest.approx(1.5849, abs=5e-5)
        assert verdict.achieved_at_n is not None
        table = run_convergence("max-deng", 1, 20)
        for row in table.rows:
            inside = abs(row.dimension - verdict.limit_estimate) <= verdict.tolerance
            assert inside == (row.n >= verdict.achieved_at_n)

    def test_vacuous_converges_tightly(self):
        verdict = detect_limit(run_convergence("vacuous", 1, 20), window=5, tol=1e-12)
        assert verdict.converged
        assert verdict.limit_estimate == 1.0
        assert verdict.achieved_at_n == 2

    def test_not_converged_when_still_rising(self):
        verdict = detect_limit(run_convergence("max-deng", 1, 8), window=5, tol=1e-6)
        assert not verdict.converged
        assert verdict.achieved_at_n is None

    def test_too_few_rows(self):
        with pytest.raises(InsufficientRowsError):
            detect_limit(run_convergence("vacuous", 1, 3), window=5, tol=1e-3)

    def test_parameter_validation(self):
        table = run_convergence("vacuous", 1, 10)
        with pytest.raises(ValueError):
            detect_limit(table, window=1, tol=1e-3)
        with pytest.raises(ValueError):
            detect_limit(table, window=5, tol=0.0)

    @pytest.mark.parametrize("window, tol, message", [
        (2.5, 1e-3, r"^window 2\.5 is not an int$"),
        ("3", 1e-3, r"^window '3' is not an int$"),
        (True, 1e-3, r"^window True is not an int$"),
        (1, 1e-3, r"^window must be at least 2$"),
        (5, "1e-3", r"^tolerance '1e-3' is not a real number$"),
        (5, True, r"^tolerance True is not a real number$"),
        (5, float("nan"), r"^tolerance must be positive$"),
        (5, -1e-3, r"^tolerance must be positive$"),
    ])
    def test_bad_parameters_are_named(self, window, tol, message):
        # a float or str window escaped as a bare TypeError, and True read as 1
        table = run_convergence("max-deng", 1, 8)
        with pytest.raises(DetectionParameterError, match=message):
            detect_limit(table, window=window, tol=tol)


class TestRenderTable:
    def test_csv_rows(self):
        out = render_table(run_convergence("uniform-powerset", 1, 3), "csv", 4)
        lines = out.splitlines()
        assert lines[0] == "N,entropy_bits,split_scale_bits,dimension"
        assert lines[2] == "2,2.1133,1.7834,1.1850"

    def test_csv_flat_family_row(self):
        out = render_table(run_convergence("uniform-bayesian", 1, 10), "csv", 4)
        assert "9,3.1699,3.1699,1.0000" in out.splitlines()

    def test_empty_table_renders_header_only(self):
        out = render_table(ConvergenceTable("vacuous", ()), "csv", 4)
        assert out == "N,entropy_bits,split_scale_bits,dimension\n"

    def test_markdown_layout(self):
        out = render_table(run_convergence("vacuous", 2, 3), "markdown", 4)
        lines = out.splitlines()
        assert lines[0] == "| N | entropy_bits | split_scale_bits | dimension |"
        assert lines[1] == "| --- | --- | --- | --- |"
        assert lines[2] == "| 2 | 1.5850 | 1.5850 | 1.0000 |"

    def test_json_keeps_full_precision(self):
        table = run_convergence("max-deng", 1, 5)
        payload = json.loads(render_table(table, "json", 2))
        assert payload["family"] == "max-deng"
        for row, emitted in zip(table.rows, payload["rows"]):
            assert emitted["N"] == row.n
            assert emitted["dimension"] == row.dimension

    def test_decimals_validation(self):
        table = run_convergence("vacuous", 1, 3)
        # 2.0 and True are in range by value: they failed inside str.format
        # for csv ("Invalid format specifier") and json took them silently
        for decimals in (0, 16, 2.0, True):
            for fmt in ("csv", "json"):
                with pytest.raises(EvidenceError, match="^decimals must be an int between 1 and 15$"):
                    render_table(table, fmt, decimals)
        for fmt in ("html", "xml"):
            with pytest.raises(EvidenceError, match=f"^unknown format '{fmt}'$"):
                render_table(table, fmt)

    def test_rounding_is_half_to_even(self):
        # exact binary ties resolve to the even digit
        assert f"{0.0625:.3f}" == "0.062"
        assert f"{0.1875:.3f}" == "0.188"


def _dumps(payload) -> str:
    return json.dumps(payload, indent=2) + "\n"


def _table_payload(table, verdict=None) -> dict:
    """The object render_table's json format writes, as json.dumps takes it."""
    payload = {
        "family": table.family,
        "rows": [dict(zip(("N", "entropy_bits", "split_scale_bits", "dimension"), row))
                 for row in table.rows],
    }
    if verdict is not None:
        payload["verdict"] = verdict._asdict()
    return payload


# doubles whose text is easy to get wrong: signed zeros, the smallest
# subnormal and normal, exponent forms on both sides of 1e16, the largest
# double, and the non-finite values json spells NaN and Infinity
_EDGE_FLOATS = [
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-07, 0.0001, 1.5, 1e16,
    123456789012345.67, 1.7976931348623157e308, math.nan, math.inf, -math.inf,
]


class _Count(enum.IntEnum):
    SEVEN = 7


class _Bits(float):
    def __repr__(self) -> str:
        return "bits"


class TestRenderJson:
    """render_json writes json.dumps(payload, indent=2) and a newline, byte
    for byte, for each payload the compute report and render_table build."""

    @pytest.mark.parametrize("value", _EDGE_FLOATS, ids=repr)
    @pytest.mark.parametrize("degenerate", [False, True])
    def test_compute_reports(self, value, degenerate):
        for base in (1.0, math.log(2), math.log10(2)):
            row = (value * base, -value * base, value, degenerate)
            payload = dict(zip(_REPORT_HEADER, row))
            assert render_json(payload) == _dumps(payload)

    @pytest.mark.parametrize("verdict", [
        None,
        ConvergenceVerdict(False, 1.5, None, 1e-9),
        ConvergenceVerdict(True, 1.0, 3, 1e-9),
        ConvergenceVerdict(True, 1.0, 1, 1),
        ConvergenceVerdict(False, math.nan, None, math.inf),
    ], ids=["none", "not-converged", "converged", "int-tolerance", "non-finite"])
    @pytest.mark.parametrize("family", ["max-deng", "m\u00e4x-d\u00e9ng \u2211\U0001d53b \"q\"\\\t"])
    def test_tables(self, verdict, family):
        rows = run_convergence("max-deng", 1, 6).rows
        table = ConvergenceTable(family, rows)
        assert render_table(table, "json", 4, verdict) == _dumps(_table_payload(table, verdict))

    def test_detected_verdicts(self):
        table = run_convergence("vacuous", 1, 8)
        for tol in (1e-9, 1, 2.5):
            verdict = detect_limit(table, 3, tol)
            assert render_table(table, "json", 4, verdict) == _dumps(_table_payload(table, verdict))
        table = run_convergence("max-deng", 1, 8)
        verdict = detect_limit(table, 5, 1e-6)
        assert verdict.achieved_at_n is None
        assert render_table(table, "json", 4, verdict) == _dumps(_table_payload(table, verdict))

    def test_edge_rows_and_empty_containers(self):
        rows = [ConvergenceRow(n, value, -value, value) for n, value in enumerate(_EDGE_FLOATS)]
        for table in (ConvergenceTable("edge", tuple(rows)), ConvergenceTable("empty", ())):
            assert render_table(table, "json") == _dumps(_table_payload(table))
        for payload in ({}, [], {"rows": []}, {"a": [{}, [], None, "", 0, -1, 10 ** 30]}):
            assert render_json(payload) == _dumps(payload)

    def test_subclasses_are_written_as_their_base_type(self):
        rows = (ConvergenceRow(_Count.SEVEN, _Bits(1.25), _Bits(-0.0), 1.0),)
        table = ConvergenceTable("subclass", rows)
        text = render_table(table, "json")
        assert text == _dumps(_table_payload(table))
        assert '"N": 7,' in text and '"entropy_bits": 1.25,' in text

    def test_other_values_raise_json_error(self):
        verdict = ConvergenceVerdict(True, 1.0, 1, Fraction(1, 1000))
        table = run_convergence("vacuous", 1, 2)
        with pytest.raises(TypeError) as expected:
            _dumps(_table_payload(table, verdict))
        with pytest.raises(TypeError, match=f"^{re.escape(str(expected.value))}$"):
            render_table(table, "json", 4, verdict)


class TestPlotData:
    def test_columns_round_trip(self):
        table = run_convergence("max-deng", 1, 6)
        lines = render_plot_data(table).splitlines()
        assert lines[0] == "split_scale_bits,entropy_bits,N"
        for row, line in zip(table.rows, lines[1:]):
            split, entropy, n = line.split(",")
            assert float(split) == row.split_scale_bits
            assert float(entropy) == row.entropy_bits
            assert int(n) == row.n


class TestGoldenFiles:
    @pytest.mark.parametrize("name", sorted(GOLDEN_SWEEPS))
    def test_renders_match_golden_bytes(self, name):
        family, n_min, n_max = GOLDEN_SWEEPS[name]
        expected = (GOLDEN_DIR / name).read_bytes()
        rendered = render_table(run_convergence(family, n_min, n_max), "csv", 4)
        assert rendered.encode() == expected
