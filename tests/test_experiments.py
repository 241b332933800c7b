"""Convergence sweeps, limit detection, rendering, and golden files."""
from __future__ import annotations

import json
import re
from pathlib import Path

import pytest

from evidim import (
    ConvergenceTable,
    DetectionParameterError,
    EvidenceError,
    InsufficientRowsError,
    UnknownFamilyError,
    detect_limit,
    render_plot_data,
    render_table,
    run_convergence,
)

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
        with pytest.raises(ValueError):
            render_table(table, "csv", 0)
        with pytest.raises(ValueError):
            render_table(table, "csv", 16)
        with pytest.raises(ValueError):
            render_table(table, "html", 4)

    def test_rounding_is_half_to_even(self):
        # exact binary ties resolve to the even digit
        assert f"{0.0625:.3f}" == "0.062"
        assert f"{0.1875:.3f}" == "0.188"


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
