"""Command-line behavior: formats, flags, and exit codes."""
from __future__ import annotations

import contextlib
import io
import json
import math
from pathlib import Path

import pytest

from evidim import DimensionReport, mass_to_json
from evidim.cli import main

GOLDEN_DIR = Path(__file__).resolve().parent.parent / "golden"
# exact stdout of compute and sweep across formats, bases and --decimals,
# read by TestPinnedStdout; argv names the files written by that test
PINNED_STDOUT = json.loads(
    (Path(__file__).resolve().parent / "cli_stdout.json").read_text(encoding="utf-8")
)
# exit code, stdout and stderr of the help, usage-error and argv-shape
# cases, read by TestHelpAndUsage with argparse wrapping at 80 columns in a
# directory that holds no f.json
PINNED_USAGE = json.loads(
    (Path(__file__).resolve().parent / "cli_usage.json").read_text(encoding="utf-8")
)

EXAMPLE = {
    "frame": ["w1", "w2"],
    "focal": [
        {"elements": ["w1"], "mass": 5 / 6},
        {"elements": ["w1", "w2"], "mass": 1 / 6},
    ],
}


@pytest.fixture
def example_file(tmp_path) -> str:
    path = tmp_path / "mass.json"
    path.write_text(json.dumps(EXAMPLE))
    return str(path)


class TestCompute:
    def test_json_report(self, example_file, capsys):
        assert main(["compute", example_file]) == 0
        out = capsys.readouterr().out
        payload = json.loads(out)
        assert payload["dimension"] == pytest.approx(0.8032, abs=5e-4)
        assert payload["degenerate"] is False
        assert list(payload) == ["entropy_bits", "split_scale_bits", "dimension", "degenerate"]

    def test_json_output_round_trips_byte_identical(self, tmp_path, capsys):
        # a regular and a degenerate report, in each base
        point = {"frame": ["a"], "focal": [{"elements": ["a"], "mass": 1.0}]}
        for degenerate, payload in ((False, EXAMPLE), (True, point)):
            path = tmp_path / "mass.json"
            path.write_text(json.dumps(payload))
            for base in ("2", "e", "10"):
                assert main(["compute", str(path), "--base", base]) == 0
                out = capsys.readouterr().out
                assert json.loads(out)["degenerate"] is degenerate
                assert json.dumps(json.loads(out), indent=2) + "\n" == out

    def test_csv_format(self, example_file, capsys):
        assert main(["compute", example_file, "--format", "csv"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "entropy_bits,split_scale_bits,dimension,degenerate"
        assert lines[1] == "0.9142,1.1381,0.8032,false"

    def test_markdown_format(self, example_file, capsys):
        assert main(["compute", example_file, "--format", "markdown", "--decimals", "2"]) == 0
        assert "| 0.91 | 1.14 | 0.80 | false |" in capsys.readouterr().out

    def test_base_scales_entropy_fields_only(self, example_file, capsys):
        main(["compute", example_file])
        bits = json.loads(capsys.readouterr().out)
        main(["compute", example_file, "--base", "e"])
        nats = json.loads(capsys.readouterr().out)
        assert nats["entropy_bits"] == pytest.approx(bits["entropy_bits"] * math.log(2), abs=1e-12)
        assert nats["split_scale_bits"] == pytest.approx(
            bits["split_scale_bits"] * math.log(2), abs=1e-12
        )
        assert nats["dimension"] == bits["dimension"]

    def test_oracle_agreement(self, example_file, capsys):
        assert main(["compute", example_file, "--oracle"]) == 0

    def test_oracle_mismatch_exits_three(self, example_file, capsys, monkeypatch):
        import evidim.cli as cli

        monkeypatch.setattr(
            cli, "brute_force_report", lambda mass: DimensionReport(1.0, 1.0, 1.0, False)
        )
        assert main(["compute", example_file, "--oracle"]) == 3
        assert "oracle mismatch" in capsys.readouterr().err

    def test_degenerate_report(self, tmp_path, capsys):
        path = tmp_path / "point.json"
        path.write_text(json.dumps({"frame": ["a"], "focal": [{"elements": ["a"], "mass": 1.0}]}))
        assert main(["compute", str(path)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == {
            "entropy_bits": 0.0,
            "split_scale_bits": 0.0,
            "dimension": 0.0,
            "degenerate": True,
        }


class TestPinnedStdout:
    """Byte-exact stdout, including full-precision json and rounding at
    the widest and narrowest --decimals, for a regular and a degenerate
    (single-singleton) mass function."""

    @pytest.mark.parametrize(
        "argv, expected",
        [(case["argv"], case["stdout"]) for case in PINNED_STDOUT],
        ids=[" ".join(case["argv"]) for case in PINNED_STDOUT],
    )
    def test_stdout_bytes(self, argv, expected, tmp_path, monkeypatch, capsys):
        (tmp_path / "pair.json").write_text(json.dumps(EXAMPLE))
        (tmp_path / "point.json").write_text(
            json.dumps({"frame": ["a"], "focal": [{"elements": ["a"], "mass": 1.0}]})
        )
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 0
        assert capsys.readouterr().out == expected


class TestComputeErrors:
    def run_with_payload(self, tmp_path, payload) -> tuple[int, str]:
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(payload) if not isinstance(payload, str) else payload)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(["compute", str(path)])
        return code, err.getvalue()

    def test_non_unit_total(self, tmp_path):
        code, err = self.run_with_payload(
            tmp_path,
            {"frame": ["a", "b"], "focal": [
                {"elements": ["a"], "mass": 0.5},
                {"elements": ["b"], "mass": 0.4},
            ]},
        )
        assert code == 2
        assert "NonUnitTotal" in err

    def test_empty_subset(self, tmp_path):
        code, err = self.run_with_payload(
            tmp_path,
            {"frame": ["a"], "focal": [{"elements": [], "mass": 1.0}]},
        )
        assert code == 2
        assert "EmptySubset" in err

    def test_malformed_json(self, tmp_path):
        code, err = self.run_with_payload(tmp_path, "{broken")
        assert code == 2

    def test_unknown_key(self, tmp_path):
        code, err = self.run_with_payload(
            tmp_path,
            {"frame": ["a"], "focal": [{"elements": ["a"], "mass": 1.0}], "x": 1},
        )
        assert code == 2

    def test_nan_mass(self, tmp_path):
        code, err = self.run_with_payload(
            tmp_path,
            {"frame": ["a", "b"], "focal": [
                {"elements": ["a"], "mass": math.nan},
                {"elements": ["b"], "mass": 1.0},
            ]},
        )
        assert code == 2
        assert "NegativeMass" in err and "Traceback" not in err

    def test_mass_too_large_for_a_float(self, tmp_path):
        code, err = self.run_with_payload(
            tmp_path, {"frame": ["a"], "focal": [{"elements": ["a"], "mass": 10**400}]}
        )
        assert code == 2
        assert "EvidenceError" in err and "Traceback" not in err

    def test_mass_parsed_as_infinity(self, tmp_path):
        # json reads 1e400 as inf
        code, err = self.run_with_payload(
            tmp_path, '{"frame": ["a"], "focal": [{"elements": ["a"], "mass": 1e400}]}'
        )
        assert code == 2
        assert "too large for a float" in err and "Traceback" not in err

    def test_masses_whose_sum_overflows(self, tmp_path):
        # each mass is a finite float; their sum escaped as a bare OverflowError
        code, err = self.run_with_payload(
            tmp_path,
            {"frame": ["a", "b"], "focal": [
                {"elements": ["a"], "mass": 1e308},
                {"elements": ["b"], "mass": 1e308},
            ]},
        )
        assert code == 2
        assert "NonUnitTotalError: focal masses sum to inf" in err and "Traceback" not in err

    def test_repeated_keys(self, tmp_path):
        code, err = self.run_with_payload(
            tmp_path,
            '{"frame": ["a", "b"], "focal": [{"elements": ["a"], "mass": 0.25, '
            '"mass": 0.5}, {"elements": ["b"], "mass": 0.5}]}',
        )
        assert code == 2
        assert "repeated keys" in err and "Traceback" not in err

    def test_deeply_nested_json(self, tmp_path):
        code, err = self.run_with_payload(tmp_path, "[" * 100_000 + "]" * 100_000)
        assert code == 2
        assert "EvidenceError" in err and "Traceback" not in err

    @pytest.mark.parametrize("label", [["a"], {"x": 1}, 1, None], ids=repr)
    def test_non_string_label(self, tmp_path, label):
        code, err = self.run_with_payload(
            tmp_path, {"frame": ["a"], "focal": [{"elements": [label], "mass": 1.0}]}
        )
        assert code == 2
        assert "UnknownLabelError" in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "payload",
        [
            '{"frame": ["a"], "focal": [{"elements": ["a"], "mass": %s}]}'
            % ("[" * 900 + "]" * 900),
            {"frame": [f"l{i}" for i in range(20_000)] + ["l0"],
             "focal": [{"elements": ["l0"], "mass": 1.0}]},
            {"frame": ["a"], "focal": [{"elements": ["x" * 100_000], "mass": 1.0}]},
        ],
        ids=["nested-mass", "duplicate-label", "long-label"],
    )
    def test_echoed_values_are_bounded(self, tmp_path, payload):
        # each message used to repeat the whole value, up to 189 KB
        code, err = self.run_with_payload(tmp_path, payload)
        assert code == 2
        assert len(err) < 400 and "Traceback" not in err

    def test_missing_file(self, tmp_path, monkeypatch, capsys):
        assert main(["compute", str(tmp_path / "absent.json")]) == 2
        capsys.readouterr()
        # the message names the path as typed, ./ included
        monkeypatch.chdir(tmp_path)
        assert main(["compute", "./missing.json"]) == 2
        assert capsys.readouterr().err == (
            "error: FileNotFoundError: [Errno 2] No such file or directory: './missing.json'\n"
        )

    def test_bad_decimals(self, example_file):
        assert main(["compute", example_file, "--decimals", "0"]) == 2
        assert main(["compute", example_file, "--decimals", "16"]) == 2


class TestSweep:
    def test_matches_golden_table(self, capsys):
        assert main(["sweep", "max-deng", "1", "20", "--decimals", "4"]) == 0
        out = capsys.readouterr().out
        assert out.encode() == (GOLDEN_DIR / "table4.csv").read_bytes()

    def test_detect_limit_line(self, capsys):
        assert main(["sweep", "vacuous", "1", "20", "--detect-limit", "1e-9", "5"]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == "converged limit=1.0000"

    def test_not_converged_line(self, capsys):
        assert main(["sweep", "max-deng", "1", "8", "--detect-limit", "1e-6", "5"]) == 0
        assert capsys.readouterr().out.splitlines()[-1].startswith("not-converged limit=")

    def test_json_format_with_verdict(self, capsys):
        assert main(
            ["sweep", "vacuous", "1", "10", "--format", "json", "--detect-limit", "1e-9", "3"]
        ) == 0
        out = capsys.readouterr().out
        assert json.dumps(json.loads(out), indent=2) + "\n" == out
        payload = json.loads(out)
        assert payload["verdict"]["converged"] is True
        assert payload["verdict"]["achieved_at_n"] == 2
        assert len(payload["rows"]) == 10

    def test_plot_data_file(self, tmp_path, capsys):
        target = tmp_path / "plot.csv"
        assert main(["sweep", "max-deng", "1", "6", "--plot-data", str(target)]) == 0
        lines = target.read_text().splitlines()
        assert lines[0] == "split_scale_bits,entropy_bits,N"
        assert len(lines) == 7

    def test_markdown_format(self, capsys):
        assert main(["sweep", "vacuous", "2", "3", "--format", "markdown"]) == 0
        assert capsys.readouterr().out.startswith("| N | entropy_bits |")

    def test_base_flag_rescales_columns(self, capsys):
        main(["sweep", "vacuous", "2", "2", "--decimals", "6"])
        bits_line = capsys.readouterr().out.splitlines()[1]
        main(["sweep", "vacuous", "2", "2", "--decimals", "6", "--base", "10"])
        dits_line = capsys.readouterr().out.splitlines()[1]
        bits = float(bits_line.split(",")[1])
        dits = float(dits_line.split(",")[1])
        assert dits == pytest.approx(bits * math.log10(2), abs=1e-5)
        assert bits_line.split(",")[3] == dits_line.split(",")[3]

    def test_unknown_family_exits_two(self, capsys):
        assert main(["sweep", "bogus", "1", "5"]) == 2

    def test_invalid_range_exits_two(self):
        assert main(["sweep", "vacuous", "5", "3"]) == 2
        assert main(["sweep", "vacuous", "0", "3"]) == 2

    def test_detect_limit_with_too_few_rows_exits_two(self):
        assert main(["sweep", "vacuous", "1", "3", "--detect-limit", "1e-9", "5"]) == 2

    @pytest.mark.parametrize("tol, window, message", [
        ("1e-6", "abc", "window 'abc' is not an int"),
        ("1e-6", "2.5", "window '2.5' is not an int"),
        ("abc", "3", "tolerance 'abc' is not a real number"),
        ("nan", "3", "tolerance must be positive"),
        # argparse's own negative-number pattern reads -1e-6 as an option in
        # some releases, which failed as "expected 2 arguments"
        ("-1e-6", "5", "tolerance must be positive"),
        ("-1E-3", "5", "tolerance must be positive"),
        ("-0.5", "5", "tolerance must be positive"),
        ("-inf", "5", "tolerance must be positive"),
    ])
    def test_detect_limit_parameters_that_do_not_read_exit_two(self, tol, window, message, capsys):
        # int("abc") escaped as "ValueError: invalid literal for int()"
        assert main(["sweep", "max-deng", "1", "8", "--detect-limit", tol, window]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: DetectionParameterError: {message}\n"


class TestArgumentErrors:
    def test_no_arguments(self):
        assert main([]) == 2

    def test_unknown_subcommand(self):
        assert main(["bogus"]) == 2

    def test_bad_format_value(self, example_file):
        assert main(["compute", example_file, "--format", "xml"]) == 2


class TestHelpAndUsage:
    """Help and usage text, and the exit code, of the commands and of
    usage errors.  An argv that opens with a command is parsed by that
    command's parser alone, and only tokens it leaves over, or an argv
    that opens with anything else, reach the full parser; none of that
    may show, on either path."""

    @pytest.mark.parametrize(
        "case", PINNED_USAGE, ids=[" ".join(case["argv"]) or "(none)" for case in PINNED_USAGE]
    )
    def test_output_bytes(self, case, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("COLUMNS", "80")
        monkeypatch.chdir(tmp_path)
        assert main(case["argv"]) == case["code"]
        captured = capsys.readouterr()
        assert captured.out == case["stdout"]
        assert captured.err == case["stderr"]


class TestArgvFromSys:
    @pytest.mark.parametrize("argv", [["compute", "pair.json"], ["sweep", "max-deng", "1", "6"]])
    def test_none_reads_sys_argv(self, argv, tmp_path, monkeypatch, capsys):
        (tmp_path / "pair.json").write_text(json.dumps(EXAMPLE))
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 0
        expected = capsys.readouterr()
        monkeypatch.setattr("sys.argv", ["evidim", *argv])
        assert main() == 0
        assert capsys.readouterr() == expected


class TestJsonHelpers:
    def test_mass_to_json_is_readable_by_compute(self, tmp_path, capsys, skewed_pair_mass):
        path = tmp_path / "emitted.json"
        path.write_text(mass_to_json(skewed_pair_mass))
        assert main(["compute", str(path)]) == 0
