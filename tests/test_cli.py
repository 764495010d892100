import argparse
import json
from fractions import Fraction
from pathlib import Path

import pytest

from divsum import cli
from divsum import abel
from divsum.abel import ComparisonReport, NonconvergenceError
from divsum.cli import Record, Table, emit, run_command
from divsum.sequences import IdentityViolation, VerificationReport


def run(capsys, *argv):
    code = run_command(list(argv))
    captured = capsys.readouterr()
    return code, captured.out.rstrip("\n"), captured.err


class TestEmit:
    def test_empty_table_is_header_only(self):
        table = Table(["n", "B_n"], [])
        assert emit("csv", table) == "n,B_n"
        assert emit("plain", table) == "n\tB_n"
        assert json.loads(emit("json", table)) == []

    def test_json_keys_sorted(self):
        record = Record({"b": 1, "a": 2}, plain="x")
        assert emit("json", record) == '{"a": 2, "b": 1}'

    def test_csv_flattens_nested_records(self):
        record = Record({"sum": "1/4", "numeric": {"pass": True}}, plain="1/4")
        lines = emit("csv", record).splitlines()
        assert lines[0] == "numeric.pass,sum"


class TestBernoulliCommand:
    def test_plain_value(self, capsys):
        code, out, _ = run(capsys, "bernoulli", "4")
        assert (code, out) == (0, "-1/30")

    @pytest.mark.parametrize("method", ["recurrence", "series", "garabedian"])
    def test_methods(self, capsys, method):
        code, out, _ = run(capsys, "bernoulli", "8", "--method", method)
        assert (code, out) == (0, "-1/30")

    def test_secant_not_offered(self, capsys):
        code, out, err = run(capsys, "bernoulli", "4", "--method", "secant")
        assert (code, out) == (2, "")
        assert "invalid choice" in err

    def test_csv_table(self, capsys):
        code, out, _ = run(capsys, "bernoulli", "2", "--table", "--format", "csv")
        assert code == 0
        assert out == "n,B_n\n0,1\n1,-1/2\n2,1/6"

    def test_json_table_parses_back(self, capsys):
        code, out, _ = run(capsys, "bernoulli", "6", "--table", "--format", "json")
        rows = json.loads(out)
        assert Fraction(rows[6]["B_n"]) == Fraction(1, 42)

    def test_plain_table_has_header(self, capsys):
        code, out, _ = run(capsys, "bernoulli", "2", "--table")
        assert out.splitlines()[0] == "n\tB_n"


class TestEulerCommand:
    def test_plain_value(self, capsys):
        code, out, _ = run(capsys, "euler", "6")
        assert (code, out) == (0, "61")

    def test_series_method(self, capsys):
        code, out, _ = run(capsys, "euler", "10", "--method", "series")
        assert (code, out) == (0, "50521")

    def test_secant_method(self, capsys):
        code, out, _ = run(capsys, "euler", "10", "--method", "secant")
        assert (code, out) == (0, "50521")

    def test_garabedian_not_offered(self, capsys):
        code, out, err = run(capsys, "euler", "4", "--method", "garabedian")
        assert code == 2


class TestSigmaCommand:
    def test_exact(self, capsys):
        code, out, _ = run(capsys, "sigma", "1")
        assert (code, out) == (0, "1/4")

    def test_json(self, capsys):
        code, out, _ = run(capsys, "sigma", "3", "--format", "json")
        assert json.loads(out) == {"sum": "-1/8"}

    def test_numeric_passes(self, capsys):
        code, out, _ = run(capsys, "sigma", "1", "--numeric")
        assert code == 0
        assert "pass" in out

    def test_numeric_json_schema(self, capsys):
        code, out, _ = run(capsys, "sigma", "2", "--numeric", "--format", "json")
        payload = json.loads(out)
        assert payload["sum"] == "0"
        assert payload["numeric"]["pass"] is True
        assert payload["numeric"]["nodes"] == 1

    @pytest.mark.parametrize("expression, exact", [
        ("rec a(n)=-a(n-2)-1/2a(n-4); init 0,3,-3,-3", "0"),
        ("rec a(n)=-a(n-1)+2a(n-4)+2a(n-5); init 0,0,1/2,-1/2,1/2", "-1/4"),
        ("rec a(n)=-a(n-2)+6a(n-5)+6a(n-7); init 0,0,0,1,0,-1,0", "-1/10"),
    ])
    def test_block_mean_fallback(self, capsys, expression, exact):
        # the node at x = 1 does not settle on these series; block means do
        code, out, _ = run(capsys, "sum", expression, "--numeric", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["sum"] == payload["numeric"]["exact"] == exact
        assert payload["numeric"]["pass"] is True

    def test_flat_phase_of_a_periodic_column_does_not_settle(self, capsys):
        # Q = (1 + x)(1 - 3x^4): a flat run of three entries at x = 1 was one
        # phase of a periodic even column, and the node settled on 9841
        code, out, _ = run(capsys, "sum", "rec a(n)=-a(n-1)+3a(n-4)+3a(n-5); init 2,-2,2,-2,8",
                           "--numeric")
        assert code == 0
        first, numeric = out.split("\n")
        assert first == "-1/2"
        assert numeric.endswith(": pass")

    def test_small_ratio_settles_in_column_zero(self, capsys):
        # terms fall below the working precision, so the node at x = 1 can
        # settle only in column 0, and d = 1 leaves no block means to try
        code, out, _ = run(capsys, "sum", "poly 1 ratio 1/100", "--numeric")
        assert code == 0
        first, numeric = out.split("\n")
        assert first == "100/99"
        assert numeric.endswith(": pass")

    @pytest.mark.parametrize("argv, calls", [
        (["sigma", "5", "--numeric"], 1),
        (["sigma", "40", "--numeric", "--format", "json"], 1),
        (["sum", "rec a(n)=1/2a(n-5); init 1,2,3,4,5", "--numeric"], 1),
        (["sigma", "5"], 1),
        # not summable: summed once more for the pole order
        (["sum", "poly n+1 ratio 1", "--numeric"], 2),
    ])
    def test_exact_sum_decided_once(self, capsys, monkeypatch, argv, calls):
        counted = []

        def counting(series, axiomatic_sum=cli.axiomatic_sum):
            counted.append(series)
            return axiomatic_sum(series)

        monkeypatch.setattr(cli, "axiomatic_sum", counting)
        monkeypatch.setattr(abel, "axiomatic_sum", counting)
        expected = run(capsys, *argv)
        monkeypatch.undo()
        assert len(counted) == calls
        assert run(capsys, *argv) == expected


class TestSumCommand:
    def test_fibonacci_json(self, capsys):
        code, out, _ = run(
            capsys, "sum", "rec a(n)=a(n-1)+a(n-2); init 1,1", "--format", "json"
        )
        assert code == 0
        assert json.loads(out) == {"sum": "-1"}

    def test_geometric_plain(self, capsys):
        code, out, _ = run(capsys, "sum", "poly 1 ratio 1/2")
        assert (code, out) == (0, "2")

    def test_not_summable_exit_code(self, capsys):
        code, out, _ = run(capsys, "sum", "poly 1 ratio 1")
        assert code == 1
        assert out == "not summable: pole of order 1 at x=1"

    def test_not_summable_json(self, capsys):
        code, out, _ = run(capsys, "sum", "poly n+1 ratio 1", "--format", "json")
        assert code == 1
        assert json.loads(out) == {"not_summable": {"pole_order": 2}}

    def test_numeric_fibonacci(self, capsys):
        code, out, _ = run(
            capsys, "sum", "rec a(n)=a(n-1)+a(n-2); init 1,1", "--numeric",
            "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["numeric"]["pass"] is True
        assert abs(payload["numeric"]["estimate"] - (-1.0)) < 1e-6

    @pytest.mark.parametrize("ratio, exact", [("8/7", "-7"), ("16/15", "-15")])
    def test_numeric_ratio_just_above_one(self, capsys, ratio, exact):
        code, out, _ = run(capsys, "sum", f"poly 1 ratio {ratio}", "--numeric", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["sum"] == exact
        assert payload["numeric"]["pass"] is True

    def test_parse_error_exit_code(self, capsys):
        code, out, err = run(capsys, "sum", "poly ratio 1")
        assert code == 2
        assert "syntax error" in err

    def test_arity_error_exit_code(self, capsys):
        code, out, err = run(capsys, "sum", "rec a(n)=a(n-2); init 1")
        assert code == 2


class TestExitOne:
    """The exit-1 outcomes that no real input reaches reliably, forced by monkeypatch."""

    FAILED = ComparisonReport(Fraction(1, 4), 0.5, 0.25, False, 1)

    @pytest.mark.parametrize("fmt, stdout", [
        ("plain", "1/4\nnumeric estimate 0.5 (abs error 2.500e-01, nodes 1): FAIL\n"),
        ("json", '{"numeric": {"abs_error": 0.25, "estimate": 0.5, "exact": "1/4", '
                 '"nodes": 1, "pass": false}, "sum": "1/4"}\n'),
    ])
    def test_failed_comparison(self, capsys, monkeypatch, fmt, stdout):
        monkeypatch.setattr(cli, "compare_exact", lambda series: self.FAILED)
        code = run_command(["sigma", "1", "--numeric", "--format", fmt])
        assert (code, *capsys.readouterr()) == (1, stdout, "")

    @pytest.mark.parametrize("fmt", ["plain", "json"])
    def test_numeric_evaluation_failed(self, capsys, monkeypatch, fmt):
        def compare_exact(series):
            raise NonconvergenceError("no limit here")

        monkeypatch.setattr(cli, "compare_exact", compare_exact)
        code = run_command(["sum", "poly 1 ratio 1/2", "--numeric", "--format", fmt])
        assert (code, *capsys.readouterr()) == (
            1, "", "numeric evaluation failed: no limit here\n"
        )

    @pytest.mark.parametrize("fmt, stdout", [
        ("plain", "violated: lhs=1 rhs=2 at {'k': 3}\n"),
        ("json", '{"holds": false, "identity": "eq4", "lhs": "1", '
                 '"params": {"k": 3}, "rhs": "2"}\n'),
    ])
    def test_identity_violated(self, capsys, monkeypatch, fmt, stdout):
        def verifier(args):
            report = VerificationReport("eq4", {"k": args.k}, Fraction(1), Fraction(2), False)
            raise IdentityViolation(report)

        monkeypatch.setitem(cli._VERIFIERS, "eq4", verifier)
        code = run_command(["verify", "eq4", "--k", "3", "--format", fmt])
        assert (code, *capsys.readouterr()) == (1, stdout, "")


class TestVerifyCommand:
    def test_eq7_holds(self, capsys):
        code, out, _ = run(capsys, "verify", "eq7", "--k", "3")
        assert (code, out) == (0, "holds")

    def test_eq4_json_schema(self, capsys):
        code, out, _ = run(capsys, "verify", "eq4", "--k", "5", "--format", "json")
        payload = json.loads(out)
        assert payload["holds"] is True
        assert payload["identity"] == "eq4"
        assert Fraction(payload["lhs"]) == Fraction(payload["rhs"])

    def test_prop2_with_a(self, capsys):
        code, out, _ = run(capsys, "verify", "prop2", "--k", "6", "--a", "3")
        assert (code, out) == (0, "holds")

    def test_prop2_requires_integer_a(self, capsys):
        code, out, err = run(capsys, "verify", "prop2", "--k", "3", "--a", "1/2")
        assert code == 2

    def test_mixed_with_rational_parameters(self, capsys):
        code, out, _ = run(
            capsys, "verify", "mixed", "--k", "4", "--a", "3", "--q", "1/2"
        )
        assert (code, out) == (0, "holds")

    def test_unknown_identity(self, capsys):
        code, out, err = run(capsys, "verify", "eq9", "--k", "2")
        assert code == 2


class TestUsage:
    def test_missing_subcommand(self, capsys):
        code, _, _ = run(capsys)
        assert code == 2

    def test_unknown_subcommand(self, capsys):
        code, _, _ = run(capsys, "frobnicate", "1")
        assert code == 2

    @pytest.mark.parametrize("argv, message", [
        (["verify", "mixed", "--k", "2", "--q", "half"], "Invalid literal for Fraction: 'half'"),
        (["verify", "mixed", "--k", "2", "--q=1/0"], "Fraction(1, 0)"),
        (["verify", "prop2", "--k", "2", "--a", "x"], "Invalid literal for Fraction: 'x'"),
        (["verify", "mixed", "--k", "2", "--a", "0"], "parameter a must be positive"),
        (["bernoulli", "-1"], "table size must be nonnegative"),
        (["euler", "-2", "--method", "series"], "table size must be nonnegative"),
        (["verify", "eq4", "--k", "0"], "index must be positive"),
    ])
    def test_error_message(self, capsys, argv, message):
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (2, "", f"error: {message}\n")

    # argparse wraps its usage text to COLUMNS, so the width is pinned.
    SIGMA_USAGE = (
        "usage: divsum sigma [-h] [--format {plain,json,csv}] [--numeric] k\n"
    )
    VERIFY_USAGE = (
        "usage: divsum verify [-h] [--format {plain,json,csv}] --k K [--a A] [--q Q]\n"
        "                     {eq4,prop2,eq6,eq7,mixed}\n"
    )

    @pytest.mark.parametrize("argv, stderr", [
        (["sigma"], SIGMA_USAGE
         + "divsum sigma: error: the following arguments are required: k\n"),
        (["verify", "eq4", "--k", "x"], VERIFY_USAGE
         + "divsum verify: error: argument --k: invalid int value: 'x'\n"),
    ])
    def test_usage_error(self, capsys, monkeypatch, argv, stderr):
        monkeypatch.setenv("COLUMNS", "80")
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (2, "", stderr)

    def test_usage_error_bad_choice(self, capsys, monkeypatch):
        # How argparse lists the choices after this prefix differs between
        # Python 3.12 patch releases, so only the prefix is pinned.
        monkeypatch.setenv("COLUMNS", "80")
        code, out, err = run(capsys, "verify", "eq9", "--k", "1")
        assert (code, out) == (2, "")
        assert err.startswith(self.VERIFY_USAGE + (
            "divsum verify: error: argument identity: invalid choice: 'eq9' "
            "(choose from "))
        assert err.endswith(")\n") and err.count("\n") == self.VERIFY_USAGE.count("\n") + 1

    @pytest.mark.parametrize("argv", [
        ["bernoulli", "4"], ["euler", "4"], ["sigma", "2"], ["sum", "poly 1 ratio 1/2"],
        ["verify", "eq7", "--k", "3"],
    ])
    def test_numeric_flags_only_on_sigma_and_sum(self, capsys, argv):
        assert run(capsys, *argv, "--max-terms", "500")[0] == 2
        code, _, err = run(capsys, *argv, "--numeric")
        if argv[0] in ("sigma", "sum"):
            assert (code, err) == (0, "")
        else:
            assert code == 2
            assert "unrecognized arguments: --numeric" in err

    def test_numeric_takes_no_grid_option(self, capsys):
        code, out, err = run(capsys, "sigma", "3", "--numeric", "--grid-levels", "6")
        assert (code, out) == (2, "")
        assert err.endswith("divsum: error: unrecognized arguments: --grid-levels 6\n")

    def test_csv_record_output(self, capsys):
        code, out, _ = run(capsys, "sigma", "1", "--format", "csv")
        lines = out.splitlines()
        assert lines[0] == "sum"
        assert lines[1] == "1/4"

    def test_json_round_trips_rationals(self, capsys):
        for argv in (
            ["bernoulli", "12", "--format", "json"],
            ["sigma", "7", "--format", "json"],
            ["verify", "eq6", "--k", "9", "--format", "json"],
        ):
            code = run_command(argv)
            out = capsys.readouterr().out
            payload = json.loads(out)
            assert payload is not None
            assert code == 0


GOLDEN_ARGVS = [r["argv"] for r in json.loads(
    (Path(__file__).parent / "golden" / "cli.json").read_text())]

# calls that end in the top-level parser: no argv, no subcommand first, help,
# unknown arguments, and the subcommands' own usage errors and abbreviations
USAGE_ARGVS = [
    [], ["frobnicate", "1"], ["-h"], ["--format", "json", "sigma", "2"], ["sigma"],
    ["verify", "eq4", "--k", "x"], ["verify", "eq9", "--k", "1"],
    ["bernoulli", "4", "--grid-levels", "6"],
    ["verify", "mixed", "--k", "2", "--q=-3/4", "--a=3/2", "extra"],
    ["euler", "4", "--meth", "series"], ["verify", "eq4", "--k", "3", "--form", "json"],
    ["sum", "--", "poly 1 ratio 1/2"], ["sigma", "-1"],
]


def top_level_parse(argv):
    """Every argument through the top-level parser, which hands the
    subcommand's to that subcommand's parser."""
    return cli.build_parser().parse_args(argv)


class TestParserReuse:
    """run_command parses every call with one cached set of parsers: the
    subcommand's parser reads the arguments after the subcommand, once.
    Calls it cannot parse alone go through the top-level parser."""

    @pytest.mark.parametrize("argv", GOLDEN_ARGVS, ids=" ".join)
    def test_namespace_is_the_top_level_one(self, argv):
        assert vars(cli._parse_args(argv)) == vars(top_level_parse(argv))

    @pytest.mark.parametrize("argv", USAGE_ARGVS, ids=" ".join)
    def test_usage_is_the_top_level_one(self, argv, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        one_pass = run(capsys, *argv)
        monkeypatch.setattr(cli, "_parse_args", top_level_parse)
        assert one_pass == run(capsys, *argv)

    def test_a_valid_call_is_parsed_once(self, capsys, monkeypatch):
        parses = []
        parse_known_args = argparse.ArgumentParser.parse_known_args

        def counting(parser, *args, **kwargs):
            parses.append(parser.prog)
            return parse_known_args(parser, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", counting)
        assert run(capsys, "sigma", "3", "--numeric", "--format", "json")[0] == 0
        assert parses == ["divsum sigma"]

    def test_usage_error_then_valid_call(self, capsys):
        golden = json.loads((Path(__file__).parent / "golden" / "cli.json").read_text())
        argv = ["euler", "8", "--method", "series", "--format", "json"]
        (record,) = [r for r in golden if r["argv"] == argv]
        assert run(capsys, "euler", "4", "--method", "garabedian")[:2] == (2, "")
        code = run_command(argv)
        assert (code, *capsys.readouterr()) == (
            record["exit"], record["stdout"], record["stderr"]
        )

    def test_numeric_flag_does_not_carry_over(self, capsys):
        assert run(capsys, "sigma", "3", "--numeric")[:2] == (
            0, "-1/8\nnumeric estimate -0.125 (abs error 0.000e+00, nodes 1): pass"
        )
        assert run(capsys, "sigma", "3") == (0, "-1/8", "")

    def test_build_parser_returns_a_fresh_parser(self):
        assert cli.build_parser() is not cli.build_parser()
