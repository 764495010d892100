"""Command-line interface.

Subcommands::

    bernoulli <n> [--method recurrence|series|garabedian] [--table]
    euler <n> [--method recurrence|series|secant] [--table]
    sigma <k> [--numeric]   exact sum of 1^k - 2^k + 3^k - ...
    sum "<series-expr>" [--numeric]
    verify <eq4|prop2|eq6|eq7|mixed> --k K [--a A] [--q Q]

Every subcommand accepts ``--format plain|json|csv``; ``sigma`` and ``sum``
also take ``--numeric`` for the numeric cross-check at x = 1, which falls
back to block means of the partial sums where that node does not settle.
Each call is parsed once, by its subcommand's parser; calls it cannot
parse alone (no subcommand first, or arguments it does not know) go
through the top-level parser for its usage error.
Output is bit-stable: JSON keys are sorted, CSV carries a header row, and
rationals print as ``str(Fraction)`` does: ``p/q`` in lowest terms, or
``p`` alone when the denominator is 1.  Exit codes: 0 success, 1 identity
violation, numeric comparison failure or non-summable input, 2 usage or
parse errors.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from contextlib import suppress
from dataclasses import dataclass
from fractions import Fraction
from functools import cache

from .abel import NonconvergenceError, NotSummableInputError, compare_exact
from .cfinite import SummationOutcome, alternating_power_series, axiomatic_sum
from .parsing import parse_series
from .sequences import (
    BERNOULLI_METHODS,
    EULER_METHODS,
    IdentityViolation,
    bernoulli_table,
    euler_table,
    verify_affine_relation,
    verify_even_doubling,
    verify_odd_split,
    verify_peeled_recursion,
    verify_weighted_recursion,
)

__all__ = ["build_parser", "emit", "main", "run_command"]


@dataclass
class Table:
    headers: list
    rows: list


@dataclass
class Record:
    fields: dict
    plain: str


def _flatten(fields: dict, prefix: str = "") -> dict:
    flat = {}
    for key in sorted(fields):
        value = fields[key]
        name = f"{prefix}{key}"
        if isinstance(value, dict):
            flat.update(_flatten(value, f"{name}."))
        else:
            flat[name] = value
    return flat


def emit(fmt: str, payload) -> str:
    """Render a Table or Record payload as plain text, JSON, or CSV."""
    if fmt == "json":
        if isinstance(payload, Table):
            data = [dict(zip(payload.headers, row)) for row in payload.rows]
        else:
            data = payload.fields
        return json.dumps(data, sort_keys=True)
    if fmt == "csv":
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        if isinstance(payload, Table):
            writer.writerow(payload.headers)
            writer.writerows(payload.rows)
        else:
            flat = _flatten(payload.fields)
            writer.writerow(list(flat))
            writer.writerow([flat[k] for k in flat])
        return out.getvalue().rstrip("\n")
    if isinstance(payload, Table):
        lines = ["\t".join(payload.headers)]
        lines.extend("\t".join(str(cell) for cell in row) for row in payload.rows)
        return "\n".join(lines)
    return payload.plain


def _handle_table(args):
    # looked up at call time, so that a rebinding of these module names
    # (bench/tracer.py wraps them) takes effect
    bernoulli = args.command == "bernoulli"
    table = (bernoulli_table if bernoulli else euler_table)(args.n, args.method)
    if args.table:
        rows = [[str(n), str(v)] for n, v in enumerate(table.values)]
        return 0, Table(["n", "B_n" if bernoulli else "E_n"], rows)
    value = str(table.values[args.n])
    record = Record(
        {"n": args.n, "method": args.method, "value": value}, plain=value
    )
    return 0, record


def _summation_payload(series, args):
    # compare_exact decides the sum; a non-summable one is summed again for its pole order
    report = None
    if args.numeric:
        with suppress(NotSummableInputError):
            report = compare_exact(series)
    outcome = axiomatic_sum(series) if report is None else SummationOutcome(report.exact)
    if not outcome.is_summable:
        plain = f"not summable: pole of order {outcome.pole_order} at x=1"
        return 1, Record(outcome.to_json(), plain=plain)
    fields = outcome.to_json()
    plain = fields["sum"]
    code = 0
    if report is not None:
        fields["numeric"] = report.to_json()
        verdict = "pass" if report.passed else "FAIL"
        plain += (
            f"\nnumeric estimate {report.estimate!r}"
            f" (abs error {report.abs_error:.3e}, nodes {report.nodes}): {verdict}"
        )
        if not report.passed:
            code = 1
    return code, Record(fields, plain=plain)


def _handle_sigma(args):
    return _summation_payload(alternating_power_series(args.k), args)


def _handle_sum(args):
    return _summation_payload(parse_series(args.expression), args)


def _peeled(args):
    a = Fraction(args.a)
    if a.denominator != 1 or a < 1:
        raise ValueError("prop2 requires a positive integer --a")
    return verify_peeled_recursion(int(a), args.k)


_VERIFIERS = {
    "eq4": lambda args: verify_weighted_recursion(args.k),
    "prop2": _peeled,
    "eq6": lambda args: verify_odd_split(args.k),
    "eq7": lambda args: verify_even_doubling(args.k),
    "mixed": lambda args: verify_affine_relation(Fraction(args.a), Fraction(args.q), args.k),
}


def _handle_verify(args):
    try:
        report = _VERIFIERS[args.identity](args)
    except IdentityViolation as exc:
        fields = exc.report.to_json()
        plain = (
            f"violated: lhs={fields['lhs']} rhs={fields['rhs']} at {fields['params']}"
        )
        return 1, Record(fields, plain=plain)
    return 0, Record(report.to_json(), plain="holds")


_HANDLERS = {
    "bernoulli": _handle_table,
    "euler": _handle_table,
    "sigma": _handle_sigma,
    "sum": _handle_sum,
    "verify": _handle_verify,
}


def build_parser() -> argparse.ArgumentParser:
    return _build_parsers()[0]


def _build_parsers() -> tuple[argparse.ArgumentParser, dict]:
    """The top-level parser, and its subcommand parsers by name: the
    ``choices`` of its ``add_subparsers`` action."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format", choices=("plain", "json", "csv"), default="plain",
        help="output format (default plain)",
    )
    numeric = argparse.ArgumentParser(add_help=False)
    numeric.add_argument("--numeric", action="store_true",
                         help="also cross-check against the numeric limit")

    parser = argparse.ArgumentParser(
        prog="divsum",
        description="Exact sums of divergent series, Bernoulli and Euler numbers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bernoulli", parents=[common], help="Bernoulli number B_n")
    p.add_argument("n", type=int)
    p.add_argument("--method", choices=BERNOULLI_METHODS, default="recurrence")
    p.add_argument("--table", action="store_true", help="print B_0..B_n")

    p = sub.add_parser("euler", parents=[common], help="Euler number E_n")
    p.add_argument("n", type=int)
    p.add_argument("--method", choices=EULER_METHODS, default="recurrence")
    p.add_argument("--table", action="store_true", help="print E_0..E_n")

    p = sub.add_parser(
        "sigma", parents=[common, numeric], help="sum of 1^k - 2^k + 3^k - ..."
    )
    p.add_argument("k", type=int)

    p = sub.add_parser("sum", parents=[common, numeric], help="sum a series expression")
    p.add_argument("expression")

    p = sub.add_parser("verify", parents=[common], help="check an exact identity")
    p.add_argument("identity", choices=tuple(_VERIFIERS))
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--a", default="1", help="rational parameter (default 1)")
    p.add_argument("--q", default="1", help="rational parameter (default 1)")

    return parser, sub.choices


@cache
def _parsers() -> tuple[argparse.ArgumentParser, dict]:
    # parse_args keeps no state between calls, so one parser serves them all
    return _build_parsers()


def _parse_args(argv) -> argparse.Namespace:
    """Parse one call, once: its subcommand's parser reads argv[1:].

    The top-level parser would sort every argument and hand them all to
    that parser, which sorts them again.  An empty argv, a first word that
    is no subcommand, and arguments the subcommand leaves unknown go through
    the top-level parser, so its usage errors, help and exit codes stay.
    """
    parser, commands = _parsers()
    if argv and (command := commands.get(argv[0])):
        args, unknown = command.parse_known_args(argv[1:])
        if not unknown:
            args.command = argv[0]
            return args
    return parser.parse_args(argv)


def run_command(argv) -> int:
    """Dispatch one CLI invocation; returns the process exit code."""
    try:
        args = _parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        code, payload = _HANDLERS[args.command](args)
    except (ValueError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NonconvergenceError as exc:
        print(f"numeric evaluation failed: {exc}", file=sys.stderr)
        return 1
    print(emit(args.format, payload))
    return code


def main() -> None:
    # exact values may pass CPython's 4300-digit int-to-str limit: lift it here only
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
