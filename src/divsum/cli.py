"""Command-line interface.

Subcommands::

    bernoulli <n> [--method recurrence|series|garabedian] [--table]
    euler <n> [--method recurrence|series] [--table]
    sigma <k> [--numeric]          exact sum of 1^k - 2^k + 3^k - ...
    sum "<series-expr>" [--numeric]
    verify <eq4|prop2|eq6|eq7|mixed> --k K [--a A] [--q Q]

Every subcommand accepts ``--format plain|json|csv`` plus ``--max-terms``
and ``--grid-levels`` for the numeric paths.  Output is bit-stable: JSON
keys are sorted, CSV carries a header row, and rationals print as
``str(Fraction)`` does: ``p/q`` in lowest terms, or ``p`` alone when the
denominator is 1.  Exit codes: 0 success, 1 identity violation, numeric
comparison failure or non-summable input, 2 usage or parse errors.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from dataclasses import dataclass
from fractions import Fraction

from .abel import (
    AbelConfig,
    DivergentGridError,
    NonconvergenceError,
    NotSummableInputError,
    compare_exact,
)
from .cfinite import (
    ZeroPolynomialError,
    alternating_power_series,
    axiomatic_sum,
)
from .parsing import ArityMismatchError, ExpressionSyntaxError, parse_series
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
    outcome = axiomatic_sum(series)
    if not outcome.is_summable:
        plain = f"not summable: pole of order {outcome.pole_order} at x=1"
        return 1, Record(outcome.to_json(), plain=plain)
    fields = outcome.to_json()
    plain = fields["sum"]
    code = 0
    if args.numeric:
        cfg = AbelConfig(grid_levels=args.grid_levels, max_terms=args.max_terms)
        report = compare_exact(series, cfg)
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
    series = parse_series(args.expression).to_cfinite()
    return _summation_payload(series, args)


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
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format", choices=("plain", "json", "csv"), default="plain",
        help="output format (default plain)",
    )
    common.add_argument(
        "--max-terms", type=int, default=AbelConfig.max_terms, metavar="N",
        help="term budget per partial sum for numeric evaluation",
    )
    common.add_argument(
        "--grid-levels", type=int, default=AbelConfig.grid_levels, metavar="J",
        help="number of grid points for the numeric limit",
    )

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
        "sigma", parents=[common], help="sum of 1^k - 2^k + 3^k - ..."
    )
    p.add_argument("k", type=int)
    p.add_argument("--numeric", action="store_true",
                   help="also cross-check against the numeric limit")

    p = sub.add_parser("sum", parents=[common], help="sum a series expression")
    p.add_argument("expression")
    p.add_argument("--numeric", action="store_true",
                   help="also cross-check against the numeric limit")

    p = sub.add_parser("verify", parents=[common], help="check an exact identity")
    p.add_argument("identity", choices=tuple(_VERIFIERS))
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--a", default="1", help="rational parameter (default 1)")
    p.add_argument("--q", default="1", help="rational parameter (default 1)")

    return parser


def run_command(argv) -> int:
    """Dispatch one CLI invocation; returns the process exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        code, payload = _HANDLERS[args.command](args)
    except (
        ExpressionSyntaxError,
        ArityMismatchError,
        ZeroPolynomialError,
        ValueError,
        ZeroDivisionError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (NonconvergenceError, DivergentGridError, NotSummableInputError) as exc:
        print(f"numeric evaluation failed: {exc}", file=sys.stderr)
        return 1
    print(emit(args.format, payload))
    return code


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
