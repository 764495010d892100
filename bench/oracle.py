"""Expected answers from sympy and mpmath, and the checker for CLI output.

No value here comes from divsum.  Bernoulli and Euler numbers come from
``sympy.bernoulli`` and ``sympy.euler``; alternating power sums from
(2^(k+1) - 1) * B+_(k+1) / (k+1) with sympy's numbers; series sums from the
generating function reduced by ``sympy.cancel``, with the pole order read
as the multiplicity of the root 1 of the reduced denominator; numeric
estimates are checked against ``mpmath.altzeta(-k)`` or the exact value.
"""

from __future__ import annotations

import csv
import io
import json
import re
from fractions import Fraction
from math import comb

import mpmath
import sympy

_X = sympy.Symbol("x")

# Failure classes, as read from the exit code and stderr of a request.
FAILURES = ("nonconvergence", "divergent_grid", "compare", "exception")


def _frac(value) -> Fraction:
    value = sympy.Rational(value)
    return Fraction(int(value.p), int(value.q))


class Oracle:
    """Expected results per request spec; sympy numbers are memoised."""

    def __init__(self):
        self._bplus = {}
        self._euler = {}

    def bernoulli_plus(self, n: int) -> Fraction:
        """B_n with B_1 = +1/2, whatever convention the sympy version uses."""
        if n not in self._bplus:
            value = _frac(sympy.bernoulli(n))
            self._bplus[n] = abs(value) if n == 1 else value
        return self._bplus[n]

    def bernoulli(self, n: int) -> Fraction:
        """B_n in divsum's convention, B_1 = -1/2."""
        value = self.bernoulli_plus(n)
        return -value if n == 1 else value

    def euler(self, n: int) -> int:
        """E_n as the coefficients of sec(z), so E_2 = +1; sympy has E_2 = -1."""
        if n not in self._euler:
            # sympy.euler is slow at odd n, where E_n = 0 by definition.
            self._euler[n] = 0 if n % 2 else (-1) ** (n // 2) * int(sympy.euler(n))
        return self._euler[n]

    def eta(self, k: int) -> Fraction:
        """Sum of 1^k - 2^k + 3^k - ..., the Dirichlet eta at -k."""
        return Fraction(2 ** (k + 1) - 1, k + 1) * self.bernoulli_plus(k + 1)

    def expected(self, spec: dict) -> dict:
        kind = spec["kind"]
        if kind == "table":
            seq = self.bernoulli if spec["seq"] == "bernoulli" else self.euler
            # Largest index first: that fills mpmath's cache for the rest.
            values = [str(seq(n)) for n in range(spec["n"], -1, -1)]
            return {"values": values[::-1]}
        if kind == "verify":
            return {"lhs": str(self._lhs(spec))}
        if kind == "sigma":
            out = {"sum": str(self.eta(spec["k"]))}
            if spec["numeric"]:
                out["float"] = float(mpmath.altzeta(-spec["k"]))
            return out
        num, den = _poly_gf(spec) if kind == "poly" else _rec_gf(spec)
        out = _reduced_sum(num, den)
        if spec["numeric"] and "sum" in out:
            out["float"] = float(Fraction(out["sum"]))
        return out

    def _lhs(self, spec) -> Fraction:
        k, identity = spec["k"], spec["identity"]
        if identity in ("eq4", "prop2"):
            return self.eta(k)
        if identity == "eq6":
            return sum(comb(k, j) * 2 ** j * self.eta(j) for j in range(1, k + 1))
        if identity == "eq7":
            return 2 ** (k + 1) * self.eta(k)
        a, q = Fraction(spec["a"]), Fraction(spec["q"])
        return q ** k / 2 - sum(
            comb(k, j) * q ** (k - j) * a ** j * self.eta(j) for j in range(1, k + 1)
        )


def _poly_gf(spec):
    """sum p(n) r^n x^n = N(x) / (1 - r x)^(d+1) with deg N <= d."""
    coeffs = [sympy.Rational(c) for c in spec["coeffs"]]
    r = sympy.Rational(spec["ratio"])
    d = len(coeffs) - 1
    head = sum(
        sum(c * n ** j for j, c in enumerate(coeffs)) * r ** n * _X ** n
        for n in range(d + 1)
    )
    den = (1 - r * _X) ** (d + 1)
    num = sympy.Poly(sympy.expand(head * den), _X)
    num = sum(num.coeff_monomial(_X ** i) * _X ** i for i in range(d + 1))
    return num, den


def _rec_gf(spec):
    """sum a_n x^n = P(x) / Q(x), Q = 1 - sum c_j x^j, deg P < d."""
    coeffs = [sympy.Rational(c) for c in spec["coeffs"]]
    init = [sympy.Rational(a) for a in spec["init"]]
    d = len(coeffs)
    den = 1 - sum(c * _X ** j for j, c in enumerate(coeffs, start=1))
    head = sum(a * _X ** n for n, a in enumerate(init))
    num = sympy.Poly(sympy.expand(head * den), _X)
    num = sum(num.coeff_monomial(_X ** i) * _X ** i for i in range(d))
    return num, den


def _reduced_sum(num, den) -> dict:
    reduced = sympy.cancel(num / den)
    top, bottom = sympy.fraction(reduced)
    bottom = sympy.Poly(bottom, _X)
    pole = 0
    while bottom.eval(1) == 0:
        bottom = sympy.quo(bottom, sympy.Poly(_X - 1, _X))
        pole += 1
    if pole:
        return {"pole": pole}
    return {"sum": str(_frac(sympy.Poly(top, _X).eval(1) / bottom.eval(1)))}


_NUMERIC_LINE = re.compile(
    r"numeric estimate (\S+) \(abs error \S+, nodes \d+\): (pass|FAIL)$"
)
_POLE_LINE = re.compile(r"not summable: pole of order (\d+) at x=1$")


def _flatten(data, prefix=""):
    flat = {}
    for key, value in data.items():
        if isinstance(value, dict):
            flat.update(_flatten(value, f"{prefix}{key}."))
        else:
            flat[f"{prefix}{key}"] = value
    return flat


def _record(fmt: str, out: str) -> dict:
    """A json or csv record as a flat dict of strings."""
    if fmt == "json":
        return {k: str(v) for k, v in _flatten(json.loads(out)).items()}
    header, row = list(csv.reader(io.StringIO(out)))
    return dict(zip(header, row, strict=True))


def _table_values(fmt: str, out: str, column: str) -> list:
    if fmt == "json":
        rows = json.loads(out)
        if [r["n"] for r in rows] != [str(i) for i in range(len(rows))]:
            raise ValueError("row indices out of order")
        return [r[column] for r in rows]
    sep = "\t" if fmt == "plain" else ","
    lines = out.split("\n")
    if lines[0] != f"n{sep}{column}":
        raise ValueError("bad header")
    cells = [line.split(sep) for line in lines[1:]]
    if [c[0] for c in cells] != [str(i) for i in range(len(cells))]:
        raise ValueError("row indices out of order")
    return [c[1] for c in cells]


def _summary(fmt: str, out: str) -> dict:
    """sum / pole / estimate / passed from a sigma or sum output."""
    got = {}
    if fmt == "plain":
        lines = out.split("\n")
        pole = _POLE_LINE.match(lines[0])
        if pole:
            got["pole"] = int(pole.group(1))
        else:
            got["sum"] = str(Fraction(lines[0]))
        if len(lines) > 1:
            numeric = _NUMERIC_LINE.match(lines[1])
            if not numeric or len(lines) > 2:
                raise ValueError("unexpected numeric line")
            got["estimate"] = float(numeric.group(1))
            got["passed"] = numeric.group(2) == "pass"
        return got
    rec = _record(fmt, out)
    if "not_summable.pole_order" in rec:
        got["pole"] = int(rec["not_summable.pole_order"])
    else:
        got["sum"] = rec["sum"]
    if "numeric.estimate" in rec:
        got["estimate"] = float(rec["numeric.estimate"])
        got["passed"] = rec["numeric.pass"] == "True"
        if rec["numeric.exact"] != rec["sum"]:
            raise ValueError("numeric.exact differs from sum")
    return got


def _failure(err: str):
    if "numeric evaluation failed" in err:
        if "node values grow without bound" in err:
            return "divergent_grid"
        if any(s in err for s in ("did not stabilise", "exhausted", "terms grow")):
            return "nonconvergence"
    return "exception"


def classify(spec: dict, expected: dict, rc, out: str, err: str) -> str:
    """'ok', 'wrong', or one of FAILURES for one request.

    `rc` is None when run_command raised.  A request fails when it raises,
    prints "numeric evaluation failed", exits 2, or reports a FAIL
    comparison; it is wrong when its output disagrees with the oracle.
    """
    if rc is None:
        return "exception"
    if err:
        return _failure(err)
    if rc == 2:
        return "exception"
    try:
        return _compare(spec, expected, rc, out)
    except (ValueError, KeyError, IndexError, TypeError):
        return "wrong"


def _compare(spec, expected, rc, out) -> str:
    kind, fmt = spec["kind"], spec["format"]
    if kind == "table":
        column = "B_n" if spec["seq"] == "bernoulli" else "E_n"
        ok = rc == 0 and _table_values(fmt, out, column) == expected["values"]
        return "ok" if ok else "wrong"
    if kind == "verify":
        rec = _record(fmt, out)
        ok = (rc == 0 and rec["holds"] == "True"
              and rec["lhs"] == expected["lhs"] and rec["rhs"] == expected["lhs"])
        return "ok" if ok else "wrong"
    got = _summary(fmt, out)
    if "pole" in expected:
        return "ok" if rc == 1 and got == {"pole": expected["pole"]} else "wrong"
    if got.get("sum") != expected["sum"] or ("estimate" in got) != spec["numeric"]:
        return "wrong"
    if spec["numeric"] and not got["passed"]:
        return "compare" if rc == 1 else "wrong"
    if rc != 0:
        return "wrong"
    if spec["numeric"]:
        target = expected["float"]
        if abs(got["estimate"] - target) > 1e-6 * max(1.0, abs(target)):
            return "wrong"
    return "ok"
