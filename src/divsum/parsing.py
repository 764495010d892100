"""Parser for the CLI series-expression grammar.

Two forms describe a series, ``poly`` and ``rec``::

    series     := 'poly' polynomial 'ratio' signed | 'rec' recurrence
    polynomial := ['-'] term (('+' | '-') term)*
    term       := factor (['*'] factor)*     a factor without '*' starts with 'n' or '('
    factor     := (rational | 'n' | '(' polynomial ')') ['^' integer]
    recurrence := 'a' '(' 'n' ')' '=' ['-'] lagged (('+' | '-') lagged)*
                  ';' 'init' signed (',' signed)*
    lagged     := [rational ['*']] 'a' '(' 'n' '-' integer ')'     lag >= 1
    rational   := integer ['/' integer]      denominator > 0
    signed     := ['-' | '+'] rational

``parse_series`` returns the ``CFiniteSeries`` itself: the polynomial form
denotes terms p(n) * r^n, and the recurrence form gives the recurrence
coefficients and initial terms directly, as many initial terms as the
largest lag.  Whitespace is insignificant.  ``2n`` and ``2*n`` both mean
twice n, and parenthesised groups may carry integer powers, so
``poly (2n+1)^2 ratio -1`` is the alternating series of odd squares.
A polynomial is never expanded.  Each node is read as its exact degree,
negative for zero, a denominator, and numerators: an int for a constant
factor, else a function m -> the numerators of p(0), ..., p(m - 1).
``n`` is ``range``, a sum adds values over the lcm of the denominators, a
product multiplies them with its int constants folded into one, and a power
takes int ``pow`` of each, so ``n^E`` costs E + 6 int pows.  A sum whose
top degree two terms share reads its degree off the forward differences of
its values at top + 1 points.  After the whole parse, so that errors keep
their order, p(0), ..., p(deg + 5) go to the C-finite kernel.
Rejected input raises ``ExpressionSyntaxError`` with its position, or
``ArityMismatchError`` when the recurrence order and the initial-term count
disagree.  A bad character is reported before any syntax error.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import lcm, prod
from operator import mul, sub

from .cfinite import CFiniteSeries, _series_from_values

__all__ = ["ArityMismatchError", "ExpressionSyntaxError", "parse_series"]


class ExpressionSyntaxError(ValueError):
    """Series expression rejected; carries position and expected tokens."""

    def __init__(self, position: int, expected: tuple, found: str):
        self.position = position
        self.expected = tuple(expected)
        self.found = found
        wanted = " or ".join(self.expected)
        super().__init__(
            f"syntax error at position {position}: expected {wanted}, found {found!r}"
        )


class ArityMismatchError(ValueError):
    """Recurrence order and initial-term count disagree."""


# groups: an integer, a name, a symbol, or any other character (an error)
_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z]+)|([-+*/^()=;,])|(\S))")


class _Parser:
    def __init__(self, text: str):
        # (kind, lexeme, position); kind is "int", "name" or the symbol itself
        self.tokens = []
        for match in _TOKEN.finditer(text):
            group = match.lastindex
            lexeme, pos = match.group(group), match.start(group)
            if group == 4:
                raise ExpressionSyntaxError(pos, ("a token",), lexeme)
            self.tokens.append((("int", "name", lexeme)[group - 1], lexeme, pos))
        self.tokens.append(("end", "end of input", len(text)))
        self.index = 0

    def peek(self, kind: str, lexeme: str = None) -> bool:
        tok = self.tokens[self.index]
        return tok[0] == kind and (lexeme is None or tok[1] == lexeme)

    def position(self) -> int:
        return self.tokens[self.index][2]

    def fail(self, *expected: str):
        _, found, pos = self.tokens[self.index]
        raise ExpressionSyntaxError(pos, expected, found)

    def accept(self, kind: str, lexeme: str = None) -> bool:
        if self.peek(kind, lexeme):
            self.index += 1
            return True
        return False

    def expect(self, kind: str, lexeme: str = None, label: str = None) -> str:
        if not self.peek(kind, lexeme):
            self.fail(label or lexeme or kind)
        self.index += 1
        return self.tokens[self.index - 1][1]

    def integer(self) -> int:
        return int(self.expect("int", label="an integer"))

    def rational(self, signed: bool = False) -> Fraction:
        sign = -1 if signed and self.accept("-") else 1
        if signed and sign == 1:
            self.accept("+")
        numerator = self.integer()
        denominator = 1
        if self.accept("/"):
            pos = self.position()
            denominator = self.integer()
            if denominator == 0:
                raise ExpressionSyntaxError(pos, ("a positive integer",), "0")
        return Fraction(sign * numerator, denominator)

    def polynomial(self) -> tuple:
        """Read a polynomial as (degree, denominator, numerators)."""
        terms = []
        sign = -1 if self.accept("-") else 1
        while sign:
            terms.append((sign, *self.term()))
            sign = 1 if self.accept("+") else -1 if self.accept("-") else 0
        den = lcm(*(t[2] for t in terms))
        const = sum(s * den // d * c for s, _, d, c, f in terms if not f)
        scaled = [(s * den // d * c, f) for s, _, d, c, f in terms if f]
        if not scaled:
            return (0 if const else -1), den, lambda m: [const] * m
        scales, fns = zip(*scaled)

        def nums(m):
            return [const + sum(map(mul, scales, vs)) for vs in zip(*(f(m) for f in fns))]

        *rest, top = sorted(t[1] for t in terms)
        if top not in rest:
            return top, den, nums
        row, deg = nums(top + 1), -1  # two top terms may cancel: the last k with D^k p(0) != 0
        for k in range(top + 1):
            if row[0]:
                deg = k
            row = list(map(sub, row[1:], row))
        return deg, den, nums

    def term(self) -> tuple:
        """Read a term as (degree, denominator, int constant, other factors' numerators or None)."""
        deg, den, scale, fns = 0, 1, 1, []
        while True:
            f_deg, f_den, f = self.factor()
            deg, den = (-1 if deg < 0 or f_deg < 0 else deg + f_deg), den * f_den
            if isinstance(f, int):
                scale *= f
            else:
                fns.append(f)
            if not (self.accept("*") or self.peek("(") or self.peek("name", "n")):
                break
        if len(fns) < 2:
            return deg, den, scale, fns[0] if fns else None
        return deg, den, scale, lambda m: list(map(prod, zip(*(f(m) for f in fns))))

    def factor(self) -> tuple:
        if self.peek("int"):
            value = self.rational()
            node = (0 if value else -1), value.denominator, value.numerator
        elif self.accept("name", "n"):
            node = 1, 1, range
        elif self.accept("("):
            node = self.polynomial()
            self.expect(")")
        else:
            self.fail("a rational", "'n'", "'('")
        if not self.accept("^"):
            return node
        e = self.integer()
        deg, den, base = node
        f = base ** e if isinstance(base, int) else lambda m: [v ** e for v in base(m)]
        return deg * e, den ** e, f

    def a_of_n(self):
        """Read ``a ( n``, which opens the header and every lagged term."""
        self.expect("name", "a", label="'a'")
        self.expect("(")
        self.expect("name", "n", label="'n'")

    def recurrence(self) -> CFiniteSeries:
        self.a_of_n()
        self.expect(")")
        self.expect("=")
        weights = {}
        sign = -1 if self.accept("-") else 1
        while sign:
            coefficient = 1
            if self.peek("int"):
                coefficient = self.rational()
                self.accept("*")
            self.a_of_n()
            self.expect("-")
            pos = self.position()
            lag = self.integer()
            if lag < 1:
                raise ExpressionSyntaxError(pos, ("a positive lag",), "0")
            self.expect(")")
            weights[lag] = weights.get(lag, 0) + sign * coefficient
            sign = 1 if self.accept("+") else -1 if self.accept("-") else 0
        self.expect(";")
        self.expect("name", "init", label="'init'")
        initial = [self.rational(signed=True)]
        while self.accept(","):
            initial.append(self.rational(signed=True))
        self.expect("end", label="end of input")
        # checked before the coefficient list is built, whose length is the lag
        order = max(weights)
        if len(initial) != order:
            raise ArityMismatchError(
                f"recurrence reaches back {order} terms but {len(initial)} "
                f"initial terms were given"
            )
        return CFiniteSeries([weights.get(j, 0) for j in range(1, order + 1)], initial)


def parse_series(text: str) -> CFiniteSeries:
    """Parse a series expression in either the poly or the rec form."""
    parser = _Parser(text)
    if parser.accept("name", "rec"):
        return parser.recurrence()
    if not parser.accept("name", "poly"):
        parser.fail("'poly'", "'rec'")
    poly_pos = parser.position()
    deg, den, nums = parser.polynomial()
    parser.expect("name", "ratio", label="'ratio'")
    ratio_pos = parser.position()
    ratio = parser.rational(signed=True)
    parser.expect("end", label="end of input")
    if deg < 0:
        raise ExpressionSyntaxError(poly_pos, ("a nonzero polynomial",), "0")
    if ratio == 0:
        raise ExpressionSyntaxError(ratio_pos, ("a nonzero ratio",), "0")
    return _series_from_values(nums(deg + 6), den, ratio)
