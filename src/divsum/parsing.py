"""Parser for the CLI series-expression grammar.

Two forms describe a series::

    poly <polynomial in n> ratio <rational>
    rec a(n)=<sum of c*a(n-j) terms>; init <rational>, <rational>, ...

``parse_series`` returns the ``CFiniteSeries`` itself: the polynomial form
denotes terms p(n) * r^n, and the recurrence form gives the recurrence
coefficients and initial terms directly.  Rationals are written ``p`` or
``p/q``; whitespace is insignificant.  ``2n`` and ``2*n`` both mean twice
n, and parenthesised groups may carry integer powers, so
``poly (2n+1)^2 ratio -1`` is the alternating series of odd squares.
Rejected input raises ``ExpressionSyntaxError`` with its position, or
``ArityMismatchError`` when the recurrence order and the initial-term count
disagree.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .cfinite import CFiniteSeries, poly_exp_series
from .polynomials import Polynomial

__all__ = [
    "ArityMismatchError",
    "ExpressionSyntaxError",
    "parse_series",
]


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


_TOKEN = re.compile(r"\s*(\d+|[A-Za-z]+|[-+*/^()=;,])")


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        match = _TOKEN.match(text, pos)
        if not match:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            at = len(text) - len(stripped)
            raise ExpressionSyntaxError(at, ("a token",), text[at])
        lexeme = match.group(1)
        kind = "int" if lexeme.isdigit() else ("name" if lexeme.isalpha() else lexeme)
        tokens.append((kind, lexeme, match.start(1)))
        pos = match.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.index = 0

    def peek(self):
        return self.tokens[self.index]

    def advance(self):
        tok = self.tokens[self.index]
        if tok[0] != "end":
            self.index += 1
        return tok

    def fail(self, *expected: str):
        kind, lexeme, pos = self.peek()
        found = lexeme if kind != "end" else "end of input"
        raise ExpressionSyntaxError(pos, expected, found)

    def accept(self, kind: str, lexeme: str = None) -> bool:
        tok = self.peek()
        if tok[0] == kind and (lexeme is None or tok[1] == lexeme):
            self.advance()
            return True
        return False

    def expect(self, kind: str, lexeme: str = None, label: str = None):
        tok = self.peek()
        if tok[0] != kind or (lexeme is not None and tok[1] != lexeme):
            self.fail(label or lexeme or kind)
        return self.advance()

    def parse_integer(self) -> int:
        tok = self.expect("int", label="an integer")
        return int(tok[1])

    def parse_fraction(self) -> Fraction:
        pos = self.peek()[2]
        numerator = self.parse_integer()
        if self.accept("/"):
            den_pos = self.peek()[2]
            denominator = self.parse_integer()
            if denominator == 0:
                raise ExpressionSyntaxError(den_pos, ("a positive integer",), "0")
            return Fraction(numerator, denominator)
        return Fraction(numerator)

    def parse_signed_fraction(self) -> Fraction:
        sign = 1
        if self.accept("-"):
            sign = -1
        elif self.accept("+"):
            pass
        return sign * self.parse_fraction()

    # polynomial := ['-'] term (('+'|'-') term)*
    def parse_polynomial(self) -> Polynomial:
        negate = self.accept("-")
        poly = self.parse_poly_term()
        if negate:
            poly = -poly
        while True:
            if self.accept("+"):
                poly = poly + self.parse_poly_term()
            elif self.accept("-"):
                poly = poly - self.parse_poly_term()
            else:
                return poly

    # term := factor ('*' factor | factor-adjacent-to-n-or-paren)*
    def parse_poly_term(self) -> Polynomial:
        poly = self.parse_poly_factor()
        while True:
            if self.accept("*"):
                poly = poly * self.parse_poly_factor()
            else:
                kind, lexeme, _ = self.peek()
                if kind == "(" or (kind == "name" and lexeme == "n"):
                    poly = poly * self.parse_poly_factor()
                else:
                    return poly

    # factor := atom ['^' nonneg-int]
    def parse_poly_factor(self) -> Polynomial:
        poly = self.parse_poly_atom()
        if self.accept("^"):
            exponent = self.parse_integer()
            poly = poly ** exponent
        return poly

    # atom := rational | 'n' | '(' polynomial ')'
    def parse_poly_atom(self) -> Polynomial:
        kind, lexeme, _ = self.peek()
        if kind == "int":
            return Polynomial.constant(self.parse_fraction())
        if kind == "name" and lexeme == "n":
            self.advance()
            return Polynomial.identity()
        if kind == "(":
            self.advance()
            inner = self.parse_polynomial()
            self.expect(")")
            return inner
        self.fail("a rational", "'n'", "'('")

    # rec_term := [rational ['*']] 'a' '(' 'n' '-' lag ')'
    def parse_recurrence_term(self) -> tuple:
        coefficient = Fraction(1)
        if self.peek()[0] == "int":
            coefficient = self.parse_fraction()
            self.accept("*")
        self.expect("name", "a", label="'a'")
        self.expect("(")
        self.expect("name", "n", label="'n'")
        self.expect("-")
        lag_pos = self.peek()[2]
        lag = self.parse_integer()
        if lag < 1:
            raise ExpressionSyntaxError(lag_pos, ("a positive lag",), str(lag))
        self.expect(")")
        return lag, coefficient

    def parse_recurrence(self) -> CFiniteSeries:
        self.expect("name", "a", label="'a'")
        self.expect("(")
        self.expect("name", "n", label="'n'")
        self.expect(")")
        self.expect("=")
        weights: dict[int, Fraction] = {}
        sign = -1 if self.accept("-") else 1
        lag, c = self.parse_recurrence_term()
        weights[lag] = weights.get(lag, Fraction(0)) + sign * c
        while True:
            if self.accept("+"):
                sign = 1
            elif self.accept("-"):
                sign = -1
            else:
                break
            lag, c = self.parse_recurrence_term()
            weights[lag] = weights.get(lag, Fraction(0)) + sign * c
        order = max(weights)
        coefficients = tuple(weights.get(j, Fraction(0)) for j in range(1, order + 1))
        self.expect(";")
        self.expect("name", "init", label="'init'")
        initial = [self.parse_signed_fraction()]
        while self.accept(","):
            initial.append(self.parse_signed_fraction())
        self.expect("end", label="end of input")
        if len(initial) != order:
            raise ArityMismatchError(
                f"recurrence reaches back {order} terms but {len(initial)} "
                f"initial terms were given"
            )
        return CFiniteSeries(coefficients, initial)


def parse_series(text: str) -> CFiniteSeries:
    """Parse a series expression in either the poly or the rec form."""
    parser = _Parser(text)
    kind, lexeme, pos = parser.peek()
    if kind == "name" and lexeme == "poly":
        parser.advance()
        poly_pos = parser.peek()[2]
        polynomial = parser.parse_polynomial()
        parser.expect("name", "ratio", label="'ratio'")
        ratio_pos = parser.peek()[2]
        ratio = parser.parse_signed_fraction()
        parser.expect("end", label="end of input")
        if polynomial.is_zero:
            raise ExpressionSyntaxError(poly_pos, ("a nonzero polynomial",), "0")
        if ratio == 0:
            raise ExpressionSyntaxError(ratio_pos, ("a nonzero ratio",), "0")
        return poly_exp_series(polynomial, ratio)
    if kind == "name" and lexeme == "rec":
        parser.advance()
        return parser.parse_recurrence()
    parser.fail("'poly'", "'rec'")
