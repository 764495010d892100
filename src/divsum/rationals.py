"""Exact scalar and combinatorial primitives.

Every quantity in this package is exact: rational values are
``fractions.Fraction`` instances (always reduced, denominator positive by
construction) and integer values are plain Python ints.  Rationals print
as ``p/q`` in lowest terms, or ``p`` alone when the denominator is 1; that
string form is used in all CLI and JSON output.
"""

from __future__ import annotations

import math
from fractions import Fraction

__all__ = [
    "binomial",
    "factorial",
    "format_rational",
    "parse_rational",
]


def binomial(n: int, k: int) -> int:
    """Binomial coefficient C(n, k), exactly; 0 when k exceeds n."""
    if n < 0 or k < 0:
        raise ValueError("binomial requires nonnegative arguments")
    return math.comb(n, k)


def factorial(n: int) -> int:
    """n! as an exact integer."""
    if n < 0:
        raise ValueError("factorial requires a nonnegative argument")
    return math.factorial(n)


def format_rational(value) -> str:
    """Canonical string form: 'p/q' reduced, or 'p' when q = 1."""
    return str(Fraction(value))


def parse_rational(text: str) -> Fraction:
    """Parse 'p' or 'p/q' into an exact Fraction."""
    return Fraction(text.strip())
