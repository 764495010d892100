"""Dense univariate polynomials over Fraction.

Polynomials are coefficient lists, constant term first, with a nonzero
leading coefficient; the zero polynomial is the empty list, so structural
equality is value equality.  :func:`cauchy_product` is the one product
of coefficient sequences; truncated power series use it as well.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from operator import add

__all__ = ["Polynomial", "cauchy_product"]


def cauchy_product(a, b, n: int) -> list:
    """Coefficients 0..n-1 of the product of the sequences a and b.

    Zero factors are skipped, so sparse operands cost only their nonzero
    terms; coefficients past either operand count as zero.  The sums start
    from int 0, so int operands (rationals scaled to integers over a common
    denominator) give ints and pay no gcd per term.
    """
    out = [0] * n
    for i, x in enumerate(a[:n]):
        if x:
            for j, y in enumerate(b[: n - i]):
                if y:
                    out[i + j] += x * y
    return out


def _next_row(row: list) -> list:
    """Row n + 1 of Pascal's triangle from row n: the first half by
    additions, the rest mirrored, since every row is symmetric."""
    n = len(row)  # row n + 1 has n + 1 entries
    half = [1, *map(add, row, row[1 : (n + 2) // 2])]
    return half + half[(n + 1) // 2 - 1 :: -1]


def _power(coeffs, e: int) -> list:
    """Coefficients of the sequence coeffs raised to the power e >= 0, by
    square-and-multiply over cauchy_product; the zero power is [1]."""
    result = [1]
    while e:
        if e & 1:
            result = cauchy_product(result, coeffs, len(result) + len(coeffs) - 1)
        e >>= 1
        if e:
            coeffs = cauchy_product(coeffs, coeffs, 2 * len(coeffs) - 1)
    return result


def _over_lcm(values) -> tuple[list, int]:
    """Integer numerators of the rationals values over the lcm of their
    denominators, and that lcm."""
    den = lcm(*(v.denominator for v in values))
    return [v.numerator * (den // v.denominator) for v in values], den


def _append_over_lcm(nums: list, den: int, num: int, num_den: int) -> int:
    """Append the rational num / num_den, with num_den > 0, to the integer
    numerators nums over the common denominator den, first scaling den and
    nums by the factor of num_den that den lacks; return the new den."""
    missing = num_den // gcd(den, num_den)
    if missing != 1:
        nums[:] = [x * missing for x in nums]
        den *= missing
    nums.append(num * (den // num_den))
    return den


@dataclass(frozen=True)
class Polynomial:
    """Immutable polynomial with exact rational coefficients."""

    coefficients: tuple = ()

    def __post_init__(self):
        coeffs = [Fraction(c) for c in self.coefficients]
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        object.__setattr__(self, "coefficients", tuple(coeffs))

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coefficients) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coefficients

    def coefficient(self, k: int) -> Fraction:
        if k < 0:
            raise IndexError("negative coefficient index")
        return self.coefficients[k] if k < len(self.coefficients) else Fraction(0)

    def __bool__(self) -> bool:
        return bool(self.coefficients)

    def __add__(self, other: "Polynomial") -> "Polynomial":
        if not isinstance(other, Polynomial):
            return NotImplemented
        a, b = self.coefficients, other.coefficients
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Polynomial(out)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self + (-other)

    def __neg__(self) -> "Polynomial":
        return Polynomial([-c for c in self.coefficients])

    def __mul__(self, other) -> "Polynomial":
        if isinstance(other, Polynomial):
            a, b = self.coefficients, other.coefficients
            return Polynomial(cauchy_product(a, b, len(a) + len(b) - 1))
        return Polynomial([c * Fraction(other) for c in self.coefficients])

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "Polynomial":
        if exponent < 0:
            raise ValueError("negative polynomial power")
        return Polynomial(_power(self.coefficients, exponent))

    def evaluate(self, x) -> Fraction:
        x = Fraction(x)
        acc = Fraction(0)
        for c in reversed(self.coefficients):
            acc = acc * x + c
        return acc

    def __repr__(self) -> str:
        return f"Polynomial({[str(c) for c in self.coefficients]})"

