"""Truncated formal power series over exact rationals.

A :class:`TruncatedSeries` stores coefficients c_0..c_N of
``sum c_k z^k + O(z^(N+1))``.  All arithmetic truncates to the smaller
operand order; nothing is ever padded silently.  Coefficients are exact
Fractions, so equality of series is exact equality of coefficient lists.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Iterable

from .rationals import factorial, format_rational

__all__ = [
    "NonInvertibleSeriesError",
    "TruncatedSeries",
    "UnknownSeriesError",
    "known_series",
]


class NonInvertibleSeriesError(ZeroDivisionError):
    """Reciprocal of a series whose constant term is zero."""


class UnknownSeriesError(ValueError):
    """Requested named series is not in the catalogue."""


class TruncatedSeries:
    """Immutable power series truncated at a fixed order."""

    __slots__ = ("_coeffs",)

    def __init__(self, coefficients: Iterable):
        coeffs = tuple(Fraction(c) for c in coefficients)
        if not coeffs:
            raise ValueError("a truncated series needs at least the constant term")
        object.__setattr__(self, "_coeffs", coeffs)

    def __setattr__(self, name, value):
        raise AttributeError("TruncatedSeries is immutable")

    @property
    def order(self) -> int:
        return len(self._coeffs) - 1

    @property
    def coefficients(self) -> tuple:
        return self._coeffs

    def coefficient(self, k: int) -> Fraction:
        """Coefficient of z^k; k beyond the truncation order is an error."""
        if k < 0 or k > self.order:
            raise IndexError(
                f"coefficient index {k} beyond truncation order {self.order}"
            )
        return self._coeffs[k]

    @classmethod
    def zero(cls, order: int) -> "TruncatedSeries":
        return cls([Fraction(0)] * (order + 1))

    @classmethod
    def one(cls, order: int) -> "TruncatedSeries":
        return cls([Fraction(1)] + [Fraction(0)] * order)

    @classmethod
    def monomial(cls, order: int, k: int = 1, coefficient=1) -> "TruncatedSeries":
        if not 0 <= k <= order:
            raise ValueError("monomial exponent must lie within the order")
        coeffs = [Fraction(0)] * (order + 1)
        coeffs[k] = Fraction(coefficient)
        return cls(coeffs)

    def __eq__(self, other) -> bool:
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self._coeffs == other._coeffs

    def __hash__(self) -> int:
        return hash(self._coeffs)

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        n = min(self.order, other.order)
        return TruncatedSeries(
            [self._coeffs[k] + other._coeffs[k] for k in range(n + 1)]
        )

    def __sub__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        return self + (-other)

    def __neg__(self) -> "TruncatedSeries":
        return TruncatedSeries([-c for c in self._coeffs])

    def __mul__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        """Cauchy product truncated to the smaller order."""
        n = min(self.order, other.order)
        out = [Fraction(0)] * (n + 1)
        for i, a in enumerate(self._coeffs[: n + 1]):
            if a == 0:
                continue
            for j in range(n + 1 - i):
                b = other._coeffs[j]
                if b:
                    out[i + j] += a * b
        return TruncatedSeries(out)

    def reciprocal(self) -> "TruncatedSeries":
        """Series g with self * g = 1 + O(z^(N+1)).

        Uses the triangular recursion g_n = -(1/c_0) * sum_{j=1..n} c_j g_{n-j}
        with g_0 = 1/c_0; requires a nonzero constant term.
        """
        c = self._coeffs
        if c[0] == 0:
            raise NonInvertibleSeriesError(
                "series with zero constant term has no reciprocal"
            )
        inv0 = 1 / c[0]
        out = [inv0] + [Fraction(0)] * self.order
        for n in range(1, self.order + 1):
            acc = Fraction(0)
            for j in range(1, n + 1):
                if c[j]:
                    acc += c[j] * out[n - j]
            out[n] = -inv0 * acc
        return TruncatedSeries(out)

    def scale_variable(self, factor) -> "TruncatedSeries":
        """Substitute z -> factor*z, i.e. c_k -> factor^k * c_k."""
        factor = Fraction(factor)
        power = Fraction(1)
        out = []
        for c in self._coeffs:
            out.append(c * power)
            power *= factor
        return TruncatedSeries(out)

    def __str__(self) -> str:
        parts = [format_rational(self._coeffs[0])]
        for k, c in enumerate(self._coeffs[1:], start=1):
            var = "z" if k == 1 else f"z^{k}"
            parts.append(f"{format_rational(c)}*{var}")
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"TruncatedSeries([{', '.join(map(format_rational, self._coeffs))}])"

    def to_json(self) -> list:
        """Ordered list of canonical rational strings c_0..c_N."""
        return [format_rational(c) for c in self._coeffs]


def _exp_coefficient(k: int) -> Fraction:
    return Fraction(1, factorial(k))


def _sin_coefficient(k: int) -> Fraction:
    if k % 2 == 0:
        return Fraction(0)
    return Fraction((-1) ** (k // 2), factorial(k))


def _cos_coefficient(k: int) -> Fraction:
    if k % 2 == 1:
        return Fraction(0)
    return Fraction((-1) ** (k // 2), factorial(k))


def _expm1_over_z_coefficient(k: int) -> Fraction:
    # (e^z - 1)/z = sum z^k / (k+1)!
    return Fraction(1, factorial(k + 1))


_CATALOGUE: dict[str, Callable[[int], Fraction]] = {
    "exp": _exp_coefficient,
    "sin": _sin_coefficient,
    "cos": _cos_coefficient,
    "expm1_over_z": _expm1_over_z_coefficient,
}


def known_series(name: str, order: int) -> TruncatedSeries:
    """Exact Taylor series of a named elementary function, to the given order.

    Known names: exp, sin, cos, expm1_over_z (the series of (e^z - 1)/z).
    """
    try:
        gen = _CATALOGUE[name]
    except KeyError:
        raise UnknownSeriesError(
            f"unknown series {name!r}; choose from {sorted(_CATALOGUE)}"
        ) from None
    return TruncatedSeries([gen(k) for k in range(order + 1)])
