"""Truncated formal power series over exact rationals.

A :class:`TruncatedSeries` stores coefficients c_0..c_N of
``sum c_k z^k + O(z^(N+1))``.  All arithmetic truncates to the smaller
operand order; nothing is ever padded silently.  Coefficients are exact
Fractions, so equality of series is exact equality of coefficient lists.

The one reciprocal is the integer kernel :func:`_reciprocal_numerators`.
It inverts the series with coefficients c_j = 1 / (rho_0 rho_1 ... rho_j),
given as its chain rho of positive ints, and returns each coefficient as
an unreduced pair of ints (G_n, L_n).  The series routes to the Bernoulli
and Euler numbers hand it the chains of sinh(z)/z and of cosh z in
w = z^2, rho_j = (2j + s - 1)(2j + s), so they build no Fraction series
and reduce each value once.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .polynomials import cauchy_product

__all__ = ["TruncatedSeries"]


@dataclass(frozen=True)
class TruncatedSeries:
    """Immutable power series truncated at a fixed order."""

    coefficients: tuple

    def __post_init__(self):
        coeffs = tuple(Fraction(c) for c in self.coefficients)
        if not coeffs:
            raise ValueError("a truncated series needs at least the constant term")
        object.__setattr__(self, "coefficients", coeffs)

    @property
    def order(self) -> int:
        return len(self.coefficients) - 1

    def coefficient(self, k: int) -> Fraction:
        """Coefficient of z^k; k beyond the truncation order is an error."""
        if k < 0 or k > self.order:
            raise IndexError(
                f"coefficient index {k} beyond truncation order {self.order}"
            )
        return self.coefficients[k]

    @classmethod
    def monomial(cls, order: int, k: int = 1, coefficient=1) -> "TruncatedSeries":
        if not 0 <= k <= order:
            raise ValueError("monomial exponent must lie within the order")
        coeffs = [Fraction(0)] * (order + 1)
        coeffs[k] = Fraction(coefficient)
        return cls(coeffs)

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        n = min(self.order, other.order)
        return TruncatedSeries(
            [self.coefficients[k] + other.coefficients[k] for k in range(n + 1)]
        )

    def __sub__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self + (-other)

    def __neg__(self) -> "TruncatedSeries":
        return TruncatedSeries([-c for c in self.coefficients])

    def __mul__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        """Cauchy product truncated to the smaller order."""
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        n = min(self.order, other.order) + 1
        return TruncatedSeries(cauchy_product(self.coefficients, other.coefficients, n))

    def __str__(self) -> str:
        parts = [str(self.coefficients[0])]
        for k, c in enumerate(self.coefficients[1:], start=1):
            var = "z" if k == 1 else f"z^{k}"
            parts.append(f"{c}*{var}")
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"TruncatedSeries([{', '.join(map(str, self.coefficients))}])"

    def to_json(self) -> list:
        """Ordered list of canonical rational strings c_0..c_N."""
        return [str(c) for c in self.coefficients]


def _reciprocal_numerators(rho) -> list:
    """Pairs (G_n, L_n) with g_n = G_n / L_n for the reciprocal g of the
    series c_j = 1 / (rho_0 rho_1 ... rho_j), rho a list of positive ints.

    g_0..g_{n-1} are held as integer numerators G_k over the lcm L of their
    denominators.  With V_n = rho_0 ... rho_n, c_j V_n = rho_{j+1} ... rho_n,
    so the sum S_n = sum_{j=1..n} (c_j V_n) G_{n-j} is taken by Horner over
    the rhos, acc -> acc * rho_j + G_{n-j} for j = 1..n: one big-by-small
    multiply and one add a step.  Then g_n = -S_n / (den L) with
    den = c_0 V_n = rho_1 ... rho_n.  The least m with g_n L m an integer
    is den / h, h = gcd(S_n, den), so L grows by that factor and
    G_n = -S_n / h: one gcd per coefficient, and the held numerators are
    rescaled only when L grows.  Each pair is returned as built, over the L
    of its own step, and is not reduced.
    """
    rho_1, g_nums, pairs = rho[1:], [rho[0]], [(rho[0], 1)]  # g_0 = 1/c_0 = rho_0
    den = g_den = 1
    for n in range(1, len(rho)):
        den *= rho[n]
        acc = 0
        for r, g in zip(rho_1, reversed(g_nums)):
            acc = acc * r + g
        h = gcd(acc, den)
        missing = den // h
        if missing != 1:
            g_nums = [x * missing for x in g_nums]
            g_den *= missing
        g_nums.append(-acc // h)
        pairs.append((g_nums[-1], g_den))
    return pairs
