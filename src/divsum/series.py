"""Truncated formal power series over exact rationals.

A :class:`TruncatedSeries` stores coefficients c_0..c_N of
``sum c_k z^k + O(z^(N+1))``.  All arithmetic truncates to the smaller
operand order; nothing is ever padded silently.  Coefficients are exact
Fractions, so equality of series is exact equality of coefficient lists.

The reciprocal runs in integers, in two parts.  The Fraction prep,
:func:`_denominator_chain`, turns a series' coefficients into a chain
(rho, k) of ints; only :meth:`TruncatedSeries.reciprocal` uses it.  The
integer core, :func:`_reciprocal_numerators`, inverts a chain and returns
each coefficient as an unreduced pair of ints (G_n, L_n).  The series
routes to the Bernoulli and Euler numbers hand the core their chains
directly, in w = z^2: those of sinh(z)/z and of cosh z, with
rho_j = (2j + s - 1)(2j + s) and every k_j = 1, so they build no Fraction
series and reduce each value once.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, count, cycle, islice
from math import gcd
from operator import mul

from .polynomials import cauchy_product

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

    def reciprocal(self) -> "TruncatedSeries":
        """Series g with self * g = 1 + O(z^(N+1)).

        Uses the triangular recursion g_n = -(1/c_0) * sum_{j=1..n} c_j g_{n-j}
        with g_0 = 1/c_0; requires a nonzero constant term.  The sum runs in
        integers: :func:`_denominator_chain` turns the coefficients into a
        chain of ints, :func:`_reciprocal_numerators` inverts it, and each
        coefficient is the pair (G_n, L_n) it returns, reduced once here as
        Fraction(G_n, L_n).
        """
        pairs = _reciprocal_numerators(*_denominator_chain(self.coefficients))
        return TruncatedSeries([Fraction(g, den) for g, den in pairs])

    def scale_variable(self, factor) -> "TruncatedSeries":
        """Substitute z -> factor*z, i.e. c_k -> factor^k * c_k."""
        factor = Fraction(factor)
        power = Fraction(1)
        out = []
        for c in self.coefficients:
            out.append(c * power)
            power *= factor
        return TruncatedSeries(out)

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


def _denominator_chain(coefficients) -> tuple[list, list]:
    """(rho, k): the Fraction prep of the reciprocal kernel.

    With V_n the lcm of the denominators of c_0..c_n, rho_n = V_n / V_{n-1}
    (V_{-1} = 1) and k_n = c_n V_n, both ints.
    """
    c = coefficients
    if c[0] == 0:
        raise NonInvertibleSeriesError(
            "series with zero constant term has no reciprocal"
        )
    rho, k, v = [], [], 1
    for x in c:
        r = x.denominator // gcd(v, x.denominator)
        v *= r
        rho.append(r)
        k.append(x.numerator * (v // x.denominator))
    return rho, k


def _reciprocal_numerators(rho, k) -> list:
    """Pairs (G_n, L_n) with g_n = G_n / L_n for the reciprocal g of the
    series whose denominator chain is (rho, k), as :func:`_denominator_chain`
    gives it; k_0 must be nonzero.

    g_0..g_{n-1} are held as integer numerators G_k over the lcm L of their
    denominators.  With c_j V_n = k_j rho_{j+1} ... rho_n, the sum
    S_n = sum_{j=1..n} (c_j V_n) G_{n-j} is taken by Horner over the rhos,
    acc -> acc * rho_j + k_j G_{n-j} for j = 1..n, and
    g_n = -S_n / (den L) with den = c_0 V_n = k_0 rho_1 ... rho_n.  Where
    the k and rho are small, as for the catalogue series, every product is
    big by small, and a unit k_j adds G_{n-j} without multiplying it.  The
    least m with g_n L m an integer is den / h, h = gcd(S_n, den), so L
    grows by that factor and G_n = -S_n / h: one gcd per coefficient, and
    the held numerators are rescaled only when L grows.  Each pair is
    returned as built, over the L of its own step, and is not reduced.
    """
    # g_0 = 1/c_0 = V_0 / k_0 in lowest terms.  den is kept positive: for
    # c_0 < 0 its sign moves onto the k_j, and so onto S_n.
    rho_1, k_1, den = rho[1:], k[1:], k[0]
    g_nums = [rho[0]]
    if den < 0:
        k_1, den, g_nums = [-x for x in k_1], -den, [-rho[0]]
    g_den, pairs = den, [(g_nums[0], den)]
    for n in range(1, len(rho)):
        den *= rho[n]
        acc = 0
        for r, x, g in zip(rho_1, k_1, reversed(g_nums)):
            acc = acc * r + (g if x == 1 else x * g)
        h = gcd(acc, den)
        missing = den // h
        if missing != 1:
            g_nums = [x * missing for x in g_nums]
            g_den *= missing
        g_nums.append(-acc // h)
        pairs.append((g_nums[-1], g_den))
    return pairs


# name -> (shift, pattern): coefficient k is pattern[k % len(pattern)] / (k + shift)!
_CATALOGUE: dict[str, tuple[int, tuple[int, ...]]] = {
    "exp": (0, (1,)),
    "sin": (0, (0, 1, 0, -1)),
    "cos": (0, (1, 0, -1, 0)),
    "expm1_over_z": (1, (1,)),  # (e^z - 1)/z = sum z^k / (k+1)!
    "sinh_over_z": (1, (1, 0)),  # sinh(z)/z = sum z^(2j) / (2j+1)!
}


def known_series(name: str, order: int) -> TruncatedSeries:
    """Exact Taylor series of a named elementary function, to the given order.

    Known names: exp, sin, cos, expm1_over_z (the series of (e^z - 1)/z) and
    sinh_over_z (the series of sinh(z)/z).  Each has a periodic integer
    numerator over (k + shift)! at z^k; the factorials are stepped, one
    small multiply per coefficient.
    """
    try:
        shift, pattern = _CATALOGUE[name]
    except KeyError:
        raise UnknownSeriesError(
            f"unknown series {name!r}; choose from {sorted(_CATALOGUE)}"
        ) from None
    factorials = islice(accumulate(count(1), mul, initial=1), shift, None)
    return TruncatedSeries(
        [Fraction(p, f) for _, p, f in zip(range(order + 1), cycle(pattern), factorials)]
    )
