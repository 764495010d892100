"""Bernoulli and Euler numbers by independent routes, plus identity checks.

Bernoulli numbers are the coefficients B_k/k! of z/(e^z - 1); Euler numbers
are the coefficients E_n/n! of sec(z) (so E_0 = 1, E_2 = 1, E_4 = 5, odd
indices vanish).  Each sequence is computed by more than one method and the
methods must agree exactly; the verify_* functions check the closed-form
identities tying these numbers to sums of divergent alternating series.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial

from .series import TruncatedSeries, known_series

__all__ = [
    "BERNOULLI_METHODS",
    "EULER_METHODS",
    "BernoulliTable",
    "EulerTable",
    "EvenIndexError",
    "IdentityViolation",
    "OddIndexError",
    "VerificationReport",
    "bernoulli",
    "bernoulli_generating_series",
    "bernoulli_table",
    "cot_coefficient",
    "cotangent_series",
    "euler",
    "euler_table",
    "odd_alternating_value",
    "secant_series",
    "tan_coefficient",
    "tangent_series",
    "verify_affine_relation",
    "verify_even_doubling",
    "verify_odd_split",
    "verify_peeled_recursion",
    "verify_weighted_recursion",
    "weighted_bernoulli",
]


class EvenIndexError(ValueError):
    """Tangent coefficients exist only at odd indices."""


class OddIndexError(ValueError):
    """Cotangent coefficients exist only at even indices."""


class IdentityViolation(ArithmeticError):
    """An exact identity check failed; carries both sides."""

    def __init__(self, report: "VerificationReport"):
        self.report = report
        super().__init__(
            f"{report.identity} violated at {report.params}: "
            f"lhs={report.lhs} rhs={report.rhs}"
        )


@dataclass(frozen=True)
class VerificationReport:
    identity: str
    params: dict
    lhs: Fraction
    rhs: Fraction
    holds: bool

    def to_json(self) -> dict:
        return {
            "identity": self.identity,
            "params": dict(self.params),
            "lhs": str(self.lhs),
            "rhs": str(self.rhs),
            "holds": self.holds,
        }


@dataclass(frozen=True)
class BernoulliTable:
    values: tuple
    method: str

    def __post_init__(self):
        v = self.values
        if not v or v[0] != 1:
            raise ValueError("table must start with B_0 = 1")
        if len(v) > 1 and v[1] != Fraction(-1, 2):
            raise ValueError("B_1 must be -1/2")
        if any(v[n] != 0 for n in range(3, len(v), 2)):
            raise ValueError("odd-index Bernoulli numbers above 1 must vanish")


@dataclass(frozen=True)
class EulerTable:
    values: tuple
    method: str

    def __post_init__(self):
        v = self.values
        if not v or v[0] != 1:
            raise ValueError("table must start with E_0 = 1")
        if any(v[n] != 0 for n in range(1, len(v), 2)):
            raise ValueError("odd-index Euler numbers must vanish")
        if any(not isinstance(e, int) for e in v):
            raise ValueError("Euler numbers must be integers")


def _bernoulli_recurrence(n_max: int) -> list:
    # sum_{k=0}^{m} C(m+1, k) B_k = 0 for m >= 1, solved for B_m
    values = [Fraction(1)]
    for m in range(1, n_max + 1):
        acc = Fraction(0)
        for k in range(m):
            if values[k]:
                acc += comb(m + 1, k) * values[k]
        values.append(-acc / (m + 1))
    return values


def _bernoulli_series(n_max: int) -> list:
    series = bernoulli_generating_series(n_max)
    fact = 1
    values = []
    for k in range(n_max + 1):
        values.append(series.coefficient(k) * fact)
        fact *= k + 1
    return values


def _bernoulli_garabedian(n_max: int) -> list:
    # Explicit double sum for B_{n+1}, n >= 1, from transforming the
    # alternating power sums; B_0 and B_1 come from the defining recurrence.
    # The inner sum sum_j (-1)^j C(k-1, j) (j+1)^n is (-1)^(k-1) times the
    # (k-1)-th forward difference of (j+1)^n at 0; differencing the powers in
    # place as d[i] <- d[i-1] - d[i] leaves it in d[k-1], sign included.
    values = [Fraction(1), Fraction(-1, 2)][: n_max + 1]
    for m in range(2, n_max + 1):
        n = m - 1
        d = [(j + 1) ** n for j in range(n + 1)]
        for s in range(1, n + 1):
            d[s:] = [prev - cur for prev, cur in zip(d[s - 1:], d[s:])]
        total = sum(inner << (n - i) for i, inner in enumerate(d))  # over 2^(n+1)
        values.append(Fraction(m * total, (2 ** m - 1) * 2 ** m))
    return values


_BERNOULLI_BUILDERS = {
    "recurrence": _bernoulli_recurrence,
    "series": _bernoulli_series,
    "garabedian": _bernoulli_garabedian,
}
BERNOULLI_METHODS = tuple(_BERNOULLI_BUILDERS)


def _table(builders, cls, n_max, method):
    try:
        builder = builders[method]
    except KeyError:
        raise ValueError(
            f"unknown method {method!r}; choose from {tuple(builders)}"
        ) from None
    if n_max < 0:
        raise ValueError("table size must be nonnegative")
    return cls(tuple(builder(n_max)), method)


@lru_cache(maxsize=None)
def bernoulli_table(n_max: int, method: str = "recurrence") -> BernoulliTable:
    """B_0..B_{n_max} computed by the named method, in one forward pass."""
    return _table(_BERNOULLI_BUILDERS, BernoulliTable, n_max, method)


def bernoulli(n: int, method: str = "recurrence") -> Fraction:
    """The Bernoulli number B_n, exactly.

    Each call builds the whole table B_0..B_n; for many indices, read
    ``bernoulli_table(n).values`` once.
    """
    return bernoulli_table(n, method).values[n]


def _euler_recurrence(n_max: int) -> list:
    # sum_{k=0}^{n} C(2n, 2k) (-1)^k E_{2k} = 0 for n >= 1, solved for E_{2n}
    even = [1]
    for n in range(1, n_max // 2 + 1):
        acc = 0
        for k in range(n):
            acc += comb(2 * n, 2 * k) * (-1) ** k * even[k]
        even.append((-1) ** (n + 1) * acc)
    values = [0] * (n_max + 1)
    for k, e in enumerate(even):
        if 2 * k <= n_max:
            values[2 * k] = e
    return values


def _euler_series(n_max: int) -> list:
    series = secant_series(n_max)
    values = []
    fact = 1
    for n in range(n_max + 1):
        c = series.coefficient(n) * fact
        if c.denominator != 1:
            raise ArithmeticError(f"secant coefficient {n} did not clear to an integer")
        values.append(int(c))
        fact *= n + 1
    return values


_EULER_BUILDERS = {"recurrence": _euler_recurrence, "series": _euler_series}
EULER_METHODS = tuple(_EULER_BUILDERS)


@lru_cache(maxsize=None)
def euler_table(n_max: int, method: str = "recurrence") -> EulerTable:
    """E_0..E_{n_max} computed by the named method."""
    return _table(_EULER_BUILDERS, EulerTable, n_max, method)


def euler(n: int, method: str = "recurrence") -> int:
    """The Euler number E_n (0 at odd indices), exactly.

    Each call builds the whole table E_0..E_n; for many indices, read
    ``euler_table(n).values`` once.
    """
    return euler_table(n, method).values[n]


def _weighted_values(k: int) -> list:
    # [T(0), ..., T(k)] read from the one table B_0..B_{k+1}.
    b = bernoulli_table(k + 1).values
    return [Fraction(1, 2)] + [
        Fraction(2 ** (j + 1) - 1, j + 1) * b[j + 1] for j in range(1, k + 1)
    ]


def weighted_bernoulli(k: int) -> Fraction:
    """The weighted value T(k) = (2^(k+1) - 1)/(k+1) * B_{k+1} for k >= 1.

    T(0) is 1/2, the sum of the alternating unit series, not the k = 0
    instance of the formula (which would give B_1 = -1/2).
    """
    if k < 0:
        raise ValueError("index must be nonnegative")
    if k == 0:
        return Fraction(1, 2)
    return Fraction(2 ** (k + 1) - 1, k + 1) * bernoulli(k + 1)


def odd_alternating_value(k: int) -> Fraction:
    """Sum assigned to 1^k - 3^k + 5^k - ...: (-1)^floor(k/2) * E_k / 2."""
    if k < 0:
        raise ValueError("index must be nonnegative")
    return Fraction((-1) ** (k // 2) * euler(k), 2)


def tan_coefficient(m: int) -> Fraction:
    """Coefficient of z^m in tan(z), m odd; even indices are flagged."""
    if m < 1 or m % 2 == 0:
        raise EvenIndexError(f"tan coefficient expects odd index, got {m}")
    n = (m + 1) // 2
    sign = (-1) ** (n + 1)
    return Fraction(sign * 2 ** (2 * n) * (2 ** (2 * n) - 1), factorial(2 * n)) * bernoulli(2 * n)


def cot_coefficient(m: int) -> Fraction:
    """Coefficient of z^m in z*cot(z), m even; odd indices are flagged."""
    if m < 0 or m % 2 == 1:
        raise OddIndexError(f"cot coefficient expects even index, got {m}")
    k = m // 2
    return bernoulli(2 * k) * Fraction((-1) ** k * 2 ** (2 * k), factorial(2 * k))


def bernoulli_generating_series(order: int) -> TruncatedSeries:
    """The series z/(e^z - 1), whose coefficient k is B_k/k!."""
    return known_series("expm1_over_z", order).reciprocal()


def secant_series(order: int) -> TruncatedSeries:
    """The series sec(z) = 1/cos(z), whose coefficient n is E_n/n!."""
    return known_series("cos", order).reciprocal()


def cotangent_series(order: int) -> TruncatedSeries:
    """The series z*cot(z), built from the even part of z/(e^z - 1).

    Substituting 2iz stays rational: the even coefficients just pick up the
    sign pattern (-1)^k 2^(2k), and the lone odd coefficient (B_1) drops out
    because z*cot(z) is even.
    """
    base = bernoulli_generating_series(order)
    out = []
    for m, c in enumerate(base.coefficients):
        if m % 2 == 1:
            out.append(Fraction(0))
        else:
            k = m // 2
            out.append(c * (-1) ** k * 2 ** (2 * k))
    return TruncatedSeries(out)


def tangent_series(order: int) -> TruncatedSeries:
    """The series tan(z) = sin(z) * sec(z)."""
    return known_series("sin", order) * secant_series(order)


def _checked(identity: str, params: dict, lhs: Fraction, rhs: Fraction) -> VerificationReport:
    if lhs != rhs:
        raise IdentityViolation(VerificationReport(identity, params, lhs, rhs, False))
    return VerificationReport(identity, params, lhs, rhs, True)


def verify_weighted_recursion(k: int) -> VerificationReport:
    """Check T(k) = 1/2 - sum_{l=1}^{k} C(k, l) T(l), exactly."""
    if k < 1:
        raise ValueError("index must be positive")
    t = _weighted_values(k)
    rhs = Fraction(1, 2)
    for l in range(1, k + 1):
        rhs -= comb(k, l) * t[l]
    return _checked("eq4", {"k": k}, t[k], rhs)


def verify_peeled_recursion(a: int, k: int) -> VerificationReport:
    """Check the recursion obtained by peeling the first `a` terms.

    T(k) = sum_{n<a} (-1)^n (n+1)^k + (-1)^a a^k / 2
         + (-1)^a sum_{j=1}^{k} C(k, j) a^(k-j) T(j).
    """
    if a < 1 or k < 1:
        raise ValueError("both parameters must be positive integers")
    t = _weighted_values(k)
    rhs = Fraction(0)
    for n in range(a):
        rhs += Fraction((-1) ** n * (n + 1) ** k)
    rhs += Fraction((-1) ** a * a ** k, 2)
    tail = Fraction(0)
    for j in range(1, k + 1):
        tail += comb(k, j) * a ** (k - j) * t[j]
    rhs += (-1) ** a * tail
    return _checked("prop2", {"a": a, "k": k}, t[k], rhs)


def verify_odd_split(k: int) -> VerificationReport:
    """Check sum_{j=1}^{k} C(k, j) 2^j T(j) = 1/2 - (-1)^floor(k/2) E_k / 2.

    Both sides are sums assigned to 1^k - 3^k + 5^k - ...; the left comes
    from expanding (1 + 2n)^k, the right from the secant coefficients.
    """
    if k < 1:
        raise ValueError("index must be positive")
    t = _weighted_values(k)
    lhs = Fraction(0)
    for j in range(1, k + 1):
        lhs += comb(k, j) * 2 ** j * t[j]
    rhs = Fraction(1, 2) - odd_alternating_value(k)
    return _checked("eq6", {"k": k}, lhs, rhs)


def verify_even_doubling(k: int) -> VerificationReport:
    """Check 2^(k+1) T(k) = sum_{j=0}^{k} C(k, j) (-1)^floor(j/2) E_j.

    Both sides are sums assigned to 2^k - 4^k + 6^k - ...; the left scales
    the alternating power sum, the right expands (2n - 1 + 1)^k over the
    odd alternating sums.
    """
    if k < 1:
        raise ValueError("index must be positive")
    lhs = 2 ** (k + 1) * _weighted_values(k)[k]
    e = euler_table(k).values
    rhs = Fraction(0)
    for j in range(k + 1):
        rhs += comb(k, j) * (-1) ** (j // 2) * e[j]
    return _checked("eq7", {"k": k}, lhs, rhs)


def verify_affine_relation(a, q, k: int) -> VerificationReport:
    """Check the two evaluations of the sum of (-1)^n (a*n + q)^k, a > 0.

    q^k/2 - sum_{j=1}^{k} C(k,j) q^(k-j) a^j T(j)
      = (-1)^k/2 * sum_{j=0}^{k} C(k,j) (a/2 - q)^(k-j) (a/2)^j (-1)^floor(j/2) E_j
    """
    a, q = Fraction(a), Fraction(q)
    if a <= 0:
        raise ValueError("parameter a must be positive")
    if k < 1:
        raise ValueError("index must be positive")
    t = _weighted_values(k)
    lhs = q ** k / 2
    for j in range(1, k + 1):
        lhs -= comb(k, j) * q ** (k - j) * a ** j * t[j]
    e = euler_table(k).values
    rhs = Fraction(0)
    half_a = a / 2
    for j in range(k + 1):
        rhs += (
            comb(k, j)
            * (half_a - q) ** (k - j)
            * half_a ** j
            * (-1) ** (j // 2)
            * e[j]
        )
    rhs *= Fraction((-1) ** k, 2)
    params = {"a": str(a), "q": str(q), "k": k}
    return _checked("mixed", params, lhs, rhs)
