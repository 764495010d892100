"""Bernoulli and Euler numbers by independent routes, plus identity checks.

Bernoulli numbers are the coefficients B_k/k! of z/(e^z - 1); Euler numbers
are the coefficients E_n/n! of sec(z) (so E_0 = 1, E_2 = 1, E_4 = 5, odd
indices vanish).  Each sequence is computed by more than one method and the
methods must agree exactly; the verify_* functions check the closed-form
identities tying these numbers to sums of divergent alternating series.

The checks read the weighted values T(k) = (2^(k+1) - 1)/(k+1) B_{k+1} from
the integer tangent numbers of Brent & Harvey (2011, arXiv:1108.0286), never
from a Bernoulli table, and sum each side in ints over one denominator.  eq4
checks the weights' own binomial recursion and prop2 ties them to finite
power sums; eq6, eq7 and mixed tie them to the Euler numbers of the
secant table, which Brent & Harvey's integer secant numbers fill: tangent
numbers against secant numbers, two independent sequences from one
algorithm family.  weighted_bernoulli reads T(k) from the Bernoulli table,
an independent route to the same values.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, islice, repeat
from math import factorial, gcd
from operator import add, mul

from .polynomials import _append_over_lcm, _next_row
from .series import TruncatedSeries, _reciprocal_numerators

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


_ZERO = Fraction(0)  # B_m at odd m >= 3, set without solving for it


def _bernoulli_recurrence(n_max: int) -> list:
    # sum_{k=0}^{m} C(m+1, k) B_k = 0 for m >= 1, solved for B_m at even m >= 2
    # only; B_0 = 1 and B_1 = -1/2 start the table, and B_m = 0 at odd m >= 3
    # is set directly.  The odd terms of the sum vanish but for
    # C(m+1, 1) B_1 = -(m+1)/2, so B_m = 1/2 - sum_{even k<m} C(m+1, k) B_k / (m+1):
    # the even entries of row m + 1 of Pascal's triangle, stepped once per m by
    # _next_row, dotted with B_0, B_2, ..., B_{m-2}, held as integer numerators
    # over one running common denominator.  The sum is in ints and each B_m is
    # reduced once.
    values = [Fraction(1), Fraction(-1, 2)][: n_max + 1]
    nums, den, row = [1], 1, [1, 2, 1]  # B_0 over 1, and row 2
    for m in range(2, n_max + 1):
        row = _next_row(row)
        if m & 1:
            values.append(_ZERO)
            continue
        total = sum(map(mul, row[::2], nums))
        values.append(Fraction((m + 1) * den - 2 * total, 2 * (m + 1) * den))
        den = _append_over_lcm(nums, den, values[m].numerator, values[m].denominator)
    return values


def _factorials(n: int):
    # 0!, 1!, ..., n!
    return accumulate(range(1, n + 1), mul, initial=1)


def _even_factorial_chain(n: int, s: int) -> list:
    # The reciprocal kernel's chain rho of sum_{j=0..n} w^j / (2j + s)!:
    # rho_j = (2j + s - 1)(2j + s) steps the factorial.  s = 1 gives
    # sinh(z)/z and s = 0 gives cosh(z), both in w = z^2.  At n < 0 the
    # chain holds the constant term alone.
    return [1, *((2 * j + s - 1) * (2 * j + s) for j in range(1, n + 1))]


def _bernoulli_from_sinh(order: int, weights) -> list:
    # w_m B_m / m! for m = 0..order, read off the even series
    # z/sinh(z) = sum (2 - 4^k) B_2k z^2k / (2k)!: coefficient 2k times w_2k,
    # over 2 - 4^k.  The kernel inverts sinh(z)/z in w = z^2 from its integer
    # chain, no Fraction series built, and gives coefficient 2k as an
    # unreduced G / L.  w_2k and L share h = gcd(w_2k, L), cancelled first,
    # so each value is one Fraction(w G / h, L (2 - 4^k) / h), reduced once.
    # Of the odd values only w_1 B_1 = -w_1/2 is nonzero; it is set
    # directly, since 2 - 2^m vanishes at m = 1.
    pairs = _reciprocal_numerators(_even_factorial_chain(order // 2, 1))
    out = []
    for m, w in zip(range(order + 1), weights):
        if m & 1:
            out.append(Fraction(-w, 2) if m == 1 else _ZERO)
        else:
            g, den = pairs[m >> 1]
            h = gcd(w, den)
            out.append(Fraction(w // h * g, den // h * (2 - (1 << m))))
    return out


def _bernoulli_series(n_max: int) -> list:
    return _bernoulli_from_sinh(n_max, _factorials(n_max))


def _bernoulli_garabedian(n_max: int) -> list:
    # Explicit double sum for B_{n+1}, n >= 1, from transforming the
    # alternating power sums; B_0 and B_1 come from the defining recurrence.
    # The inner sum d_i = sum_j (-1)^j C(i, j) (j+1)^n is (-1)^i i! S(n+1, i+1),
    # S the Stirling numbers of the second kind.  The row keeps i! S(m, i+1) for
    # i < m; S(m, k) = k S(m-1, k) + S(m-1, k-1), times i!, steps it from m - 1:
    # with a_i = (i+1) times entry i of row m - 1, entry i of row m is
    # a_i + a_{i-1}.  The row steps at every m, but the sum is taken only at
    # even m; B_m = 0 at odd m >= 3 is set directly.
    values = [Fraction(1), Fraction(-1, 2)][: n_max + 1]
    row = [1]  # m = 1
    for m in range(2, n_max + 1):
        a = list(map(mul, row, range(1, m)))
        row = [a[0], *map(add, a, a[1:]), a[-1]]
        if m & 1:
            values.append(_ZERO)
            continue
        # sum_i (-1)^i d_i 2^(m-1-i), over 2^m, by Horner in 2, two entries a step
        total = 0
        for even, odd in zip(row[::2], row[1::2]):
            total = (total << 2) + (even << 1) - odd
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
    """B_0..B_{n_max} computed by the named method, in one forward pass.

    Cached by the call's spelling: the package always passes
    (n_max, method) positionally, so its callers share one table.
    """
    return _table(_BERNOULLI_BUILDERS, BernoulliTable, n_max, method)


def bernoulli(n: int, method: str = "recurrence") -> Fraction:
    """The Bernoulli number B_n, exactly.

    Read from ``bernoulli_table(n, method)``, which is built once per
    distinct (n, method).
    """
    return bernoulli_table(n, method).values[n]


def _euler_recurrence(n_max: int) -> list:
    # sum_{k=0}^{n} C(2n, 2k) (-1)^k E_{2k} = 0 for n >= 1 is, with s_k = (-1)^k E_{2k},
    # s_n = -sum_{k<n} C(2n, 2k) s_k: the even entries of Pascal's row 2n dotted with s.
    s, row = [1], [1]
    for _ in range(n_max // 2):
        row = _next_row(_next_row(row))
        s.append(-sum(map(mul, row[::2], s)))
    values = [0] * (n_max + 1)
    values[::2] = [-x if k & 1 else x for k, x in enumerate(s)]
    return values


def _euler_series(n_max: int) -> list:
    # E_n = n! c_n for the coefficients c_n of sec(z) = 1/cos(z).  cos read at
    # w -> -w, w = z^2, is cosh, whose chain the kernel inverts in ints, no
    # Fraction series built: sech(z) = sum g_j w^j, so c_2j = (-1)^j g_j and
    # E_2j = (-1)^j (2j)! G_j / L_j.  L_j divides (2j)!, since every reduced
    # denominator of E_2k / (2k)! divides (2k)!, so E_2j = +-((2j)! // L_j) G_j.
    # Were some E_2k not an integer, the first nonzero remainder would fall at
    # the first such k.  The odd E_n stay 0.
    pairs = _reciprocal_numerators(_even_factorial_chain(n_max // 2, 0))
    values = [0] * (n_max + 1)
    factorials = islice(_factorials(n_max), 0, None, 2)
    for n, f, (g, den) in zip(range(0, n_max + 1, 2), factorials, pairs):
        q, r = divmod(f, den)
        if r:
            raise ArithmeticError(f"secant coefficient {n} did not clear to an integer")
        values[n] = -q * g if n & 2 else q * g
    return values


def _euler_secant(n_max: int) -> list:
    # E_2k is secant number k; the odd E_n stay 0.
    values = [0] * (n_max + 1)
    values[::2] = _secant_numbers(n_max // 2)
    return values


_EULER_BUILDERS = {
    "recurrence": _euler_recurrence,
    "series": _euler_series,
    "secant": _euler_secant,
}
EULER_METHODS = tuple(_EULER_BUILDERS)


@lru_cache(maxsize=None)
def euler_table(n_max: int, method: str = "recurrence") -> EulerTable:
    """E_0..E_{n_max} computed by the named method, cached as
    :func:`bernoulli_table` is."""
    return _table(_EULER_BUILDERS, EulerTable, n_max, method)


def euler(n: int, method: str = "recurrence") -> int:
    """The Euler number E_n (0 at odd indices), exactly.

    Read from ``euler_table(n, method)``, which is built once per
    distinct (n, method).
    """
    return euler_table(n, method).values[n]


def _tangent_numbers(n: int) -> list:
    # Tan_1..Tan_n, where tan(z) = sum_m Tan_m z^(2m-1)/(2m-1)!, by Brent and
    # Harvey's TangentNumbers (arXiv:1108.0286): in place on one int list,
    # small-by-big multiply-adds only.
    t = [1] * (n + 1)  # t[0] is unused
    for k in range(2, n + 1):
        t[k] = (k - 1) * t[k - 1]
    for k in range(2, n + 1):
        for j in range(k, n + 1):
            t[j] = (j - k) * t[j - 1] + (j - k + 2) * t[j]
    return t[1:]


def _secant_numbers(n: int) -> list:
    # E_0, E_2, ..., E_2n, where sec(z) = sum_m E_2m z^2m/(2m)!, by Brent and
    # Harvey's SecantNumbers, as _tangent_numbers is: in place on one int
    # list, small-by-big multiply-adds only.
    s = [1] * (n + 1)
    for k in range(1, n + 1):
        s[k] = k * s[k - 1]
    for k in range(1, n + 1):
        for j in range(k + 1, n + 1):
            s[j] = (j - k) * s[j - 1] + (j - k + 1) * s[j]
    return s


def _tangent_weights(k: int) -> tuple:
    # (W, D) with W_j = D T(j) for j = 0..k over D = 2 * 4^M, M = ceil(k/2):
    # T(0) = 1/2, T(2m-1) = (-1)^(m-1) Tan_m / 4^m and T(2m) = 0 for m >= 1.
    big_m = (k + 1) // 2
    w = [0] * (k + 1)
    w[0] = 1 << 2 * big_m
    w[1::2] = [(t if m & 1 else -t) << 2 * (big_m - m) + 1
               for m, t in enumerate(_tangent_numbers(big_m), 1)]
    return w, 2 << 2 * big_m


def _binomial_sum(w: list, x: int = 1, y: int = 1) -> int:
    # sum_{j=0}^{k} C(k, j) x^(k-j) y^j w[j], k = len(w) - 1, by Horner in x; the
    # binomial and y^j step from one term to the next.  w[j] leads each
    # product, so the zero entries cost no big multiply.
    k = len(w) - 1
    acc, c, y_j = 0, 1, 1
    for j, w_j in enumerate(w):
        acc = acc * x + w_j * c * y_j
        c = c * (k - j) // (j + 1)
        y_j *= y
    return acc


def _signed_euler(k: int) -> list:
    # (-1)^floor(j/2) E_j for j = 0..k, from the one secant table E_0..E_k.
    return [-e if j & 2 else e for j, e in enumerate(euler_table(k, "secant").values)]


def weighted_bernoulli(k: int) -> Fraction:
    """The weighted value T(k) = (2^(k+1) - 1)/(k+1) * B_{k+1} for k >= 1.

    T(0) is 1/2, the sum of the alternating unit series, not the k = 0
    instance of the formula (which would give B_1 = -1/2).
    """
    if k < 0:
        raise ValueError("index must be nonnegative")
    if k == 0:
        return Fraction(1, 2)
    return Fraction(2 ** (k + 1) - 1, k + 1) * bernoulli_table(k + 1, "recurrence").values[k + 1]


def odd_alternating_value(k: int) -> Fraction:
    """Sum assigned to 1^k - 3^k + 5^k - ...: (-1)^floor(k/2) * E_k / 2.

    E_k is read from the secant table ``euler_table(k, "secant")``.
    """
    if k < 0:
        raise ValueError("index must be nonnegative")
    return Fraction((-1) ** (k // 2) * euler(k, "secant"), 2)


def tan_coefficient(m: int) -> Fraction:
    """Coefficient of z^m in tan(z), m odd; even indices are flagged."""
    if m < 1 or m % 2 == 0:
        raise EvenIndexError(f"tan coefficient expects a positive odd index, got {m}")
    n = (m + 1) // 2
    return Fraction(_tangent_numbers(n)[-1], factorial(m))


def cot_coefficient(m: int) -> Fraction:
    """Coefficient of z^m in z*cot(z), m even; odd indices are flagged."""
    if m < 0 or m % 2 == 1:
        raise OddIndexError(f"cot coefficient expects a nonnegative even index, got {m}")
    # (-1)^k 4^k B_2k / (2k)! at m = 2k; B_2k = (-1)^(k-1) 2k Tan_k / (4^k (4^k - 1))
    # makes it -2k Tan_k / ((4^k - 1) (2k)!) for k >= 1.
    if m == 0:
        return Fraction(1)
    return Fraction(-m * _tangent_numbers(m // 2)[-1], ((1 << m) - 1) * factorial(m))


def bernoulli_generating_series(order: int) -> TruncatedSeries:
    """The series z/(e^z - 1), whose coefficient k is B_k/k!.

    Read off the even series z/sinh(z) = sum (2 - 4^k) B_2k z^2k / (2k)!,
    which the reciprocal's kernel inverts in z^2 from the integer chain of
    sinh(z)/z, with no Fraction series built: coefficient 2k is that one
    divided by 2 - 4^k, reduced once.  Of the odd coefficients only
    B_1 = -1/2 is nonzero; it is set directly, since 2 - 2^m vanishes at
    m = 1.
    """
    return TruncatedSeries(_bernoulli_from_sinh(order, repeat(1)))


def secant_series(order: int) -> TruncatedSeries:
    """The series sec(z) = 1/cos(z), whose coefficient n is E_n/n!.

    Read off the secant numbers E_0, E_2, ..., E_2K, K = order // 2, as
    :func:`tangent_series` reads the tangent numbers: each reduced once
    over its factorial; the odd coefficients are 0.
    """
    out = [_ZERO] * (order + 1)
    out[::2] = map(Fraction, _secant_numbers(order // 2),
                   islice(_factorials(order), 0, None, 2))
    return TruncatedSeries(out)


def cotangent_series(order: int) -> TruncatedSeries:
    """The series z*cot(z), read off z/sinh(z) as z/(e^z - 1) is.

    Substituting 2iz stays rational: coefficient 2k is B_2k/(2k)! weighted
    by (-4)^k, and the odd coefficients are 0, B_1 included, because
    z*cot(z) is even.
    """
    weights = (0 if m & 1 else (-4) ** (m >> 1) for m in range(order + 1))
    return TruncatedSeries(_bernoulli_from_sinh(order, weights))


def tangent_series(order: int) -> TruncatedSeries:
    """The series tan(z), whose coefficient 2k - 1 is Tan_k / (2k - 1)!.

    Read off the tangent numbers Tan_1..Tan_K, K = (order + 1) // 2, each
    reduced once over its factorial; the even coefficients are 0.
    """
    out = [_ZERO] * (order + 1)
    out[1::2] = map(Fraction, _tangent_numbers((order + 1) // 2),
                    islice(_factorials(order), 1, None, 2))
    return TruncatedSeries(out)


def _checked(identity: str, params: dict, lhs: Fraction, rhs: Fraction) -> VerificationReport:
    if lhs != rhs:
        raise IdentityViolation(VerificationReport(identity, params, lhs, rhs, False))
    return VerificationReport(identity, params, lhs, rhs, True)


def verify_weighted_recursion(k: int) -> VerificationReport:
    """Check T(k) = 1/2 - sum_{l=1}^{k} C(k, l) T(l), exactly."""
    if k < 1:
        raise ValueError("index must be positive")
    w, d = _tangent_weights(k)
    # W_0 = D/2, so D/2 - sum_{l>=1} is D - sum_{l>=0}
    return _checked("eq4", {"k": k}, Fraction(w[k], d), Fraction(d - _binomial_sum(w), d))


def verify_peeled_recursion(a: int, k: int) -> VerificationReport:
    """Check the recursion obtained by peeling the first `a` terms.

    T(k) = sum_{n<a} (-1)^n (n+1)^k + (-1)^a a^k / 2
         + (-1)^a sum_{j=1}^{k} C(k, j) a^(k-j) T(j).
    """
    if a < 1 or k < 1:
        raise ValueError("both parameters must be positive integers")
    w, d = _tangent_weights(k)
    head = sum((-1) ** n * (n + 1) ** k for n in range(a))
    # W_0 = D/2 carries the a^k/2 term as the j = 0 term of the sum
    tail = _binomial_sum(w, a)
    rhs = Fraction(d * head + (-tail if a & 1 else tail), d)
    return _checked("prop2", {"a": a, "k": k}, Fraction(w[k], d), rhs)


def verify_odd_split(k: int) -> VerificationReport:
    """Check sum_{j=1}^{k} C(k, j) 2^j T(j) = 1/2 - (-1)^floor(k/2) E_k / 2.

    Both sides are sums assigned to 1^k - 3^k + 5^k - ...; the left comes
    from expanding (1 + 2n)^k, the right from the secant coefficients.
    """
    if k < 1:
        raise ValueError("index must be positive")
    w, d = _tangent_weights(k)
    lhs = Fraction(_binomial_sum(w, 1, 2) - w[0], d)  # the sum starts at j = 1
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
    w, d = _tangent_weights(k)
    lhs = Fraction(w[k] << k + 1, d)
    return _checked("eq7", {"k": k}, lhs, Fraction(_binomial_sum(_signed_euler(k))))


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
    # a = u/v and q = p/s; the left side times D (sv)^k has the bases pv and
    # us, and W_0 = D/2 turns q^k/2 - sum_{j>=1} into (pv)^k D - sum_{j>=0}.
    # The right side is over 2 (2vs)^k: a/2 - q = (us - 2pv)/(2vs), a/2 = us/(2vs).
    u, v, p, s = a.numerator, a.denominator, q.numerator, q.denominator
    w, d = _tangent_weights(k)
    lhs = Fraction((p * v) ** k * d - _binomial_sum(w, p * v, u * s), d * (s * v) ** k)
    rhs = _binomial_sum(_signed_euler(k), u * s - 2 * p * v, u * s)
    rhs = Fraction(-rhs if k & 1 else rhs, (v * s) ** k << k + 1)
    params = {"a": str(a), "q": str(q), "k": k}
    return _checked("mixed", params, lhs, rhs)
