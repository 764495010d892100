"""C-finite series and their axiomatic summation.

A :class:`CFiniteSeries` is a formal numerical series whose terms satisfy a
fixed linear recurrence with constant rational coefficients.  Its generating
function ``sum a_n x^n`` is a rational function P(x)/Q(x); the summation
rules (regularity, peeling off the first term, linearity) force the sum of
the series to be the value of P/Q at x = 1.  Applied d times they give
S Q(1) = P(1) directly, and P(1) is read from Q and prefix sums of the
initial terms, without forming P or reducing P/Q.  Where Q(1) = P(1) = 0,
x - 1 is divided out of both and the rules are applied again.  Where
Q(1) = 0 and P(1) != 0, a pole survives at 1: no method obeying those
rules can assign the series a finite value, and the pole order is
reported as data, not an error.

The exact kernels, the term generator among them, run in integers: a list
of rationals is held as integer numerators over one common denominator, the
lcm of theirs, every loop or recurrence step adds and multiplies ints, and
each value or term that leaves a kernel is reduced once: to a Fraction, or
for the terms the numeric check reads, to a numerator-denominator pair.  Each
step is one dot product, ``sum(map(mul, ...))``: a recurrence step takes the
coefficients against the window of terms, newest first, and a binomial sum
takes a row of Pascal's triangle, stepped from the one before by additions
over its first half and mirrored, against the earlier values.  A series
p(n) r^n is built from its closed-form values p(0), ..., p(d + 4) as ints
over one denominator, which give the initial terms and check the
recurrence of (x - r)^d, whose coefficients come from one binomial row.
The parser and (n + 1)^k, (2n + 1)^k take those values by int arithmetic;
integer Horner steps on p's coefficients serve only ``poly_exp_series``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, islice, repeat, starmap
from math import gcd
from operator import mul
from typing import Iterator, Optional

from .polynomials import Polynomial, _append_over_lcm, _next_row, _over_lcm, cauchy_product

__all__ = [
    "CFiniteSeries",
    "SummationOutcome",
    "ZeroPolynomialError",
    "alternating_power_series",
    "axiomatic_sum",
    "characteristic_polynomial",
    "fibonacci_series",
    "generating_function",
    "geometric_series",
    "linear_combine",
    "odd_alternating_series",
    "poly_exp_series",
    "recursive_alternating_sum",
    "shift",
]


class ZeroPolynomialError(ValueError):
    """A polynomial-times-geometric series needs a nonzero polynomial."""


@dataclass(frozen=True)
class CFiniteSeries:
    """Immutable series defined by a_n = c_1 a_{n-1} + ... + c_d a_{n-d}."""

    recurrence: tuple
    initial: tuple

    def __post_init__(self):
        # a Fraction is immutable, so one passed in is kept, not copied
        rec = tuple(c if type(c) is Fraction else Fraction(c) for c in self.recurrence)
        init = tuple(a if type(a) is Fraction else Fraction(a) for a in self.initial)
        if not rec:
            raise ValueError("recurrence order must be at least 1")
        if len(rec) != len(init):
            raise ValueError(
                f"recurrence order {len(rec)} does not match "
                f"{len(init)} initial terms"
            )
        object.__setattr__(self, "recurrence", rec)
        object.__setattr__(self, "initial", init)

    @property
    def order(self) -> int:
        return len(self.recurrence)

    def iter_terms(self) -> Iterator[Fraction]:
        """Yield a_0, a_1, a_2, ... without end: one Fraction per pair of
        ``_term_pairs``, the one term generator."""
        return starmap(Fraction, self._term_pairs())

    def _term_pairs(self) -> Iterator[tuple[int, int]]:
        """Yield a_0, a_1, a_2, ... without end, each as its numerator and
        positive denominator in lowest terms.  Terms are stepped in ints,
        over running lcm denominators, and each one is reduced once, by one
        gcd; no Fraction is built."""
        for a in self.initial:
            yield a.numerator, a.denominator
        rec, q_den = _over_lcm(self.recurrence)
        window, den = _over_lcm(self.initial)
        while True:
            num, num_den = sum(map(mul, rec, reversed(window))), q_den * den
            g = gcd(num, num_den)
            num, num_den = num // g, num_den // g
            yield num, num_den
            del window[0]
            den = _append_over_lcm(window, den, num, num_den)

    def term(self, n: int) -> Fraction:
        if n < 0:
            raise IndexError("term index must be nonnegative")
        return next(islice(self.iter_terms(), n, None))

    def terms(self, count: int) -> list:
        """First `count` terms, computed in one forward pass."""
        if count < 0:
            raise ValueError("term count must be nonnegative")
        return list(islice(self.iter_terms(), count))

    def __repr__(self) -> str:
        rec = ", ".join(map(str, self.recurrence))
        init = ", ".join(map(str, self.initial))
        return f"CFiniteSeries(recurrence=[{rec}], initial=[{init}])"

    def to_json(self) -> dict:
        return {
            "recurrence": [str(c) for c in self.recurrence],
            "initial": [str(a) for a in self.initial],
        }


@dataclass(frozen=True)
class SummationOutcome:
    """Either an exact sum or the pole order at x = 1 that obstructs one."""

    value: Optional[Fraction] = None
    pole_order: Optional[int] = None

    def __post_init__(self):
        if (self.value is None) == (self.pole_order is None):
            raise ValueError("exactly one of value and pole_order must be set")

    @classmethod
    def summable(cls, value) -> "SummationOutcome":
        return cls(value=Fraction(value))

    @classmethod
    def not_summable(cls, pole_order: int) -> "SummationOutcome":
        if pole_order < 1:
            raise ValueError("pole order must be positive")
        return cls(pole_order=pole_order)

    @property
    def is_summable(self) -> bool:
        return self.value is not None

    def to_json(self) -> dict:
        if self.is_summable:
            return {"sum": str(self.value)}
        return {"not_summable": {"pole_order": self.pole_order}}


def poly_exp_series(polynomial, ratio) -> CFiniteSeries:
    """Series with terms p(n) * r^n for a nonzero polynomial p and r != 0.

    The characteristic polynomial is (x - r)^(deg p + 1); signs of an
    alternating series are folded into r, keeping that factorisation pure.
    The series is built from the closed-form values p(0), ..., p(d + 4),
    with d = deg p + 1: p is scaled by the lcm of its denominators and
    evaluated by integer Horner steps, and the integer kernel builds the
    recurrence and initial terms from those values and r, cross-checking
    the recurrence against the closed form on the first d + 5 terms.
    """
    if not isinstance(polynomial, Polynomial):
        polynomial = Polynomial(polynomial)
    if polynomial.is_zero:
        raise ZeroPolynomialError("polynomial part must be nonzero")
    ratio = Fraction(ratio)
    if ratio == 0:
        raise ValueError("ratio must be nonzero")
    coeffs, den = _over_lcm(polynomial.coefficients)
    values = []
    for n in range(len(coeffs) + 5):  # integer Horner steps
        value = 0
        for c in reversed(coeffs):
            value = value * n + c
        values.append(value)
    return _series_from_values(values, den, ratio)


def _binomial_row(d: int) -> list:
    """C(d, 0), ..., C(d, d), each stepped from the one before by one
    multiplication and one exact division."""
    row = [1]
    for j in range(d):
        row.append(row[-1] * (d - j) // (j + 1))
    return row


def _series_from_values(values: list, den: int, ratio: Fraction) -> CFiniteSeries:
    """Series with terms p(n) * r^n, from the integer closed-form values
    p(n) = values[n] / den at n = 0, ..., d + 4 and r = ratio = p / q.

    The recurrence of (x - r)^d is c_j = -C(d, j) (-p)^j / q^j, from one
    stepped binomial row and stepped powers of -p, one Fraction each.  The
    d + 5 closed-form terms are integers over den * q^(d + 4), and the
    numerators of the c_j over q^d check terms d to d + 4 by one dot
    product each.  Each initial term is one Fraction, reduced once.
    """
    d = len(values) - 5
    p, q = ratio.numerator, ratio.denominator
    q_pow = list(accumulate(repeat(q, d + 4), mul, initial=1))  # q^0, ..., q^(d+4)
    recurrence, rec, minus_p_j = [], [], 1
    for j, b in enumerate(_binomial_row(d)[1:], start=1):
        minus_p_j *= -p
        c = -b * minus_p_j
        recurrence.append(Fraction(c, q_pow[j]))
        rec.append(c * q_pow[d - j])
    initial, closed, p_n = [], [], 1
    for n, v in enumerate(values):
        x = v * p_n
        if n < d:
            initial.append(Fraction(x, den * q_pow[n]))
        closed.append(x * q_pow[d + 4 - n])
        p_n *= p
    if any(q_pow[d] * closed[n] != sum(map(mul, rec, reversed(closed[n - d:n])))
           for n in range(d, d + 5)):
        raise ArithmeticError("recurrence disagrees with closed form")
    return CFiniteSeries(recurrence, initial)


def alternating_power_series(k: int) -> CFiniteSeries:
    """The series 1^k - 2^k + 3^k - 4^k + ... (terms (n+1)^k * (-1)^n)."""
    if k < 0:
        raise ValueError("power must be nonnegative")
    return _series_from_values([(n + 1) ** k for n in range(k + 6)], 1, Fraction(-1))


def odd_alternating_series(k: int) -> CFiniteSeries:
    """The series 1^k - 3^k + 5^k - ... (terms (2n+1)^k * (-1)^n)."""
    if k < 0:
        raise ValueError("power must be nonnegative")
    return _series_from_values([(2 * n + 1) ** k for n in range(k + 6)], 1, Fraction(-1))


def geometric_series(ratio) -> CFiniteSeries:
    """The series 1 + r + r^2 + ... for a nonzero ratio r."""
    return poly_exp_series(Polynomial([1]), ratio)


def fibonacci_series() -> CFiniteSeries:
    """The series 1 + 1 + 2 + 3 + 5 + ... of Fibonacci numbers."""
    return CFiniteSeries([1, 1], [1, 1])


def characteristic_polynomial(series: CFiniteSeries) -> Polynomial:
    """Monic characteristic polynomial x^d - c_1 x^(d-1) - ... - c_d."""
    d = series.order
    coeffs = [Fraction(0)] * (d + 1)
    coeffs[d] = Fraction(1)
    for j, c in enumerate(series.recurrence, start=1):
        coeffs[d - j] = -c
    return Polynomial(coeffs)


def shift(series: CFiniteSeries) -> CFiniteSeries:
    """Drop the first term: same recurrence, initial window advanced by one."""
    d = series.order
    head = series.terms(d + 1)
    return CFiniteSeries(series.recurrence, head[1:])


def linear_combine(alpha, s: CFiniteSeries, beta, t: CFiniteSeries) -> CFiniteSeries:
    """Series with terms alpha*s_n + beta*t_n.

    The recurrence is taken from the product of the two characteristic
    polynomials (order d_s + d_t); no attempt is made to minimise it, since
    a longer recurrence only multiplies P and Q by a common factor, which
    the verdict at x = 1 cancels.
    """
    alpha, beta = Fraction(alpha), Fraction(beta)
    product = characteristic_polynomial(s) * characteristic_polynomial(t)
    d = product.degree
    recurrence = [-product.coefficient(d - j) for j in range(1, d + 1)]
    s_head = s.terms(d)
    t_head = t.terms(d)
    initial = [alpha * a + beta * b for a, b in zip(s_head, t_head)]
    return CFiniteSeries(recurrence, initial)


def generating_function(series: CFiniteSeries) -> tuple[Polynomial, Polynomial]:
    """Closed form P(x)/Q(x) of sum a_n x^n, as the unreduced pair (P, Q).

    Q(x) = 1 - c_1 x - ... - c_d x^d, so Q(0) = 1, and P(x) is Q times the
    initial-term polynomial, truncated below degree d.  Common factors of
    P and Q are left in place.  P is one integer Cauchy product over
    q_den * a_den, and each coefficient is reduced once.
    """
    (q, q_den), (a, a_den) = _integer_generating_function(series)
    p = cauchy_product(q, a, series.order)
    return (Polynomial(Fraction(x, q_den * a_den) for x in p),
            Polynomial(Fraction(x, q_den) for x in q))


def _integer_generating_function(series: CFiniteSeries) -> tuple:
    """(q, q_den), (a, a_den): Q = q / q_den, scaled by the lcm of the
    recurrence denominators, and the initial terms a / a_den, scaled by the
    lcm of theirs."""
    c, q_den = _over_lcm(series.recurrence)
    return ([q_den, *(-x for x in c)], q_den), _over_lcm(series.initial)


def axiomatic_sum(series: CFiniteSeries) -> SummationOutcome:
    """Sum assigned by the summation rules, or the obstructing pole order.

    Peeling off the first term d times and applying linearity gives
    S Q(1) = P(1), and P(1) = sum_i q_i (a_0 + ... + a_(d-1-i)) needs only
    prefix sums of the initial terms, so P is never formed.  If Q(1) != 0
    the sum is P(1)/Q(1).  If Q(1) = 0 and P(1) != 0 there is a pole at
    x = 1, of the order of vanishing of Q there: the number of synthetic
    divisions of Q by x - 1 before Q(1) != 0.  If both vanish, x - 1
    divides P and Q, and the terms obey the recurrence of Q/(x - 1): Q is
    divided once and the rules are applied again.  The same prefix sums
    serve, because the new P = A Q/(x - 1) has degree below d - 1.  All of
    it is integer work over the two denominators, and the sum is one
    Fraction, reduced once.
    """
    (q, _), (a, a_den) = _integer_generating_function(series)
    prefix = list(accumulate(a))[::-1]
    pole = 0
    while not (q_at_1 := sum(q)):
        if pole or sum(map(mul, q, prefix)):
            pole += 1
        q = list(accumulate(reversed(q[1:])))[::-1]  # q / (x - 1): suffix sums
    if pole:
        return SummationOutcome.not_summable(pole)
    return SummationOutcome.summable(Fraction(sum(map(mul, q, prefix)), q_at_1 * a_den))


def recursive_alternating_sum(k: int) -> Fraction:
    """Sum of 1^k - 2^k + 3^k - ... forced by the rules alone.

    Peeling the leading term and expanding (1 + (n-1))^k binomially yields
    2*S(k) = 1/2 - sum_{j=1}^{k-1} C(k, j) S(j) with S(0) = 1/2; no
    generating functions and no Bernoulli numbers are involved.
    """
    if k < 0:
        raise ValueError("index must be nonnegative")
    # S(0)..S(m-1) are int numerators over a running common denominator.  With
    # S(0) = 1/2 folded in, 2*S(m) = 1 - sum_{j<m} C(m, j) S(j), the dot product
    # with row m of Pascal's triangle; each S(m) is reduced once.
    value, nums, den, row = Fraction(1, 2), [1], 2, [1]
    for _ in range(k):
        row = _next_row(row)
        value = Fraction(den - sum(map(mul, row, nums)), 2 * den)  # (1 - sum/den) / 2
        den = _append_over_lcm(nums, den, value.numerator, value.denominator)
    return value
