"""C-finite series and their axiomatic summation.

A :class:`CFiniteSeries` is a formal numerical series whose terms satisfy a
fixed linear recurrence with constant rational coefficients.  Its generating
function ``sum a_n x^n`` is a rational function P(x)/Q(x); the summation
rules (regularity, peeling off the first term, linearity) force the sum of
the series to be the value of P/Q at x = 1.  That value is read off the
orders of vanishing of P and Q at 1 and their first nonzero Taylor
coefficients there, without reducing P/Q.  When Q vanishes to a higher
order than P, a pole survives at 1: no method obeying those rules can
assign the series a finite value, and the pole order is reported as data,
not an error.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from typing import Iterable, Iterator, Optional

from .polynomials import Polynomial
from .rationals import binomial, format_rational

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


class CFiniteSeries:
    """Immutable series defined by a_n = c_1 a_{n-1} + ... + c_d a_{n-d}."""

    __slots__ = ("_recurrence", "_initial")

    def __init__(self, recurrence: Iterable, initial: Iterable):
        rec = tuple(Fraction(c) for c in recurrence)
        init = tuple(Fraction(a) for a in initial)
        if not rec:
            raise ValueError("recurrence order must be at least 1")
        if len(rec) != len(init):
            raise ValueError(
                f"recurrence order {len(rec)} does not match "
                f"{len(init)} initial terms"
            )
        object.__setattr__(self, "_recurrence", rec)
        object.__setattr__(self, "_initial", init)

    def __setattr__(self, name, value):
        raise AttributeError("CFiniteSeries is immutable")

    @property
    def order(self) -> int:
        return len(self._recurrence)

    @property
    def recurrence(self) -> tuple:
        return self._recurrence

    @property
    def initial(self) -> tuple:
        return self._initial

    def iter_terms(self) -> Iterator[Fraction]:
        """Yield a_0, a_1, a_2, ... without end, one recurrence step per term."""
        yield from self._initial
        rec = self._recurrence
        window = deque(self._initial, maxlen=len(rec))
        while True:
            nxt = sum(c * a for c, a in zip(rec, reversed(window)))
            window.append(nxt)
            yield nxt

    def term(self, n: int) -> Fraction:
        if n < 0:
            raise IndexError("term index must be nonnegative")
        return next(islice(self.iter_terms(), n, None))

    def terms(self, count: int) -> list:
        """First `count` terms, computed in one forward pass."""
        return list(islice(self.iter_terms(), count))

    def __eq__(self, other) -> bool:
        if not isinstance(other, CFiniteSeries):
            return NotImplemented
        return self._recurrence == other._recurrence and self._initial == other._initial

    def __hash__(self) -> int:
        return hash((self._recurrence, self._initial))

    def __repr__(self) -> str:
        rec = ", ".join(map(format_rational, self._recurrence))
        init = ", ".join(map(format_rational, self._initial))
        return f"CFiniteSeries(recurrence=[{rec}], initial=[{init}])"

    def to_json(self) -> dict:
        return {
            "recurrence": [format_rational(c) for c in self._recurrence],
            "initial": [format_rational(a) for a in self._initial],
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
            return {"sum": format_rational(self.value)}
        return {"not_summable": {"pole_order": self.pole_order}}


def poly_exp_series(polynomial, ratio) -> CFiniteSeries:
    """Series with terms p(n) * r^n for a nonzero polynomial p and r != 0.

    The characteristic polynomial is (x - r)^(deg p + 1); signs of an
    alternating series are folded into r, keeping that factorisation pure.
    The construction cross-checks the recurrence against the closed form
    on the first d + 5 terms.
    """
    if not isinstance(polynomial, Polynomial):
        polynomial = Polynomial(polynomial)
    if polynomial.is_zero:
        raise ZeroPolynomialError("polynomial part must be nonzero")
    ratio = Fraction(ratio)
    if ratio == 0:
        raise ValueError("ratio must be nonzero")
    d = polynomial.degree + 1
    recurrence = [-binomial(d, j) * (-ratio) ** j for j in range(1, d + 1)]
    closed = [polynomial.evaluate(n) * ratio ** n for n in range(d + 5)]
    series = CFiniteSeries(recurrence, closed[:d])
    if series.terms(d + 5) != closed:
        raise ArithmeticError("recurrence disagrees with closed form")
    return series


def alternating_power_series(k: int) -> CFiniteSeries:
    """The series 1^k - 2^k + 3^k - 4^k + ... (terms (n+1)^k * (-1)^n)."""
    if k < 0:
        raise ValueError("power must be nonnegative")
    p = Polynomial([binomial(k, j) for j in range(k + 1)])  # (n + 1)^k
    return poly_exp_series(p, Fraction(-1))


def odd_alternating_series(k: int) -> CFiniteSeries:
    """The series 1^k - 3^k + 5^k - ... (terms (2n+1)^k * (-1)^n)."""
    if k < 0:
        raise ValueError("power must be nonnegative")
    p = Polynomial([binomial(k, j) * 2 ** j for j in range(k + 1)])  # (2n + 1)^k
    return poly_exp_series(p, Fraction(-1))


def geometric_series(ratio) -> CFiniteSeries:
    """The series 1 + r + r^2 + ... for a nonzero ratio r."""
    return poly_exp_series(Polynomial.constant(1), ratio)


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
    P and Q are left in place.
    """
    d = series.order
    q = Polynomial([Fraction(1)] + [-c for c in series.recurrence])
    product = q * Polynomial(series.initial)
    return Polynomial(product.coefficients[:d]), q


def _order_at_one(p: Polynomial) -> tuple[int, Fraction]:
    """Order m of vanishing of a nonzero p at x = 1 and the coefficient c
    with p(x) = c (x - 1)^m + O((x - 1)^(m + 1)).

    The Taylor coefficients at 1 are c_j = sum_i C(i, j) a_i; the first
    nonzero one is c_m.
    """
    a = p.coefficients
    for j in range(len(a)):
        c = sum(binomial(i, j) * a[i] for i in range(j, len(a)))
        if c:
            return j, c


def axiomatic_sum(series: CFiniteSeries) -> SummationOutcome:
    """Sum assigned by the summation rules, or the obstructing pole order.

    With P/Q the generating function, the pole order at x = 1 is
    m_Q - m_P when that is positive, m being the order of vanishing at 1;
    factors of x - 1 common to P and Q cancel, so they never produce a
    spurious non-summable verdict.  Otherwise the sum is the ratio of the
    first nonzero Taylor coefficients at 1 when the orders match, and 0
    when P vanishes to a higher order or is zero.
    """
    p, q = generating_function(series)
    if p.is_zero:
        return SummationOutcome.summable(0)
    m_p, c_p = _order_at_one(p)
    m_q, c_q = _order_at_one(q)
    if m_q > m_p:
        return SummationOutcome.not_summable(m_q - m_p)
    return SummationOutcome.summable(c_p / c_q if m_p == m_q else 0)


def recursive_alternating_sum(k: int) -> Fraction:
    """Sum of 1^k - 2^k + 3^k - ... forced by the rules alone.

    Peeling the leading term and expanding (1 + (n-1))^k binomially yields
    2*S(k) = 1/2 - sum_{j=1}^{k-1} C(k, j) S(j) with S(0) = 1/2; no
    generating functions and no Bernoulli numbers are involved.
    """
    if k < 0:
        raise ValueError("index must be nonnegative")
    values = [Fraction(1, 2)]
    for m in range(1, k + 1):
        acc = Fraction(1, 2)
        for j in range(1, m):
            acc -= binomial(m, j) * values[j]
        values.append(acc / 2)
    return values[k]
