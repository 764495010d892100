"""Floating-point evaluation of sums from their partial sums.

The exact engine assigns a series its generating-function value at 1; this
module reaches the same number numerically.  For a linear-recurrence
series of order d, Wynn's epsilon column 2d of the partial sums is that
value exactly: their limit, or their antilimit where a recurrence root
exceeds 1.  ``compare_exact`` reads it at x = 1 itself, which is the Abel
limit with no limit left to take.  ``partial_value`` reads the value at
one x < 1 as the sum at 1 of the series a_n x^n, whose recurrence
coefficients are c_j x^j.  Both run one loop over strides: stride 1 is
the partial sums themselves, and where they do not settle, block means of
the partial sums, which average out the roots of unity among the
recurrence's roots, take their place.  Each epsilon window runs first on
its last 2d + 5 sums, and only a whole flat even column settles it.
Stride p reads the first p (5d + 35) terms of an order-d series.

All summation runs in ``decimal`` arithmetic at a precision derived from
the size of the terms, with 50 digits as the floor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import Decimal, localcontext
from fractions import Fraction
from itertools import accumulate, islice

from .cfinite import CFiniteSeries, axiomatic_sum
from .polynomials import cauchy_product

__all__ = [
    "ComparisonReport",
    "NonconvergenceError",
    "NotSummableInputError",
    "compare_exact",
    "partial_value",
]


class NonconvergenceError(ArithmeticError):
    """A node value did not settle, as at a pole of the generating function."""


class NotSummableInputError(ValueError):
    """Exact/numeric comparison requested for a non-summable series."""


_PRECISION = 50  # the floor of the working precision, in decimal digits
_MAX_STRIDE = 8  # the largest block of partial sums averaged at x = 1
# the cyclotomic polynomials Phi_2, ..., Phi_8, lowest degree first
_CYCLOTOMIC = {2: [1, 1], 3: [1, 1, 1], 4: [1, 0, 1], 5: [1] * 5, 6: [1, -1, 1], 7: [1] * 7,
               8: [1, 0, 0, 0, 1]}
_SETTLE = Decimal("1e-12")  # the relative spread of a settled run
_ONE = Decimal(1)


@dataclass(frozen=True)
class ComparisonReport:
    exact: Fraction
    estimate: float
    abs_error: float
    passed: bool
    nodes: int

    def to_json(self) -> dict:
        return {
            "exact": str(self.exact),
            "estimate": self.estimate,
            "abs_error": self.abs_error,
            "pass": self.passed,
            "nodes": self.nodes,
        }


def _wynn_even(sums: list[Decimal], digits: int) -> tuple[Decimal, bool]:
    """Best even-column epsilon value for a sequence of partial sums.

    Returns (value, settled).  A pair is flat when its difference is below
    the working precision ``digits`` at the sums' scale, or half the digits
    below its entries: an exactly equal pair keeps the rounding error that
    earlier columns amplified.  In an even column, column 0 included, a
    flat first pair settles the value when the whole column is flat.  A
    shorter flat run may be one phase of a periodic column, or a run of
    zero terms, which is shorter than d unless the series is eventually
    zero.  Any other flat pair makes the next entry infinite (None); two
    columns on, Wynn's particular rule E = N + S - W replaces the rhombus
    rule.  Larger singular blocks leave the value unsettled.
    """
    # both flat thresholds as decimal exponents
    low = (max(map(abs, sums)) + 1).adjusted() + 8 - digits
    half = digits // 2
    # the last four columns, from epsilon_(-1) = 0 and epsilon_0 = sums
    cols = [[Decimal(0)] * (len(sums) + 1), list(sums)]
    even_tails = []
    while len(cols[-1]) >= 2:
        prev, cur = cols[-2], cols[-1]
        col = len(sums) - len(cur)
        new = []
        for i, (a, b, c) in enumerate(zip(cur, cur[1:], prev[1:])):
            if c is None:  # particular rule around the infinite entry c
                cross = (prev[i], prev[i + 2], cols[-4][i + 2])
                if None in cross:
                    return (even_tails or sums)[-1], False
                new.append(cross[0] + cross[1] - cross[2])
            elif a is None or b is None:
                if a is b:  # two infinite entries side by side: a larger block
                    return (even_tails or sums)[-1], False
                new.append(c)
            elif (delta := b - a) and (e := delta.adjusted()) >= low and e + half >= b.adjusted():
                new.append(c + _ONE / delta)
            elif (col % 2 or i or None in cur
                  or max(cur) - min(cur) > _SETTLE * (1 + abs(cur[-1]))):
                new.append(None)
            else:
                return cur[-1], True
        cols = cols[-3:] + [new]
        if col % 2 == 1 and new[-1] is not None:
            even_tails.append(new[-1])
    value = (even_tails or sums)[-1]
    return value, len(even_tails) >= 2 and abs(value - even_tails[-2]) <= _SETTLE * (1 + abs(value))


def _settled(sums: list[Decimal], order: int, digits: int):
    """The first of three epsilon windows of 2d + 21 sums that settles, or None.

    Each window runs first on its last 2d + 5 sums, and in full only where
    they do not settle.  An entry depends only on the sums under it, so
    the suffix ends on the full window's own entries, and it holds column
    2d, where an order-d series is exact, with five entries.
    """
    span = 2 * order + 21
    for start in (order, 2 * order + 7, 3 * order + 14):
        window = sums[start:start + span]
        for run in (window[-2 * order - 5:], window):
            value, settled = _wynn_even(run, digits)
            if settled:
                return value
    return None


def _node_length(order: int) -> int:
    """The terms one node reads: its last epsilon window ends at term 5d + 34."""
    return 5 * order + 35


def _node_inputs(pairs: list[tuple[int, int]]) -> tuple[list[Decimal], int]:
    """The terms the epsilon windows read, as decimals, and the digits to use.

    The terms come from the series' reduced integer pairs (p, q), with no
    Fraction built: digits = max(50, floor(2 log10 max|a_n|) + 16), with
    log2|p/q| read from bit lengths, and each term is p / q rounded to that
    precision.
    """
    bits = max((abs(p).bit_length() - q.bit_length() for p, q in pairs if p), default=0)
    digits = max(_PRECISION, math.floor(2 * bits * math.log10(2)) + 16)
    with localcontext() as ctx:
        ctx.prec = digits
        return [Decimal(p) / Decimal(q) for p, q in pairs], digits


def partial_value(series: CFiniteSeries, x) -> float:
    """Value of sum a_n x^n at a fixed 0 <= x < 1, from its partial sums.

    It is the sum at 1 of the series a_n x^n, whose recurrence
    coefficients are c_j x^j, through the strides of ``compare_exact``.
    Where the terms grow at x, it is the epsilon antilimit of the partial
    sums, which is the generating function's value there: 7/8 gives -64/41
    on the Fibonacci series.  A node that does not settle raises
    NonconvergenceError.  No window settles at a pole of the generating
    function, while a root of the recurrence that the function cancels
    gives its finite value.
    """
    x = Fraction(x)
    if not 0 <= x < 1:
        raise ValueError("evaluation point must satisfy 0 <= x < 1")
    scaled = CFiniteSeries([c * x ** j for j, c in enumerate(series.recurrence, 1)],
                           [a * x ** n for n, a in enumerate(series.initial)])
    try:
        return _sum_at_one(scaled)
    except NonconvergenceError:
        raise NonconvergenceError(f"node at x = {float(x):.6g} did not stabilise") from None


def _divides(b: list[int], a: list) -> bool:
    """Whether monic b divides a, polynomials lowest degree first: b with
    integer coefficients, a with integer or rational ones."""
    a = list(a)
    while len(a) >= len(b):
        c = a.pop()
        for i, x in enumerate(b[:-1], len(a) - len(b) + 1):
            a[i] -= c * x
    return not any(a)


def _repeated_unit_root(q: list, p: int) -> bool:
    """Whether Q = sum q_i x^i has a repeated root z != 1 with z^p = 1: whether
    Phi_k^2 divides Q for some k > 1 dividing p."""
    return any(_divides(cauchy_product(phi, phi, 2 * len(phi) - 1), q)
               for k, phi in _CYCLOTOMIC.items() if p % k == 0)


def _sum_at_one(series: CFiniteSeries) -> float:
    """The sum at x = 1 from the partial sums, or from their block means.

    For a stride p the epsilon windows of ``_settled`` run over the means
    M_n = (S_pn + ... + S_pn+p-1) / p of the first p (5d + 35) partial sums.
    S_N - S is a sum of terms c(N) z^N over the roots z of the recurrence;
    the mean over p consecutive N cancels each simple root z != 1 with
    z^p = 1, and leaves every other root a geometric term of ratio z^p,
    which the epsilon columns remove.  A repeated such root would leave a
    constant, so its strides are skipped.  Stride 1 is the partial sums
    themselves.  The strides are 1, then g, the gcd of the lags with
    nonzero coefficients, if it is one of them, then the rest of
    2, ..., min(d, 8).  The terms read so far grow with the stride, from
    one stream, and each stride takes its digits from the terms it reads.
    """
    d = series.order
    q = [-1, *series.recurrence]  # -Q: the sign does not change what divides it
    g = math.gcd(*(j for j, c in enumerate(series.recurrence, 1) if c))
    stream, pairs = series._term_pairs(), []
    for p in sorted(range(1, min(d, _MAX_STRIDE) + 1), key=lambda p: p not in (1, g)):
        if _repeated_unit_root(q, p):
            continue
        n = p * _node_length(d)
        pairs += islice(stream, max(n - len(pairs), 0))
        terms, digits = _node_inputs(pairs[:n])
        with localcontext() as ctx:
            ctx.prec = digits
            sums = list(accumulate(terms))
            means = sums if p == 1 else [sum(sums[i:i + p]) / p for i in range(0, n, p)]
            value = _settled(means, d, digits)
        if value is not None:
            return float(value)
    raise NonconvergenceError("no block means of the partial sums at x = 1 stabilise")


def compare_exact(series: CFiniteSeries) -> ComparisonReport:
    """Compare the exact engine sum with the numeric Abel limit.

    The estimate is the epsilon node at x = 1 itself: the partial sums
    S_n - S of an order-d series obey an order-d recurrence, so Wynn's
    column 2d is S = P(1)/Q(1) exactly.  Where that node does not settle,
    the block means of ``_sum_at_one`` supply the estimate from the same
    stream of terms.  Passes when the absolute error is at most
    1e-6 max(1, |exact|).  A non-summable series is rejected up front.
    """
    outcome = axiomatic_sum(series)
    if not outcome.is_summable:
        raise NotSummableInputError(
            f"series has a pole of order {outcome.pole_order} at x = 1"
        )
    estimate = _sum_at_one(series)
    exact = float(outcome.value)
    abs_error = abs(estimate - exact)
    return ComparisonReport(
        exact=outcome.value,
        estimate=estimate,
        abs_error=abs_error,
        passed=abs_error <= 1e-6 * max(1.0, abs(exact)),
        nodes=1,
    )
