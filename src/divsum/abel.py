"""Floating-point evaluation of sums from their partial sums.

The exact engine assigns a series its generating-function value at 1; this
module reaches the same number numerically.  The value of ``sum a_n x^n``
at one point x comes from its partial sums alone: the epsilon algorithm
extracts their limit, or their antilimit where a recurrence root exceeds
1/x, and for a linear-recurrence series it reaches the generating
function's value exactly after finitely many columns.  ``compare_exact``
takes that value at x = 1 itself, which is the Abel limit with no limit
left to take.  ``partial_value`` returns it at one x < 1;
``abel_estimate`` takes it on the geometric grid x_j = 1 - 2^-j, ten
levels unless the caller asks for another number of at least 3, and
extrapolates to h = 1 - x = 0 with Neville's scheme.  The ten-level grid
is also ``compare_exact``'s fallback where the node at x = 1 does not
settle.  A genuine pole at x = 1 shows up as node values growing without
bound across the grid and is reported as DivergentGridError.  Every node reads the same
first 5d + 35 terms of an order-d series.

All summation runs in ``decimal`` arithmetic at a precision derived from
the size of the terms, with 50 digits as the floor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from decimal import Decimal, localcontext
from fractions import Fraction
from itertools import accumulate, count, islice

from .cfinite import CFiniteSeries, _integer_generating_function, axiomatic_sum

__all__ = [
    "AbelNumericResult",
    "ComparisonReport",
    "DivergentGridError",
    "NonconvergenceError",
    "NotSummableInputError",
    "abel_estimate",
    "compare_exact",
    "partial_value",
]


class NonconvergenceError(ArithmeticError):
    """A node value did not settle, as at a pole of the generating function."""


class DivergentGridError(ArithmeticError):
    """Node values grow without bound across the grid: pole at x = 1."""


class NotSummableInputError(ValueError):
    """Exact/numeric comparison requested for a non-summable series."""


_FIRST_LEVEL = 3  # the grid starts at x = 1 - 2^-3
_GRID_LEVELS = 10  # the default number of grid nodes per estimate
_PRECISION = 50  # the floor of the working precision, in decimal digits
_ONE = Decimal(1)


@dataclass(frozen=True)
class AbelNumericResult:
    estimate: float
    error_estimate: float
    nodes_used: int
    per_node_values: tuple = field(default_factory=tuple)


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


def _decimal(q: Fraction) -> Decimal:
    """A rational rounded to the current decimal context."""
    return Decimal(q.numerator) / Decimal(q.denominator)


def _partial_sums(terms: list[Decimal], x_dec: Decimal) -> list[Decimal]:
    """Partial sums S_n of sum a_n x^n.

    Below x = 1 they are kept at the n with a_n != 0 (no repeats); at x = 1
    no power of x marks a position, so every S_n is kept, and no term is
    multiplied by a power of x.
    """
    if x_dec == 1:
        return list(accumulate(terms))
    out = []
    s = Decimal(0)
    xpow = Decimal(1)
    for a in terms:
        if a:
            s += a * xpow
            out.append(s)
        xpow *= x_dec
    return out


def _wynn_even(sums: list[Decimal], digits: int, every_n: bool = False) -> tuple[Decimal, bool]:
    """Best even-column epsilon value for a sequence of partial sums.

    Returns (value, settled).  A pair is flat when its difference is below
    the working precision ``digits`` at the sums' scale, or half the digits
    below its entries: an exactly equal pair keeps the rounding error that
    earlier columns amplified.  In an even column, a flat pair that starts
    a flat run to the column's end, of three entries or the whole column,
    is the converged answer; earlier entries may span a zero term the sums
    skip.  Any other flat pair makes the next entry infinite (None); two
    columns on, Wynn's particular rule E = N + S - W replaces the rhombus
    rule.  Larger singular blocks leave the value unsettled.  With
    ``every_n`` the sums include the n with a_n = 0, so column 0 never
    settles: a flat run there is a run of zero terms, not convergence.
    """
    # both flat thresholds as decimal exponents
    low = (max(map(abs, sums)) + 1).adjusted() + 8 - digits
    half = digits // 2
    settle = Decimal("1e-12")
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
            elif (col % 2 == 1 or (every_n and col == 0)
                  or len(tail := cur[i:]) < min(3, len(cur)) or None in tail
                  or max(tail) - min(tail) > settle * (1 + abs(tail[-1]))):
                new.append(None)
            else:
                return cur[-1], True
        cols = cols[-3:] + [new]
        if col % 2 == 1 and new[-1] is not None:
            even_tails.append(new[-1])
    value = (even_tails or sums)[-1]
    return value, len(even_tails) >= 2 and abs(value - even_tails[-2]) <= settle * (1 + abs(value))


def _node_value(terms: list[Decimal], order: int, x_dec: Decimal, digits: int) -> Decimal:
    """Numeric value of the generating series at one node x <= 1.

    If the last ``order`` of ``terms`` are zero, so is the recurrence
    state, and the value is the last partial sum; otherwise it comes from
    the first of three epsilon windows over the partial sums that settles.
    """
    sums = _partial_sums(terms, x_dec)
    if not any(terms[-order:]):
        return sums[-1] if sums else Decimal(0)
    span = 2 * order + 21
    for attempt in range(3):
        # sparse terms leave fewer sums: then the windows end at the last one
        start = min(order + attempt * (order + 7), max(len(sums) - span, 0))
        value, settled = _wynn_even(sums[start:start + span], digits, x_dec == 1)
        if settled:
            return value
    raise NonconvergenceError(f"node at x = {float(x_dec):.6g} did not stabilise")


def _node_inputs(series: CFiniteSeries) -> tuple[list[Decimal], int]:
    """The terms the epsilon windows read, as decimals, and the digits to use.

    The terms come from the series' reduced integer pairs (p, q), with no
    Fraction built: digits = max(50, floor(2 log10 max|a_n|) + 16), with
    log2|p/q| read from bit lengths, and each term is p / q rounded to that
    precision.
    """
    # the last epsilon window of _node_value ends at term 5d + 34
    pairs = list(islice(series._term_pairs(), 5 * series.order + 35))
    bits = max((abs(p).bit_length() - q.bit_length() for p, q in pairs if p), default=0)
    digits = max(_PRECISION, math.floor(2 * bits * math.log10(2)) + 16)
    with localcontext() as ctx:
        ctx.prec = digits
        return [Decimal(p) / Decimal(q) for p, q in pairs], digits


def partial_value(series: CFiniteSeries, x) -> float:
    """Value of sum a_n x^n at a fixed 0 <= x < 1, from its partial sums.

    This is the node value abel_estimate takes at x.  Where the terms grow
    at x, it is the epsilon antilimit of the partial sums, which is the
    generating function's value there: 7/8 gives -64/41 on the Fibonacci
    series.  A node that does not settle raises NonconvergenceError.  No
    window settles at a pole of the generating function, while a root of
    the recurrence that the function cancels gives its finite value.  Zero
    terms that recur inside every epsilon window, as in a(n) = -a(n-3) -
    a(n-6)/3 from 0, -3, 3, 3, 2, 2, leave the node unsettled even where
    the series converges.
    """
    x = Fraction(x)
    if not 0 <= x < 1:
        raise ValueError("evaluation point must satisfy 0 <= x < 1")
    return _value_at(series, x)


def _value_at(series: CFiniteSeries, x: Fraction) -> float:
    """The node value at one 0 <= x <= 1, at the digits _node_inputs sets."""
    terms, digits = _node_inputs(series)
    with localcontext() as ctx:
        ctx.prec = digits
        return float(_node_value(terms, series.order, _decimal(x), digits))


def _neville_at_zero(hs: list[Decimal], values: list[Decimal]):
    """Polynomial extrapolation of (h_i, v_i) to h = 0.

    Returns the top extrapolant and the difference of the last two columns.
    """
    tab = list(values)
    n = len(tab)
    previous = tab[0]
    for m in range(1, n):
        for i in range(n - m):
            tab[i] = (hs[i + m] * tab[i] - hs[i] * tab[i + 1]) / (hs[i + m] - hs[i])
        if m == n - 2:
            previous = tab[0]
    return tab[0], abs(tab[0] - previous)


def _looks_divergent(values: list[Decimal]) -> bool:
    # Pole signature: magnitudes climb steadily by a near-constant factor
    # and gain well over an order of magnitude across the grid.
    mags = [abs(v) for v in values]
    if any(m == 0 for m in mags):
        return False
    ratios = [mags[i + 1] / mags[i] for i in range(len(mags) - 1)]
    return min(ratios) > Decimal("1.4") and mags[-1] / mags[0] > 50


def abel_estimate(series: CFiniteSeries, grid_levels: int = _GRID_LEVELS) -> AbelNumericResult:
    """Estimate the limit of sum a_n x^n as x -> 1 from below.

    Node values on the grid x_j = 1 - 2^-j, j >= 3, are extrapolated to
    h = 0; the error estimate is the difference of the last two
    extrapolation columns.  A level j where Q vanishes at x_j exactly puts
    its node on a pole of the series, so it is skipped for the next level
    and the grid keeps ``grid_levels`` nodes.  With Q's integer
    coefficients q_i, Q(x_j) 2^(jd) = sum_i q_i (2^j - 1)^i 2^(j(d - i)) is
    tested in ints.
    """
    if grid_levels < 3:
        raise ValueError("extrapolation needs at least 3 grid levels")
    (q, _), _ = _integer_generating_function(series)
    d = series.order
    off_pole = (j for j in count(_FIRST_LEVEL)
                if sum(c * (2 ** j - 1) ** i << j * (d - i) for i, c in enumerate(q)))
    terms, digits = _node_inputs(series)
    with localcontext() as ctx:
        ctx.prec = digits
        hs = [Decimal(1) / Decimal(2 ** j) for j in islice(off_pole, grid_levels)]
        values = [_node_value(terms, series.order, Decimal(1) - h, digits) for h in hs]
        if _looks_divergent(values):
            raise DivergentGridError(
                "node values grow without bound toward x = 1"
            )
        estimate, error = _neville_at_zero(hs, values)
        return AbelNumericResult(
            estimate=float(estimate),
            error_estimate=abs(float(error)),
            nodes_used=grid_levels,
            per_node_values=tuple(float(v) for v in values),
        )


def compare_exact(series: CFiniteSeries) -> ComparisonReport:
    """Compare the exact engine sum with the numeric Abel limit.

    The estimate is the epsilon node at x = 1 itself: the partial sums
    S_n - S of an order-d series obey an order-d recurrence, so Wynn's
    column 2d is S = P(1)/Q(1) exactly, with no grid.  Only where that node
    does not settle does ``abel_estimate`` on its ten-level grid supply
    the estimate.  Passes when the absolute error is at most
    1e-6 max(1, |exact|).  A non-summable series is rejected up front.
    """
    outcome = axiomatic_sum(series)
    if not outcome.is_summable:
        raise NotSummableInputError(
            f"series has a pole of order {outcome.pole_order} at x = 1"
        )
    try:
        estimate, nodes = _value_at(series, Fraction(1)), 1
    except NonconvergenceError:
        result = abel_estimate(series)
        estimate, nodes = result.estimate, result.nodes_used
    exact = float(outcome.value)
    abs_error = abs(estimate - exact)
    return ComparisonReport(
        exact=outcome.value,
        estimate=estimate,
        abs_error=abs_error,
        passed=abs_error <= 1e-6 * max(1.0, abs(exact)),
        nodes=nodes,
    )
