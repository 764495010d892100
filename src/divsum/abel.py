"""Floating-point evaluation of sums as limits along x -> 1 from below.

The exact engine assigns a series its generating-function value at 1; this
module approaches the same number numerically.  Partial sums of
``sum a_n x^n`` are taken on the geometric grid x_j = 1 - 2^-j and the node
values are extrapolated to h = 1 - x = 0 with Neville's scheme.  Node
values themselves come from the partial sums alone: when they converge
slowly, or diverge because a recurrence root exceeds 1/x, the epsilon
algorithm extracts their (anti)limit, which for a linear-recurrence series
is reached exactly after finitely many columns.  A genuine pole at x = 1
shows up as node values growing without bound across the grid and is
reported as DivergentGridError.

All summation runs in ``decimal`` arithmetic at a fixed 50-digit
precision, which absorbs the cancellation of alternating partial sums.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from decimal import Decimal, localcontext
from fractions import Fraction
from typing import Callable, Optional

from .cfinite import CFiniteSeries, axiomatic_sum, characteristic_polynomial

__all__ = [
    "AbelConfig",
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
    """The term budget ran out before the partial sum stabilised."""


class DivergentGridError(ArithmeticError):
    """Node values grow without bound across the grid: pole at x = 1."""


class NotSummableInputError(ValueError):
    """Exact/numeric comparison requested for a non-summable series."""


_FIRST_LEVEL = 3  # the grid starts at x = 1 - 2^-3
_TAIL_REL_TOL = 1e-18  # direct summation tolerance of partial_value
_PRECISION = 50  # decimal digits of all numeric work


@dataclass(frozen=True)
class AbelConfig:
    """Grid and budget for the limit evaluation.

    The grid is x_j = 1 - 2^-j for j = 3..grid_levels+2.
    """

    grid_levels: int = 10
    max_terms: int = 200_000

    def __post_init__(self):
        if self.grid_levels < 3:
            raise ValueError("extrapolation needs at least 3 grid levels")
        if self.max_terms < 100:
            raise ValueError("term budget is unreasonably small")


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


def _growth_radius(series: CFiniteSeries) -> float:
    """Largest root magnitude of the characteristic polynomial.

    Durand-Kerner iteration in complex floats; accuracy around 1e-8 is
    ample for a growth bound, and a small safety inflation is applied.
    """
    poly = characteristic_polynomial(series)
    coeffs = [complex(c) for c in poly.coefficients]
    degree = len(coeffs) - 1
    if degree == 1:
        return abs(coeffs[0]) * (1 + 1e-9)

    def value(z: complex) -> complex:
        acc = 0j
        for c in reversed(coeffs):
            acc = acc * z + c
        return acc

    roots = [(0.4 + 0.9j) ** i for i in range(1, degree + 1)]
    for _ in range(500):
        moved = 0.0
        for i in range(degree):
            denom = 1.0 + 0j
            for j in range(degree):
                if j != i:
                    diff = roots[i] - roots[j]
                    if diff == 0:
                        diff = 1e-12
                    denom *= diff
            step = value(roots[i]) / denom
            roots[i] -= step
            moved = max(moved, abs(step))
        if moved < 1e-13:
            break
    return max(abs(r) for r in roots) * (1 + 1e-9)


def _decimal(q: Fraction) -> Decimal:
    """A rational rounded to the current decimal context."""
    return Decimal(q.numerator) / Decimal(q.denominator)


def _raw_sum(
    series: CFiniteSeries, x_dec: Decimal, cfg: AbelConfig, rel_tol: float, rho: float
) -> Decimal:
    """Partial sum of a_n x^n until the tail bound drops below rel_tol.

    The tail is bounded geometrically from the current term scale: with
    rho the recurrence growth radius and dd the polynomial degree margin,
    |tail_n| <= max recent |a_m x^m| * q/(1 - q) at q = rho*x*e^(dd/n).
    Exhausting the budget first raises NonconvergenceError.
    """
    d = series.order
    dd = max(d - 1, 0)
    q0 = rho * float(x_dec)
    settle_after = 2 * d + 4
    growth_window = max(2 * d, 16)
    recent: list[Decimal] = []
    consecutive = 0
    growing = 0
    s = Decimal(0)
    prev_abs = Decimal(0)
    prev_term = Decimal(0)
    xpow = Decimal(1)
    tol = Decimal(repr(rel_tol))
    futility = Decimal("1e30")
    zeros = 0
    for n, a in zip(range(cfg.max_terms), series.iter_terms()):
        term = _decimal(a) * xpow if a else Decimal(0)
        s += term
        xpow *= x_dec
        size = abs(term)
        recent.append(size)
        if len(recent) > dd + 2:
            recent.pop(0)
        # d zero terms in a row zero the recurrence state: the tail vanishes.
        zeros = 0 if a else zeros + 1
        if zeros >= d:
            return s
        growing = growing + 1 if size > prev_term else 0
        prev_term = size
        if growing >= growth_window and size > futility:
            raise NonconvergenceError(
                f"terms grow without bound at x = {float(x_dec):.6g}"
            )
        if n < settle_after:
            prev_abs = abs(s)
            continue
        q = q0 * math.exp(dd / (n + 1))
        if q < 1:
            ratio = Decimal(repr(q / (1 - q)))
            bound = max(recent) * ratio
            scale = max(abs(s), prev_abs)
            if bound <= tol * scale:
                consecutive += 1
                if consecutive >= 2:
                    return s
            else:
                consecutive = 0
        prev_abs = abs(s)
    raise NonconvergenceError(
        f"term budget {cfg.max_terms} exhausted at x = {float(x_dec):.6g}"
    )


def partial_value(series: CFiniteSeries, x, cfg: Optional[AbelConfig] = None) -> float:
    """Value of sum a_n x^n at a fixed 0 <= x < 1, by direct summation."""
    cfg = cfg or AbelConfig()
    x = Fraction(x)
    if not 0 <= x < 1:
        raise ValueError("evaluation point must satisfy 0 <= x < 1")
    with localcontext() as ctx:
        ctx.prec = _PRECISION
        rho = _growth_radius(series)
        return float(_raw_sum(series, _decimal(x), cfg, _TAIL_REL_TOL, rho))


def _partial_sums(terms: list[Decimal], x_dec: Decimal) -> list[Decimal]:
    """Partial sums S_0 .. S_(len(terms)-1) of sum a_n x^n."""
    out = []
    s = Decimal(0)
    xpow = Decimal(1)
    for a in terms:
        if a:
            s += a * xpow
        xpow *= x_dec
        out.append(s)
    return out


def _wynn_even(sums: list[Decimal], max_col: int):
    """Best even-column epsilon value for a sequence of partial sums.

    Returns (value, settled, residual).  A column that has gone flat to
    working precision is the converged answer; a flat pair inside a column
    that still varies is the classical singular case (repeated recurrence
    roots at resonant x), reported as unsettled so the caller can retry.
    """
    scale = max(abs(s) for s in sums) + 1
    guard = scale * Decimal(10) ** (-(_PRECISION - 8))
    settle = Decimal("1e-12")
    prev = [Decimal(0)] * (len(sums) + 1)
    cur = list(sums)
    even_tails = []
    col = 0
    while col < max_col and len(cur) >= 2:
        new = []
        flat = False
        for i in range(len(cur) - 1):
            delta = cur[i + 1] - cur[i]
            if abs(delta) < guard:
                flat = True
                break
            new.append(prev[i + 1] + 1 / delta)
        if flat:
            spread = max(cur) - min(cur)
            candidate = cur[-1]
            if col % 2 == 0 and spread <= settle * (1 + abs(candidate)):
                return candidate, True, spread
            best = even_tails[-1] if even_tails else sums[-1]
            return best, False, spread
        prev, cur = cur, new
        col += 1
        if col % 2 == 0:
            even_tails.append(cur[-1])
    if len(even_tails) >= 2:
        value = even_tails[-1]
        residual = abs(even_tails[-1] - even_tails[-2])
        return value, residual <= settle * (1 + abs(value)), residual
    value = even_tails[-1] if even_tails else sums[-1]
    return value, False, scale


def _node_value(
    series: CFiniteSeries, terms: list[Decimal], x_dec: Decimal, cfg: AbelConfig, rho: Callable
) -> Decimal:
    """Numeric value of the generating series at one grid node.

    Tries epsilon acceleration on three shifted windows of the partial sums
    of ``terms``, the series' first terms as decimals; if the table stays
    singular but the series converges at this node (``rho()`` gives the
    growth radius), falls back to direct summation at a relaxed tolerance.
    """
    d = series.order
    span = 2 * d + 21
    sums = _partial_sums(terms, x_dec)
    for attempt in range(3):
        start = d + attempt * (d + 7)
        if start + span > cfg.max_terms:
            break
        value, settled, _ = _wynn_even(sums[start:start + span], 2 * d + 4)
        if settled:
            return value
    radius = rho()
    if radius * float(x_dec) < 1:
        return _raw_sum(series, x_dec, cfg, 1e-12, radius)
    raise NonconvergenceError(
        f"node at x = {float(x_dec):.6g} did not stabilise within budget"
    )


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


def abel_estimate(series: CFiniteSeries, cfg: Optional[AbelConfig] = None) -> AbelNumericResult:
    """Estimate the limit of sum a_n x^n as x -> 1 from below.

    Node values on the geometric grid are extrapolated to h = 0; the error
    estimate is the difference of the last two extrapolation columns.
    """
    cfg = cfg or AbelConfig()
    radius = []

    def rho() -> float:
        if not radius:
            radius.append(_growth_radius(series))
        return radius[0]

    with localcontext() as ctx:
        ctx.prec = _PRECISION
        # the last epsilon window of _node_value ends at term 5d + 34
        terms = [_decimal(a) for a in series.terms(min(5 * series.order + 35, cfg.max_terms))]
        levels = range(_FIRST_LEVEL, _FIRST_LEVEL + cfg.grid_levels)
        hs = [Decimal(1) / Decimal(2 ** j) for j in levels]
        values = [_node_value(series, terms, Decimal(1) - h, cfg, rho) for h in hs]
        if _looks_divergent(values):
            raise DivergentGridError(
                "node values grow without bound toward x = 1"
            )
        estimate, error = _neville_at_zero(hs, values)
        return AbelNumericResult(
            estimate=float(estimate),
            error_estimate=abs(float(error)),
            nodes_used=cfg.grid_levels,
            per_node_values=tuple(float(v) for v in values),
        )


def compare_exact(series: CFiniteSeries, cfg: Optional[AbelConfig] = None) -> ComparisonReport:
    """Compare the exact engine sum with the numeric limit estimate.

    Passes when the absolute error stays within max(1e-6, 10x the numeric
    error estimate).  A non-summable series is rejected up front.
    """
    cfg = cfg or AbelConfig()
    outcome = axiomatic_sum(series)
    if not outcome.is_summable:
        raise NotSummableInputError(
            f"series has a pole of order {outcome.pole_order} at x = 1"
        )
    result = abel_estimate(series, cfg)
    abs_error = abs(result.estimate - float(outcome.value))
    tolerance = max(1e-6, 10 * result.error_estimate)
    return ComparisonReport(
        exact=outcome.value,
        estimate=result.estimate,
        abs_error=abs_error,
        passed=abs_error < tolerance,
        nodes=result.nodes_used,
    )
