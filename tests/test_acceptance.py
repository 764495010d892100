"""Acceptance suite: one test per criterion, one printed verdict line each.

Everything except the numeric-consistency criterion is exact arithmetic;
run with ``pytest -s tests/test_acceptance.py`` to see the verdict lines.
"""

import random
import time
from contextlib import contextmanager
from decimal import Decimal, localcontext
from fractions import Fraction

from divsum.abel import compare_exact
from divsum.cfinite import (
    alternating_power_series,
    axiomatic_sum,
    fibonacci_series,
    geometric_series,
    linear_combine,
    odd_alternating_series,
    poly_exp_series,
    recursive_alternating_sum,
    shift,
)
from divsum.polynomials import Polynomial
from divsum.sequences import (
    bernoulli,
    bernoulli_generating_series,
    bernoulli_table,
    cotangent_series,
    euler,
    euler_table,
    secant_series,
    tan_coefficient,
    tangent_series,
    verify_affine_relation,
    verify_even_doubling,
    verify_odd_split,
    verify_peeled_recursion,
    verify_weighted_recursion,
    weighted_bernoulli,
)
from divsum.series import TruncatedSeries

F = Fraction


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"criterion {number} ({description}): FAIL")
        raise
    print(f"criterion {number} ({description}): PASS")


def test_criterion_1_bernoulli_cross_method_agreement():
    with criterion(1, "Bernoulli methods agree through n = 60"):
        reference = bernoulli_table(60, "recurrence").values
        assert bernoulli_table(60, "series").values == reference
        assert bernoulli_table(60, "garabedian").values == reference
        assert reference[1] == F(-1, 2)
        assert reference[2] == F(1, 6)


def test_criterion_2_euler_agreement():
    with criterion(2, "Euler methods agree through n = 40"):
        reference = euler_table(40, "recurrence").values
        assert euler_table(40, "series").values == reference
        assert all(reference[n] == 0 for n in range(1, 41, 2))
        assert all(isinstance(v, int) for v in reference)


def test_criterion_3_triple_alternating_power_agreement():
    with criterion(3, "alternating power sums agree by three routes, k <= 30"):
        for k in range(1, 31):
            engine = axiomatic_sum(alternating_power_series(k)).value
            recursion = recursive_alternating_sum(k)
            weighted = F(2 ** (k + 1) - 1, k + 1) * bernoulli(k + 1)
            assert engine == recursion == weighted == weighted_bernoulli(k)


def test_criterion_4_fibonacci_and_geometric_sums():
    with criterion(4, "Fibonacci sums to -1, geometric to 1/(1-r)"):
        assert axiomatic_sum(fibonacci_series()).value == -1
        for r in (F(-3), F(-1), F(-1, 2), F(1, 2), F(2), F(5)):
            assert axiomatic_sum(geometric_series(r)).value == 1 / (1 - r)


def test_criterion_5_non_summability_classification():
    with criterion(5, "pole orders 1 and 2 classify the non-summable pair"):
        ones = axiomatic_sum(poly_exp_series([1], 1))
        assert not ones.is_summable and ones.pole_order == 1
        naturals_series = poly_exp_series([1, 1], 1)
        naturals = axiomatic_sum(naturals_series)
        assert not naturals.is_summable and naturals.pole_order == 2
        # shift-and-subtract turns 1+2+3+... into 1+1+1+..., still not summable
        chain = linear_combine(1, shift(naturals_series), -1, naturals_series)
        assert chain.terms(10) == [F(1)] * 10
        chained = axiomatic_sum(chain)
        assert not chained.is_summable and chained.pole_order == 1


def test_criterion_6_identity_suites_hold_exactly():
    with criterion(6, "all identity grids hold exactly"):
        for k in range(1, 26):
            assert verify_weighted_recursion(k).holds
            assert verify_odd_split(k).holds
            assert verify_even_doubling(k).holds
        for a in range(1, 6):
            for k in range(1, 21):
                assert verify_peeled_recursion(a, k).holds
        for a, q in ((1, 1), (2, 1), (3, F(1, 2)), (F(1, 2), 2)):
            for k in range(1, 13):
                assert verify_affine_relation(a, q, k).holds


def test_criterion_7_series_identities_at_order_40():
    with criterion(7, "series coefficients at order 40 match the closed forms"):
        order = 40
        ratio = bernoulli_generating_series(order)
        fact = 1
        for k in range(order + 1):
            assert ratio.coefficient(k) * fact == bernoulli(k)
            fact *= k + 1
        sec = secant_series(order)
        fact = 1
        for n in range(order + 1):
            if n % 2 == 1:
                assert sec.coefficient(n) == 0
            else:
                assert sec.coefficient(n) * fact == euler(n)
            fact *= n + 1
        z_tan = TruncatedSeries.monomial(order, 1) * tangent_series(order)
        cot = cotangent_series(order)
        cot_2z = TruncatedSeries([c * 2 ** m for m, c in enumerate(cot.coefficients)])
        assert z_tan == cot - cot_2z
        tan = tangent_series(21)
        for m in range(1, 22, 2):
            assert tan.coefficient(m) == tan_coefficient(m)


def test_criterion_8_numeric_limit_consistency():
    with criterion(8, "numeric limits within 1e-6 of exact sums, under 5 s"):
        started = time.monotonic()
        cases = [alternating_power_series(k) for k in (0, 1, 2, 3, 5, 8)]
        cases.append(fibonacci_series())
        cases.extend(odd_alternating_series(k) for k in (0, 2, 4))
        for series in cases:
            exact = float(axiomatic_sum(series).value)
            report = compare_exact(series)
            assert report.passed
            assert abs(report.estimate - exact) < 1e-6
        tight = compare_exact(alternating_power_series(1))
        assert abs(tight.estimate - 0.25) < 1e-8
        elapsed = time.monotonic() - started
        assert elapsed < 5.0, f"numeric suite took {elapsed:.2f}s"


def _random_corpus(count=100, seed=1789):
    rng = random.Random(seed)
    corpus = []
    while len(corpus) < count:
        degree = rng.randint(0, 4)
        coeffs = [F(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(degree + 1)]
        p = Polynomial(coeffs)
        if p.is_zero:
            continue
        r = F(rng.randint(-9, 9), rng.randint(1, 3))
        if r in (0, 1) or abs(r) > 3:
            continue
        corpus.append((p, r, poly_exp_series(p, r)))
    return corpus


def _convergent_sum_oracle(p, r):
    """High-precision direct summation of p(n) r^n for |r| < 1.

    Works straight from the closed-form terms; no recurrence and no
    generating function involved.
    """
    with localcontext() as ctx:
        ctx.prec = 40
        r_dec = Decimal(r.numerator) / Decimal(r.denominator)
        total = Decimal(0)
        power = Decimal(1)
        quiet = 0
        for n in range(8000):
            value = p.evaluate(n)
            term = Decimal(value.numerator) / Decimal(value.denominator) * power
            total += term
            power *= r_dec
            if abs(term) < Decimal("1e-30") * (1 + abs(total)):
                quiet += 1
                if quiet >= 4:
                    break
            else:
                quiet = 0
        return float(total)


def test_criterion_9_rule_axioms_over_random_corpus():
    with criterion(9, "summation rules hold over 100 random series"):
        corpus = _random_corpus()
        assert len(corpus) == 100
        rng = random.Random(97)
        for _, _, series in corpus:
            total = axiomatic_sum(series).value
            assert axiomatic_sum(shift(series)).value == total - series.term(0)
        for (_, _, s), (_, _, t) in zip(corpus, corpus[1:]):
            alpha = F(rng.randint(-4, 4), rng.randint(1, 3))
            beta = F(rng.randint(-4, 4), rng.randint(1, 3))
            combined = axiomatic_sum(linear_combine(alpha, s, beta, t)).value
            assert combined == alpha * axiomatic_sum(s).value + beta * axiomatic_sum(t).value
        convergent = [(p, r, s) for p, r, s in corpus if abs(r) < 1]
        assert convergent, "corpus should contain convergent members"
        for p, r, series in convergent:
            exact = float(axiomatic_sum(series).value)
            assert abs(_convergent_sum_oracle(p, r) - exact) < 1e-10
