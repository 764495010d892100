import random
from fractions import Fraction

import pytest

from divsum.cfinite import (
    CFiniteSeries,
    SummationOutcome,
    ZeroPolynomialError,
    alternating_power_series,
    axiomatic_sum,
    fibonacci_series,
    generating_function,
    geometric_series,
    linear_combine,
    odd_alternating_series,
    poly_exp_series,
    recursive_alternating_sum,
    shift,
)
from divsum.polynomials import Polynomial
from divsum.sequences import weighted_bernoulli

F = Fraction


class TestConstruction:
    def test_arity_mismatch_rejected(self):
        with pytest.raises(ValueError):
            CFiniteSeries([1, 1], [1])

    def test_empty_recurrence_rejected(self):
        with pytest.raises(ValueError):
            CFiniteSeries([], [])

    def test_zero_polynomial_rejected(self):
        with pytest.raises(ZeroPolynomialError):
            poly_exp_series(Polynomial(), 2)

    def test_zero_ratio_rejected(self):
        with pytest.raises(ValueError):
            poly_exp_series([1], 0)

    def test_json_form(self):
        assert fibonacci_series().to_json() == {
            "recurrence": ["1", "1"],
            "initial": ["1", "1"],
        }


class TestTerms:
    def test_geometric_half(self):
        s = geometric_series(F(1, 2))
        assert s.terms(4) == [F(1), F(1, 2), F(1, 4), F(1, 8)]

    def test_alternating_first_power(self):
        assert alternating_power_series(1).terms(4) == [F(1), F(-2), F(3), F(-4)]

    def test_odd_squares(self):
        assert odd_alternating_series(2).terms(3) == [F(1), F(-9), F(25)]

    def test_fibonacci(self):
        s = fibonacci_series()
        assert s.terms(5) == [1, 1, 2, 3, 5]
        # iterate the recurrence independently
        a, b = 1, 1
        for _ in range(10):
            a, b = b, a + b
        assert s.term(10) == a == 89

    def test_term_matches_closed_form(self):
        p = Polynomial([2, -1, F(1, 3)])
        r = F(-3, 2)
        s = poly_exp_series(p, r)
        for n in range(12):
            assert s.term(n) == p.evaluate(n) * r ** n


def reexpands(series, count):
    """Q * (a_0 + ... + a_(count-1) x^(count-1)) truncated below degree
    count equals P: the series of P/Q starts with those terms."""
    p, q = generating_function(series)
    product = q * Polynomial(series.terms(count))
    return Polynomial(product.coefficients[:count]) == p


class TestGeneratingFunction:
    def test_fibonacci_reexpansion(self):
        assert reexpands(fibonacci_series(), 10)

    def test_alternating_unit_closed_form(self):
        p, q = generating_function(alternating_power_series(0))
        assert p == Polynomial([1])
        assert q == Polynomial([1, 1])

    def test_alternating_first_power_closed_form(self):
        p, q = generating_function(alternating_power_series(1))
        assert p == Polynomial([1])
        assert q == Polynomial([1, 2, 1])  # (1+x)^2

    def test_reexpansion_over_corpus(self):
        corpus = [
            fibonacci_series(),
            alternating_power_series(3),
            odd_alternating_series(2),
            geometric_series(F(-1, 2)),
            poly_exp_series([1, 2, 1], F(5, 3)),
        ]
        for s in corpus:
            assert reexpands(s, 25)


class TestAxiomaticSum:
    def test_fibonacci(self):
        assert axiomatic_sum(fibonacci_series()).value == -1

    def test_alternating_unit(self):
        assert axiomatic_sum(alternating_power_series(0)).value == F(1, 2)

    @pytest.mark.parametrize("r", [F(-3), F(-1), F(-1, 2), F(1, 2), F(2), F(5)])
    def test_geometric_law(self, r):
        assert axiomatic_sum(geometric_series(r)).value == 1 / (1 - r)

    def test_all_ones_not_summable(self):
        outcome = axiomatic_sum(poly_exp_series([1], 1))
        assert not outcome.is_summable
        assert outcome.pole_order == 1

    def test_naturals_not_summable(self):
        outcome = axiomatic_sum(poly_exp_series([1, 1], 1))
        assert not outcome.is_summable
        assert outcome.pole_order == 2

    def test_removable_factor_is_not_a_pole(self):
        # termwise zero series built with (x-1) factors in its recurrence
        naturals = poly_exp_series([1, 1], 1)
        diff = linear_combine(1, naturals, -1, naturals)
        assert all(t == 0 for t in diff.terms(10))
        assert axiomatic_sum(diff).value == 0


def series_with(char, initial):
    """Series whose recurrence has the monic characteristic polynomial char."""
    d = char.degree
    return CFiniteSeries([-char.coefficient(d - j) for j in range(1, d + 1)], initial)


def verdict_corpus(rng, size):
    """Recurrences (x - 1)^pole * R(x) * x^zeros, where R may have zero
    coefficients and the x factors zero the trailing recurrence
    coefficients.  Half the series take their initial terms from the
    recurrence of R times fewer factors x - 1, so the missing factors
    cancel between P and Q (the series is zero when that divisor is 1)."""
    x_minus_1 = Polynomial([-1, 1])
    corpus = []
    for _ in range(size):
        pole = rng.randint(0, 3)
        other = Polynomial(
            [F(rng.choice([-2, -1, 0, 0, 1, 3]), rng.choice([1, 2])) for _ in range(rng.randint(0, 2))]
            + [1]
        )
        zeros = rng.randint(0, 2) or int(pole + other.degree == 0)
        char = x_minus_1 ** pole * other * Polynomial([0, 1]) ** zeros
        d = char.degree
        if rng.random() < 0.5:
            initial = [F(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(d)]
        else:
            divisor = x_minus_1 ** rng.randint(0, max(pole - 1, 0)) * other
            if divisor.degree == 0:
                initial = [F(0)] * d
            else:
                seed = [F(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(divisor.degree)]
                initial = series_with(divisor, seed).terms(d)
        corpus.append(series_with(char, initial))
    return corpus


class TestVerdictAtOne:
    def test_alternating_sums_agree_by_three_routes(self):
        for k in [*range(41), 50, 75, 100, 150, 199, 200]:
            assert axiomatic_sum(alternating_power_series(k)).value == \
                recursive_alternating_sum(k) == weighted_bernoulli(k)

    def test_matches_sympy_reduction(self):
        sympy = pytest.importorskip("sympy")
        x = sympy.Symbol("x")

        def expr(poly):
            return sum(
                (sympy.Rational(c.numerator, c.denominator) * x ** i
                 for i, c in enumerate(poly.coefficients)),
                sympy.Integer(0),
            )

        poles, removable, eventually_zero, zero_sums = set(), 0, 0, 0
        for s in verdict_corpus(random.Random(41), 150):
            p, q = generating_function(s)
            num, den = sympy.fraction(sympy.cancel(expr(p) / expr(q)))
            den = sympy.Poly(den, x)
            order = 0
            while den.eval(1) == 0:
                den = den.quo(sympy.Poly(x - 1, x))
                order += 1
            outcome = axiomatic_sum(s)
            if order:
                assert outcome.pole_order == order
                poles.add(order)
                continue
            value = num.subs(x, 1) / den.eval(1)
            assert outcome.value == F(int(value.p), int(value.q))
            removable += q.evaluate(1) == 0
            eventually_zero += not any(s.recurrence)
            zero_sums += value == 0
        assert {1, 2, 3} <= poles
        assert min(removable, eventually_zero, zero_sums) > 0


class TestOutcome:
    def test_exactly_one_branch(self):
        with pytest.raises(ValueError):
            SummationOutcome()
        with pytest.raises(ValueError):
            SummationOutcome(value=F(1), pole_order=1)

    def test_json_forms(self):
        assert SummationOutcome.summable(F(-1)).to_json() == {"sum": "-1"}
        assert SummationOutcome.not_summable(2).to_json() == {
            "not_summable": {"pole_order": 2}
        }


class TestShift:
    def test_drops_first_term(self):
        s = shift(alternating_power_series(0))
        assert s.terms(3) == [F(-1), F(1), F(-1)]

    def test_translation_on_fibonacci(self):
        assert axiomatic_sum(shift(fibonacci_series())).value == -2

    def test_shift_of_geometric_is_scaled_geometric(self):
        r = F(2, 3)
        s = shift(geometric_series(r))
        assert s.terms(5) == [r ** (n + 1) for n in range(5)]


class TestLinearCombine:
    def test_peeling_identity_terms(self):
        # (1-2+3-4+...) + (0+1-2+3-...) = 1-1+1-1+...
        s1 = alternating_power_series(1)
        prepended = poly_exp_series([0, -1], -1)  # terms 0, 1, -2, 3, ...
        assert prepended.terms(4) == [F(0), F(1), F(-2), F(3)]
        combined = linear_combine(1, s1, 1, prepended)
        assert combined.terms(8) == alternating_power_series(0).terms(8)
        assert axiomatic_sum(combined).value == F(1, 2)

    def test_peeling_identity_via_shift(self):
        # adding the shifted copy instead gives the negated unit series
        s1 = alternating_power_series(1)
        combined = linear_combine(1, s1, 1, shift(s1))
        assert combined.terms(8) == [-t for t in alternating_power_series(0).terms(8)]
        assert axiomatic_sum(combined).value == F(-1, 2)

    def test_trivial_combination(self):
        s = fibonacci_series()
        combined = linear_combine(1, s, 0, geometric_series(2))
        assert combined.terms(8) == s.terms(8)

    def test_self_cancellation(self):
        s2 = alternating_power_series(2)
        cancelled = linear_combine(1, s2, -1, s2)
        assert all(t == 0 for t in cancelled.terms(8))
        assert axiomatic_sum(cancelled).value == 0


class TestRecursiveSum:
    def test_base_values(self):
        assert recursive_alternating_sum(0) == F(1, 2)
        assert recursive_alternating_sum(1) == F(1, 4)
        assert recursive_alternating_sum(2) == 0
        # unrolled by hand: 2 S(3) = 1/2 - 3*(1/4) - 3*0 = -1/4
        assert recursive_alternating_sum(3) == F(-1, 8)

    def test_agrees_with_engine(self):
        for k in range(13):
            assert axiomatic_sum(alternating_power_series(k)).value == \
                recursive_alternating_sum(k)


class TestRuleProperties:
    def _random_series(self, rng):
        while True:
            coeffs = [F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(rng.randint(1, 4))]
            p = Polynomial(coeffs)
            if p.is_zero:
                continue
            r = F(rng.randint(-8, 8), rng.randint(1, 4))
            if r in (0, 1) or abs(r) > 3:
                continue
            return poly_exp_series(p, r)

    def test_translation_rule(self):
        rng = random.Random(23)
        for _ in range(25):
            s = self._random_series(rng)
            total = axiomatic_sum(s).value
            assert axiomatic_sum(shift(s)).value == total - s.term(0)

    def test_linearity_rule(self):
        rng = random.Random(29)
        for _ in range(25):
            s, t = self._random_series(rng), self._random_series(rng)
            alpha = F(rng.randint(-5, 5), rng.randint(1, 3))
            beta = F(rng.randint(-5, 5), rng.randint(1, 3))
            combined = axiomatic_sum(linear_combine(alpha, s, beta, t)).value
            assert combined == alpha * axiomatic_sum(s).value + beta * axiomatic_sum(t).value
