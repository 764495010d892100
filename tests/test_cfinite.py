import random
from collections import deque
from fractions import Fraction
from itertools import chain, islice
from math import comb, gcd, prod

import pytest

from divsum import cfinite
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
from divsum.parsing import parse_series
from divsum.polynomials import Polynomial
from divsum.sequences import _tangent_weights, euler_table, weighted_bernoulli

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

    @pytest.mark.parametrize("build", [alternating_power_series, odd_alternating_series])
    def test_negative_power_rejected(self, build):
        with pytest.raises(ValueError, match="^power must be nonnegative$"):
            build(-1)

    def test_fractions_are_kept(self):
        c, a = F(1, 3), F(-2, 5)
        s = CFiniteSeries([c, 1], [a, 2])
        assert s.recurrence[0] is c
        assert s.initial[0] is a
        assert s.recurrence[1] == 1 and type(s.recurrence[1]) is Fraction
        assert type(s.initial[1]) is Fraction

    def test_repr(self):
        s = CFiniteSeries([F(1, 2), -1], [3, F(-4, 7)])
        assert repr(s) == "CFiniteSeries(recurrence=[1/2, -1], initial=[3, -4/7])"

    def test_equality_and_hash_follow_recurrence_and_initial_terms(self):
        a, b = CFiniteSeries([1, 1], [1, 1]), fibonacci_series()
        assert a == b
        assert hash(a) == hash(b)
        assert a != CFiniteSeries([1, 1], [0, 1])
        assert a != CFiniteSeries([1, 1, 0], [1, 1, 2])
        assert len({a, b, CFiniteSeries([1, 1], [0, 1])}) == 2

    def test_other_types_compare_unequal(self):
        s = fibonacci_series()
        assert s.__eq__(((F(1), F(1)), (F(1), F(1)))) is NotImplemented
        assert s != ((F(1), F(1)), (F(1), F(1)))

    @pytest.mark.parametrize("name", ["recurrence", "initial", "order", "unknown"])
    def test_immutable(self, name):
        s = fibonacci_series()
        with pytest.raises(AttributeError):
            setattr(s, name, (F(2),))
        with pytest.raises(AttributeError):
            delattr(s, name)
        assert s == CFiniteSeries([1, 1], [1, 1])

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

    @pytest.mark.parametrize("p, r", [([1], 2), ([2, -1, F(1, 3)], F(-3, 2)), ([0, 0, 1], -1)])
    def test_wrong_recurrence_fails_the_closed_form_check(self, monkeypatch, p, r):
        corrupt_binomial_row(monkeypatch)
        with pytest.raises(ArithmeticError, match="recurrence disagrees with closed form"):
            poly_exp_series(p, r)

    @pytest.mark.parametrize("build", [alternating_power_series, odd_alternating_series])
    @pytest.mark.parametrize("k", [0, 1, 6, 41])
    def test_wrong_recurrence_fails_the_check_on_the_pow_path(self, monkeypatch, build, k):
        # the values (n+1)^k and (2n+1)^k come from int pow, not from Horner
        corrupt_binomial_row(monkeypatch)
        with pytest.raises(ArithmeticError, match="recurrence disagrees with closed form"):
            build(k)


    def test_wrong_recurrence_fails_the_check_on_the_parser_path(self, monkeypatch):
        corrupt_binomial_row(monkeypatch)
        with pytest.raises(ArithmeticError, match="recurrence disagrees with closed form"):
            parse_series("poly (1/2 n + 1)^3 ratio -5/3")

    def test_pow_values_match_horner_values(self):
        # int pow and Horner over the binomial-coefficient polynomials give
        # the same series: the same recurrence and the same initial terms
        for k in [*range(81), 300]:
            plus_one = Polynomial([comb(k, j) for j in range(k + 1)])  # (n + 1)^k
            two_n_plus_one = Polynomial([comb(k, j) * 2 ** j for j in range(k + 1)])
            assert alternating_power_series(k) == poly_exp_series(plus_one, -1)
            assert odd_alternating_series(k) == poly_exp_series(two_n_plus_one, -1)


def corrupt_binomial_row(monkeypatch):
    """Make the kernel's binomial step return C(d, d) + 1 for C(d, d): the
    recurrence it builds is then wrong in its last coefficient."""
    row = cfinite._binomial_row
    monkeypatch.setattr(cfinite, "_binomial_row", lambda d: [*row(d)[:-1], row(d)[-1] + 1])


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
        char = prod([x_minus_1] * pole + [other] + [Polynomial([0, 1])] * zeros, start=Polynomial([1]))
        d = char.degree
        if rng.random() < 0.5:
            initial = [F(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(d)]
        else:
            divisor = prod([x_minus_1] * rng.randint(0, max(pole - 1, 0)), start=other)
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


def reference_pair(series):
    """The Fraction construction that the integer kernel replaced:
    Q = 1 - sum c_j x^j and P = Q * init truncated below degree d."""
    q = [F(1)] + [-c for c in series.recurrence]
    init = series.initial
    p = [sum((q[i] * init[k - i] for i in range(k + 1)), F(0))
         for k in range(series.order)]
    return Polynomial(p), Polynomial(q)


def reference_taylor_at_one(poly):
    """Order at 1 and first nonzero Taylor coefficient there, from the
    comb sums c_j = sum_i C(i, j) a_i."""
    a = poly.coefficients
    for j in range(len(a)):
        c = sum((comb(i, j) * a[i] for i in range(j, len(a))), F(0))
        if c:
            return j, c


def reference_sum(series):
    p, q = reference_pair(series)
    if p.is_zero:
        return SummationOutcome.summable(0)
    m_p, c_p = reference_taylor_at_one(p)
    m_q, c_q = reference_taylor_at_one(q)
    if m_q > m_p:
        return SummationOutcome.not_summable(m_q - m_p)
    return SummationOutcome.summable(c_p / c_q if m_p == m_q else 0)


PRIME_DENOMINATORS = (3, 5, 7, 11, 13)


def kernel_corpus(rng, size):
    """Recurrences (x - 1)^pole * R(x) * x^zeros with pole 0..4 and R's
    coefficients over coprime prime denominators, some of them zero.  The
    initial terms are random rationals with zeros among them, all zero
    (P = 0), or the terms of the recurrence of a divisor of the
    characteristic polynomial, so factors x - 1 cancel between P and Q."""
    x_minus_1 = Polynomial([-1, 1])

    def rational():
        if rng.random() < 0.25:
            return F(0)
        return F(rng.randint(-9, 9) or 1, rng.choice((1, 2, 4) + PRIME_DENOMINATORS))

    corpus = []
    for i in range(size):
        pole = i % 5
        other = Polynomial([rational() for _ in range(rng.randint(0, 3))] + [1])
        zeros = rng.randint(0, 2) or int(pole + other.degree == 0)
        char = prod([x_minus_1] * pole + [other] + [Polynomial([0, 1])] * zeros, start=Polynomial([1]))
        d = char.degree
        mode = rng.random()
        if mode < 0.1:
            initial = [F(0)] * d
        elif mode < 0.55:
            initial = [rational() for _ in range(d)]
        else:
            divisor = prod([x_minus_1] * rng.randint(0, max(pole - 1, 0)), start=other)
            if divisor.degree == 0:
                initial = [F(0)] * d
            else:
                seed = [rational() for _ in range(divisor.degree)]
                initial = series_with(divisor, seed).terms(d)
        corpus.append(series_with(char, initial))
    return corpus


class TestIntegerKernel:
    def test_matches_the_fraction_construction(self):
        poles, removable, zero_p, zero_coefficient, zero_initial, primes = set(), 0, 0, 0, 0, 0
        for s in kernel_corpus(random.Random(9), 150):
            p, q = reference_pair(s)
            assert generating_function(s) == (p, q)
            outcome = axiomatic_sum(s)
            assert outcome == reference_sum(s)
            if outcome.pole_order:
                poles.add(outcome.pole_order)
            removable += outcome.is_summable and q.evaluate(1) == 0 and not p.is_zero
            zero_p += p.is_zero
            zero_coefficient += 0 in s.recurrence
            zero_initial += 0 in s.initial and any(s.initial)
            dens = {c.denominator for c in s.recurrence + s.initial}
            primes += len(dens.intersection(PRIME_DENOMINATORS)) >= 2
        assert poles == {1, 2, 3, 4}
        assert min(removable, zero_p, zero_coefficient, zero_initial, primes) > 0

    def test_verdict_forms_no_p(self, monkeypatch):
        def no_product(*args):
            raise AssertionError("the verdict formed P")

        monkeypatch.setattr(cfinite, "cauchy_product", no_product)
        for s in kernel_corpus(random.Random(9), 150):
            assert axiomatic_sum(s) == reference_sum(s)

    def test_large_k(self):
        assert axiomatic_sum(alternating_power_series(500)).value == weighted_bernoulli(500)
        for k in (999, 1999):
            w, d = _tangent_weights(k)
            assert axiomatic_sum(alternating_power_series(k)).value == F(w[k], d)
        e = euler_table(600).values
        for k in [*range(41), 300, 600]:
            expected = F((-1) ** (k // 2) * e[k], 2) if k % 2 == 0 else 0
            assert axiomatic_sum(odd_alternating_series(k)).value == expected


def reference_terms(series, count):
    """The Fraction loop that the integer term generator replaced: each
    step sums c_j * a_(n-j) over a deque of the last d terms."""
    out = list(series.initial[:count])
    window = deque(series.initial, maxlen=series.order)
    while len(out) < count:
        window.append(sum(c * a for c, a in zip(series.recurrence, reversed(window))))
        out.append(window[-1])
    return out


def pair_corpus(rng):
    """Series for the integer term stream: sigma and odd k = 0..30, ratio
    denominators 1..17, random recurrences with zero coefficients and zero
    initial terms, and recurrences whose terms are eventually zero."""
    corpus = [build(k) for build in (alternating_power_series, odd_alternating_series)
              for k in range(31)]
    for q in range(1, 18):
        corpus.append(geometric_series(F(rng.choice((-1, 1)) * (rng.randint(0, 3) * q + 1), q)))
        corpus.append(poly_exp_series([rng.randint(-5, 5), 1, F(1, q)], F(rng.choice((-1, 1)) * (q + 1), q)))

    def rational():
        return F(0) if rng.random() < 0.3 else F(rng.randint(-9, 9), rng.randint(1, 17))

    for _ in range(80):
        d = rng.randint(1, 6)
        corpus.append(CFiniteSeries([rational() for _ in range(d)], [rational() for _ in range(d)]))
    corpus += [
        CFiniteSeries([0, 0, 0], [2, -1, 5]),
        CFiniteSeries([F(1, 2), 0], [7, 0]),
        CFiniteSeries([3, 0, 0], [F(1, 3), F(2, 5), 0]),
        CFiniteSeries([F(-4, 17), 0, 0, 0], [0, 0, 0, 0]),
    ]
    return corpus


class TestTermGenerator:
    def test_pairs_are_the_terms_in_lowest_terms(self):
        zero_terms = eventually_zero = 0
        ratio_dens = set()
        for s in pair_corpus(random.Random(29)):
            count = 5 * s.order + 35
            pairs = list(islice(s._term_pairs(), count))
            terms = s.terms(count)
            assert pairs == [(a.numerator, a.denominator) for a in terms]
            assert terms == reference_terms(s, count)
            assert all(type(p) is int and type(q) is int and q > 0 and gcd(p, q) == 1
                       for p, q in pairs)
            zero_terms += 0 in terms[:-s.order] and any(terms[-s.order:])
            eventually_zero += not any(terms[-s.order:])
            if s.order == 1:
                ratio_dens.add(s.recurrence[0].denominator)
        assert min(zero_terms, eventually_zero) > 0
        assert ratio_dens >= set(range(1, 18))

    def test_matches_the_fraction_loop_on_the_kernel_corpus(self):
        for s in kernel_corpus(random.Random(9), 150):
            count = 5 * s.order + 35
            got = s.terms(count)
            assert got == reference_terms(s, count)
            assert all(type(a) is Fraction for a in got)

    @pytest.mark.parametrize("series", [
        alternating_power_series(60),
        poly_exp_series(Polynomial([comb(40, j) for j in range(41)]), F(255, 256)),
        CFiniteSeries([0, 0, 0], [1, F(-2, 3), 5]),
        CFiniteSeries([F(1, 3), 0, F(-2, 7), 0, F(5, 256)], [F(1, 7), 0, F(3, 256), -1, F(2, 3)]),
    ], ids=["sigma 60", "(n+1)^40 (255/256)^n", "all-zero recurrence", "sparse, dens 3 7 256"])
    def test_matches_the_fraction_loop(self, series):
        count = 5 * series.order + 35
        assert series.terms(count) == reference_terms(series, count)

    @pytest.mark.parametrize("n", [0, 1, 4, 5, 17, 40])
    def test_term_is_the_last_of_terms(self, n):
        s = CFiniteSeries([F(1, 2), F(1, 3), F(-1, 7)], [1, F(-1, 5), F(2, 9)])
        assert s.term(n) == s.terms(n + 1)[-1] == reference_terms(s, n + 1)[-1]

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError, match="^term count must be nonnegative$"):
            fibonacci_series().terms(-1)
        assert fibonacci_series().terms(0) == []

    def test_negative_index_rejected(self):
        with pytest.raises(IndexError, match="^term index must be nonnegative$"):
            fibonacci_series().term(-1)


class TestOutcome:
    def test_exactly_one_branch(self):
        with pytest.raises(ValueError):
            SummationOutcome()
        with pytest.raises(ValueError):
            SummationOutcome(value=F(1), pole_order=1)

    def test_pole_order_must_be_positive(self):
        with pytest.raises(ValueError, match="^pole order must be positive$"):
            SummationOutcome.not_summable(0)

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
        with pytest.raises(ValueError, match="^index must be nonnegative$"):
            recursive_alternating_sum(-1)

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
        # the kernel corpus adds poles of order 1-4, removable factors at 1
        # and P = 0; a pole keeps its order under the shift
        rng = random.Random(23)
        corpus = [self._random_series(rng) for _ in range(25)]
        poles = set()
        for s in corpus + kernel_corpus(random.Random(31), 150):
            outcome, shifted = axiomatic_sum(s), axiomatic_sum(shift(s))
            if outcome.is_summable:
                assert shifted.value == outcome.value - s.term(0)
            else:
                assert shifted.pole_order == outcome.pole_order
                poles.add(outcome.pole_order)
        assert {1, 2, 3, 4} <= poles

    def test_linearity_rule(self):
        rng = random.Random(29)
        summable = [s for s in kernel_corpus(random.Random(37), 150)
                    if axiomatic_sum(s).is_summable]
        kernel_pairs = list(zip(summable[::2], summable[1::2]))
        assert len(kernel_pairs) >= 30
        random_pairs = ((self._random_series(rng), self._random_series(rng)) for _ in range(25))
        for s, t in chain(random_pairs, kernel_pairs):
            alpha = F(rng.randint(-5, 5), rng.randint(1, 3))
            beta = F(rng.randint(-5, 5), rng.randint(1, 3))
            combined = axiomatic_sum(linear_combine(alpha, s, beta, t)).value
            assert combined == alpha * axiomatic_sum(s).value + beta * axiomatic_sum(t).value
