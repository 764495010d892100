"""Exact rational arithmetic as divsum does it.

Binomial rows are read from ``math.comb``, factorials from the stepped
chains of the series routes, and rationals are read by the series parser and
printed by the CLI in the canonical ``p/q`` or ``p`` form.
"""

import random
from fractions import Fraction
from itertools import accumulate
from math import comb
from operator import mul

import pytest

from divsum.cli import run_command
from divsum.parsing import parse_series
from divsum.polynomials import Polynomial, cauchy_product
from divsum.sequences import _even_factorial_chain, _factorials, bernoulli_generating_series
from divsum.series import TruncatedSeries


def binomial_product_oracle(n, k):
    """Multiplicative form prod_{i=1..k} (n - k + i) / i, exact."""
    acc = Fraction(1)
    for i in range(1, k + 1):
        acc *= Fraction(n - k + i, i)
    assert acc.denominator == 1
    return acc.numerator


def factorial_product_oracle(n):
    acc = 1
    for i in range(2, n + 1):
        acc *= i
    return acc


def binomial_row(n):
    """Coefficients of (1 + x)^n."""
    return lambda k: comb(n, k)


class TestBinomial:
    def test_small_values(self):
        assert binomial_row(5)(2) == 10
        assert binomial_row(7)(0) == 1
        assert binomial_row(6)(6) == 1

    def test_k_beyond_n_is_zero(self):
        assert binomial_row(3)(5) == 0
        assert binomial_row(0)(1) == 0

    def test_against_product_oracle(self):
        assert binomial_row(60)(30) == binomial_product_oracle(60, 30)
        assert binomial_row(41)(7) == binomial_product_oracle(41, 7)

    def test_pascal_rule(self):
        prev = [Fraction(1)]
        for n in range(1, 26):
            row = cauchy_product(prev, [1, 1], n + 1)
            assert row == [comb(n, k) for k in range(n + 1)]
            for k in range(1, n):
                assert row[k] == prev[k - 1] + prev[k]
            prev = row

    def test_negative_arguments_rejected(self):
        with pytest.raises(ValueError):
            TruncatedSeries.monomial(4, -2)


class TestFactorial:
    def test_values(self):
        facts = list(_factorials(20))
        assert facts[0] == 1
        assert facts[5] == 120
        assert facts[20] == factorial_product_oracle(20)
        assert facts[20] == 2432902008176640000

    def test_even_chains_step_the_factorials(self):
        # the running products of the reciprocal kernel's chains are (2j + s)!
        for s in (0, 1):
            steps = accumulate(_even_factorial_chain(20, s), mul)
            assert list(steps) == [factorial_product_oracle(2 * j + s) for j in range(21)]

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            bernoulli_generating_series(-3)


class TestRationalArith:
    def test_field_axioms_spot_check(self):
        rng = random.Random(11)
        for _ in range(100):
            a, b, c = (
                Polynomial(
                    Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                    for _ in range(rng.randint(0, 4))
                )
                for _ in range(3)
            )
            assert (a + b) + c == a + (b + c)
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert a + b == b + a
            assert a * b == b * a


class TestStringForm:
    def test_canonical_strings(self, capsys):
        for argv, text in (
            (["bernoulli", "1"], "-1/2"),
            (["bernoulli", "2"], "1/6"),
            (["bernoulli", "3"], "0"),
            (["euler", "4"], "5"),
            (["sum", "rec a(n)=-3*a(n-1); init 2/4"], "1/8"),
        ):
            assert run_command(argv) == 0
            assert capsys.readouterr().out == f"{text}\n"

    def test_parse_round_trip(self):
        for text in ("1/2", "-7/3", "42", "0", "-5"):
            series = parse_series(f"rec a(n)=2*a(n-1); init {text}")
            assert series.initial == (Fraction(text),)
            assert str(series.initial[0]) == text
        assert parse_series("rec a(n)=2*a(n-1); init  6 / 4 ").initial == (Fraction(3, 2),)

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_series("rec a(n)=2*a(n-1); init one half")
