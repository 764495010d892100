import random
from fractions import Fraction

import pytest

from divsum.rationals import (
    binomial,
    factorial,
    format_rational,
    parse_rational,
)


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


class TestBinomial:
    def test_small_values(self):
        assert binomial(5, 2) == 10
        assert binomial(7, 0) == 1
        assert binomial(6, 6) == 1

    def test_k_beyond_n_is_zero(self):
        assert binomial(3, 5) == 0
        assert binomial(0, 1) == 0

    def test_against_product_oracle(self):
        assert binomial(60, 30) == binomial_product_oracle(60, 30)
        assert binomial(41, 7) == binomial_product_oracle(41, 7)

    def test_pascal_rule(self):
        for n in range(2, 26):
            for k in range(1, n):
                assert binomial(n, k) == binomial(n - 1, k - 1) + binomial(n - 1, k)

    def test_negative_arguments_rejected(self):
        with pytest.raises(ValueError):
            binomial(-1, 0)
        with pytest.raises(ValueError):
            binomial(4, -2)


class TestFactorial:
    def test_values(self):
        assert factorial(0) == 1
        assert factorial(5) == 120
        assert factorial(20) == factorial_product_oracle(20)
        assert factorial(20) == 2432902008176640000

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            factorial(-3)


class TestRationalArith:
    def test_field_axioms_spot_check(self):
        rng = random.Random(11)
        for _ in range(100):
            a, b, c = (
                Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(3)
            )
            assert (a + b) + c == a + (b + c)
            assert a * (b + c) == a * b + a * c
            assert a + b == b + a


class TestStringForm:
    def test_canonical_strings(self):
        assert format_rational(Fraction(2, 4)) == "1/2"
        assert format_rational(Fraction(-1, 2)) == "-1/2"
        assert format_rational(Fraction(5)) == "5"
        assert format_rational(Fraction(0)) == "0"

    def test_parse_round_trip(self):
        for text in ("1/2", "-7/3", "42", "0", "-5"):
            assert format_rational(parse_rational(text)) == text

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_rational("one half")
