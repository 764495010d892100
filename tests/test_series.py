import random
import re
from fractions import Fraction
from itertools import accumulate
from math import factorial, gcd, lcm
from operator import mul

import pytest

from divsum.sequences import (
    _even_factorial_chain,
    bernoulli_generating_series,
    cotangent_series,
    secant_series,
    tangent_series,
)
from divsum.series import TruncatedSeries, _reciprocal_numerators

F = Fraction


def _taylor(order, pattern, shift=0):
    """The tests' own Taylor series: coefficient k is
    pattern[k % len(pattern)] / (k + shift)!."""
    return TruncatedSeries(
        [F(pattern[k % len(pattern)], factorial(k + shift)) for k in range(order + 1)])


EXP, SIN, COS = (1,), (0, 1, 0, -1), (1, 0, -1, 0)  # (e^z - 1)/z is EXP at shift 1


class TestArithmetic:
    def test_add_zero_is_identity(self):
        f = _taylor(6, EXP)
        assert f + TruncatedSeries([0] * 7) == f

    def test_add_negation_gives_zero(self):
        f = _taylor(4, EXP)
        assert f + (-f) == TruncatedSeries([0] * 5)

    def test_result_order_is_min_of_operands(self):
        f = _taylor(8, EXP)
        g = _taylor(5, COS)
        assert (f + g).order == 5
        assert (f * g).order == 5

    def test_mul_one_is_identity(self):
        f = _taylor(7, SIN)
        assert f * TruncatedSeries.monomial(7, 0) == f

    def test_mul_matches_hand_cauchy_product(self):
        f = TruncatedSeries([1, 2, 3])
        g = TruncatedSeries([4, 5, 6])
        # (1 + 2z + 3z^2)(4 + 5z + 6z^2) = 4 + 13z + 28z^2 + O(z^3)
        assert (f * g).coefficients == (F(4), F(13), F(28))

    @pytest.mark.parametrize("spelling, message", [
        (lambda s: s + 1, "for +: 'TruncatedSeries' and 'int'"),
        (lambda s: s - 1, "for -: 'TruncatedSeries' and 'int'"),
        (lambda s: s * 2, "for *: 'TruncatedSeries' and 'int'"),
        (lambda s: 2 * s, "for *: 'int' and 'TruncatedSeries'"),
    ], ids=["s+1", "s-1", "s*2", "2*s"])
    def test_non_series_operand_is_a_type_error(self, spelling, message):
        with pytest.raises(TypeError, match=re.escape(f"unsupported operand type(s) {message}")):
            spelling(TruncatedSeries([1, 2]))


def _fraction_reciprocal(coeffs):
    # The Fraction triangular recursion g_n = -(1/c_0) sum_{j=1..n} c_j g_{n-j},
    # kept as the oracle for the integer reciprocal kernel and its routes.
    inv0 = 1 / coeffs[0]
    out = [inv0]
    for n in range(1, len(coeffs)):
        acc = sum((coeffs[j] * out[n - j] for j in range(1, n + 1)), F(0))
        out.append(-inv0 * acc)
    return tuple(out)


_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97)


class TestReciprocalNumerators:
    """The kernel's pairs (G_n, L_n) for the series c_j = 1 / (rho_0 ... rho_j):
    each G_n / L_n is the coefficient g_n of its reciprocal, and L_n is the
    lcm of the reduced denominators of g_0..g_n."""

    @staticmethod
    def _series_of(rho):
        return [F(1, v) for v in accumulate(rho, mul)]

    def _check(self, rho):
        expected = _fraction_reciprocal(self._series_of(rho))
        pairs = _reciprocal_numerators(rho)
        assert len(pairs) == len(rho)
        for n, (g, den) in enumerate(pairs):
            assert F(g, den) == expected[n]
            assert den == lcm(*(x.denominator for x in expected[: n + 1]))
        return pairs

    @pytest.mark.parametrize("order", [0, 1, 2, 3, 40])
    def test_pairs_are_the_recursion_over_the_running_lcm(self, order):
        # random chains, rho_0 included: unit steps, small ints and powers of
        # 25 primes, so that successive steps often share no factor
        rng = random.Random(order)
        units = unreduced = 0
        for _ in range(30):
            rho = [rng.choice((1, 1, rng.randint(2, 12), rng.choice(_PRIMES) ** rng.randint(1, 2)))
                   for _ in range(order + 1)]
            pairs = self._check(rho)
            units += rho.count(1)
            unreduced += sum(gcd(g, den) > 1 for g, den in pairs)
        if order == 40:
            assert min(units, unreduced) > 15

    @pytest.mark.parametrize("rho", [
        [1], [7], [1] * 30, [2] * 20, [10 ** 30, 1, 1], list(range(1, 31)),
        [1] * 20 + [101 ** 3, 2], [6, 3, 2] * 10,
    ], ids=["one", "order0", "units", "geometric", "big_rho0", "exp", "late_prime", "cycle"])
    def test_unusual_chains(self, rho):
        self._check(rho)

    @pytest.mark.parametrize("s", [0, 1], ids=["cosh", "sinh_over_z"])
    def test_even_factorial_chains(self, s):
        self._check(_even_factorial_chain(60, s))


class TestSequenceSeriesRoutes:
    @pytest.mark.parametrize("s", [1, 0], ids=["sinh_over_z", "cosh"])
    def test_builder_chains_step_the_even_factorials(self, s):
        # the chain the series builders hand the kernel: its running products
        # are (2j + s)!, the denominators of sinh(z)/z (s = 1) and of cosh z
        # (s = 0) in w = z^2; at n < 0 it holds the constant term alone
        for n in range(-3, 81):
            assert list(accumulate(_even_factorial_chain(n, s), mul)) == \
                [factorial(2 * j + s) for j in range(max(n, 0) + 1)]

    @pytest.mark.parametrize("order", [*range(61), 300])
    def test_edge_orders_match_fraction_recursion(self, order):
        # the chain routes against the routes they replaced: the Bernoulli
        # route sets B_1 itself, where its factor 2 - 2^m is zero; sec z was
        # 1/cos z, and z cot z the even part of z/(e^z - 1) at z -> 2iz
        bernoulli = bernoulli_generating_series(order)
        secant = secant_series(order)
        cotangent = cotangent_series(order)
        assert bernoulli.coefficients == _fraction_reciprocal(_taylor(order, EXP, 1).coefficients)
        assert secant.coefficients == _fraction_reciprocal(_taylor(order, COS).coefficients)
        assert cotangent.coefficients == tuple(
            F(0) if m % 2 else c * (-1) ** (m // 2) * 4 ** (m // 2)
            for m, c in enumerate(bernoulli.coefficients))
        for series in (bernoulli, secant, cotangent):
            assert all(type(c) is F for c in series.coefficients)

    @pytest.mark.parametrize("order", [*range(61), 300])
    def test_tangent_matches_sin_sec_product(self, order):
        # tan z off the tangent numbers against the product it replaced,
        # sin z times sec z = 1/cos z, both built here in Fractions
        secant = TruncatedSeries(_fraction_reciprocal(_taylor(order, COS).coefficients))
        tangent = tangent_series(order)
        assert tangent == _taylor(order, SIN) * secant
        assert all(type(c) is F for c in tangent.coefficients)

    @pytest.mark.parametrize("order", [-1, -3])
    @pytest.mark.parametrize("builder", [bernoulli_generating_series, secant_series,
                                         cotangent_series, tangent_series])
    def test_negative_orders_are_empty_series(self, builder, order):
        with pytest.raises(ValueError, match="needs at least the constant term"):
            builder(order)

    @pytest.mark.parametrize("order", [*range(61), 300])
    def test_bernoulli_matches_expm1_reference_route(self, order):
        # z/(e^z - 1) times (e^z - 1)/z is 1, with B_1 and the odd zeros
        # taking part in the product
        assert bernoulli_generating_series(order) * _taylor(order, EXP, 1) == \
            TruncatedSeries.monomial(order, 0)


class TestCoefficientAccess:
    def test_constant(self):
        assert _taylor(5, EXP).coefficient(0) == 1

    def test_beyond_order_raises(self):
        with pytest.raises(IndexError):
            _taylor(5, EXP).coefficient(6)
        with pytest.raises(IndexError):
            _taylor(5, EXP).coefficient(-1)


class TestSymmetrisedExpRatio:
    def test_even_part_matches_symmetrised_construction(self):
        # z/(e^z - 1) + z/2 is even; built as (1/2)(e^z + 1) * z/(e^z - 1)
        n = 16
        base = TruncatedSeries(_fraction_reciprocal(_taylor(n, EXP, 1).coefficients))
        symmetrised = _taylor(n, EXP) + TruncatedSeries.monomial(n, 0)
        built = TruncatedSeries([F(1, 2)] + [F(0)] * n) * symmetrised * base
        even_part = [c if k % 2 == 0 else 0 for k, c in enumerate(base.coefficients)]
        assert built == TruncatedSeries(even_part)


class TestRendering:
    def test_str_form(self):
        f = TruncatedSeries([1, F(-1, 2), F(1, 6)])
        assert str(f) == "1 + -1/2*z + 1/6*z^2"

    def test_json_form(self):
        f = TruncatedSeries([1, F(-1, 2)])
        assert f.to_json() == ["1", "-1/2"]

    def test_repr(self):
        assert repr(TruncatedSeries([1, F(-1, 2), F(1, 6)])) == "TruncatedSeries([1, -1/2, 1/6])"

    def test_equality_and_hash_follow_the_coefficients(self):
        a, b = TruncatedSeries([1, 2]), TruncatedSeries((F(1), F(2)))
        assert a == b
        assert hash(a) == hash(b)
        assert a != TruncatedSeries([1, 2, 0])
        assert len({a, b, TruncatedSeries([1, 2, 0])}) == 2

    def test_other_types_compare_unequal(self):
        f = TruncatedSeries([1])
        assert f.__eq__((F(1),)) is NotImplemented
        assert f != (F(1),)
        assert f != 1

    def test_immutable(self):
        f = TruncatedSeries([1])
        with pytest.raises(AttributeError):
            f.order = 3
        for name in ("coefficients", "unknown"):
            with pytest.raises(AttributeError):
                setattr(f, name, (F(2),))
            with pytest.raises(AttributeError):
                delattr(f, name)
        assert f.coefficients == (F(1),)
