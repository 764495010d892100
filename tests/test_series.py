import random
import re
from fractions import Fraction
from math import gcd, lcm

import pytest

from divsum.sequences import (
    _even_factorial_chain,
    bernoulli_generating_series,
    cotangent_series,
    secant_series,
    tangent_series,
)
from divsum.series import (
    NonInvertibleSeriesError,
    TruncatedSeries,
    UnknownSeriesError,
    _denominator_chain,
    _reciprocal_numerators,
    known_series,
)

F = Fraction


class TestKnownSeries:
    def test_exp(self):
        assert known_series("exp", 3).coefficients == (F(1), F(1), F(1, 2), F(1, 6))

    def test_cos(self):
        assert known_series("cos", 4).coefficients == (
            F(1), F(0), F(-1, 2), F(0), F(1, 24),
        )

    def test_sin(self):
        assert known_series("sin", 5).coefficients == (
            F(0), F(1), F(0), F(-1, 6), F(0), F(1, 120),
        )

    def test_expm1_over_z(self):
        assert known_series("expm1_over_z", 2).coefficients == (F(1), F(1, 2), F(1, 6))

    def test_sinh_over_z(self):
        assert known_series("sinh_over_z", 5).coefficients == (
            F(1), F(0), F(1, 6), F(0), F(1, 120), F(0),
        )

    def test_unknown_name(self):
        with pytest.raises(UnknownSeriesError):
            known_series("airy", 4)


class TestArithmetic:
    def test_add_zero_is_identity(self):
        f = known_series("exp", 6)
        assert f + TruncatedSeries.zero(6) == f

    def test_add_negation_gives_zero(self):
        f = known_series("exp", 4)
        assert f + (-f) == TruncatedSeries.zero(4)

    def test_result_order_is_min_of_operands(self):
        f = known_series("exp", 8)
        g = known_series("cos", 5)
        assert (f + g).order == 5
        assert (f * g).order == 5

    def test_mul_one_is_identity(self):
        f = known_series("sin", 7)
        assert f * TruncatedSeries.one(7) == f

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
    # kept as the oracle for the integer kernel of TruncatedSeries.reciprocal.
    inv0 = 1 / coeffs[0]
    out = [inv0]
    for n in range(1, len(coeffs)):
        acc = sum((coeffs[j] * out[n - j] for j in range(1, n + 1)), F(0))
        out.append(-inv0 * acc)
    return tuple(out)


_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97)


def _random_series(rng):
    """Order 0..60; the constant term is often fractional or negative, zero
    coefficients come in runs, and each other denominator is a power of a
    prime drawn from 25, so the denominators are often coprime."""
    order = rng.randint(0, 60)
    coeffs = [F(rng.choice((-1, 1)) * rng.randint(1, 9), rng.choice((1, 2, 3, 7, 10)))]
    while len(coeffs) <= order:
        if rng.random() < 0.2:
            coeffs += [F(0)] * rng.randint(1, 6)
        else:
            coeffs.append(F(rng.randint(-30, 30), rng.choice(_PRIMES) ** rng.randint(0, 2)))
    return TruncatedSeries(coeffs[: order + 1])


def _spliced(f, step, tail):
    """The series f(z^step), with `tail` extra zeros after its last term, so
    the order need not be a multiple of step."""
    coeffs = [F(0)] * (step * f.order + 1 + tail)
    coeffs[: step * f.order + 1 : step] = f.coefficients
    return TruncatedSeries(coeffs)


class TestReciprocal:
    def test_one_is_self_inverse(self):
        assert TruncatedSeries.one(5).reciprocal() == TruncatedSeries.one(5)

    def test_sec_coefficients(self):
        # 1/cos = 1 + z^2/2 + 5 z^4/24 + O(z^5)
        sec = known_series("cos", 4).reciprocal()
        assert sec.coefficients == (F(1), F(0), F(1, 2), F(0), F(5, 24))

    def test_exp_ratio_reciprocal(self):
        rec = known_series("expm1_over_z", 2).reciprocal()
        assert rec.coefficient(1) == F(-1, 2)
        assert rec.coefficient(2) == F(1, 12)

    def test_two_sided_inverse_property(self):
        for name in ("exp", "cos", "expm1_over_z"):
            f = known_series(name, 12)
            assert f * f.reciprocal() == TruncatedSeries.one(12)
            assert f.reciprocal() * f == TruncatedSeries.one(12)

    def test_matches_fraction_recursion_on_random_series(self):
        rng = random.Random(6)
        negative = fractional = zero_runs = 0
        for _ in range(60):
            f = _random_series(rng)
            g = f.reciprocal()
            assert g.coefficients == _fraction_reciprocal(f.coefficients)
            assert f * g == TruncatedSeries.one(f.order)
            c = f.coefficients
            negative += c[0] < 0
            fractional += c[0].denominator != 1
            zero_runs += any(not x and not y for x, y in zip(c[1:], c[2:]))
        assert min(negative, fractional, zero_runs) > 10

    @pytest.mark.parametrize("step", [2, 4])
    def test_matches_fraction_recursion_on_random_spliced_series(self, step):
        # even series (step 2) and series in z^4 (step 4) run through the full
        # kernel; the coefficients off the step come out as exact zeros
        rng = random.Random(step)
        sparse = 0
        for _ in range(40):
            f = _spliced(_random_series(rng), step, rng.randint(0, step - 1))
            g = f.reciprocal()
            assert g.coefficients == _fraction_reciprocal(f.coefficients)
            assert f * g == TruncatedSeries.one(f.order)
            assert all(type(x) is F and x == 0
                       for m, x in enumerate(g.coefficients) if m % step)
            sparse += f.order >= step
        assert sparse > 30

    def test_coprime_denominators(self):
        f = TruncatedSeries([F(-2, 3), 0, 0] + [F(1, p) for p in _PRIMES])
        g = f.reciprocal()
        assert g.coefficients == _fraction_reciprocal(f.coefficients)
        assert f * g == TruncatedSeries.one(f.order)

    @pytest.mark.parametrize("coeffs", [
        # the denominators 2 and 3 already divide the lcm 6 of 1/3 and 1/6: rho = 1
        [1, F(1, 3), F(1, 6), F(1, 2), F(5, 3)],
        # every denominator divides the first one's: rho = 1 after the constant term
        [F(1, 60), F(1, 2), F(1, 3), F(1, 4), F(1, 5), F(1, 6), F(7, 10), F(1, 12)],
        # a new prime power arrives late, after a long run of 2-power denominators
        [1] + [F(1, 2 ** (j % 5)) for j in range(1, 30)] + [F(1, 101 ** 3), F(3, 8)],
        # powers of one prime stepping up: rho = 3 at each step
        [F(1, 3 ** j) for j in range(12)],
        # zero runs inside, then a zero tail
        [F(2, 3), 0, 0, 0, F(1, 5), 0, F(-1, 7), 0, 0, 0, 0, 0, 0],
        # a zero tail right after the constant term
        [F(-3, 4), 0, 0, 0, 0, 0],
        # a fractional negative constant term and integer terms after it
        [F(-5, 9), 2, -3, 4, 0, 7],
        # a large integer constant term over the unit denominators
        [10 ** 30, 1, -1, 1, -1],
        # order 0 and order 1
        [F(-7, 3)],
        [F(-7, 3), F(11, 5)],
        # even up to a nonzero last odd coefficient
        [F(2, 3), 0, F(1, 5), 0, F(-1, 7), F(3, 11)],
        # the shortest even series with a zero odd coefficient, and one with an odd order
        [F(2, 3), 0, F(1, 5)],
        [F(2, 3), 0, F(1, 5), 0],
        # even but not a series in z^4
        [1, 0, F(1, 3), 0, F(1, 5), 0, F(1, 7), 0, F(1, 9)],
        # a series in z^8
        [F(5, 2)] + ([0] * 7 + [F(-1, 3)]) * 4,
    ], ids=["divides", "divides_first", "late_prime", "prime_powers", "zero_runs",
            "zero_tail", "negative_fractional_c0", "big_c0", "order0", "order1",
            "odd_last", "even_order2", "even_order3", "even_once", "z8"])
    def test_matches_fraction_recursion_on_unusual_chains(self, coeffs):
        f = TruncatedSeries(coeffs)
        g = f.reciprocal()
        assert g.coefficients == _fraction_reciprocal(f.coefficients)
        assert all(type(x) is F for x in g.coefficients)
        assert f * g == TruncatedSeries.one(f.order)

    @pytest.mark.parametrize("name", ["exp", "cos", "expm1_over_z"])
    def test_matches_fraction_recursion_on_known_series(self, name):
        full = _fraction_reciprocal(known_series(name, 40).coefficients)
        for order in range(41):
            assert known_series(name, order).reciprocal().coefficients == full[: order + 1]

    def test_zero_constant_term_rejected(self):
        with pytest.raises(NonInvertibleSeriesError):
            known_series("sin", 4).reciprocal()
        with pytest.raises(NonInvertibleSeriesError):
            TruncatedSeries([0, 0, 1]).reciprocal()


class TestReciprocalNumerators:
    """The kernel's pairs (G_n, L_n): each G_n / L_n is the coefficient, and
    L_n is the lcm of the reduced denominators of the coefficients so far."""

    @staticmethod
    def _series(rng, shape, order):
        # c_0 of either sign and never +-1; every term of the series in
        # z^shape is nonzero, and every term off the multiples of shape is zero
        c0 = F(rng.choice((-1, 1)) * rng.randint(1, 9), rng.choice((1, 2, 3, 7, 10)))
        if abs(c0) == 1:
            c0 *= 2
        h = [c0] + [F(rng.choice((-1, 1)) * rng.randint(1, 30),
                      rng.choice(_PRIMES) ** rng.randint(0, 2)) for _ in range(order // shape)]
        return _spliced(TruncatedSeries(h), shape, order % shape)

    @pytest.mark.parametrize("order", [0, 1, 2, 3, 40])
    @pytest.mark.parametrize("shape", [1, 2, 4], ids=["dense", "even", "z4"])
    def test_pairs_are_the_recursion_over_the_running_lcm(self, shape, order):
        rng = random.Random(100 * shape + order)
        signs, unreduced = set(), 0
        for _ in range(15):
            f = self._series(rng, shape, order)
            expected = _fraction_reciprocal(f.coefficients)
            rho, k = _denominator_chain(f.coefficients)
            pairs = _reciprocal_numerators(rho, k)
            assert len(rho) == len(k) == len(pairs) == order + 1
            assert all(rho[m] == 1 and k[m] == 0 and not expected[m]
                       for m in range(order + 1) if m % shape)
            for n, (g, den) in enumerate(pairs):
                assert F(g, den) == expected[n]
                assert den == lcm(*(x.denominator for x in expected[: n + 1]))
                unreduced += gcd(g, den) > 1
            signs.add(f.coefficients[0] > 0)
        assert signs == {True, False}
        if order == 40:
            assert unreduced > 15


    @staticmethod
    def _chain(rng):
        # a chain whose k_j are 1 about half the time, and otherwise -1, 0 or
        # another small int; c_j = k_j / (rho_0 ... rho_j)
        order = rng.randint(0, 40)
        rho = [rng.randint(1, 12) for _ in range(order + 1)]
        k = [rng.choice((1, 2, 3, 5))] + [rng.choice((1, 1, 1, -1, 0, 2, -3, 7))
                                           for _ in range(order)]
        return rho, k

    @staticmethod
    def _series_of(rho, k):
        v, coeffs = 1, []
        for r, x in zip(rho, k):
            v *= r
            coeffs.append(F(x, v))
        return coeffs

    def test_core_on_chains_that_mix_unit_and_other_k(self):
        # both arms of the Horner step: a unit k_j adds G, any other multiplies
        rng = random.Random(24)
        units = others = 0
        for _ in range(60):
            rho, k = self._chain(rng)
            expected = _fraction_reciprocal(self._series_of(rho, k))
            assert tuple(F(g, den) for g, den in _reciprocal_numerators(rho, k)) == expected
            units += k[1:].count(1)
            others += sum(x != 1 for x in k[1:])
        assert min(units, others) > 200

    @pytest.mark.parametrize("order", [0, 1, 2, 40])
    def test_negative_constant_term_flips_every_unit_k(self, order):
        # c_0 = -1 over the sinh(z)/z chain in w: the sign fold turns every
        # k_j = 1 into -1, so each step takes the multiplying arm
        rho, k = _even_factorial_chain(order, 1)
        k[0] = -1
        expected = _fraction_reciprocal(self._series_of(rho, k))
        assert tuple(F(g, den) for g, den in _reciprocal_numerators(rho, k)) == expected


class TestSequenceSeriesRoutes:
    @pytest.mark.parametrize("name, s, sign", [("sinh_over_z", 1, 1), ("cos", 0, -1)])
    def test_builder_chains_are_the_prep_of_the_catalogue(self, name, s, sign):
        # the chain the series builders hand the kernel is the even part of
        # the prep of the catalogue series, with cos read at w -> -w: same
        # rho, k_j = sign^j; the odd entries carry the zero coefficients
        for n in range(81):
            rho, k = _denominator_chain(known_series(name, n).coefficients)
            assert rho[1::2] == [1] * (n // 2 + n % 2)
            assert k[1::2] == [0] * (n // 2 + n % 2)
            chain_rho, chain_k = _even_factorial_chain(n // 2, s)
            assert chain_rho == rho[::2]
            assert chain_k == [1] * len(chain_rho)
            assert k[::2] == [sign ** j for j in range(len(chain_rho))]

    @pytest.mark.parametrize("order", [*range(61), 300])
    def test_edge_orders_match_fraction_recursion(self, order):
        # the chain routes against the routes they replaced: the Bernoulli
        # route sets B_1 itself, where its factor 2 - 2^m is zero; sec z was
        # 1/cos z, and z cot z the even part of z/(e^z - 1) at z -> 2iz
        bernoulli = bernoulli_generating_series(order)
        secant = secant_series(order)
        cotangent = cotangent_series(order)
        assert bernoulli.coefficients == \
            _fraction_reciprocal(known_series("expm1_over_z", order).coefficients)
        assert secant.coefficients == \
            _fraction_reciprocal(known_series("cos", order).coefficients)
        assert cotangent.coefficients == tuple(
            F(0) if m % 2 else c * (-1) ** (m // 2) * 4 ** (m // 2)
            for m, c in enumerate(bernoulli.coefficients))
        for series in (bernoulli, secant, cotangent):
            assert all(type(c) is F for c in series.coefficients)

    @pytest.mark.parametrize("order", [-1, -3])
    @pytest.mark.parametrize("builder", [bernoulli_generating_series, secant_series,
                                         cotangent_series, tangent_series])
    def test_negative_orders_are_empty_series(self, builder, order):
        with pytest.raises(ValueError, match="needs at least the constant term"):
            builder(order)

    @pytest.mark.parametrize("order", [*range(61), 300])
    def test_bernoulli_matches_expm1_reference_route(self, order):
        # z/(e^z - 1) inverted directly finds B_1 and the odd zeros itself
        assert bernoulli_generating_series(order) == \
            known_series("expm1_over_z", order).reciprocal()


class TestScaleVariable:
    def test_scale_by_one_is_identity(self):
        f = known_series("exp", 6)
        assert f.scale_variable(1) == f

    def test_scale_is_multiplicative(self):
        f = known_series("cos", 8)
        assert f.scale_variable(2).scale_variable(F(1, 3)) == f.scale_variable(F(2, 3))

    def test_geometric_scaling_halves_powers(self):
        f = TruncatedSeries([1, 1, 1, 1])
        assert f.scale_variable(F(1, 2)).coefficients == (
            F(1), F(1, 2), F(1, 4), F(1, 8),
        )


class TestCoefficientAccess:
    def test_constant(self):
        assert known_series("exp", 5).coefficient(0) == 1

    def test_beyond_order_raises(self):
        with pytest.raises(IndexError):
            known_series("exp", 5).coefficient(6)
        with pytest.raises(IndexError):
            known_series("exp", 5).coefficient(-1)


class TestSymmetrisedExpRatio:
    def test_even_part_matches_symmetrised_construction(self):
        # z/(e^z - 1) + z/2 is even; built as (1/2)(e^z + 1) * z/(e^z - 1)
        n = 16
        base = known_series("expm1_over_z", n).reciprocal()
        symmetrised = known_series("exp", n) + TruncatedSeries.one(n)
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
