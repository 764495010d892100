import re
from fractions import Fraction
from math import comb

import pytest

from divsum.polynomials import Polynomial, _next_row, cauchy_product

F = Fraction


class TestPolynomial:
    def test_trailing_zeros_stripped(self):
        assert Polynomial([1, 2, 0, 0]).degree == 1

    def test_zero_polynomial(self):
        zero = Polynomial()
        assert zero.is_zero
        assert zero.degree == -1
        assert not zero
        for other in (zero, Polynomial([1, 2])):
            assert (zero * other).is_zero
            assert (other * zero).is_zero
        assert cauchy_product((), (F(1), F(2)), 3) == [0, 0, 0]

    def test_square_of_binomial(self):
        p = Polynomial([1, 1])  # 1 + x
        assert (p * p).coefficients == (F(1), F(2), F(1))
        assert cauchy_product(p.coefficients, (F(1), F(3), F(3), F(1)), 3) == [1, 4, 6]

    def test_int_operands_give_ints(self):
        a, b = [3, 0, -2, 5], [1, 4, 0, -7, 2]
        ints = cauchy_product(a, b, 10)
        assert all(type(c) is int for c in ints)
        assert ints == cauchy_product([F(x) for x in a], [F(y) for y in b], 10)
        assert ints[-2:] == [0, 0]

    def test_scalar_multiplication(self):
        p = Polynomial([1, 2])
        assert (p * F(1, 2)).coefficients == (F(1, 2), F(1))
        assert (3 * p).coefficients == (F(3), F(6))

    @pytest.mark.parametrize("spelling, message", [
        (lambda p: p + 1, "for +: 'Polynomial' and 'int'"),
        (lambda p: p - 1, "for -: 'Polynomial' and 'int'"),
        (lambda p: 1 + p, "for +: 'int' and 'Polynomial'"),
        (lambda p: 1 - p, "for -: 'int' and 'Polynomial'"),
        (lambda p: p - F(1, 2), "for -: 'Polynomial' and 'Fraction'"),
    ], ids=["p+1", "p-1", "1+p", "1-p", "p-1/2"])
    def test_non_polynomial_operand_is_a_type_error(self, spelling, message):
        # only * takes a scalar (test_scalar_multiplication)
        with pytest.raises(TypeError, match=re.escape(f"unsupported operand type(s) {message}")):
            spelling(Polynomial([1, 2]))

    def test_negation_and_subtraction(self):
        p, q = Polynomial([1, F(1, 2)]), Polynomial([3, F(1, 2)])
        assert -p == Polynomial([-1, F(-1, 2)])
        assert p - q == Polynomial([-2])
        assert (p - p).is_zero
        assert -Polynomial() == Polynomial()

    def test_coefficient_access(self):
        p = Polynomial([1, 2])
        assert p.coefficient(1) == 2
        assert p.coefficient(5) == 0
        with pytest.raises(IndexError, match="^negative coefficient index$"):
            p.coefficient(-1)

    def test_repr(self):
        assert repr(Polynomial([1, F(-1, 2), 0])) == "Polynomial(['1', '-1/2'])"
        assert repr(Polynomial()) == "Polynomial([])"

    def test_equality_and_hash_follow_the_normalised_coefficients(self):
        a, b = Polynomial([1, 2, 0]), Polynomial((F(1), F(2)))
        assert a == b
        assert hash(a) == hash(b)
        assert a != Polynomial([1, 3])
        assert len({a, b, Polynomial([1, 3])}) == 2

    def test_other_types_compare_unequal(self):
        p = Polynomial([1])
        assert p.__eq__((F(1),)) is NotImplemented
        assert p != (F(1),)
        assert p != 1

    @pytest.mark.parametrize("name", ["coefficients", "degree", "unknown"])
    def test_immutable(self, name):
        p = Polynomial([1, 2])
        with pytest.raises(AttributeError):
            setattr(p, name, (F(3),))
        with pytest.raises(AttributeError):
            delattr(p, name)
        assert p.coefficients == (F(1), F(2))

    def test_evaluate_horner(self):
        p = Polynomial([5, -3, 2])  # 5 - 3x + 2x^2
        assert p.evaluate(F(1, 2)) == F(4)
        assert p.evaluate(0) == 5


def test_next_row_steps_pascals_triangle():
    row = [1]
    for n in range(201):
        assert row == [comb(n, k) for k in range(n + 1)]
        row = _next_row(row)
