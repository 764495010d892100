from fractions import Fraction

from divsum.polynomials import Polynomial

F = Fraction


class TestPolynomial:
    def test_trailing_zeros_stripped(self):
        assert Polynomial([1, 2, 0, 0]).degree == 1

    def test_zero_polynomial(self):
        zero = Polynomial()
        assert zero.is_zero
        assert zero.degree == -1
        assert not zero

    def test_square_of_binomial(self):
        p = Polynomial([1, 1])  # 1 + x
        assert (p * p).coefficients == (F(1), F(2), F(1))
        assert (p ** 3).coefficients == (F(1), F(3), F(3), F(1))

    def test_scalar_multiplication(self):
        p = Polynomial([1, 2])
        assert (p * F(1, 2)).coefficients == (F(1, 2), F(1))
        assert (3 * p).coefficients == (F(3), F(6))

    def test_evaluate_horner(self):
        p = Polynomial([5, -3, 2])  # 5 - 3x + 2x^2
        assert p.evaluate(F(1, 2)) == F(4)
        assert p.evaluate(0) == 5
