from fractions import Fraction

import pytest

from divsum.series import (
    NonInvertibleSeriesError,
    TruncatedSeries,
    UnknownSeriesError,
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

    def test_zero_constant_term_rejected(self):
        with pytest.raises(NonInvertibleSeriesError):
            known_series("sin", 4).reciprocal()


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

    def test_immutable(self):
        f = TruncatedSeries([1])
        with pytest.raises(AttributeError):
            f.order = 3
