from fractions import Fraction

import pytest

from divsum.cfinite import (
    CFiniteSeries,
    alternating_power_series,
    fibonacci_series,
    odd_alternating_series,
    poly_exp_series,
)
from divsum.parsing import (
    ArityMismatchError,
    ExpressionSyntaxError,
    parse_series,
)
from divsum.polynomials import Polynomial

F = Fraction


class TestPolyForm:
    def test_alternating_cube(self):
        series = parse_series("poly (n+1)^3 ratio -1")
        assert series == poly_exp_series(Polynomial([1, 3, 3, 1]), -1)
        assert series == alternating_power_series(3)

    def test_odd_squares_with_juxtaposition(self):
        series = parse_series("poly (2n+1)^2 ratio -1")
        assert series == odd_alternating_series(2)

    def test_explicit_multiplication_and_rationals(self):
        series = parse_series("poly 3*n^2 - 1/2*n + 7 ratio -2/3")
        assert series == poly_exp_series(Polynomial([7, F(-1, 2), 3]), F(-2, 3))

    def test_constant_polynomial(self):
        series = parse_series("poly 1 ratio 1/2")
        assert series == poly_exp_series(Polynomial([1]), F(1, 2))
        assert series.terms(3) == [1, F(1, 2), F(1, 4)]

    def test_whitespace_insensitive(self):
        a = parse_series("poly(n+1)^2 ratio-1")
        b = parse_series("  poly  ( n + 1 ) ^ 2   ratio  - 1 ")
        assert a == b

    def test_leading_minus(self):
        series = parse_series("poly -n + 2 ratio 1/3")
        assert series == poly_exp_series(Polynomial([2, -1]), F(1, 3))

    def test_zero_polynomial_rejected(self):
        with pytest.raises(ExpressionSyntaxError):
            parse_series("poly 0 ratio 2")
        with pytest.raises(ExpressionSyntaxError):
            parse_series("poly n - n ratio 2")

    def test_zero_ratio_rejected(self):
        with pytest.raises(ExpressionSyntaxError):
            parse_series("poly n ratio 0")


class TestRecForm:
    def test_fibonacci(self):
        series = parse_series("rec a(n)=a(n-1)+a(n-2); init 1,1")
        assert series == CFiniteSeries([1, 1], [1, 1])
        assert series == fibonacci_series()

    def test_rational_weights_and_gaps(self):
        series = parse_series("rec a(n)=1/2*a(n-1)+3*a(n-3); init 1,0,2")
        assert series == CFiniteSeries([F(1, 2), 0, 3], [1, 0, 2])

    def test_negative_terms_and_initials(self):
        series = parse_series("rec a(n)=-a(n-1)+2*a(n-2); init -1,1/2")
        assert series == CFiniteSeries([-1, 2], [-1, F(1, 2)])

    def test_arity_mismatch(self):
        with pytest.raises(ArityMismatchError):
            parse_series("rec a(n)=a(n-2); init 1")
        with pytest.raises(ArityMismatchError):
            parse_series("rec a(n)=a(n-1); init 1,2")


class TestErrors:
    def test_position_and_expected_reported(self):
        with pytest.raises(ExpressionSyntaxError) as info:
            parse_series("poly ratio 1")
        err = info.value
        assert err.position == 5
        assert any("rational" in e for e in err.expected)

    def test_unknown_leading_keyword(self):
        with pytest.raises(ExpressionSyntaxError) as info:
            parse_series("series 1 2 3")
        assert "'poly'" in info.value.expected

    def test_truncated_input(self):
        with pytest.raises(ExpressionSyntaxError) as info:
            parse_series("poly n ratio")
        assert info.value.found == "end of input"

    def test_bad_character(self):
        with pytest.raises(ExpressionSyntaxError):
            parse_series("poly n ratio $")

    def test_zero_denominator(self):
        with pytest.raises(ExpressionSyntaxError):
            parse_series("poly 1/0 ratio 2")



def _rec_text(series):
    """Write a series in the ``rec`` syntax, every coefficient spelled out."""
    body = " + ".join(
        f"{c}*a(n-{i})" for i, c in enumerate(series.recurrence, start=1)
    ).replace("+ -", "- ")
    init = ", ".join(str(v) for v in series.initial)
    return f"rec a(n)={body}; init {init}"


class TestRoundTrip:
    CORPUS = [
        "poly (n+1)^3 ratio -1",
        "poly (2n+1)^2 ratio -1",
        "poly 3*n^4 - 1/2*n + 7 ratio -2/3",
        "poly 1 ratio 5",
        "rec a(n)=a(n-1)+a(n-2); init 1,1",
        "rec a(n)=1/2*a(n-1)+3*a(n-3); init 1,0,2",
        "rec a(n)=-a(n-1); init -3/7",
    ]

    @pytest.mark.parametrize("text", CORPUS)
    def test_parse_print_parse(self, text):
        # the parsed series, written back as a recurrence, parses to itself
        series = parse_series(text)
        assert parse_series(_rec_text(series)) == series

    def test_printed_forms_are_canonical(self):
        # every spelling of one series parses to the same CFiniteSeries
        series = parse_series("poly (n+1)^2 ratio -1")
        assert series == parse_series("poly n^2 + 2*n + 1 ratio -1")
        assert series == parse_series("rec a(n)=-3a(n-1)-3a(n-2)-a(n-3); init 1,-4,9")
        assert _rec_text(series) == "rec a(n)=-3*a(n-1) - 3*a(n-2) - 1*a(n-3); init 1, -4, 9"
        rec = parse_series("rec a(n)= a(n-1) + a(n-2); init 1, 1")
        assert rec == parse_series("rec a(n)=a(n-1)+a(n-2); init 1,1")
        assert _rec_text(rec) == "rec a(n)=1*a(n-1) + 1*a(n-2); init 1, 1"
