import random
import tracemalloc
from fractions import Fraction
from math import comb

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

    @pytest.mark.parametrize("text, a, b, power, ratio", [
        ("poly (n+1)^400 ratio 2", 1, 1, 400, 2),
        ("poly (1/3n+1/2)^200 ratio 1/2", F(1, 2), F(1, 3), 200, F(1, 2)),
        ("poly (2n-1)^60 ratio -1", -1, 2, 60, -1),
    ], ids=["(n+1)^400", "(1/3n+1/2)^200", "(2n-1)^60"])
    def test_large_power_of_a_binomial(self, text, a, b, power, ratio):
        # (a + b n)^power, coefficient i is C(power, i) a^(power - i) b^i
        coeffs = [comb(power, i) * a ** (power - i) * b ** i for i in range(power + 1)]
        assert parse_series(text) == poly_exp_series(Polynomial(coeffs), ratio)

    def test_zeroth_power_of_a_cancelled_sum_is_one(self):
        assert parse_series("poly (n-n)^0 ratio 2") == poly_exp_series(Polynomial([1]), 2)

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
        series = parse_series("rec a(n)=a(n-1)+a(n-2); init +1/2, -3")
        assert series == CFiniteSeries([1, 1], [F(1, 2), -3])

    def test_arity_mismatch(self):
        with pytest.raises(ArityMismatchError):
            parse_series("rec a(n)=a(n-2); init 1")
        with pytest.raises(ArityMismatchError):
            parse_series("rec a(n)=a(n-1); init 1,2")

    def test_arity_is_checked_before_the_coefficients_are_built(self):
        # a lag of 10^6 is rejected without a list of 10^6 coefficients
        tracemalloc.start()
        try:
            with pytest.raises(ArityMismatchError, match="reaches back 1000000 terms but 1 "):
                parse_series("rec a(n)=a(n-1000000); init 1")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000


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

    @pytest.mark.parametrize("text, position, expected, found", [
        ("rec a(n)=a(n-0); init 1", 13, ("a positive lag",), "0"),
        # tokenizing comes first: the bad character, not the missing polynomial
        ("poly ratio $", 11, ("a token",), "$"),
        ("poly 1/0 ratio 2", 7, ("a positive integer",), "0"),
        ("poly n ratio 1/00", 15, ("a positive integer",), "0"),
        ("poly (n+1 ratio 2", 10, (")",), "ratio"),
        ("rec a(n)=a(n-1 ; init 1", 15, (")",), ";"),
        ("rec a(n) a(n-1); init 1", 9, ("=",), "a"),
        ("rec a(n)=a(n-1) init 1", 16, (";",), "init"),
        ("rec a(n)=a(n-1); 1", 17, ("'init'",), "1"),
        ("rec a(n)=a(n-1); init 1 2", 24, ("end of input",), "2"),
        ("rec a(n)=a(n-1); init 1,", 24, ("an integer",), "end of input"),
        ("rec b(n)=b(n-1); init 1", 4, ("'a'",), "b"),
        ("rec a(k)=a(n-1); init 1", 6, ("'n'",), "k"),
        ("rec a(n)=a(n+1); init 1", 12, ("-",), "+"),
        ("rec a(n)=2/3 b(n-1); init 1", 13, ("'a'",), "b"),
        ("poly n ratio 1 x", 15, ("end of input",), "x"),
        ("poly 2 3 ratio 1", 7, ("'ratio'",), "3"),
        ("poly n^ ratio 2", 8, ("an integer",), "ratio"),
        ("poly * n ratio 2", 5, ("a rational", "'n'", "'('"), "*"),
        ("poly 0 ratio 2", 5, ("a nonzero polynomial",), "0"),
        ("poly n ratio -0", 13, ("a nonzero ratio",), "0"),
        ("sum 1", 0, ("'poly'", "'rec'"), "sum"),
        ("", 0, ("'poly'", "'rec'"), "end of input"),
        ("poly (n-n)^2 ratio 2", 5, ("a nonzero polynomial",), "0"),
    ])
    def test_rejection_is_pinned(self, text, position, expected, found):
        with pytest.raises(ExpressionSyntaxError) as info:
            parse_series(text)
        err = info.value
        assert (err.position, err.expected, err.found) == (position, expected, found)
        wanted = " or ".join(expected)
        assert str(err) == (
            f"syntax error at position {position}: expected {wanted}, found {found!r}"
        )



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


# Seeded spellings for TestSpellingCorpus.  Each generator returns the text
# with the value it denotes, computed on plain coefficient lists (lowest
# degree first) rather than by the parser.  Exponents are 0-3, 7 or 12.

def _add(p, q):
    n = max(len(p), len(q))
    return [(p[i] if i < len(p) else 0) + (q[i] if i < len(q) else 0) for i in range(n)]


def _mul(p, q):
    out = [F(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def _rational(rng):
    value = F(rng.randint(1, 12), rng.choice([1, 1, 2, 3, 7]))
    return value, (str(value) if rng.random() < 0.8 else f"{value.numerator}/{value.denominator}")


def _space(rng):
    return rng.choice(["", "", " ", "  "])


def _poly_factor(rng, depth):
    """A factor that starts with 'n' or '(' and its coefficient list."""
    power = rng.choice((0, 1, 2, 3, 7, 12))
    if depth == 0 and rng.random() < 0.35:
        text, coeffs = _random_poly(rng, depth + 1)
        text = f"({_space(rng)}{text}{_space(rng)})"
    else:
        text, coeffs = "n", [F(0), F(1)]
    if rng.random() < 0.5:
        return text, coeffs
    value = [F(1)]
    for _ in range(power):
        value = _mul(value, coeffs)
    return f"{text}{_space(rng)}^{_space(rng)}{power}", value


def _poly_term(rng, depth):
    """A coefficient and up to two factors, joined by '*' or juxtaposed."""
    pieces, coeffs = [], [F(1)]
    if rng.random() < 0.7:
        value, text = _rational(rng)
        pieces.append(text)
        coeffs = [value]
    for _ in range(rng.randint(0 if pieces else 1, 2 - depth)):
        text, factor = _poly_factor(rng, depth)
        if pieces:
            # juxtaposition only before 'n' or '(', never between two integers
            glue = rng.choice(["*", " * ", "", " "])
            if not glue and pieces[-1][-1] == text[0] == "n":
                glue = " "  # "nn" would read as one name
            pieces.append(glue)
        pieces.append(text)
        coeffs = _mul(coeffs, factor)
    return "".join(pieces), coeffs


def _random_poly(rng, depth=0):
    """Up to three terms under an optional leading minus; depth 1 inside parentheses."""
    text, coeffs = _poly_term(rng, depth)
    if rng.random() < 0.3:
        text, coeffs = "-" + _space(rng) + text, [-c for c in coeffs]
    for _ in range(rng.randint(0, 2)):
        sign = rng.choice("+-")
        term, more = _poly_term(rng, depth)
        text += f"{_space(rng)}{sign}{_space(rng)}{term}"
        coeffs = _add(coeffs, more if sign == "+" else [-c for c in more])
    return text, coeffs


def _signed(rng):
    value, text = _rational(rng)
    sign = rng.choice(["", "", "-", "+"])
    return (-value if sign == "-" else value), f"{sign}{_space(rng)}{text}"


def _random_rec(rng):
    """A recurrence with gaps, zero and negative weights, and its weights."""
    order = rng.randint(1, 5)
    lags = rng.sample(range(1, order + 1), rng.randint(1, order))
    if order not in lags:
        lags.append(order)
    rng.shuffle(lags)
    weights, pieces = [F(0)] * order, []
    for lag in lags:
        sign = rng.choice("+-")
        if rng.random() < 0.15:
            value, coefficient = F(0), "0*"
        elif rng.random() < 0.3:
            value, coefficient = F(1), rng.choice(["", "1*", "1 "])
        else:
            value, coefficient = _rational(rng)
            coefficient += rng.choice(["*", " * ", "", " "])
        weights[lag - 1] += value if sign == "+" else -value
        term = f"{coefficient}a{_space(rng)}({_space(rng)}n{_space(rng)}-{_space(rng)}{lag})"
        if pieces or sign == "-":
            pieces.append(f"{_space(rng)}{sign}{_space(rng)}")
        pieces.append(term)
    initial = [_signed(rng) for _ in range(order)]
    init_text = ("," + _space(rng)).join(text for _, text in initial)
    text = f"rec a(n){_space(rng)}={_space(rng)}{''.join(pieces)};{_space(rng)}init {init_text}"
    return text, weights, [value for value, _ in initial]


class TestSpellingCorpus:
    """Seeded spellings of both forms, each checked against a directly built series."""

    @pytest.mark.parametrize("seed", range(300))
    def test_poly_spelling(self, seed):
        rng = random.Random(seed)
        text, coeffs = _random_poly(rng)
        while not any(coeffs):
            text, coeffs = _random_poly(rng)
        ratio, ratio_text = _signed(rng)
        expression = f"poly {text} ratio {ratio_text}"
        expected = poly_exp_series(Polynomial(coeffs), ratio)
        assert parse_series(expression) == expected, expression

    @pytest.mark.parametrize("seed", range(100))
    def test_rec_spelling(self, seed):
        text, weights, initial = _random_rec(random.Random(seed))
        assert parse_series(text) == CFiniteSeries(weights, initial), text
