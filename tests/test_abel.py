import math
import random
from decimal import Decimal, localcontext
from fractions import Fraction
from itertools import count, islice

import pytest

from divsum import abel
from divsum.abel import (
    DivergentGridError,
    NonconvergenceError,
    NotSummableInputError,
    abel_estimate,
    compare_exact,
    partial_value,
)
from divsum.cfinite import (
    CFiniteSeries,
    alternating_power_series,
    axiomatic_sum,
    characteristic_polynomial,
    fibonacci_series,
    generating_function,
    geometric_series,
    linear_combine,
    odd_alternating_series,
    poly_exp_series,
)
from divsum.polynomials import Polynomial

F = Fraction


class TestConfig:
    def test_defaults(self):
        series = alternating_power_series(1)
        assert abel_estimate(series).nodes_used == 10
        assert compare_exact(series).nodes == 1  # the node at x = 1

    def test_validation(self):
        message = "extrapolation needs at least 3 grid levels"
        with pytest.raises(ValueError, match=message):
            abel_estimate(alternating_power_series(1), grid_levels=2)
        assert abel_estimate(alternating_power_series(1), grid_levels=3).nodes_used == 3


class TestPartialValue:
    def test_alternating_unit_geometric_limit(self):
        value = partial_value(alternating_power_series(0), 0.5)
        assert abs(value - 2 / 3) < 1e-12

    def test_alternating_first_power(self):
        value = partial_value(alternating_power_series(1), 0.5)
        assert abs(value - 4 / 9) < 1e-12

    def test_fibonacci_inside_radius(self):
        value = partial_value(fibonacci_series(), 0.4)
        assert abs(value - 1 / 0.44) < 1e-10

    def test_agrees_with_generating_function(self):
        corpus = [
            alternating_power_series(4),
            odd_alternating_series(2),
            geometric_series(F(1, 3)),
            poly_exp_series([2, 1], F(-2, 3)),
            fibonacci_series(),  # beyond its radius at x = 7/10
        ]
        for s in corpus:
            p, q = generating_function(s)
            for x in (F(0), F(1, 10), F(2, 5), F(7, 10), F(31, 32)):
                expected = float(p.evaluate(x) / q.evaluate(x))
                got = partial_value(s, x)
                assert abs(got - expected) <= 1e-10 * max(1.0, abs(expected))

    def test_eventually_zero_series(self):
        s = alternating_power_series(2)
        zero = linear_combine(1, s, -1, s)
        assert partial_value(zero, 0.9) == 0.0

    def test_domain_validation(self):
        with pytest.raises(ValueError):
            partial_value(fibonacci_series(), 1.0)
        with pytest.raises(ValueError):
            partial_value(fibonacci_series(), -0.25)

    def test_growing_terms_give_the_generating_function(self):
        # terms grow like (phi * 7/8)^n; the epsilon antilimit is 1/(1 - x - x^2)
        assert partial_value(fibonacci_series(), F(7, 8)) == pytest.approx(-64 / 41, rel=1e-12)

    def test_pole_at_x_raises(self):
        # 1 + 2x + 4x^2 + ... has its pole at x = 1/2
        with pytest.raises(NonconvergenceError):
            partial_value(geometric_series(2), F(1, 2))

    def test_cancelled_root_is_no_pole(self):
        # all ones from a(n) = 3a(n-1) - 2a(n-2): the root 2 has no share
        assert partial_value(CFiniteSeries([3, -2], [1, 1]), F(1, 2)) == 2.0

    def test_exactly_singular_pairs(self):
        # a(n) = a(n-5)/2: column 4 of the epsilon table has exactly equal
        # pairs whose rounding error the flat guard alone misses
        series = CFiniteSeries([0, 0, 0, 0, F(1, 2)], [1, 2, 3, 4, 5])
        assert partial_value(series, F(63, 64)) == pytest.approx(
            30893474432 / 1155047105, rel=1e-12
        )

    @pytest.mark.xfail(
        strict=True, raises=NonconvergenceError, reason="zero terms recur in every epsilon window"
    )
    def test_recurring_zero_terms(self):
        # zeros at n = 13, 18, 31, 36, ...: no window has a flat tail past them
        series = CFiniteSeries([0, 0, -1, 0, 0, F(-1, 3)], [0, -3, 3, 3, 2, 2])
        assert partial_value(series, F(7, 8)) == pytest.approx(2878344 / 1430929, rel=1e-12)

    @pytest.mark.parametrize(
        "series",
        [
            alternating_power_series(5),
            fibonacci_series(),
            odd_alternating_series(7),
            poly_exp_series([2, 2], -3),
            CFiniteSeries([1, F(-1, 3)], [0, 1]),
        ],
    )
    def test_equals_the_grid_node_values(self, series):
        nodes = abel_estimate(series).per_node_values
        levels = range(abel._FIRST_LEVEL, abel._FIRST_LEVEL + abel._GRID_LEVELS)
        assert [partial_value(series, 1 - F(1, 2 ** j)) for j in levels] == list(nodes)


class TestAbelEstimate:
    def test_alternating_first_power_tight(self):
        result = abel_estimate(alternating_power_series(1))
        assert abs(result.estimate - 0.25) < 1e-8
        assert result.nodes_used == 10
        assert len(result.per_node_values) == 10
        assert result.error_estimate >= 0.0

    def test_alternating_cube(self):
        result = abel_estimate(alternating_power_series(3))
        assert abs(result.estimate - (-0.125)) < 1e-6

    def test_fibonacci_beyond_radius(self):
        result = abel_estimate(fibonacci_series())
        assert abs(result.estimate - (-1.0)) < 1e-6

    def test_all_ones_divergent(self):
        with pytest.raises(DivergentGridError):
            abel_estimate(poly_exp_series([1], 1))

    def test_naturals_divergent(self):
        with pytest.raises(DivergentGridError):
            abel_estimate(poly_exp_series([1, 1], 1))

    def test_error_estimate_shrinks_with_grid(self):
        for k in range(11):
            series = alternating_power_series(k)
            errors = [
                abel_estimate(series, grid_levels=j).error_estimate
                for j in range(5, 11)
            ]
            assert all(b < a for a, b in zip(errors, errors[1:])), f"k={k}: {errors}"


class TestCompareExact:
    NEAR_ONE = [F(1024, 1023), F(255, 256), F(32767, 32768), 1 - F(1, 2 ** 25)]

    @pytest.mark.parametrize(
        "series",
        [alternating_power_series(k) for k in range(26, 61, 2)]
        + [odd_alternating_series(61), odd_alternating_series(101)]
        + [poly_exp_series([1], r) for r in NEAR_ONE],
        ids=[f"sigma-{k}" for k in range(26, 61, 2)] + ["odd-61", "odd-101"]
        + [f"ratio-{r}" for r in NEAR_ONE],
    )
    def test_passing_estimate_is_close(self, series):
        # the grid's Neville extrapolation passed sigma 40 with 9.99e9 against
        # an exact 0 and ratio 1024/1023 with -1190.4 against -1023, and
        # raised DivergentGridError at 32767/32768; the node at x = 1 is exact
        report = compare_exact(series)
        assert report.passed
        assert report.abs_error <= 1e-6 * max(1.0, abs(report.exact))
        assert report.nodes == 1

    @pytest.mark.parametrize("series, exact", [
        (alternating_power_series(1), F(1, 4)),
        (poly_exp_series([1], F(1024, 1023)), F(-1023)),
    ], ids=["exact-1/4", "exact--1023"])
    @pytest.mark.parametrize("offset, passed", [(F(9, 10), True), (F(11, 10), False)])
    def test_pass_bound_is_relative_to_the_exact_sum(self, monkeypatch, series, exact, offset,
                                                     passed):
        # a node value off by offset x 1e-6 max(1, |exact|)
        miss = offset * F(1, 10 ** 6) * max(1, abs(exact))
        monkeypatch.setattr(abel, "_node_value", lambda *args: abel._decimal(exact + miss))
        report = compare_exact(series)
        assert (report.exact, report.passed, report.nodes) == (exact, passed, 1)

    def test_alternating_unit(self):
        report = compare_exact(alternating_power_series(0))
        assert report.passed
        assert abs(report.estimate - 0.5) < 1e-8

    def test_odd_squares_value(self):
        report = compare_exact(odd_alternating_series(2))
        assert report.passed
        assert report.exact == F(-1, 2)

    def test_not_summable_rejected(self):
        with pytest.raises(NotSummableInputError):
            compare_exact(poly_exp_series([1, 1], 1))

    def test_json_schema(self):
        payload = compare_exact(alternating_power_series(1)).to_json()
        assert set(payload) == {"exact", "estimate", "abs_error", "pass", "nodes"}
        assert payload["exact"] == "1/4"
        assert payload["pass"] is True

    def test_consistency_over_corpus(self):
        corpus = [
            alternating_power_series(2),
            odd_alternating_series(4),
            fibonacci_series(),
            geometric_series(F(1, 2)),
            geometric_series(F(-2, 3)),
        ]
        for s in corpus:
            report = compare_exact(s)
            assert report.passed
            assert report.abs_error < 1e-6
            assert axiomatic_sum(s).value == report.exact


class TestStatePerEstimate:
    """Terms are read once per estimate, and singular epsilon tables still settle."""

    def test_epsilon_path_reads_terms_once(self, monkeypatch):
        # the nodes read the integer term stream, one stream per estimate
        series = alternating_power_series(8)
        streams = []
        term_pairs = CFiniteSeries._term_pairs

        def counting_term_pairs(s):
            streams.append(s)
            return term_pairs(s)

        monkeypatch.setattr(CFiniteSeries, "_term_pairs", counting_term_pairs)
        result = abel_estimate(series)
        assert abs(result.estimate) < 1e-6  # eta(-8) = 0
        assert streams == [series]

    @pytest.mark.parametrize(
        "recurrence, initial, exact",
        [
            ([0, -1], [1, 0], F(1, 2)),
            ([-1, -1], [1, 0], F(2, 3)),
            ([0, -2], [1, 0], F(1, 3)),
            ([0, 1, 0, -2], [1, 0, 1, 0], F(1, 2)),
            # zero at every sixth term; the filtered sums have isolated
            # singular epsilon entries (Wynn's particular rule)
            ([1, F(-1, 3)], [0, 1], F(3)),
            # the filtered sums have an error of order 6: exact at column 12,
            # which a 2d + 4 column cap would stop on before seeing it
            ([0, -1, 0, F(-1, 2)], [0, 3, -3, -3], F(0)),
            # one nonzero term in twelve: fewer sums than the epsilon windows span
            ([0] * 11 + [F(-1, 2)], [1] + [0] * 11, F(2, 3)),
            # eventually zero: the recurrence state vanishes after a_2
            ([0, 0, 0], [2, -1, 5], F(6)),
            # one zero term inside the later windows (n = 24, 27): the even
            # column settles on the flat run past it
            ([-2, 0, 2], [0, 0, 3], F(3)),
            ([-2, 0, 2], [-1, 0, -1], F(-4)),
        ],
    )
    def test_zero_terms_settle(self, recurrence, initial, exact):
        # zero terms repeat partial sums: the grid nodes skip them, the node
        # at x = 1 keeps them and does not settle in column 0
        series = CFiniteSeries(recurrence, initial)
        report = compare_exact(series)
        assert report.passed
        assert report.exact == exact

    def test_exactly_singular_pairs_at_every_node(self):
        # a(n) = a(n-5)/2 has exactly equal pairs in column 4 at every node
        report = compare_exact(CFiniteSeries([0, 0, 0, 0, F(1, 2)], [1, 2, 3, 4, 5]))
        assert report.passed
        assert report.exact == 30


class TestNodeAtOne:
    """compare_exact reads the epsilon node at x = 1; the grid is its fallback."""

    @pytest.mark.parametrize(
        "recurrence, initial, exact",
        [
            # sums 1, 1, 0, 1, 1, 0, ...: without the zeros, 1, 0, 1, 0 settles on 1/2
            ([-1, -1], [1, 0], F(2, 3)),
            # no grid node settles here (the strict xfail above), but x = 1 does
            ([0, 0, -1, 0, 0, F(-1, 3)], [0, -3, 3, 3, 2, 2], F(3)),
        ],
    )
    def test_zero_terms_settle_at_one(self, recurrence, initial, exact):
        report = compare_exact(CFiniteSeries(recurrence, initial))
        assert (report.exact, report.passed, report.nodes) == (exact, True, 1)

    @pytest.mark.parametrize(
        "recurrence, initial, exact",
        [
            ([0, -1, 0, F(-1, 2)], [0, 3, -3, -3], 0),
            ([0, 0, 0, 0, F(1, 2)], [1, 2, 3, 4, 5], 30),
            # eleven zero terms in twelve: a column 0 that settled would stop
            # on 11/16 at the first flat run of sums
            ([0] * 11 + [F(-1, 2)], [1] + [0] * 11, F(2, 3)),
            # Q = (1 - x)(1 - x^3/5): a removable factor at x = 1 as well
            ([1, 0, F(1, 5), F(-1, 5)], [0, -3, 0, 0], F(-15, 4)),
        ],
    )
    def test_unsettled_node_falls_back_to_the_grid(self, recurrence, initial, exact):
        # the node at x = 1 raises NonconvergenceError; the grid passes
        report = compare_exact(CFiniteSeries(recurrence, initial))
        assert report.passed
        assert report.exact == exact
        assert report.nodes == abel._GRID_LEVELS


def node_corpus(rng):
    """Sigma and odd k = 0..30 (terms past the 50-digit floor), ratios with
    denominators up to 17, and recurrences with zero coefficients and zero
    initial terms, some of them eventually zero."""
    corpus = [build(k) for build in (alternating_power_series, odd_alternating_series)
              for k in range(31)]
    corpus += [geometric_series(F(rng.randint(-60, 60) or 1, q)) for q in range(1, 18)]

    def rational():
        return F(0) if rng.random() < 0.3 else F(rng.randint(-9, 9), rng.randint(1, 17))

    for _ in range(80):
        d = rng.randint(1, 6)
        corpus.append(CFiniteSeries([rational() for _ in range(d)], [rational() for _ in range(d)]))
    return corpus + [CFiniteSeries([0, 0, 0], [2, -1, 5]), CFiniteSeries([F(1, 2), 0], [7, 0])]


def fraction_node_inputs(series):
    """The node inputs through Fractions: terms(5d + 35), each divided as
    Decimal(numerator) / Decimal(denominator), and the digits from the
    same bit lengths."""
    exact_terms = series.terms(5 * series.order + 35)
    bits = max((abs(a.numerator).bit_length() - a.denominator.bit_length()
                for a in exact_terms if a), default=0)
    digits = max(50, math.floor(2 * bits * math.log10(2)) + 16)
    with localcontext() as ctx:
        ctx.prec = digits
        return [Decimal(a.numerator) / Decimal(a.denominator) for a in exact_terms], digits


class TestIntegerNodeInputs:
    """The node reads the integer term stream: the same decimals, digits
    and sums as the route through Fractions."""

    def test_inputs_match_the_fraction_route(self):
        widened = 0
        for series in node_corpus(random.Random(29)):
            terms, digits = abel._node_inputs(series)
            expected, expected_digits = fraction_node_inputs(series)
            assert digits == expected_digits
            # the same values with the same coefficients and exponents
            assert [a.as_tuple() for a in terms] == [a.as_tuple() for a in expected]
            widened += digits > 50
        assert widened > 0

    def test_sums_at_one_are_the_running_sum(self):
        for series in node_corpus(random.Random(29)):
            terms, digits = abel._node_inputs(series)
            with localcontext() as ctx:
                ctx.prec = digits
                sums = abel._partial_sums(terms, Decimal(1))
                running, total = [], Decimal(0)
                for a in terms:
                    total += a
                    running.append(total)
            assert len(sums) == len(terms)
            assert [a.as_tuple() for a in sums] == [a.as_tuple() for a in running]


@pytest.mark.parametrize("ratio, exact", [(F(8, 7), -7), (F(16, 15), -15)])
def test_ratio_with_a_pole_on_the_grid(ratio, exact):
    # r = 2^j/(2^j - 1) puts x_j = 1/r on a pole; that level is skipped
    series = poly_exp_series([1], ratio)
    report = compare_exact(series)
    assert report.passed
    assert report.exact == exact
    assert abel_estimate(series).nodes_used == 10


class TestPoleLevels:
    """The integer test Q(x_j) != 0 skips the levels that the characteristic
    polynomial, evaluated at 1/x_j in Fractions, skipped."""

    @staticmethod
    def levels(monkeypatch, series, grid_levels=abel._GRID_LEVELS):
        """The levels j whose nodes x_j = 1 - 2^-j abel_estimate evaluates."""
        levels = []

        def record(terms, order, x_dec, digits):
            levels.append((1 / (1 - F(x_dec))).numerator.bit_length() - 1)
            return x_dec  # no pole signature: the values barely grow

        monkeypatch.setattr(abel, "_node_value", record)
        abel_estimate(series, grid_levels)
        return levels

    @staticmethod
    def charpoly_levels(series, grid_levels=abel._GRID_LEVELS):
        charpoly = characteristic_polynomial(series)
        off_pole = (j for j in count(abel._FIRST_LEVEL)
                    if charpoly.evaluate(F(2 ** j, 2 ** j - 1)))
        return list(islice(off_pole, grid_levels))

    @pytest.mark.parametrize("j", range(3, 13))
    def test_resonant_ratios(self, monkeypatch, j):
        expected = [i for i in range(3, 14) if i != j]
        for p in ([1], [2, -1, F(1, 3)]):
            series = poly_exp_series(p, F(2 ** j, 2 ** j - 1))
            assert self.levels(monkeypatch, series) == self.charpoly_levels(series) == expected

    def test_seeded_corpus(self, monkeypatch):
        rng = random.Random(19)
        skipped = 0
        for _ in range(80):
            # roots at 1/x_j for some levels j, with multiplicity, among
            # random rationals, zero roots and roots at 1
            roots = [F(2 ** j, 2 ** j - 1) for j in rng.choices(range(3, 16), k=rng.randint(0, 4))]
            roots += [F(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(rng.randint(1, 3))]
            roots += [F(1)] * rng.randint(0, 1)
            char = Polynomial([1])
            for r in roots:
                char = char * Polynomial([-r, 1])
            d = char.degree
            series = CFiniteSeries([-char.coefficient(d - i) for i in range(1, d + 1)],
                                   [F(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(d)])
            grid_levels = rng.randint(3, 12)
            levels = self.levels(monkeypatch, series, grid_levels)
            assert levels == self.charpoly_levels(series, grid_levels)
            skipped += levels[-1] - abel._FIRST_LEVEL + 1 - grid_levels
        assert skipped > 80


def _assert_matches_oracle(series, oracle):
    report = compare_exact(series)
    assert report.passed
    assert abs(report.estimate - oracle) <= 1e-6 * max(1.0, abs(oracle))


@pytest.mark.parametrize("k", range(61))
def test_alternating_powers_match_mpmath(k):
    # sum (-1)^n (n+1)^k is eta(-k); the working precision grows with k
    mpmath = pytest.importorskip("mpmath")
    oracle = float(mpmath.altzeta(-k))
    _assert_matches_oracle(alternating_power_series(k), oracle)


@pytest.mark.parametrize("k", range(61))
def test_odd_alternating_match_sympy(k):
    # sum (-1)^n (2n+1)^k is E_k / 2 with sympy's signs (E_2 = -1)
    sympy = pytest.importorskip("sympy")
    oracle = float(sympy.euler(k)) / 2
    _assert_matches_oracle(odd_alternating_series(k), oracle)
