import contextlib
import math
import random
from decimal import Decimal, localcontext
from fractions import Fraction
from itertools import accumulate, islice

import pytest

from divsum import abel
from divsum.abel import NonconvergenceError, NotSummableInputError, compare_exact, partial_value
from divsum.cfinite import (
    CFiniteSeries,
    alternating_power_series,
    axiomatic_sum,
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
        assert compare_exact(alternating_power_series(1)).nodes == 1  # the node at x = 1


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

    def test_recurring_zero_terms(self):
        # zeros at n = 13, 18, 31, 36, ...: the sums keep them, and no run
        # of them fills a column
        series = CFiniteSeries([0, 0, -1, 0, 0, F(-1, 3)], [0, -3, 3, 3, 2, 2])
        assert partial_value(series, F(7, 8)) == pytest.approx(2878344 / 1430929, rel=1e-12)

    @pytest.mark.parametrize("recurrence, initial, x", [
        # a flat run of three entries, short of the column, reads -47.58 at 7/8
        # (exact -6291456/10777601)
        ([0, -1, 2, 0, 2, -4, 0, -4],
         [-2, F(4, 7), 2, F(-32, 7), F(-6, 7), F(32, 7), F(6, 7), F(-32, 7)], F(7, 8)),
        ([0, -1, 2, 0, 2, -4, 0, -4],
         [-2, F(4, 7), 2, F(-32, 7), F(-6, 7), F(32, 7), F(6, 7), F(-32, 7)], F(31, 32)),
        # with its zero terms dropped from the sums, no window settles here
        ([0, 0, 1, 0, 0, F(-1, 3), 0], [0, 0, 0, 0, F(5, 6), 0, F(-5, 8)], F(7, 8)),
    ])
    def test_sum_at_one_of_the_scaled_series(self, recurrence, initial, x):
        # the value at x is the sum at 1 of a_n x^n, recurrence c_j x^j
        series = CFiniteSeries(recurrence, initial)
        p, q = generating_function(series)
        expected = float(p.evaluate(x) / q.evaluate(x))
        assert abs(partial_value(series, x) - expected) <= 1e-10 * max(1.0, abs(expected))


class TestCompareExact:
    NEAR_ONE = [F(1024, 1023), F(255, 256), F(32767, 32768), 1 - F(1, 2 ** 25), F(8, 7),
                F(16, 15)]
    # terms that fall below the working precision: column 0 settles, and
    # at d = 1 no stride above 1 is left to fall back on
    SMALL = [F(1, 16), F(1, 17), F(-1, 50), F(1, 100), F(3, 61), F(1, 10 ** 6)]

    @pytest.mark.parametrize(
        "series",
        [alternating_power_series(k) for k in range(26, 61, 2)]
        + [odd_alternating_series(61), odd_alternating_series(101)]
        + [poly_exp_series([1], r) for r in NEAR_ONE + SMALL],
        ids=[f"sigma-{k}" for k in range(26, 61, 2)] + ["odd-61", "odd-101"]
        + [f"ratio-{r}" for r in NEAR_ONE + SMALL],
    )
    def test_passing_estimate_is_close(self, series):
        # the node at x = 1 is exact: no extrapolation toward it from below
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
        # a sum at x = 1 off by offset x 1e-6 max(1, |exact|)
        miss = offset * F(1, 10 ** 6) * max(1, abs(exact))
        monkeypatch.setattr(abel, "_sum_at_one", lambda series: float(exact + miss))
        report = compare_exact(series)
        assert (report.exact, report.passed, report.nodes) == (exact, passed, 1)

    def test_alternating_first_power_tight(self):
        report = compare_exact(alternating_power_series(1))
        assert abs(report.estimate - 0.25) < 1e-8

    def test_alternating_unit(self):
        report = compare_exact(alternating_power_series(0))
        assert report.passed
        assert abs(report.estimate - 0.5) < 1e-8

    def test_odd_squares_value(self):
        report = compare_exact(odd_alternating_series(2))
        assert report.passed
        assert report.exact == F(-1, 2)

    @pytest.mark.parametrize("polynomial", [[1], [1, 1]], ids=["ones", "naturals"])
    def test_not_summable_rejected(self, polynomial):
        with pytest.raises(NotSummableInputError):
            compare_exact(poly_exp_series(polynomial, 1))

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

    @pytest.mark.parametrize("series", [
        alternating_power_series(8),  # eta(-8) = 0 at the node x = 1
        CFiniteSeries([0, 0, 0, 0, F(1, 2)], [1, 2, 3, 4, 5]),  # on block means of stride 5
    ], ids=["node", "block-means"])
    def test_reads_one_term_stream(self, monkeypatch, series):
        # the node and every stride read one integer term stream, never from a_0 again
        streams = []
        term_pairs = CFiniteSeries._term_pairs

        def counting_term_pairs(s):
            streams.append(s)
            return term_pairs(s)

        monkeypatch.setattr(CFiniteSeries, "_term_pairs", counting_term_pairs)
        assert compare_exact(series).passed
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
        # zero terms repeat partial sums: a run of them is shorter than d
        # unless the series is eventually zero, so no whole column 0 is flat
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
    """compare_exact reads the epsilon node at x = 1, stride 1; block means
    are its fallback."""

    @pytest.mark.parametrize(
        "recurrence, initial, exact",
        [
            # sums 1, 1, 0, 1, 1, 0, ...: without the zeros, 1, 0, 1, 0 settles on 1/2
            ([-1, -1], [1, 0], F(2, 3)),
            # the series of test_recurring_zero_terms, at x = 1
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
            # Q = (1 + x)(1 - 2x^4) and Q = (1 + x^2)(1 - 6x^5): stride 2 settles
            ([-1, 0, 0, 2, 2], [0, 0, F(1, 2), F(-1, 2), F(1, 2)], F(-1, 4)),
            ([0, -1, 0, 0, 6, 0, 6], [0, 0, 0, 1, 0, -1, 0], F(-1, 10)),
        ],
    )
    def test_unsettled_node_falls_back_to_block_means(self, recurrence, initial, exact):
        series = CFiniteSeries(recurrence, initial)
        with pytest.raises(NonconvergenceError):
            node_value(series)
        report = compare_exact(series)
        assert (report.exact, report.passed, report.nodes) == (exact, True, 1)


def node_value(series):
    """The node at x = 1 alone: _sum_at_one with no stride above 1."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(abel, "_MAX_STRIDE", 1)
        return abel._sum_at_one(series)


def forced_block_value(series):
    """The block-means estimate at x = 1, whether or not the node there
    settles: the guard skips stride 1 as well."""
    guard = abel._repeated_unit_root
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(abel, "_repeated_unit_root", lambda q, p: p == 1 or guard(q, p))
        return abel._sum_at_one(series)


def within_bound(estimate, exact):
    return abs(estimate - float(exact)) <= 1e-6 * max(1.0, abs(float(exact)))


class TestBlockMeans:
    """Block means of the partial sums at x = 1, on the strides that the
    guard against repeated roots of unity leaves."""

    @pytest.mark.parametrize(
        "recurrence, initial, exact",
        [
            # Q = (1 - x)(1 - x^3/5): x - 1 divides P and Q
            ([1, 0, F(1, 5), F(-1, 5)], [0, -3, 0, 0], F(-15, 4)),
            # zero recurrence coefficients: a(n) = a(n-5)/2 and a(n) = -a(n-2) - a(n-4)/2
            ([0, 0, 0, 0, F(1, 2)], [1, 2, 3, 4, 5], 30),
            ([0, -1, 0, F(-1, 2)], [0, 3, -3, -3], 0),
            # zero terms recur in every window: the strict xfail of partial_value at x = 7/8
            ([0, 0, -1, 0, 0, F(-1, 3)], [0, -3, 3, 3, 2, 2], 3),
            # the gcd of the lags is 12, above the largest stride
            ([0] * 11 + [F(-1, 2)], list(range(1, 13)), 52),
            # Q = 1 - 3x^2/4: its terms grow in every other place
            ([0, F(3, 4)], [-4, 4], 0),
        ],
    )
    def test_named_series(self, recurrence, initial, exact):
        assert within_bound(forced_block_value(CFiniteSeries(recurrence, initial)), exact)

    def test_guard_skips_a_repeated_root_of_unity(self, monkeypatch):
        # Q = 1 + x + x^3 + x^4 = (1 + x)^2 (1 - x + x^2): on stride 2 the means
        # keep a constant from the double root -1 and settle on 1/6
        series = CFiniteSeries([-1, 0, -1, -1], [3, -4, 4, -7])
        assert axiomatic_sum(series).value == F(1, 2)
        assert within_bound(forced_block_value(series), F(1, 2))
        monkeypatch.setattr(abel, "_repeated_unit_root", lambda q, p: False)
        assert forced_block_value(series) == pytest.approx(1 / 6)

    @pytest.mark.parametrize("q, strides", [
        ([1, 2, 1], {2, 4, 6, 8}),  # (1 + x)^2
        ([1, 1, 1], set()),  # Phi_3 once
        ([1, 2, 3, 2, 1], {3, 6}),  # Phi_3^2
        ([1, 0, 2, 0, 1], {4, 8}),  # Phi_4^2
        ([1, -1, -1, 1], set()),  # (1 - x)^2 (1 + x): the root 1 is no concern
        ([25, -10, 1], set()),  # (5 - x)^2
    ])
    def test_repeated_unit_root(self, q, strides):
        assert {p for p in range(2, 9) if abel._repeated_unit_root(q, p)} == strides

    @pytest.mark.parametrize("n", range(2, 9))
    def test_cyclotomic_polynomials(self, n):
        # x^n - 1 is the product of Phi_k over the k dividing n, Phi_1 = x - 1
        product = Polynomial([-1, 1])
        for k in range(2, n + 1):
            if n % k == 0:
                product = product * Polynomial(abel._CYCLOTOMIC[k])
        assert product == Polynomial([-1] + [0] * (n - 1) + [1])

    @pytest.mark.parametrize("recurrence, strides", [
        ([0, 0, 0, 1, 0, 0, 0, F(1, 2)], [1, 4, 2, 3, 5, 6, 7, 8]),  # the gcd 4 after 1
        ([1, 0, 1], [1, 2, 3]),  # gcd 1: 1..d
        ([0] * 11 + [1], [1, 2, 3, 4, 5, 6, 7, 8]),  # no stride above 8
    ])
    def test_strides_and_no_settled_stride(self, monkeypatch, recurrence, strides):
        tried = []

        def skip(q, p):
            tried.append(p)
            return True

        monkeypatch.setattr(abel, "_repeated_unit_root", skip)
        series = CFiniteSeries(recurrence, [1] * len(recurrence))
        with pytest.raises(NonconvergenceError, match="no block means"):
            abel._sum_at_one(series)
        assert tried == strides


def structured_corpus(seed=2027, count=1500):
    """Summable series whose Q is R(x^p) F(x): p = 2..5, R of degree 1 or 2
    with R(0) = 1, F = 1 - x (also a factor of P, so removable), 1 + x,
    1 + x^2 or 1 with probabilities 0.3, 0.2, 0.1 and 0.4, deg Q <= 8, and P
    of a random degree below Q's; coefficients p/q with |p|, q <= 9."""
    rng = random.Random(seed)

    def rational():
        return F(rng.randint(-9, 9), rng.randint(1, 9))

    corpus = []
    while len(corpus) < count:
        p, degree = rng.randint(2, 5), rng.randint(1, 2)
        r = [1] + [rational() for _ in range(degree)]
        if not r[-1]:
            continue
        factor = rng.choices([[1, -1], [1, 1], [1, 0, 1], [1]], [0.3, 0.2, 0.1, 0.4])[0]
        q = Polynomial([r[i // p] if i % p == 0 else 0 for i in range(p * degree + 1)])
        q = q * Polynomial(factor)
        d = q.degree
        if d > 8:
            continue
        if factor == [1, -1]:
            numerator = Polynomial([rational() for _ in range(rng.randint(1, d - 1))])
            numerator = numerator * Polynomial(factor)
        else:
            numerator = Polynomial([rational() for _ in range(rng.randint(1, d))])
        initial = []
        for n in range(d):
            initial.append(numerator.coefficient(n)
                           - sum(q.coefficient(j) * initial[n - j] for j in range(1, n + 1)))
        series = CFiniteSeries([-q.coefficient(j) for j in range(1, d + 1)], initial)
        if any(initial) and axiomatic_sum(series).is_summable:
            corpus.append(series)
    return corpus


class TestStructuredCorpus:
    """Seed 2027: every node at x = 1 that settles is right, where it does
    not settle the block means pass, and forced onto every series of order
    >= 2 they never settle on a wrong value."""

    @pytest.fixture(scope="class")
    def corpus(self):
        return structured_corpus()

    def test_settled_nodes_are_right(self, corpus):
        # a flat run of three entries settled 18 of these nodes on one phase
        # of a periodic even column; a whole flat column settles none wrong
        settled = 0
        for series in corpus:
            with contextlib.suppress(NonconvergenceError):
                value = node_value(series)
                settled += 1
                assert within_bound(value, axiomatic_sum(series).value), series
        assert settled > 1000

    def test_unsettled_nodes_pass_on_block_means(self, corpus):
        fallback = 0
        for series in corpus:
            try:
                node_value(series)
            except NonconvergenceError:
                fallback += 1
                report = compare_exact(series)
                assert report.passed, series
        assert fallback > 300

    def test_forced_block_means_never_settle_wrong(self, corpus):
        for series in corpus:
            if series.order >= 2:
                with contextlib.suppress(NonconvergenceError):
                    assert within_bound(forced_block_value(series),
                                        axiomatic_sum(series).value), series


def node_pairs(series):
    """The integer term pairs one node reads: the first 5d + 35."""
    return list(islice(series._term_pairs(), 5 * series.order + 35))


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


class TestSuffixAtOne:
    """Each epsilon window runs first on its last 2d + 5 sums. An entry
    depends only on the sums under it, so where the suffix settles in a
    column above 0 it returns the very entry the full window returns: the
    same digits and exponent, and so the same printed estimate.  (On 13 of
    these windows the full window returns that entry without calling it
    settled.)  Where the suffix settles in column 0, the whole suffix is
    flat, and the value is the window's last sum."""

    def test_suffix_settles_on_the_full_windows_entry(self):
        same = 0
        for series in node_corpus(random.Random(29)):
            d = series.order
            terms, digits = abel._node_inputs(node_pairs(series))
            with localcontext() as ctx:
                ctx.prec = digits
                sums = list(accumulate(terms))
                for start in (d, 2 * d + 7, 3 * d + 14):  # the windows of _settled
                    window = sums[start:start + 2 * d + 21]
                    suffix = window[-2 * d - 5:]
                    value, settled = abel._wynn_even(suffix, digits)
                    if not settled:
                        continue
                    full, _ = abel._wynn_even(window, digits)
                    if value.as_tuple() == full.as_tuple():
                        same += 1
                    else:  # settled in column 0
                        assert value.as_tuple() == window[-1].as_tuple(), series
                        spread = max(suffix) - min(suffix)
                        assert spread <= abel._SETTLE * (1 + abs(value)), series
        assert same > 100

    def test_suffix_runs_first(self, monkeypatch):
        runs = []
        wynn_even = abel._wynn_even

        def recording(sums, *args, **kwargs):
            runs.append(sums)
            return wynn_even(sums, *args, **kwargs)

        monkeypatch.setattr(abel, "_wynn_even", recording)
        # sigma 8 (d = 9) settles on the last 23 of the sums 9..47, its first
        # window; the node below x = 1 runs that suffix first as well
        series = alternating_power_series(8)
        assert compare_exact(series).passed
        terms, digits = abel._node_inputs(node_pairs(series))
        with localcontext() as ctx:
            ctx.prec = digits
            assert runs == [list(accumulate(terms))[25:48]]
        runs.clear()
        partial_value(series, F(1, 2))
        assert len(runs[0]) == 2 * 9 + 5


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
            terms, digits = abel._node_inputs(node_pairs(series))
            expected, expected_digits = fraction_node_inputs(series)
            assert digits == expected_digits
            # the same values with the same coefficients and exponents
            assert [a.as_tuple() for a in terms] == [a.as_tuple() for a in expected]
            widened += digits > 50
        assert widened > 0

    def test_sums_at_one_are_the_running_sum(self, monkeypatch):
        # the sums the windows of stride 1 read
        seen = []
        settled = abel._settled

        def recording(sums, *args):
            seen.append(sums)
            return settled(sums, *args)

        monkeypatch.setattr(abel, "_settled", recording)
        for series in node_corpus(random.Random(29)):
            seen.clear()
            with contextlib.suppress(NonconvergenceError):
                node_value(series)
            sums, = seen
            terms, digits = abel._node_inputs(node_pairs(series))
            with localcontext() as ctx:
                ctx.prec = digits
                running, total = [], Decimal(0)
                for a in terms:
                    total += a
                    running.append(total)
            assert len(sums) == len(terms)
            assert [a.as_tuple() for a in sums] == [a.as_tuple() for a in running]


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
