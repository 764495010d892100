from dataclasses import fields
from fractions import Fraction

import pytest

import divsum.abel
from divsum.abel import (
    AbelConfig,
    DivergentGridError,
    NonconvergenceError,
    NotSummableInputError,
    _growth_radius,
    abel_estimate,
    compare_exact,
    partial_value,
)
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

F = Fraction


class TestConfig:
    def test_defaults(self):
        cfg = AbelConfig()
        assert [f.name for f in fields(cfg)] == ["grid_levels", "max_terms"]
        assert cfg.grid_levels == 10
        assert cfg.max_terms == 200_000

    def test_validation(self):
        with pytest.raises(ValueError):
            AbelConfig(grid_levels=2)
        with pytest.raises(ValueError, match="term budget is unreasonably small"):
            AbelConfig(max_terms=99)
        assert AbelConfig(grid_levels=3, max_terms=100).max_terms == 100


class TestGrowthRadius:
    def test_alternating_corpus_has_unit_radius(self):
        # a multiplicity-m root cluster scatters by ~eps^(1/m) in floats, so
        # expect bound quality, not exactness, at higher powers
        assert _growth_radius(alternating_power_series(0)) == pytest.approx(1.0, abs=1e-8)
        for k in (2, 5):
            radius = _growth_radius(alternating_power_series(k))
            assert 0.999 < radius < 1.05

    def test_fibonacci_golden_ratio(self):
        assert _growth_radius(fibonacci_series()) == pytest.approx(1.6180339887, abs=1e-8)

    def test_geometric(self):
        assert _growth_radius(geometric_series(5)) == pytest.approx(5.0, abs=1e-6)
        assert _growth_radius(geometric_series(F(-1, 2))) == pytest.approx(0.5, abs=1e-6)


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
        ]
        for s in corpus:
            p, q = generating_function(s)
            for x in (F(1, 10), F(2, 5), F(7, 10)):
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

    def test_divergent_point_raises(self):
        # terms grow like (phi * 0.875)^n, no budget can converge the sum
        with pytest.raises(NonconvergenceError):
            partial_value(fibonacci_series(), 0.875)


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
                abel_estimate(series, AbelConfig(grid_levels=j)).error_estimate
                for j in range(5, 11)
            ]
            assert all(b < a for a, b in zip(errors, errors[1:])), f"k={k}: {errors}"


class TestCompareExact:
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


def _count_calls(monkeypatch) -> dict:
    """From here on, count term streams and growth-radius computations."""
    counts = {"streams": 0, "radius": 0}
    iter_terms = CFiniteSeries.iter_terms
    growth_radius = divsum.abel._growth_radius

    def counting_iter_terms(series):
        counts["streams"] += 1
        return iter_terms(series)

    def counting_growth_radius(series):
        counts["radius"] += 1
        return growth_radius(series)

    monkeypatch.setattr(CFiniteSeries, "iter_terms", counting_iter_terms)
    monkeypatch.setattr(divsum.abel, "_growth_radius", counting_growth_radius)
    return counts


class TestStatePerEstimate:
    """Terms are read once per estimate, and no node computes a growth radius."""

    def test_epsilon_path_reads_terms_once(self, monkeypatch):
        series = alternating_power_series(8)
        counts = _count_calls(monkeypatch)
        result = abel_estimate(series)
        assert abs(result.estimate) < 1e-6  # eta(-8) = 0
        assert counts == {"streams": 1, "radius": 0}

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
        ],
    )
    def test_zero_terms_need_no_radius(self, monkeypatch, recurrence, initial, exact):
        # zero terms repeat partial sums; the epsilon windows skip them, so
        # no node is summed directly
        series = CFiniteSeries(recurrence, initial)
        counts = _count_calls(monkeypatch)
        report = compare_exact(series, AbelConfig(grid_levels=5))
        assert report.passed
        assert report.exact == exact
        assert counts["radius"] == 0


@pytest.mark.parametrize("ratio, exact", [(F(8, 7), -7), (F(16, 15), -15)])
def test_ratio_with_a_pole_on_the_grid(monkeypatch, ratio, exact):
    # r = 2^j/(2^j - 1) puts x_j = 1/r on a pole; that level is skipped
    series = poly_exp_series([1], ratio)
    counts = _count_calls(monkeypatch)
    report = compare_exact(series)
    assert report.passed
    assert report.exact == exact
    assert report.nodes == 10
    assert counts["radius"] == 0


def _assert_matches_oracle(monkeypatch, series, oracle):
    counts = _count_calls(monkeypatch)
    report = compare_exact(series)
    assert report.passed
    assert abs(report.estimate - oracle) <= 1e-6 * max(1.0, abs(oracle))
    assert counts["radius"] == 0


@pytest.mark.parametrize("k", range(25))
def test_alternating_powers_match_mpmath(monkeypatch, k):
    # sum (-1)^n (n+1)^k is eta(-k); the working precision grows with k
    mpmath = pytest.importorskip("mpmath")
    oracle = float(mpmath.altzeta(-k))
    _assert_matches_oracle(monkeypatch, alternating_power_series(k), oracle)


@pytest.mark.parametrize("k", range(21))
def test_odd_alternating_match_sympy(monkeypatch, k):
    # sum (-1)^n (2n+1)^k is E_k / 2 with sympy's signs (E_2 = -1)
    sympy = pytest.importorskip("sympy")
    oracle = float(sympy.euler(k)) / 2
    _assert_matches_oracle(monkeypatch, odd_alternating_series(k), oracle)
