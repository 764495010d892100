import random
from fractions import Fraction
from functools import lru_cache, partial
from math import comb, factorial
from operator import add, mul

import pytest

from divsum import sequences
from divsum.cfinite import axiomatic_sum, odd_alternating_series
from divsum.polynomials import _append_over_lcm
from divsum.sequences import (
    BERNOULLI_METHODS,
    EULER_METHODS,
    BernoulliTable,
    EulerTable,
    EvenIndexError,
    IdentityViolation,
    OddIndexError,
    _checked,
    _tangent_numbers,
    _tangent_weights,
    bernoulli,
    bernoulli_generating_series,
    bernoulli_table,
    cot_coefficient,
    cotangent_series,
    euler,
    euler_table,
    odd_alternating_value,
    secant_series,
    tan_coefficient,
    tangent_series,
    verify_affine_relation,
    verify_even_doubling,
    verify_odd_split,
    verify_peeled_recursion,
    verify_weighted_recursion,
    weighted_bernoulli,
)
from divsum.series import TruncatedSeries

F = Fraction


# The five identity checks, each as a function of the index k alone.
IDENTITY_CHECKS = {
    "eq4": verify_weighted_recursion,
    "prop2": lambda k: verify_peeled_recursion(3, k),
    "eq6": verify_odd_split,
    "eq7": verify_even_doubling,
    "mixed": lambda k: verify_affine_relation(3, F(1, 2), k),
}


def garabedian_by_differences(n_max):
    """Garabedian's sum with each inner sum formed afresh, O(N^3): for every
    n, differencing (j+1)^n in place as d[i] <- d[i-1] - d[i] leaves
    sum_j (-1)^j C(i, j) (j+1)^n in d[i], sign included.  It shares no step
    with the Stirling rows of the library's builder."""
    values = [F(1), F(-1, 2)][: n_max + 1]
    for m in range(2, n_max + 1):
        n = m - 1
        d = [(j + 1) ** n for j in range(n + 1)]
        for s in range(1, n + 1):
            d[s:] = [prev - cur for prev, cur in zip(d[s - 1:], d[s:])]
        total = sum(inner << (n - i) for i, inner in enumerate(d))  # over 2^(n+1)
        values.append(F(m * total, (2 ** m - 1) * 2 ** m))
    return values


def sin_sec_product(order):
    """tan z as sin z times sec z, built here in Fractions: sin z from its
    Taylor coefficients, sec z from the Euler recurrence table as E_n / n!.
    It shares no step with the tangent numbers."""
    sin = TruncatedSeries([F((0, 1, 0, -1)[m % 4], factorial(m)) for m in range(order + 1)])
    sec = TruncatedSeries([F(e, factorial(n)) for n, e in enumerate(euler_table(order).values)])
    return sin * sec


@lru_cache(maxsize=None)
def full_bernoulli_recurrence(n_max):
    """B_0..B_{n_max} from sum_{k=0}^{m} C(m+1, k) B_k = 0 solved at every
    m >= 1, odd m included: row m + 1 of Pascal's triangle dotted with all
    of B_0..B_{m-1} over one running common denominator.  The library's
    builders set the odd zeros directly; this derives them."""
    values, nums, den, row = [F(1)], [1], 1, [1, 1]
    for m in range(1, n_max + 1):
        row = [1, *map(add, row, row[1:]), 1]
        values.append(F(-sum(map(mul, row, nums)), (m + 1) * den))
        den = _append_over_lcm(nums, den, values[m].numerator, values[m].denominator)
    return tuple(values)


def reference_weights(k):
    """T(0..k) as Fractions from one Bernoulli table, by the defining formula."""
    b = bernoulli_table(k + 1).values
    return [F(1, 2)] + [F(2 ** (j + 1) - 1, j + 1) * b[j + 1] for j in range(1, k + 1)]


# The five checks as Fraction sums, one term at a time, over given weights
# t = T(0..k) and Euler numbers e = E_0..E_k: the formulas that the integer
# sums of divsum.sequences replaced, kept as oracles.  Each returns (lhs, rhs)
# and takes the verifier's own arguments after t and e.
def eq4_oracle(t, e, k):
    rhs = F(1, 2)
    for l in range(1, k + 1):
        rhs -= comb(k, l) * t[l]
    return t[k], rhs


def prop2_oracle(t, e, a, k):
    rhs = F(0)
    for n in range(a):
        rhs += F((-1) ** n * (n + 1) ** k)
    rhs += F((-1) ** a * a ** k, 2)
    tail = F(0)
    for j in range(1, k + 1):
        tail += comb(k, j) * a ** (k - j) * t[j]
    return t[k], rhs + (-1) ** a * tail


def eq6_oracle(t, e, k):
    lhs = F(0)
    for j in range(1, k + 1):
        lhs += comb(k, j) * 2 ** j * t[j]
    return lhs, F(1, 2) - F((-1) ** (k // 2) * e[k], 2)


def eq7_oracle(t, e, k):
    rhs = F(0)
    for j in range(k + 1):
        rhs += comb(k, j) * (-1) ** (j // 2) * e[j]
    return 2 ** (k + 1) * t[k], rhs


def mixed_oracle(t, e, a, q, k):
    a, q = F(a), F(q)
    lhs = q ** k / 2
    for j in range(1, k + 1):
        lhs -= comb(k, j) * q ** (k - j) * a ** j * t[j]
    half_a = a / 2
    rhs = F(0)
    for j in range(k + 1):
        rhs += comb(k, j) * (half_a - q) ** (k - j) * half_a ** j * (-1) ** (j // 2) * e[j]
    return lhs, rhs * F((-1) ** k, 2)


ORACLES = {
    "eq4": (verify_weighted_recursion, eq4_oracle),
    "prop2": (verify_peeled_recursion, prop2_oracle),
    "eq6": (verify_odd_split, eq6_oracle),
    "eq7": (verify_even_doubling, eq7_oracle),
    "mixed": (verify_affine_relation, mixed_oracle),
}


def oracle_grid():
    """Seeded (identity, args) cases, k up to 120; mixed takes q = 0,
    negative q and fractional a at fixed and at drawn k."""
    rng = random.Random(1108)
    cases = []
    for k in [1, 2, 3, 4, 5, 120] + sorted(rng.sample(range(6, 120), 10)):
        cases += [("eq4", (k,)), ("eq6", (k,)), ("eq7", (k,)), ("prop2", (rng.randint(1, 7), k))]
        a = F(rng.randint(1, 9), rng.choice((1, 2, 3, 5)))
        q = F(rng.randint(-9, 9), rng.choice((1, 2, 4, 7)))
        cases.append(("mixed", (a, q, k)))
    for k in (1, 2, 7, 120):
        for a, q in ((F(1, 2), F(0)), (F(7, 3), F(-5, 4)), (F(2), F(-3)), (F(5, 6), F(1, 3))):
            cases.append(("mixed", (a, q, k)))
    return cases


ORACLE_GRID = oracle_grid()


class TestBernoulli:
    def test_anchor_values(self):
        assert bernoulli(0) == 1
        assert bernoulli(1) == F(-1, 2)
        assert bernoulli(2) == F(1, 6)
        assert bernoulli(7) == 0
        # solve sum_{k<5} C(5,k) B_k = 0 by hand: B_4 = -1/30
        assert bernoulli(4) == F(-1, 30)

    @pytest.mark.parametrize("method", ["series", "garabedian"])
    def test_methods_agree_with_recurrence(self, method):
        reference = bernoulli_table(24, "recurrence").values
        assert bernoulli_table(24, method).values == reference

    @pytest.mark.parametrize("n_max", range(41))
    def test_garabedian_equals_the_differenced_sum(self, n_max):
        # n_max = 0 and 1 cover the B_0, B_1 slice
        values = bernoulli_table(n_max, "garabedian").values
        assert list(values) == garabedian_by_differences(n_max)

    @pytest.mark.parametrize("n_max", range(8))
    def test_methods_agree_at_small_tables(self, n_max):
        # n_max = 0 and 1 run the row loops zero times or once
        expected = (F(1), F(-1, 2), F(1, 6), 0, F(-1, 30), 0, F(1, 42), 0)[: n_max + 1]
        for method in BERNOULLI_METHODS:
            assert bernoulli_table(n_max, method).values == expected

    def test_garabedian_agrees_at_400(self):
        assert bernoulli_table(400, "garabedian").values == bernoulli_table(400).values

    def test_series_agrees_at_600(self):
        assert bernoulli_table(600, "series").values == bernoulli_table(600).values

    @pytest.mark.parametrize("n", [300, 500])
    def test_matches_sympy_at_large_n(self, n):
        sympy = pytest.importorskip("sympy")
        b = sympy.bernoulli(n)  # n >= 2, where sympy's sign convention agrees
        assert bernoulli_table(600).values[n] == F(int(b.p), int(b.q))

    @pytest.mark.parametrize("n", [2, 60, 255, 300])
    def test_garabedian_matches_sympy(self, n):
        sympy = pytest.importorskip("sympy")
        b = sympy.bernoulli(n)  # n >= 2, where sympy's sign convention agrees
        assert bernoulli_table(300, "garabedian").values[n] == F(int(b.p), int(b.q))

    def test_full_recurrence_derives_the_odd_zeros(self):
        values = full_bernoulli_recurrence(401)
        assert values[1] == F(-1, 2)
        assert all(values[m] == 0 for m in range(3, 402, 2))

    @pytest.mark.parametrize("method", BERNOULLI_METHODS)
    def test_methods_equal_the_full_recurrence(self, method):
        # N = 401 ends on an odd index that every builder skips
        full = full_bernoulli_recurrence(401)
        for n_max in range(61):
            assert bernoulli_table(n_max, method).values == full[: n_max + 1], n_max
        assert bernoulli_table(401, method).values == full

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            bernoulli(4, "interpolation")

    def test_table_invariants_enforced(self):
        with pytest.raises(ValueError):
            BernoulliTable((F(2),), "recurrence")
        with pytest.raises(ValueError):
            BernoulliTable((F(1), F(1, 2)), "recurrence")
        with pytest.raises(ValueError):
            BernoulliTable((F(1), F(-1, 2), F(1, 6), F(1)), "recurrence")


class TestEuler:
    def test_anchor_values(self):
        assert euler(0) == 1
        assert euler(3) == 0
        # solve the recurrence for n = 1, 2: E_2 = 1, E_4 = 5
        assert euler(2) == 1
        assert euler(4) == 5
        assert euler(6) == 61
        assert euler(8) == 1385

    def test_methods_agree(self):
        assert euler_table(20, "series").values == euler_table(20, "recurrence").values

    @pytest.mark.parametrize("n_max", range(8))
    def test_methods_agree_at_small_tables(self, n_max):
        # an odd n_max ends the table on a zero past the last even index
        expected = (1, 0, 1, 0, 5, 0, 61, 0)[: n_max + 1]
        for method in EULER_METHODS:
            assert euler_table(n_max, method).values == expected

    def test_methods_agree_at_600(self):
        assert euler_table(600, "series").values == euler_table(600).values

    @pytest.mark.parametrize("method", [m for m in EULER_METHODS if m != "recurrence"])
    def test_methods_equal_the_recurrence(self, method):
        # N = 401 ends on an odd index past the last secant number
        reference = euler_table(401, "recurrence").values
        for n_max in range(61):
            assert euler_table(n_max, method).values == reference[: n_max + 1], n_max
        assert euler_table(401, method).values == reference

    def test_secant_numbers(self):
        assert sequences._secant_numbers(6) == [1, 1, 5, 61, 1385, 50521, 2702765]
        assert sequences._secant_numbers(0) == [1]

    @pytest.mark.parametrize("n", [300, 500])
    def test_matches_sympy_at_large_n(self, n):
        sympy = pytest.importorskip("sympy")
        assert euler_table(600).values[n] == int(sympy.euler(n))

    def test_values_are_integers(self):
        assert all(isinstance(v, int) for v in euler_table(20).values)

    def test_series_rejects_a_coefficient_that_does_not_clear(self, monkeypatch):
        # a stand-in for the chain of cosh in w = z^2: 1 + w/6, the stand-in cos(z) =
        # 1 - z^2/6 read at w -> -w.  Its sec(z) has 1/6 at z^2, and 2! * 1/6 = 1/3
        # is not an integer; sec(z) never gives one, so a stand-in does
        monkeypatch.setattr(sequences, "_even_factorial_chain", lambda n, s: [1, 6])
        with pytest.raises(ArithmeticError, match="^secant coefficient 2 did not clear to an integer$"):
            sequences._euler_series(2)

    def test_table_invariants_enforced(self):
        with pytest.raises(ValueError):
            EulerTable((1, 5), "recurrence")
        with pytest.raises(ValueError):
            EulerTable((F(1), 0), "recurrence")
        with pytest.raises(ValueError, match="^table must start with E_0 = 1$"):
            EulerTable((2,), "x")


class TestWeightedValues:
    def test_weighted_bernoulli(self):
        assert weighted_bernoulli(0) == F(1, 2)
        assert weighted_bernoulli(1) == F(1, 4)
        assert weighted_bernoulli(2) == 0
        # (2^4 - 1)/4 * B_4 = 15/4 * (-1/30)
        assert weighted_bernoulli(3) == F(-1, 8)
        with pytest.raises(ValueError):
            weighted_bernoulli(-1)

    def test_weighted_bernoulli_matches_sympy(self):
        sympy = pytest.importorskip("sympy")
        w, d = _tangent_weights(200)
        values = [F(x, d) for x in w]
        assert values[0] == F(1, 2)
        for k in range(1, 201):
            b = sympy.bernoulli(k + 1)  # n >= 2, where sympy's sign convention agrees
            assert values[k] == F(2 ** (k + 1) - 1, k + 1) * F(int(b.p), int(b.q)), k
        for k in (0, 1, 2, 3, 57, 199, 200):
            assert weighted_bernoulli(k) == values[k]

    def test_odd_alternating_value(self):
        assert odd_alternating_value(0) == F(1, 2)
        assert odd_alternating_value(1) == 0
        assert odd_alternating_value(2) == F(-1, 2)
        assert odd_alternating_value(4) == F(5, 2)
        with pytest.raises(ValueError, match="^index must be nonnegative$"):
            odd_alternating_value(-1)

    def test_odd_alternating_matches_engine(self):
        for k in range(31):
            assert axiomatic_sum(odd_alternating_series(k)).value == \
                odd_alternating_value(k)


class TestTrigCoefficients:
    def test_tan_values(self):
        assert tan_coefficient(1) == 1
        assert tan_coefficient(3) == F(1, 3)
        assert tan_coefficient(5) == F(2, 15)

    def test_cot_values(self):
        assert cot_coefficient(0) == 1
        assert cot_coefficient(2) == F(-1, 3)
        assert cot_coefficient(4) == F(-1, 45)

    def test_parity_flagged(self):
        with pytest.raises(EvenIndexError):
            tan_coefficient(4)
        with pytest.raises(OddIndexError):
            cot_coefficient(3)

    def test_index_messages_name_the_admitted_indices(self):
        tan = r"^tan coefficient expects a positive odd index, got -1$"
        with pytest.raises(EvenIndexError, match=tan):
            tan_coefficient(-1)
        cot = r"^cot coefficient expects a nonnegative even index, got -2$"
        with pytest.raises(OddIndexError, match=cot):
            cot_coefficient(-2)

    def test_tan_matches_the_bernoulli_formula(self):
        # the formula tan_coefficient used before it read tangent numbers
        for m in range(1, 62, 2):
            n = (m + 1) // 2
            old = F((-1) ** (n + 1) * 4 ** n * (4 ** n - 1), factorial(2 * n)) * bernoulli(2 * n)
            assert tan_coefficient(m) == old, m

    def test_tan_matches_product_series_at_61(self):
        tan = sin_sec_product(61)
        for m in range(1, 62, 2):
            assert tan_coefficient(m) == tan.coefficient(m), m

    def test_tan_matches_product_series(self):
        tan = tangent_series(21)
        assert tan == sin_sec_product(21)
        for m in range(1, 22, 2):
            assert tan.coefficient(m) == tan_coefficient(m)
        assert all(tan.coefficient(m) == 0 for m in range(0, 22, 2))

    def test_cot_matches_the_bernoulli_formula(self):
        # the formula cot_coefficient used before it read tangent numbers
        b = bernoulli_table(120).values
        for m in range(0, 121, 2):
            k = m // 2
            old = b[m] * F((-1) ** k * 2 ** m, factorial(m))
            assert cot_coefficient(m) == old, m

    def test_cot_matches_transformed_series_at_61(self):
        cot = cotangent_series(61)
        for m in range(0, 62, 2):
            assert cot_coefficient(m) == cot.coefficient(m), m

    def test_cot_matches_transformed_series(self):
        cot = cotangent_series(20)
        for m in range(0, 21, 2):
            assert cot.coefficient(m) == cot_coefficient(m)

    def test_cleared_tan_cot_identity(self):
        # z tan z = z cot z - 2z cot 2z, compared through order 20
        n = 20
        z_tan = TruncatedSeries.monomial(n, 1) * tangent_series(n)
        cot = cotangent_series(n)
        cot_2z = TruncatedSeries([c * 2 ** m for m, c in enumerate(cot.coefficients)])
        assert z_tan == cot - cot_2z

    def test_cleared_identity_joins_both_coefficient_routes(self):
        # coefficient of z^(2n): tan side vs (1 - 2^(2n)) times the cot side
        for n in range(1, 21):
            assert tan_coefficient(2 * n - 1) == \
                cot_coefficient(2 * n) * (1 - 2 ** (2 * n))


class TestSeriesRoutes:
    def test_bernoulli_series_coefficients(self):
        series = bernoulli_generating_series(12)
        assert series.coefficient(1) == F(-1, 2)
        fact = 1
        for k in range(13):
            assert series.coefficient(k) * fact == bernoulli(k)
            fact *= k + 1

    def test_secant_series_even_and_positive(self):
        sec = secant_series(14)
        fact = 1
        for n in range(15):
            coefficient = sec.coefficient(n)
            if n % 2 == 1:
                assert coefficient == 0
            else:
                assert coefficient * fact == euler(n)
            fact *= n + 1

    def test_weighted_values_are_exp_ratio_coefficients(self):
        # -1/(1 + e^z) has coefficient (2^(k+1)-1)/(k+1) B_{k+1} / k!, so the
        # series of those values times 1 + e^z is -1
        n = 18
        weighted = TruncatedSeries(
            [F(2 ** (k + 1) - 1, k + 1) * bernoulli(k + 1) / factorial(k) for k in range(n + 1)])
        one_plus_exp = TruncatedSeries([2] + [F(1, factorial(k)) for k in range(1, n + 1)])
        assert one_plus_exp * weighted == -TruncatedSeries.monomial(n, 0)


class TestVerifiers:
    @pytest.mark.parametrize("k", range(1, 13))
    def test_weighted_recursion_holds(self, k):
        assert verify_weighted_recursion(k).holds

    @pytest.mark.parametrize("a", [1, 2, 3])
    @pytest.mark.parametrize("k", [1, 2, 5, 9])
    def test_peeled_recursion_holds(self, a, k):
        report = verify_peeled_recursion(a, k)
        assert report.holds
        assert report.params == {"a": a, "k": k}

    def test_peeled_reduces_to_weighted_at_a1(self):
        assert verify_peeled_recursion(1, 6).lhs == verify_weighted_recursion(6).lhs

    @pytest.mark.parametrize("k", range(1, 13))
    def test_odd_split_holds(self, k):
        assert verify_odd_split(k).holds

    @pytest.mark.parametrize("k", range(1, 13))
    def test_even_doubling_holds(self, k):
        assert verify_even_doubling(k).holds

    def test_even_doubling_spot_value(self):
        report = verify_even_doubling(3)
        assert report.lhs == -2  # 2^4 * (-1/8)

    @pytest.mark.parametrize(
        "a,q", [(1, 1), (2, 1), (3, F(1, 2)), (F(1, 2), 2)]
    )
    @pytest.mark.parametrize("k", [1, 4, 7])
    def test_affine_relation_holds(self, a, q, k):
        assert verify_affine_relation(a, q, k).holds

    @pytest.mark.parametrize("k", [150, 200])
    @pytest.mark.parametrize("identity", IDENTITY_CHECKS)
    def test_identity_holds_at_large_k(self, identity, k):
        assert IDENTITY_CHECKS[identity](k).holds

    @pytest.mark.parametrize("identity", IDENTITY_CHECKS)
    def test_one_table_per_check(self, identity):
        bernoulli_table.cache_clear()
        euler_table.cache_clear()
        assert IDENTITY_CHECKS[identity](60).holds
        # the weights come from tangent numbers, not from a Bernoulli table
        assert bernoulli_table.cache_info().misses == 0
        assert euler_table.cache_info().misses <= 1

    def test_one_table_per_size_and_method(self):
        # the package spells every table request (n, method), so a table
        # reached through two public functions is built once
        bernoulli_table.cache_clear()
        euler_table.cache_clear()
        bernoulli(12)
        weighted_bernoulli(11)
        assert bernoulli_table.cache_info().misses == 1
        verify_odd_split(30)
        verify_even_doubling(30)
        assert euler_table.cache_info().misses == 1

    def test_affine_requires_positive_a(self):
        with pytest.raises(ValueError):
            verify_affine_relation(-1, 1, 3)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            verify_weighted_recursion(0)
        with pytest.raises(ValueError):
            verify_peeled_recursion(0, 3)
        for check in (verify_odd_split, verify_even_doubling,
                      lambda k: verify_affine_relation(1, 1, k)):
            with pytest.raises(ValueError, match="^index must be positive$"):
                check(0)

    def test_violation_carries_both_sides(self):
        with pytest.raises(IdentityViolation) as info:
            _checked("demo", {"k": 3}, F(1, 2), F(1, 3))
        report = info.value.report
        assert not report.holds
        assert (report.lhs, report.rhs) == (F(1, 2), F(1, 3))
        assert "demo" in str(info.value)

    def test_report_json_schema(self):
        payload = verify_odd_split(2).to_json()
        assert payload == {
            "identity": "eq6",
            "params": {"k": 2},
            "lhs": "1",
            "rhs": "1",
            "holds": True,
        }


class TestTangentRoutes:
    def test_tangent_numbers(self):
        assert _tangent_numbers(0) == []
        assert _tangent_numbers(1) == [1]
        assert _tangent_numbers(6) == [1, 2, 16, 272, 7936, 353792]

    def test_tangent_numbers_match_sympy(self):
        sympy = pytest.importorskip("sympy")
        tan = _tangent_numbers(500)
        for n in (2, 97, 250, 500):
            # Tan_n = (-1)^(n-1) 4^n (4^n - 1) B_2n / (2n)
            b = sympy.bernoulli(2 * n)
            expected = F((-1) ** (n - 1) * 4 ** n * (4 ** n - 1) * int(b.p), 2 * n * int(b.q))
            assert tan[n - 1] == expected, n

    def test_weights_match_weighted_bernoulli(self, monkeypatch):
        # weighted_bernoulli(j) reads B_{j+1} from bernoulli_table(j + 1); serve
        # every call from the one table B_0..B_401, which holds each of them,
        # instead of building 401 tables.
        table = bernoulli_table(401)
        monkeypatch.setattr(sequences, "bernoulli_table", lambda n_max, method="recurrence": table)
        w, d = _tangent_weights(400)
        assert d == 2 * 4 ** 200
        for j in range(401):
            assert F(w[j], d) == weighted_bernoulli(j), j

    @pytest.mark.parametrize("k", range(8))
    def test_weights_over_their_own_denominator(self, k):
        w, d = _tangent_weights(k)
        assert len(w) == k + 1
        assert d == 2 * 4 ** ((k + 1) // 2)
        assert [F(x, d) for x in w] == reference_weights(k)


class TestSecantRoute:
    """The secant table method, and the checks that read the secant table,
    against the Euler recurrence, which shares no step with them."""

    def test_equals_the_recurrence_at_1000_and_1001(self):
        # N = 1001 ends on an odd index that the secant builder sets to zero
        reference = euler_table(1001, "recurrence").values
        assert euler_table(1000, "secant").values == reference[:1001]
        assert euler_table(1001, "secant").values == reference

    @pytest.mark.parametrize("identity, args", [("eq6", ()), ("eq7", ()), ("mixed", (3, F(-1, 2)))])
    def test_right_sides_equal_the_recurrence_ones(self, identity, args):
        verifier, oracle = ORACLES[identity]
        for k in range(1, 61):
            _, rhs = oracle(reference_weights(k), euler_table(k, "recurrence").values, *args, k)
            assert verifier(*args, k).rhs == rhs, k

    @pytest.mark.parametrize("identity", ["eq6", "eq7", "mixed"])
    def test_corrupted_secant_table_is_a_violation(self, identity, monkeypatch):
        # two more than E_10 keeps the table's integer invariants; the table
        # cache is cleared on both sides so no other test reads it
        real = sequences._secant_numbers
        monkeypatch.setattr(sequences, "_secant_numbers", lambda n: [*real(n)[:-1], real(n)[-1] + 2])
        euler_table.cache_clear()
        try:
            with pytest.raises(IdentityViolation):
                IDENTITY_CHECKS[identity](10)
        finally:
            euler_table.cache_clear()


@lru_cache(maxsize=None)
def euler_residues(n_max, p):
    """(-1)^(n/2) E_n mod p at even n <= n_max, for an odd prime p, from the
    divergent series 1 - 3^n + 5^n - ... cut after p terms.

    sum_{j<m} (-1)^j (x + j)^n = (E_n(x) + E_n(x + m)) / 2 for odd m; at
    m = p and x = 1/2, times 2^n, the sum is E_n (signed) mod p.  One list
    of p powers, stepped by (2j + 1)^2 from one even n to the next.
    """
    powers = [1 - 2 * (j & 1) for j in range(p)]  # (-1)^j (2j + 1)^0
    squares = [(2 * j + 1) ** 2 % p for j in range(p)]
    residues = []
    for _ in range(0, n_max + 1, 2):
        residues.append(sum(powers) % p)
        powers = [x * y % p for x, y in zip(powers, squares)]
    return residues


@lru_cache(maxsize=None)
def bernoulli_residues(n_max, p):
    """B_m mod p at m <= n_max, for a prime p > n_max + 1, from the divergent
    series 0^m + 1^m + 2^m + ... cut after p terms.

    Faulhaber's formula taken mod p^2 gives p B_m = sum_{j<p} j^m (mod p^2),
    with 0^0 = 1 and B_1 = -1/2.
    """
    square = p * p
    powers = [1] * p  # j^0
    residues = []
    for _ in range(n_max + 1):
        total = sum(powers) % square
        assert total % p == 0
        residues.append(total // p)
        powers = [x * j % square for j, x in enumerate(powers)]
    return residues


def euler_certified(values, p):
    """Whether every even-index entry of an Euler table meets its residue mod p."""
    return all(((-1) ** k * e - r) % p == 0
               for k, (e, r) in enumerate(zip(values[::2], euler_residues(len(values) - 1, p))))


def bernoulli_certified(values, p):
    """Whether every entry of a Bernoulli table meets its residue mod p."""
    return all((b.numerator - r * b.denominator) % p == 0
               for b, r in zip(values, bernoulli_residues(len(values) - 1, p)))


class TestModularCertificates:
    """Every table method at N = 1000 against the paper's divergent series
    cut after p terms, mod p: a check that shares no step with any builder."""

    @pytest.mark.parametrize("method", EULER_METHODS)
    @pytest.mark.parametrize("p", [7, 11, 101, 1009])
    def test_euler_tables(self, method, p):
        assert euler_certified(euler_table(1000, method).values, p)

    @pytest.mark.parametrize("method", BERNOULLI_METHODS)
    def test_bernoulli_tables(self, method):
        assert bernoulli_certified(bernoulli_table(1000, method).values, 1009)

    def test_corrupted_secant_kernel_fails(self, monkeypatch):
        # the corrupted kernel of TestSecantRoute: two more than E_1000
        real = sequences._secant_numbers
        monkeypatch.setattr(sequences, "_secant_numbers", lambda n: [*real(n)[:-1], real(n)[-1] + 2])
        euler_table.cache_clear()
        try:
            values = euler_table(1000, "secant").values
        finally:
            euler_table.cache_clear()
        assert not any(euler_certified(values, p) for p in (7, 11, 101, 1009))

    @pytest.mark.parametrize("table, builders, certified", [
        (bernoulli_table, sequences._BERNOULLI_BUILDERS, bernoulli_certified),
        (euler_table, sequences._EULER_BUILDERS, euler_certified),
    ], ids=["bernoulli", "euler"])
    def test_one_wrong_entry_in_any_builder_fails(self, monkeypatch, table, builders, certified):
        # one more than the entry at index 500, whichever method built it
        def corrupted(real, n):
            values = real(n)
            values[500] += 1
            return values

        for method in builders:
            monkeypatch.setitem(builders, method, partial(corrupted, builders[method]))
            table.cache_clear()
            try:
                assert not certified(table(1000, method).values, 1009), method
            finally:
                table.cache_clear()


def _case_id(case):
    identity, args = case
    return f"{identity}-" + "-".join(map(str, args)).replace("/", "_")


class TestIntegerChecksMatchFractionOracles:
    @pytest.mark.parametrize("case", ORACLE_GRID, ids=_case_id)
    def test_same_sides_as_the_oracle(self, case):
        identity, args = case
        verifier, oracle = ORACLES[identity]
        report = verifier(*args)
        t = reference_weights(args[-1])
        assert (report.lhs, report.rhs) == oracle(t, euler_table(args[-1]).values, *args)
        assert report.holds

    @pytest.mark.parametrize("case", ORACLE_GRID, ids=_case_id)
    def test_same_report_with_a_corrupted_weight(self, case, monkeypatch):
        # one more than the last tangent number breaks the odd weight T(2M - 1);
        # the report, violated or not, must carry the oracle's two sides
        identity, args = case
        k = args[-1]
        verifier, oracle = ORACLES[identity]
        real = _tangent_numbers
        monkeypatch.setattr(sequences, "_tangent_numbers", lambda n: [*real(n)[:-1], real(n)[-1] + 1])
        tan = sequences._tangent_numbers((k + 1) // 2)
        t = [F(1, 2)] + [F(0)] * k
        for m, x in enumerate(tan, 1):
            t[2 * m - 1] = F((-1) ** (m - 1) * x, 4 ** m)
        lhs, rhs = oracle(t, euler_table(k).values, *args)
        try:
            report = verifier(*args)
        except IdentityViolation as exc:
            report = exc.report
        assert (report.lhs, report.rhs, report.holds) == (lhs, rhs, lhs == rhs)
