"""Exact summation of divergent series and the number sequences it reaches.

The package computes Bernoulli and Euler numbers by independent methods,
sums linear-recurrence (C-finite) series through their exact rational
generating functions under the classical summation rules, verifies the
closed-form identities relating the two, and cross-checks every exact sum
against a floating-point evaluation of the limit of sum a_n x^n as x -> 1.
"""

from .abel import (
    AbelNumericResult,
    ComparisonReport,
    DivergentGridError,
    NonconvergenceError,
    NotSummableInputError,
    abel_estimate,
    compare_exact,
    partial_value,
)
from .cfinite import (
    CFiniteSeries,
    SummationOutcome,
    ZeroPolynomialError,
    alternating_power_series,
    axiomatic_sum,
    characteristic_polynomial,
    fibonacci_series,
    generating_function,
    geometric_series,
    linear_combine,
    odd_alternating_series,
    poly_exp_series,
    recursive_alternating_sum,
    shift,
)
from .parsing import (
    ArityMismatchError,
    ExpressionSyntaxError,
    parse_series,
)
from .polynomials import Polynomial
from .sequences import (
    BernoulliTable,
    EulerTable,
    EvenIndexError,
    IdentityViolation,
    OddIndexError,
    VerificationReport,
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
from .series import (
    NonInvertibleSeriesError,
    TruncatedSeries,
    UnknownSeriesError,
    known_series,
)

__version__ = "0.1.0"
