"""Exact summation of divergent series and the number sequences it reaches.

The package computes Bernoulli and Euler numbers by independent methods,
sums linear-recurrence (C-finite) series through their exact rational
generating functions under the classical summation rules, verifies the
closed-form identities relating the two, and cross-checks every exact sum
against a floating-point evaluation of the limit of sum a_n x^n as x -> 1.
Its public names are those of the layer modules' ``__all__``.
"""

from .abel import *
from .cfinite import *
from .parsing import *
from .polynomials import *
from .sequences import *
from .series import *

__version__ = "0.1.0"
