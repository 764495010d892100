"""The package's public names are declared once, in each layer module's __all__."""

from inspect import Parameter, signature
from types import ModuleType

import pytest

import divsum
from divsum import abel, cfinite, parsing, polynomials, sequences, series

LAYERS = (abel, cfinite, parsing, polynomials, sequences, series)


def test_package_exports_the_union_of_the_layer_modules_all():
    declared = {name: getattr(m, name) for m in LAYERS for name in m.__all__}
    exported = {name: value for name, value in vars(divsum).items()
                if not name.startswith("_") and not isinstance(value, ModuleType)}
    assert exported.keys() == declared.keys()
    assert all(exported[name] is value for name, value in declared.items())
    assert len(exported) == 50


@pytest.mark.parametrize("cls, params", [
    (divsum.Polynomial, [("coefficients", ())]),
    (divsum.TruncatedSeries, [("coefficients", Parameter.empty)]),
    (divsum.CFiniteSeries, [("recurrence", Parameter.empty), ("initial", Parameter.empty)]),
], ids=["Polynomial", "TruncatedSeries", "CFiniteSeries"])
def test_value_type_constructor_parameters(cls, params):
    parameters = signature(cls).parameters.values()
    assert [(p.name, p.default) for p in parameters] == params
    assert all(p.kind is Parameter.POSITIONAL_OR_KEYWORD for p in parameters)
