"""Span tracer installed on divsum from outside, and the per-layer metrics.

Nothing under ``src/`` changes.  ``install`` wraps every public function
of the eight layer modules (the names in each module's ``__all__``) and
rebinds the wrapper in every ``divsum.*`` namespace that holds the
original, because the modules import each other with ``from .x import y``.
Public methods of the layer classes, plus the operators the per-layer
metrics name, are wrapped on the class itself.

Each call becomes a span: name, start, end, parent span and request id,
kept in memory and written out by ``write_spans`` at the end.  The public
functions of ``rationals`` are one-line wrappers of stdlib calls made in
the innermost loops (``binomial`` runs N^3/6 times in a Garabedian table),
so they are timed and counted but not kept as records; their time still
counts as covered by children in the caller's span.  Self time is a
span's duration minus the time its children cover.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = ("rationals", "polynomials", "series", "sequences", "cfinite", "abel", "parsing", "cli")

_LEAF_LAYERS = {"rationals"}

# Operators named by the per-layer metrics, wrapped besides the public
# methods; __rmul__ records under the same name as __mul__.
_OPERATORS = {
    "Polynomial": {"__mul__": "__mul__", "__rmul__": "__mul__", "__divmod__": "__divmod__"},
    "TruncatedSeries": {"__mul__": "__mul__"},
    "RationalFunction": {"__init__": "__init__"},
}

# Span record fields.
NAME, PARENT, REQUEST, START, END, COVER = range(6)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.leaf_calls: Counter = Counter()
        self.leaf_seconds: defaultdict = defaultdict(float)
        self.counters: Counter = Counter()
        self.request = -1

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def span(self, name, fn, label=None, observe=None):
        """Wrap `fn` so each call records a span named `name` (+ `.label`)."""
        spans, stack = self.spans, self.stack
        fixed = None if label else self._id(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            name_id = fixed if label is None else self._id(f"{name}.{label(args, kwargs)}")
            record = [name_id, stack[-1] if stack else -1, self.request, 0.0, 0.0, 0.0]
            stack.append(len(spans))
            spans.append(record)
            record[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                self._close(record)
                if observe:
                    observe(self, args, None, exc)
                raise
            self._close(record)
            if observe:
                observe(self, args, result, None)
            return result

        return wrapper

    def _close(self, record):
        end = record[END] = perf_counter()
        self.stack.pop()
        if self.stack:
            self.spans[self.stack[-1]][COVER] += end - record[START]

    def leaf(self, name, fn):
        """Wrap `fn` to count and time calls without keeping a span record."""
        spans, stack = self.spans, self.stack
        calls, seconds = self.leaf_calls, self.leaf_seconds

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                calls[name] += 1
                seconds[name] += elapsed
                if stack:
                    spans[stack[-1]][COVER] += elapsed

        return wrapper


def _method_label(args, kwargs):
    return args[1] if len(args) > 1 else kwargs.get("method", "recurrence")


def _observe_sum(tracer, args, result, exc):
    tracer.counters["cfinite.order_sum"] += args[0].order


def _observe_emit(tracer, args, result, exc):
    if result is not None:
        tracer.counters["cli.emit.bytes"] += len(result.encode())


def _observe_estimate(tracer, args, result, exc):
    if exc is None:
        tracer.counters["abel.nodes"] += result.nodes_used
    elif type(exc).__name__ == "NonconvergenceError":
        tracer.counters["abel.nonconvergence"] += 1
    elif type(exc).__name__ == "DivergentGridError":
        tracer.counters["abel.divergent_grid"] += 1


def _observe_compare(tracer, args, result, exc):
    if exc is None and result.passed:
        tracer.counters["abel.compare.passed"] += 1


_LABELS = {"sequences.bernoulli_table": _method_label, "sequences.euler_table": _method_label}
_OBSERVERS = {
    "cfinite.axiomatic_sum": _observe_sum,
    "cli.emit": _observe_emit,
    "abel.abel_estimate": _observe_estimate,
    "abel.compare_exact": _observe_compare,
}


def install(tracer: Tracer, package: str = "divsum") -> None:
    """Wrap divsum's public names, all of whose modules must be imported."""
    modules = [m for n, m in list(sys.modules.items()) if n == package or n.startswith(package + ".")]
    replacements = {}
    for module in modules:
        layer = module.__name__.rpartition(".")[2]
        if layer not in LAYERS:
            continue
        for public in module.__all__:
            obj = getattr(module, public)
            name = f"{layer}.{public}"
            if isinstance(obj, type):
                if not issubclass(obj, BaseException):
                    _wrap_class(tracer, layer, obj)
            elif callable(obj):
                if layer in _LEAF_LAYERS:
                    replacements[id(obj)] = (obj, tracer.leaf(name, obj))
                else:
                    replacements[id(obj)] = (obj, tracer.span(
                        name, obj, _LABELS.get(name), _OBSERVERS.get(name)))
    for module in modules:
        for attr, value in list(vars(module).items()):
            hit = replacements.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(module, attr, hit[1])


def _wrap_class(tracer, layer, cls) -> None:
    operators = _OPERATORS.get(cls.__name__, {})
    for attr, value in list(vars(cls).items()):
        if attr.startswith("_") and attr not in operators:
            continue
        span_name = f"{layer}.{cls.__name__}.{operators.get(attr, attr)}"
        if isinstance(value, classmethod):
            setattr(cls, attr, classmethod(tracer.span(span_name, value.__func__)))
        elif callable(value) and not isinstance(value, (type, staticmethod)):
            setattr(cls, attr, tracer.span(span_name, value))


# Per-layer metric -> span names whose calls or self time it sums.
_SPAN_METRICS = {
    "polynomials.gcd": ("polynomials.polynomial_gcd",),
    "polynomials.divmod": ("polynomials.Polynomial.__divmod__",),
    "polynomials.rational_function": ("polynomials.RationalFunction.__init__",),
    "polynomials.root_multiplicity": ("polynomials.Polynomial.root_multiplicity",),
    "polynomials.mul": ("polynomials.Polynomial.__mul__",),
    "polynomials.evaluate": ("polynomials.Polynomial.evaluate",),
    "series.reciprocal": ("series.TruncatedSeries.reciprocal",),
    "series.mul": ("series.TruncatedSeries.__mul__",),
    "series.known_series": ("series.known_series",),
    "sequences.weighted_bernoulli": ("sequences.weighted_bernoulli",),
    "sequences.verify": tuple(f"sequences.verify_{v}" for v in (
        "affine_relation", "even_doubling", "odd_split", "peeled_recursion", "weighted_recursion")),
    "cfinite.poly_exp_series": ("cfinite.poly_exp_series",),
    "cfinite.generating_function": ("cfinite.generating_function",),
    "cfinite.axiomatic_sum": ("cfinite.axiomatic_sum",),
    "cfinite.terms": ("cfinite.CFiniteSeries.terms",),
    "abel.compare_exact": ("abel.compare_exact",),
    "abel.abel_estimate": ("abel.abel_estimate",),
    "cli.run_command": ("cli.run_command",),
    "cli.emit": ("cli.emit",),
    "parsing.parse_series": ("parsing.parse_series",),
}
_SPAN_METRICS.update({
    f"sequences.{table}.{method}": (f"sequences.{table}.{method}",)
    for table, methods in (("bernoulli_table", ("recurrence", "series", "garabedian")),
                           ("euler_table", ("recurrence", "series")))
    for method in methods
})

CALL_METRICS = (
    "polynomials.gcd", "polynomials.divmod", "polynomials.mul", "polynomials.evaluate",
    "series.reciprocal", "series.mul", "sequences.weighted_bernoulli", "cfinite.terms",
    "parsing.parse_series",
)
SELF_METRICS = (
    "polynomials.gcd", "polynomials.divmod", "polynomials.rational_function",
    "polynomials.root_multiplicity", "polynomials.mul",
    "sequences.bernoulli_table.recurrence", "sequences.bernoulli_table.series",
    "sequences.bernoulli_table.garabedian", "sequences.euler_table.recurrence",
    "sequences.euler_table.series", "series.reciprocal", "series.mul", "series.known_series",
    "sequences.verify", "cfinite.poly_exp_series", "cfinite.generating_function",
    "cfinite.axiomatic_sum", "abel.compare_exact", "abel.abel_estimate",
    "cli.run_command", "cli.emit", "parsing.parse_series",
)
LEAF_CALL_METRICS = ("rationals.binomial", "rationals.format_rational")
COUNTER_METRICS = (
    "cfinite.order_sum", "cli.emit.bytes", "abel.nodes", "abel.nonconvergence", "abel.divergent_grid",
)


def span_stats(tracer: Tracer):
    """Calls and self seconds per span name, leaf functions included."""
    calls, self_s = Counter(), defaultdict(float)
    names = tracer.names
    for rec in tracer.spans:
        name = names[rec[NAME]]
        calls[name] += 1
        self_s[name] += rec[END] - rec[START] - rec[COVER]
    for name, n in tracer.leaf_calls.items():
        calls[name] += n
        self_s[name] += tracer.leaf_seconds[name]
    return calls, self_s


def _inclusive_under(tracer: Tracer, name: str, ancestor: str) -> tuple[float, float]:
    """Total time of `name` spans under an `ancestor` span, and of the
    outermost `ancestor` spans themselves."""
    names, spans = tracer.names, tracer.spans
    inner = outer = 0.0
    for rec in spans:
        span_name = names[rec[NAME]]
        if span_name not in (name, ancestor):
            continue
        parent, found = rec[PARENT], False
        while parent >= 0 and not found:
            found = names[spans[parent][NAME]] == ancestor
            parent = spans[parent][PARENT]
        if span_name == name and found:
            inner += rec[END] - rec[START]
        elif span_name == ancestor and not found:
            outer += rec[END] - rec[START]
    return inner, outer


def per_layer(tracer: Tracer) -> dict:
    """The per-layer metric values of one traced round."""
    calls, self_s = span_stats(tracer)
    out = {}
    for metric in CALL_METRICS:
        out[f"{metric}.calls"] = sum(calls[s] for s in _SPAN_METRICS[metric])
    for metric in SELF_METRICS:
        out[f"{metric}.self_s"] = sum(self_s[s] for s in _SPAN_METRICS[metric])
    for metric in LEAF_CALL_METRICS:
        out[f"{metric}.calls"] = calls[metric]
    for metric in COUNTER_METRICS:
        out[metric] = tracer.counters[metric]
    compares = calls["abel.compare_exact"]
    out["abel.pass_ratio"] = tracer.counters["abel.compare.passed"] / compares if compares else 0.0
    total = sum(self_s.values())
    for layer in LAYERS:
        layer_s = sum(v for k, v in self_s.items() if k.startswith(layer + "."))
        out[f"{layer}.self_s"] = layer_s
    out["abel.self_share"] = out["abel.self_s"] / total if total else 0.0
    gcd, axiomatic = _inclusive_under(tracer, "polynomials.polynomial_gcd", "cfinite.axiomatic_sum")
    out["cfinite.axiomatic_sum.gcd_share"] = gcd / axiomatic if axiomatic else 0.0
    out["trace.spans"] = len(tracer.spans)
    return out


def write_spans(tracer: Tracer, path) -> None:
    """One JSON line per span: name, parent index, request, start, end, self."""
    with open(path, "w") as fh:
        origin = tracer.spans[0][START] if tracer.spans else 0.0
        for rec in tracer.spans:
            fh.write(json.dumps([
                tracer.names[rec[NAME]], rec[PARENT], rec[REQUEST],
                round(rec[START] - origin, 9), round(rec[END] - origin, 9),
                round(rec[END] - rec[START] - rec[COVER], 9),
            ]) + "\n")
