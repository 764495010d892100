"""Seeded request generators for the four benchmark workloads.

A workload is one *round*: a fixed list of CLI requests, each an argv list
for ``divsum.cli.run_command`` paired with a spec (a plain dict) that the
oracle reads.  Every request class has a fixed count per round, and a
class's sizes sit one per equal slice of its range, drawn near the middle
of the slice.  Request cost grows like N^3 or faster, so wider draws would
let the seed move the round's cost and tail; this way two seeds give
rounds of nearly the same cost while sending different inputs (sizes,
coefficients, ratios, formats and order all change with the seed).
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import comb

WORKLOADS = ("tables", "identities", "exact_sums", "numeric")

FORMATS = ("plain", "json", "csv")


_JITTER = 0.1  # share of a slice that a size draw may land in


def _spread(rng, lo, hi, count, log=False):
    """`count` integers covering [lo, hi], one draw near each slice's middle."""
    out = []
    for i in range(count):
        u = (i + 0.5 + _JITTER * (rng.random() - 0.5)) / count
        x = lo * (hi / lo) ** u if log else lo + u * (hi - lo)
        out.append(min(hi, max(lo, round(x))))
    return out


def _ratio(rng, lo, hi, denominators):
    """A nonzero rational p/q in [lo, hi] other than 1."""
    while True:
        q = rng.choice(denominators)
        p = rng.randint(int(lo * q), int(hi * q))
        r = Fraction(p, q)
        if r != 0 and r != 1:
            return r


def _spread_ratios(rng, lo, hi, count, denominators):
    """`count` ratios covering [lo, hi], one per equal slice."""
    width = (hi - lo) / count
    return [
        _ratio(rng, lo + i * width, lo + (i + 1) * width, denominators)
        for i in range(count)
    ]


def _formats(rng, count, choices=FORMATS):
    start = rng.randrange(len(choices))
    return [choices[(start + i) % len(choices)] for i in range(count)]


def _poly_text(coeffs) -> str:
    """Render p(n) = sum c_j n^j in the CLI grammar, e.g. '3*n^2 - 1/2*n + 4'."""
    pieces = []
    for j in range(len(coeffs) - 1, -1, -1):
        c = Fraction(coeffs[j])
        if c == 0:
            continue
        mag = abs(c)
        var = "" if j == 0 else ("n" if j == 1 else f"n^{j}")
        if not var:
            body = str(mag)
        elif mag == 1:
            body = var
        else:
            body = f"{mag}*{var}"
        if not pieces:
            pieces.append(body if c > 0 else f"-{body}")
        else:
            pieces.append(f"{'+' if c > 0 else '-'} {body}")
    return " ".join(pieces)


def _rec_text(coeffs, init) -> str:
    """Render a recurrence; zero coefficients are written out as 0*a(n-j)."""
    parts = []
    for lag, c in enumerate(coeffs, start=1):
        c = Fraction(c)
        body = f"{abs(c)}*a(n-{lag})"
        if not parts:
            parts.append(body if c >= 0 else f"-{body}")
        else:
            parts.append(f"{'+' if c >= 0 else '-'} {body}")
    return f"rec a(n)={' '.join(parts)}; init {', '.join(str(Fraction(a)) for a in init)}"


def _random_poly(rng, degree):
    coeffs = [Fraction(rng.randint(-9, 9), rng.choice((1, 1, 1, 2, 3))) for _ in range(degree)]
    coeffs.append(Fraction(rng.choice((-1, 1)) * rng.randint(1, 9)))
    return coeffs


def _times_linear(coeffs, root):
    """Characteristic polynomial coefficients times (x - root).

    A recurrence a(n) = c_1 a(n-1) + ... + c_d a(n-d) has characteristic
    polynomial x^d - c_1 x^(d-1) - ... - c_d; this returns the c's of the
    product, i.e. of a recurrence that the same terms still satisfy.
    """
    char = [Fraction(1)] + [-Fraction(c) for c in coeffs]  # highest power first
    prod = char + [Fraction(0)]
    for i, c in enumerate(char):
        prod[i + 1] -= root * c
    return [-c for c in prod[1:]]


def _run_terms(coeffs, init, count):
    terms = [Fraction(a) for a in init]
    while len(terms) < count:
        terms.append(sum(Fraction(c) * terms[-j] for j, c in enumerate(coeffs, start=1)))
    return terms[:count]


def _sum_request(spec, fmt, numeric):
    if spec["kind"] == "poly":
        expr = f"poly {_poly_text(spec['coeffs'])} ratio {spec['ratio']}"
    else:
        expr = _rec_text(spec["coeffs"], spec["init"])
    argv = ["sum", expr, "--format", fmt] + (["--numeric"] if numeric else [])
    return argv, dict(spec, numeric=numeric, format=fmt)


def _poly_spec(coeffs, ratio):
    return {"kind": "poly", "coeffs": [str(c) for c in coeffs], "ratio": str(ratio)}


def _rec_spec(coeffs, init):
    return {"kind": "rec", "coeffs": [str(Fraction(c)) for c in coeffs],
            "init": [str(Fraction(a)) for a in init]}


def _sigma_request(k, fmt, numeric):
    argv = ["sigma", str(k), "--format", fmt] + (["--numeric"] if numeric else [])
    return argv, {"kind": "sigma", "k": k, "numeric": numeric, "format": fmt}


def tables(rng):
    # (sequence, method, N range, requests per round).  Garabedian is
    # O(N^3) bignum work, so its range sits lower to keep a round short.
    classes = [
        ("bernoulli", "recurrence", 100, 300, 10),
        ("bernoulli", "series", 100, 300, 10),
        ("bernoulli", "garabedian", 60, 160, 10),
        ("euler", "recurrence", 100, 400, 10),
        ("euler", "series", 100, 300, 10),
    ]
    out = []
    for seq, method, lo, hi, count in classes:
        for n, fmt in zip(_spread(rng, lo, hi, count), _formats(rng, count)):
            argv = [seq, str(n), "--table", "--method", method, "--format", fmt]
            out.append((argv, {"kind": "table", "seq": seq, "n": n, "format": fmt}))
    return out


_A_CHOICES = ("1", "2", "3", "1/2", "3/2", "2/3", "5/2")


def identities(rng):
    # json and csv only: the plain form prints just "holds", and the
    # oracle compares both printed sides with sympy.
    out = []
    for identity in ("eq4", "prop2", "eq6", "eq7", "mixed"):
        ks = _spread(rng, 1, 100, 20, log=True)
        for k, fmt in zip(ks, _formats(rng, 20, ("json", "csv"))):
            argv = ["verify", identity, "--k", str(k)]
            spec = {"kind": "verify", "identity": identity, "k": k, "format": fmt}
            if identity == "prop2":
                spec["a"] = str(rng.randint(1, 6))
                argv.append(f"--a={spec['a']}")
            elif identity == "mixed":
                spec["a"] = rng.choice(_A_CHOICES)
                spec["q"] = str(_ratio(rng, -2, 2, (1, 2, 3, 4)) if rng.random() < 0.9 else 1)
                # --q=VALUE keeps argparse from reading "-3/4" as an option.
                argv += [f"--a={spec['a']}", f"--q={spec['q']}"]
            out.append((argv + ["--format", fmt], spec))
    return out


def exact_sums(rng):
    out = []
    for k, fmt in zip(_spread(rng, 1, 60, 30, log=True), _formats(rng, 30)):
        out.append(_sigma_request(k, fmt, numeric=False))
    # poly * r^n: r = 1 gives poles of order deg + 1, r = -1 the
    # alternating case, the rest any rational with |r| <= 3.
    ratios = [Fraction(1)] * 10 + [Fraction(-1)] * 10 + _spread_ratios(rng, -3, 3, 20, (1, 2, 3, 4, 5, 7))
    degrees = _spread(rng, 0, 10, 10) + _spread(rng, 0, 10, 10) + _spread(rng, 0, 10, 20)
    for degree, ratio, fmt in zip(degrees, ratios, _formats(rng, 40)):
        out.append(_sum_request(_poly_spec(_random_poly(rng, degree), ratio), fmt, False))
    fmts = iter(_formats(rng, 30))
    # Removable factors at x = 1: a recurrence of order 1..3 with no root
    # at 1, times (x - 1)^m; the reduced generating function has no pole.
    for order in _spread(rng, 1, 3, 15):
        while True:
            base = [Fraction(rng.randint(-3, 3), rng.choice((1, 2))) for _ in range(order)]
            if base[-1] != 0 and sum(base) != 1:
                break
        init = [rng.randint(-5, 5) for _ in range(order)]
        init[0] = init[0] or 1
        coeffs = base
        for _ in range(rng.randint(1, 2)):
            coeffs = _times_linear(coeffs, 1)
        init = _run_terms(base, init, len(coeffs))
        out.append(_sum_request(_rec_spec(coeffs, init), next(fmts), False))
    # Eventually-zero series: every recurrence coefficient is 0.
    for order in _spread(rng, 1, 8, 10):
        init = [rng.randint(-9, 9) for _ in range(order)]
        out.append(_sum_request(_rec_spec([0] * order, init), next(fmts), False))
    # A root at 1 that does not cancel: a genuine pole of order 1 or 2.
    for _ in range(5):
        coeffs = _times_linear([Fraction(rng.randint(-3, 3) or 2)], 1)
        if rng.random() < 0.5:
            coeffs = _times_linear(coeffs, 1)
        init = [rng.randint(1, 5) for _ in coeffs]
        out.append(_sum_request(_rec_spec(coeffs, init), next(fmts), False))
    return out


# Grid nodes of the numeric path sit at x = 1 - 2^-j, j >= 3, so a ratio
# 2^j/(2^j - 1) puts r*x = 1 exactly on a node.  Those resonant ratios get
# their own slots; the spread ratios use denominators that never hit one.
_SAFE_DENOMINATORS = (1, 2, 3, 4, 5, 6, 8, 9)


def numeric(rng):
    out = []
    # Every k = 0..18 each round: k >= 12 exceeds the fixed working
    # precision today, and those failures are meant to show.
    for k, fmt in zip(range(19), _formats(rng, 19)):
        out.append(_sigma_request(k, fmt, numeric=True))
    for k, fmt in zip(range(13), _formats(rng, 13)):
        coeffs = [Fraction(2) ** j * comb(k, j) for j in range(k + 1)]  # (2n+1)^k
        out.append(_sum_request(_poly_spec(coeffs, -1), fmt, True))
    geo = _spread_ratios(rng, -3, 3, 20, _SAFE_DENOMINATORS)
    geo += [Fraction(2 ** j, 2 ** j - 1) for j in (rng.randint(3, 6), rng.randint(3, 6))]
    for ratio, fmt in zip(geo, _formats(rng, len(geo))):
        out.append(_sum_request(_poly_spec([1], ratio), fmt, True))
    fmts = iter(_formats(rng, 20))
    for order in (2,) * 10 + (3,) * 10:
        init = [rng.randint(-5, 5) for _ in range(order)]
        out.append(_sum_request(_rec_spec([1] * order, init), next(fmts), True))
    ratios = _spread_ratios(rng, -3, 3, 26, _SAFE_DENOMINATORS)
    for i, (ratio, fmt) in enumerate(zip(ratios, _formats(rng, 26))):
        coeffs = _random_poly(rng, 1 + i % 2)
        out.append(_sum_request(_poly_spec(coeffs, ratio), fmt, True))
    return out


_GENERATORS = {
    "tables": tables,
    "identities": identities,
    "exact_sums": exact_sums,
    "numeric": numeric,
}


def generate(workload: str, seed: int):
    """One round of (argv, spec) pairs for `workload`, in a seeded order."""
    rng = random.Random(f"{workload}:{seed}")
    requests = _GENERATORS[workload](rng)
    rng.shuffle(requests)
    return requests


def size_of(spec):
    """The integer size argument of a request (N or K), or None."""
    return spec.get("n", spec.get("k"))
