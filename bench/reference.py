"""A fixed block of pure-Python work, timed to rescale wall times.

The machine this benchmark was tuned on (a 2-vCPU Xeon VM that shares its
host) drifts in speed by up to 2x over tens of seconds, and the spread of
raw wall-clock figures between runs reached 10-35%.  The drift slows a
block of fixed work timed between the requests alike, so timed figures are
reported at nominal speed: each request's time is multiplied by NOMINAL_S
over the median time of the blocks around it.  Over ten runs per workload
this brought the spreads (interquartile range over median) to 2-8%.  The
block mixes small and big rationals, Decimals and plain loops, like the
layers it stands beside; it uses no divsum code, so a change to divsum
moves the rescaled figures as it moves raw ones.
"""

from __future__ import annotations

from decimal import Decimal, localcontext
from fractions import Fraction
from statistics import median
from time import perf_counter

# About the median time of one block on the tuning machine.
NOMINAL_S = 0.016


def block() -> float:
    """Run the fixed work once; returns its wall time in seconds."""
    start = perf_counter()
    # Small rationals, as in the exact layers: a Bernoulli-type recurrence.
    values = [Fraction(1)]
    for m in range(1, 45):
        acc, c = Fraction(0), 1
        for k in range(m):
            c = c * (m + 2 - k) // k if k else 1
            acc += c * values[k]
        values.append(-acc / (m + 1))
    # Decimal arithmetic at 50 digits, as in the numeric layer.
    with localcontext() as ctx:
        ctx.prec = 50
        d = Decimal(1)
        for i in range(2500):
            d = d * Decimal("0.999") + Decimal(i) / 7
    # Plain interpreter work.
    total = 0
    for i in range(25000):
        total += i * i % 7
    # Big numbers, as in large tables and high-order sums: slow work of
    # this kind tracks the drift better than small-number work alone.
    a = Fraction(3 ** 2000 + 7, 5 ** 1300 + 11)
    for i in range(30):
        total += (a / (i + 1)).numerator % 7
        a = a * Fraction(7, 3) - Fraction(i, 11)
    x = 3 ** 20000
    for i in range(2):
        total += x * (x // (i + 12345)) % (10 ** 9000 + i) % 7
    return perf_counter() - start


class Speedometer:
    """Times a block every `every_s` seconds of other work.

    ``tick`` is called before each timed piece of work and returns the
    current epoch, the number of blocks timed so far minus one; ``scales``
    gives, per epoch, the factor that rescales wall times to nominal speed.
    It uses the median of the two blocks before and the two after the
    epoch, so the speed is read on both sides of the work it rescales.
    """

    def __init__(self, every_s: float = 0.2):
        self.every_s = every_s
        self.blocks: list = []
        self.since = every_s

    def tick(self) -> int:
        if self.since >= self.every_s:
            self.blocks.append(block())
            self.since = 0.0
        return len(self.blocks) - 1

    def spent(self, seconds: float) -> None:
        self.since += seconds

    def scales(self) -> list:
        if len(self.blocks) < 2:
            self.blocks.append(block())
        b = self.blocks
        return [NOMINAL_S / median(b[max(e - 1, 0): e + 3]) for e in range(len(b))]
