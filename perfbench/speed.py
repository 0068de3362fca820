"""Host speed, measured beside the timed calls with a fixed reference kernel.

The shared host the benchmark runs on changes speed by up to 2x over
minutes, and such a change moves every raw time of a run together.  So
between the timed calls a run also times `kernel`, a fixed piece of
interpreter-bound work that uses nothing from the package, and the
run's time metrics are reported in seconds at the nominal host speed:

    scaled = raw * NOMINAL_S / (mean kernel time beside the raw time)

The kernel runs after each timed call for SHARE of that call's time (at
least once), and once before a pass's first call; each call is scaled by
the kernel runs just before and just after it.  A mean over those runs,
not a median, keeps the ratio unbiased when the host takes the CPU away
in slices that a short kernel run often escapes.
"""

from __future__ import annotations

import gc
import time
from fractions import Fraction
from math import gcd

NOMINAL_S = 0.05  # the kernel's mean time on an idle 2-vCPU Xeon host
SHARE = 0.1  # kernel time after each call, as a share of the call's time


def kernel():
    """Interpreter-bound work like the package's: ints, dicts, Fractions, mpf."""
    import mpmath  # not at module level: the package's import of it belongs to setup_s

    table = {}
    acc = 0
    for i in range(1, 50_000):
        acc += (i * i) % 97
        key = (i % 251, i % 7)
        table[key] = table.get(key, 0) + acc
        if i % 64 == 0:
            acc = gcd(acc, i) + 1
    with mpmath.workprec(128):
        prod = mpmath.mpf(1)
        for p in range(3, 2400, 2):
            f = Fraction(p - 1, p) ** 4 * Fraction(p * p + 4 * p + 1, p * p)
            prod *= mpmath.mpf(f.numerator) / mpmath.mpf(f.denominator)
    return acc, len(table), prod


def sample(seconds):
    """Times of kernel runs made until `seconds` have passed, at least one."""
    enabled = gc.isenabled()
    gc.disable()  # the kernel makes no cycles; the package's heap stays out of it
    try:
        times = []
        while not times or sum(times) < seconds:
            start = time.perf_counter()
            kernel()
            times.append(time.perf_counter() - start)
        return times
    finally:
        if enabled:
            gc.enable()


def scale(seconds, samples):
    """Raw seconds as seconds at the nominal host speed that `samples` measured."""
    return seconds * NOMINAL_S / (sum(samples) / len(samples))
