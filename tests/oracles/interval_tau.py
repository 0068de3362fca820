"""A log/exp combination of the zeta-factored tau in mpmath.iv, a test oracle.

`toricount.tamagawa.tau` multiplies the exact pieces (the prefix
product, the zeta brackets of `_rough_zeta` and the tail bound) as
powers, in integer fixed point with outward rounding.  This oracle joins
the same pieces another way, which the package does not use: it sums
-a_n log zeta_{>=P0}(n) and the tail as intervals and takes their
exponential, in mpmath's interval arithmetic at 144 bits plus the bits
of max |a_n| and of N.  The two share the exact pieces and nothing of
the rounding, so they check each other.
"""

from __future__ import annotations

import math
from fractions import Fraction

import mpmath
from mpmath import libmp

from toricount.arith import primes_upto
from toricount.tamagawa import (
    _GUARD_BITS,
    _P0_RATIO,
    _TARGET_BITS,
    _rough_zeta,
    _tail_log_bound,
    archimedean_density,
    euler_polynomial,
    factor_exponents,
    root_bound,
)


def _interval(ctx, lo, hi):
    """The ctx interval [lo, hi] for Fractions lo <= hi, rounded outward."""
    return ctx.make_mpf((
        libmp.from_rational(lo.numerator, lo.denominator, ctx.prec, libmp.round_floor),
        libmp.from_rational(hi.numerator, hi.denominator, ctx.prec, libmp.round_ceiling),
    ))


def interval_tau(fan):
    """(lo, hi) as exact Fractions: tau's enclosure computed in mpmath.iv.

    P0, N, the exponents a_n, the prefix, the zeta brackets and the tail
    are chosen exactly as `tamagawa.tau` chooses them.
    """
    if not fan.is_split():
        raise ValueError("tau needs a split fan")
    coeffs = euler_polynomial(fan)
    D = len(coeffs) - 1
    R = root_bound(coeffs)
    P0 = 1 << (_P0_RATIO * R - 1).bit_length()
    limit = Fraction(1, 2**_TARGET_BITS)
    N = max(2, int(_TARGET_BITS / math.log2(P0 / R)) - 2)
    while _tail_log_bound(D, R, P0, N) > limit:
        N += 1
    tail = _tail_log_bound(D, R, P0, N)
    exps = factor_exponents(coeffs, N)
    primes = primes_upto(P0 - 1)
    prefix = Fraction(
        math.prod(sum(c * p ** (D - j) for j, c in enumerate(coeffs)) for p in primes),
        math.prod(p**D for p in primes),
    )
    arch = archimedean_density(fan)

    ctx = mpmath.iv
    saved = ctx.prec
    ctx.prec = (
        _TARGET_BITS + _GUARD_BITS + max(map(abs, exps)).bit_length() + N.bit_length()
    )
    try:
        log_sum = _interval(ctx, -tail, tail)
        for n, a in enumerate(exps, 1):
            if a:
                log_sum -= a * ctx.log(_interval(ctx, *_rough_zeta(n, P0)))
        value = arch * _interval(ctx, prefix, prefix) * ctx.exp(log_sum)
        return tuple(Fraction(*libmp.to_rational(e)) for e in value._mpi_)
    finally:
        ctx.prec = saved
