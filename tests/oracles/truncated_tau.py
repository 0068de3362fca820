"""The truncated Euler product for tau, kept as a test oracle.

It multiplies the exact per-prime factors f(1/p) out prime by prime up to
a cutoff P and certifies the tail through the fan's Q polynomial: Q - 1
only has monomials of degree >= 2, so |f(1/p) - 1| <= C0 / p^2 with C0
the sum of its absolute nonconstant coefficients.  The tail shrinks only
like 1/P, but the route shares nothing with the zeta-factored product of
`toricount.tamagawa.tau` beyond the exact factors, so the two check each
other.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import mpmath

from oracles.exact import abs_coeff_sum_nonconstant

from toricount.arith import primes_upto
from toricount.localdata import point_count_fp, qsigma_split
from toricount.tamagawa import _float_down, _float_up, archimedean_density

MIN_CUTOFF = 100
# working precision, in bits, of the accumulation
_PREC = 128


@dataclass(frozen=True)
class TruncatedProduct:
    """Partial product over p <= cutoff with a certified tail interval."""

    cutoff: int
    archimedean: int
    partial: float  # finite-prime partial product, accumulated at 128 bits
    tail_log_bound: float  # |log of the omitted tail product| is below this
    lo: float
    hi: float

    @property
    def center(self):
        return (self.lo + self.hi) / 2

    @property
    def radius(self):
        return (self.hi - self.lo) / 2

    def contains(self, x):
        return self.lo <= x <= self.hi

    def to_json_dict(self):
        return {
            "cutoff": self.cutoff,
            "archimedean": self.archimedean,
            "partial": self.partial,
            "tail_log_bound": self.tail_log_bound,
            "lo": self.lo,
            "hi": self.hi,
        }


def truncated_tau(fan, prime_cutoff) -> TruncatedProduct:
    """Certified interval for tau from the primes p <= prime_cutoff.

    Factors are exact rationals; accumulation runs at 128 bits with its
    rounding error bounded explicitly; the tail is bounded through
    |f(1/p) - 1| <= C0/p^2; lo is rounded down and hi up to floats.
    """
    if not fan.is_split():
        raise ValueError("tau needs a split fan")
    P = int(prime_cutoff)
    if P < MIN_CUTOFF:
        raise ValueError("prime cutoff below %d cannot certify tau" % MIN_CUTOFF)
    c0 = Fraction(abs_coeff_sum_nonconstant(qsigma_split(fan).monomials))
    if c0 * 2 >= P * P:
        raise ValueError("cutoff too small to certify the tail for this fan")

    arch = archimedean_density(fan)
    primes = primes_upto(P)
    with mpmath.workprec(_PREC):
        partial = mpmath.mpf(1)
        for p in primes:
            f = point_count_fp(fan, p).euler_factor
            partial *= mpmath.mpf(f.numerator) / mpmath.mpf(f.denominator)
        # sum_{p > P} |log factor_p| <= C0/(1 - C0/P^2) * sum_{n > P} 1/n^2
        tail = (c0 / (1 - c0 / (P * P))) * Fraction(1, P)
        # rounded up, which only widens [exp(-tail), exp(tail)]
        tail_mp = mpmath.fdiv(tail.numerator, tail.denominator, rounding="u")
        value = arch * partial
        # Each factor takes four roundings (two conversions, a division and
        # a product), and the steps below at most six more (two for the
        # exponential).  Each is within u = 2^-prec relative, and N of them
        # stay within (1 + u)^N - 1 <= 2 N u while N u <= 1, so
        # N = 4 (#primes + 2) gives err.
        err = mpmath.mpf(8 * (len(primes) + 2)) * mpmath.mpf(2) ** -_PREC
        lo = _float_down(value * mpmath.exp(-tail_mp) * (1 - err))
        hi = _float_up(value * mpmath.exp(tail_mp) * (1 + err))
        return TruncatedProduct(
            cutoff=P,
            archimedean=arch,
            partial=float(partial),
            tail_log_bound=float(tail_mp),
            lo=lo,
            hi=hi,
        )
