"""Certified Euler products for the Tamagawa number and the full constant.

For a split fan over Q the per-prime factor is the exact rational

    (1 - 1/p)^k * Card(X(F_p)) / p^d  =  Q(1/p, ..., 1/p),

an identity that both pins the factors and hands us the tail: Q - 1 only
has monomials of degree >= 2, so |factor_p - 1| <= C0 / p^2 with C0 the
sum of absolute nonconstant coefficients of Q.  The real place
contributes 2^d * |Sigma(d)| (each orthant of T(R) integrates the
anticanonical weight to 1 per maximal cone).  The product normalization
is the one under which alpha * beta * tau reproduces the measured point
counts; the end-to-end ratio tests are its arbiter, and the report
carries that provenance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import mpmath

from .arith import primes_upto
from .cones import alpha
from .localdata import point_count_fp, qsigma_split
from .picard import picard_data

MIN_CUTOFF = 100
# working precision, in bits, of the Euler product accumulation
_PREC = 128


@dataclass(frozen=True)
class EulerProduct:
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


def archimedean_density(fan) -> int:
    """Real-place mass 2^d * |Sigma(d)|, exact.

    T(R) has 2^d connected components; on each, the log map sends the
    Haar measure to Lebesgue measure on R^d, and the anticanonical weight
    integrates to 1 over every maximal cone by unimodularity.  The
    quadrature unit tests pin this formula.
    """
    if not fan.is_split():
        raise ValueError("archimedean density needs a split fan over Q")
    return 2**fan.dim * len(fan.max_cones)


def euler_factor(fan, p) -> Fraction:
    """(1 - 1/p)^k * Card(F_p)/p^d, the exact per-prime factor."""
    return point_count_fp(fan, p).euler_factor


def tau(fan, prime_cutoff) -> EulerProduct:
    """Certified interval for the Tamagawa number of the split variety.

    Factors are exact rationals; accumulation runs at 128-bit precision,
    with its rounding error bounded explicitly; the tail is bounded
    through |factor_p - 1| <= C0/p^2; lo is rounded down and hi up to
    floats.  The prime sieve
    refuses a cutoff past arith.SIEVE_CAP with BudgetExceededError.
    """
    if not fan.is_split():
        raise ValueError(
            "tau needs a split fan; splitting-field local data is out of scope"
        )
    P = int(prime_cutoff)
    if P < MIN_CUTOFF:
        raise ValueError("prime cutoff below %d cannot certify tau" % MIN_CUTOFF)
    q = qsigma_split(fan)
    c0 = Fraction(q.abs_coeff_sum_nonconstant())
    if c0 * 2 >= P * P:
        raise ValueError("cutoff too small to certify the tail for this fan")

    arch = archimedean_density(fan)
    primes = primes_upto(P)
    with mpmath.workprec(_PREC):
        partial = mpmath.mpf(1)
        for p in primes:
            f = euler_factor(fan, p)
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
        return EulerProduct(
            cutoff=P,
            archimedean=arch,
            partial=float(partial),
            tail_log_bound=float(tail_mp),
            lo=lo,
            hi=hi,
        )


def _float_down(x):
    """The largest float <= x, an mpf or a Fraction (both compare exactly)."""
    f = float(x)
    return f if f <= x else math.nextafter(f, -math.inf)


def _float_up(x):
    """The smallest float >= x, an mpf or a Fraction."""
    f = float(x)
    return f if f >= x else math.nextafter(f, math.inf)


@dataclass
class ThetaReport:
    """alpha * beta * tau with exact pieces and interval arithmetic."""

    alpha: Fraction
    beta: int
    k: int
    h: int
    tau_interval: EulerProduct | None
    theta_lo: float | None
    theta_hi: float | None
    provenance: list = field(default_factory=list)

    def to_json_dict(self):
        return {
            "alpha": "%d/%d" % (self.alpha.numerator, self.alpha.denominator),
            "beta": self.beta,
            "k": self.k,
            "h": self.h,
            "tau": self.tau_interval.to_json_dict() if self.tau_interval else None,
            "theta": (
                {"lo": self.theta_lo, "hi": self.theta_hi}
                if self.theta_lo is not None
                else None
            ),
            "provenance": self.provenance,
        }


def theta(fan, prime_cutoff=10000) -> ThetaReport:
    """Assemble the leading constant; nonsplit fans get alpha and beta only."""
    pd = picard_data(fan)
    a = alpha(fan)
    b = pd.beta
    prov = [
        "alpha = X-function of the effective cone at the anticanonical class",
        "beta = |H^1(G, Pic over the splitting field)|",
    ]
    if not fan.is_split():
        prov.append(
            "tau refused: nonsplit local factors need splitting-field "
            "residue data, out of scope"
        )
        if pd.h != 1:
            prov.append(
                "alpha uses the lattice PL^G/M^G of index h=%d in Pic; "
                "normalization unverified by any end-to-end count" % pd.h
            )
        return ThetaReport(
            alpha=a,
            beta=b,
            k=pd.rank_K,
            h=pd.h,
            tau_interval=None,
            theta_lo=None,
            theta_hi=None,
            provenance=prov,
        )
    tp = tau(fan, prime_cutoff)
    ab = a * b
    prov.append(
        "tau = 2^d*|max cones| * prod_p (1-1/p)^k Card(F_p)/p^d; this "
        "real-place normalization is the one matching the direct point "
        "counts (another common convention divides it out)"
    )
    return ThetaReport(
        alpha=a,
        beta=b,
        k=pd.rank_K,
        h=pd.h,
        tau_interval=tp,
        theta_lo=_float_down(ab * Fraction(tp.lo)),
        theta_hi=_float_up(ab * Fraction(tp.hi)),
        provenance=prov,
    )
