"""Certified Euler products for the Tamagawa number and the full constant.

For a split fan over Q the per-prime factor is the exact rational

    (1 - 1/p)^k * Card(X(F_p)) / p^d  =  f(1/p),
    f(x) = (1 - x)^k * sum_i f_i x^i (1 - x)^(d - i),

where (f_0, ..., f_d) is the fan's f-vector (localdata.euler_polynomial).
f(0) = 1 and f'(0) = 0, so f is a formal product

    f(x) = prod_{n >= 2} (1 - x^n)^(a_n),   a_n integers,

and the factors at p >= P0 regroup into zeta values with their Euler
factors below P0 removed, zeta_{>=P0}(n) = zeta(n) prod_{p < P0} (1 - p^-n)
(Cohen, High precision computation of Hardy-Littlewood constants, 1998):

    tau = arch * prod_{p < P0} f(1/p) * prod_{2 <= n <= N} zeta_{>=P0}(n)^(-a_n) * T

with a tail T whose log is of size (R/P0)^N for a bound R on the roots
(tau's docstring derives it).  The real place contributes
arch = 2^d * |Sigma(d)| (each orthant of T(R) integrates the
anticanonical weight to 1 per maximal cone).  The product normalization
is the one under which alpha * beta * tau reproduces the measured point
counts; the end-to-end ratio tests are its arbiter, and the report
carries that provenance.

The certificate is exact arithmetic throughout: the prefix, the zeta
brackets and the tail bound are Fractions, and the logarithms and the
exponential that join them are integer fixed-point brackets with
directed rounding (tau's docstring), so no floating point enters the
enclosure before its ends are rounded outward to floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

from .arith import iroot, mobius_table, primes_upto
from .cones import alpha
from .localdata import euler_polynomial
from .picard import picard_data

# tau is certified to this many bits, relative: the tail and the zeta
# brackets are each held below 2^-_TARGET_BITS
_TARGET_BITS = 128
# bits carried beyond the target against the roundings of the combination
_GUARD_BITS = 16
# P0 is the least power of two >= _P0_RATIO * R, so q = R/P0 <= 1/16 and
# every zeta term gains at least 4 bits
_P0_RATIO = 16
# a unit of each fixed-point log bracket is 2^-_SCALE_BITS of the tolerance
# it serves, so the roundings of the combination stay far below it
_SCALE_BITS = 32


@dataclass(frozen=True)
class EulerProduct:
    """The zeta-factored Euler product with its certificate.

    lo and hi are floats rounded outward from `enclosure`, the exact
    rational ends of the certified interval.
    """

    cutoff: int  # P0: the primes below it are multiplied out exactly
    terms: int  # N: zeta_{>=P0}(n) enters for 2 <= n <= N
    archimedean: int
    partial: float  # prod_{p < P0} f(1/p), rounded to nearest
    tail_log_bound: float  # |log T| is below this
    lo: float
    hi: float
    enclosure: tuple = field(repr=False)  # (lo, hi) as exact Fractions

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
    fan.require_split("the archimedean density")
    return 2**fan.dim * len(fan.max_cones)


def root_bound(coeffs) -> int:
    """An integer R >= 2 with |rho| <= R for every reciprocal root of f.

    f = c_0 + c_1 x + ... + c_D x^D with c_0 = 1 is prod_i (1 - rho_i x),
    so the rho_i are the roots of z^D + c_1 z^(D-1) + ... + c_D, and
    Fujiwara's bound puts them within 2 max_j |c_j|^(1/j) (|c_D / 2| may
    stand in the last term; |c_D| only enlarges it).  Each root is
    rounded up to an integer.
    """
    top = 1
    for j, c in enumerate(coeffs[1:], 1):
        t = iroot(abs(c), j)
        top = max(top, t + (t**j < abs(c)))
    return 2 * top


def factor_exponents(coeffs, N):
    """[a_1, ..., a_N] with f(x) = prod_n (1 - x^n)^(a_n) + O(x^(N+1)), exact.

    With f = prod_i (1 - rho_i x), x f'/f = -sum_j s_j x^j for the power
    sums s_j = sum_i rho_i^j, which Newton's identities give from the
    coefficients: s_j = -j c_j - sum_{0 < i < j} c_i s_(j-i).  As also
    x f'/f = -sum_n n a_n x^n / (1 - x^n), sum_{d | j} d a_d = s_j, and
    Moebius inversion gives n a_n = sum_{d | n} mu(n/d) s_d.
    """
    c = list(coeffs) + [0] * (N + 1 - len(coeffs))
    s = [0] * (N + 1)
    for j in range(1, N + 1):
        s[j] = -j * c[j] - sum(c[i] * s[j - i] for i in range(1, j))
    mu = mobius_table(N)
    return [
        sum(mu[n // d] * s[d] for d in range(1, n + 1) if n % d == 0) // n
        for n in range(1, N + 1)
    ]


def zeta_bracket(n, M, tol):
    """Exact rationals lo <= zeta(n) <= hi for an integer n >= 2.

    Euler-Maclaurin from M on, for g(x) = x^-n:

        zeta(n) = sum_{m < M} m^-n + M^(1-n)/(n-1) + M^-n/2
                  + sum_{k=1..K} B_2k/(2k)! * n(n+1)...(n+2k-2) * M^(1-n-2k) + E,

    E = -int_M^inf g^(2K)(x) P_2K(x)/(2K)! dx with the periodic Bernoulli
    function |P_2K| <= |B_2K|.  g^(2K) > 0 and g^(2K-1) rises to 0, so
    |E| <= |B_2K|/(2K)! * |g^(2K-1)(M)|, the size of the k = K term.  K is
    the first k whose term is at most tol, or M when none is (the terms
    shrink while 2k < 2 pi M - n).  The partial sum is one exact integer
    over lcm(1, ..., M-1)^n.
    """
    scale = math.lcm(*range(1, M)) ** n
    total = Fraction(sum(scale // m**n for m in range(1, M)), scale)
    total += Fraction(1, (n - 1) * M ** (n - 1)) + Fraction(1, 2 * M**n)
    # the correction terms as (numerator, denominator), summed over one
    # common denominator at the end
    terms = []
    rising = n  # n (n+1) ... (n+2k-2)
    for k in range(1, M + 1):
        if k > 1:
            rising *= (n + 2 * k - 3) * (n + 2 * k - 2)
        b = _bernoulli_ratio(k)
        num, den = b.numerator * rising, b.denominator * M ** (n + 2 * k - 1)
        terms.append((num, den))
        if abs(num) * tol.denominator <= tol.numerator * den:
            break
    common = math.lcm(*(d for _, d in terms))
    total += Fraction(sum(a * (common // d) for a, d in terms), common)
    err = Fraction(abs(num), den)
    return total - err, total + err


def _bernoulli_ratio(k):
    """B_2k / (2k)!, exact, from the tangent number E_(2k-1):

        B_2k = (-1)^(k-1) 2k E_(2k-1) / (4^k (4^k - 1)).
    """
    return Fraction(
        (-1) ** (k - 1) * _zigzag_row(2 * k - 1)[-1],
        math.factorial(2 * k - 1) * 4**k * (4**k - 1),
    )


@lru_cache(maxsize=None)
def _zigzag_row(n):
    """Row n of the Seidel-Entringer triangle; it ends in the zigzag number E_n.

    Each row is the running sums, from 0, of the previous row reversed,
    so the numbers come from integer additions alone.
    """
    if n == 0:
        return (1,)
    row = [0]
    for x in reversed(_zigzag_row(n - 1)):
        row.append(row[-1] + x)
    return tuple(row)


@lru_cache(maxsize=None)
def _rough_zeta(n, P0):
    """Exact rationals bracketing zeta_{>=P0}(n), fan-independent.

    The bracket's half-width is at most 2^-(target + guard) * (16/P0)^n, which
    |a_n| <= D R^n <= D (P0/16)^n turns into a contribution below
    D 2^-(target + guard) to log tau.  Euler-Maclaurin starts at
    M = max(32, P0/4), so its terms carry M^-n <= 4^-n (16/P0)^n and the
    half-widths at large n come almost free; at n = 2, M = 32 still
    reaches 2^-146, the half-width P0 = 32 asks for.
    """
    tol = Fraction(_P0_RATIO**n, 2 ** (_TARGET_BITS + _GUARD_BITS) * P0**n)
    lo, hi = zeta_bracket(n, max(32, P0 // 4), tol)
    primes = primes_upto(P0 - 1)
    e = Fraction(math.prod(p**n - 1 for p in primes), math.prod(p**n for p in primes))
    return lo * e, hi * e


def _tail_log_bound(D, R, P0, N):
    """The bound on |log T| derived in tau's docstring, exact."""
    q = Fraction(R, P0)
    return Fraction(4, 3) * D * (1 + Fraction(P0, N)) * q ** (N + 1) / (1 - q)


def _log_bits(n, P0):
    """The fixed-point precision of _log_zeta(n, P0), in bits.

    A unit of 2^-bits is 2^-_SCALE_BITS of _rough_zeta's tolerance
    2^-(target + guard) (16/P0)^n; P0 is a power of two, so the
    precision is an integer.
    """
    return _TARGET_BITS + _GUARD_BITS + n * (P0.bit_length() - 5) + _SCALE_BITS


@lru_cache(maxsize=None)
def _log_zeta(n, P0):
    """Integers lo <= hi with lo 2^-b <= log zeta_{>=P0}(n) <= hi 2^-b, b = _log_bits.

    The bracket is log(1 + x) at the ends of x = zeta_{>=P0}(n) - 1 from
    _rough_zeta.  Its half-width stays below _rough_zeta's tolerance, as
    tau's derivation needs: zeta_bracket's error is at most the
    tolerance, the product over p < P0 scales it by at most 1 - 2^-n <=
    3/4, log(1 + x) has slope at most 1, and each end adds a few units
    of 2^-b, each 2^-_SCALE_BITS of the tolerance.
    """
    lo, hi = _rough_zeta(n, P0)
    bits = _log_bits(n, P0)
    # zeta_{>=P0}(n) > 1, so an end of the bracket below 1 may be raised to it
    ends = _log1p_bound(max(lo - 1, Fraction(0)), bits, False), _log1p_bound(hi - 1, bits, True)
    assert ends[1] - ends[0] <= 2 << _SCALE_BITS
    return ends


def _log1p_bound(x, bits, up):
    """An integer L with L 2^-bits <= log(1 + x), or >= when up, for a Fraction 0 <= x <= 1/2.

    x is first rounded toward the bound to a multiple of 2^-bits, as
    log(1 + x) rises with x.  The series x - x^2/2 + x^3/3 - ...
    alternates with decreasing terms, so a partial sum that ends on a
    minus term is a lower bound and one that ends on a plus term an upper
    bound.  Each term is rounded toward the bound, and the sum ends on the
    first term below 2^-bits: of the right sign, it bounds the terms left
    out; of the wrong sign, it rounds to 0, and the sum ends in effect on
    the term before it.
    """
    num = x.numerator << bits
    X = -(-num // x.denominator) if up else num // x.denominator
    total, power, j = 0, 1, 0
    while True:
        j += 1
        power *= X
        den = j << (bits * (j - 1))  # x^j / j = power / den in units of 2^-bits
        term = power if j % 2 else -power
        total += -(-term // den) if up else term // den
        if power < den:
            return total


def _exp_bound(x, bits, up):
    """An integer E with E 2^-bits <= exp(x), or >= when up, for a Fraction |x| <= 1.

    For x >= 0, x is rounded toward the bound to s, a multiple of 2^-bits,
    and the Taylor terms s^j / j! are built each from the last, rounded
    toward the bound.  Their partial sum is a lower bound.  The upper
    bound stops at the first term t_K rounded up to one unit (K >= 1) and
    adds 2 t_K, since for s <= 1 the terms left out sum to at most
    s^K / K! (K + 1) / K.  For x < 0, exp(x) = 1 / exp(-x) with the
    rounding flipped.
    """
    one = 1 << bits
    if x < 0:
        inv = _exp_bound(-x, bits, not up)
        return -(-one * one // inv) if up else one * one // inv
    num = x.numerator << bits
    X = -(-num // x.denominator) if up else num // x.denominator
    # rounded up, the terms settle at one unit; rounded down, at zero
    total, term, j, last = 0, one, 0, int(up)
    while term > last:
        total += term
        j += 1
        term = -(-term * X // (j << bits)) if up else term * X // (j << bits)
    return total + 2 * term if up else total


def tau(fan, prime_cutoff=None) -> EulerProduct:
    """Certified interval for the Tamagawa number of a split variety.

    The zeta-factored product of the module docstring.  R = root_bound(f)
    bounds every reciprocal root rho_i of f; P0 is the least power of two
    >= 16 R, and N the least n with the tail bound below 2^-128.

    Tail.  For p >= P0 > R, log f(1/p) = sum_n a_n log(1 - p^-n) converges
    absolutely, so the product over p >= P0 regroups by n, and the part
    with n > N has

        |log T| <= sum_{n > N} |a_n| sum_{p >= P0} p^-n / (1 - p^-n),

    since |log(1 - y)| <= y / (1 - y).  The power sums obey |s_d| <= D R^d
    (D = deg f), so |n a_n| <= sum_{d | n} |s_d| <= n D R^n.  For n >= 2,
    1 / (1 - P0^-n) <= 4/3 and sum_{m >= P0} m^-n <= P0^-n (1 + P0/(n-1)),
    so with q = R/P0 the bound is

        |log T| <= 4/3 D (1 + P0/N) q^(N+1) / (1 - q).

    Combination.  The prefix prod_{p < P0} f(1/p) is an exact Fraction.
    Each log zeta_{>=P0}(n) is an integer bracket at 2^-_log_bits(n, P0)
    (_log_zeta) of half-width at most 2^-144 (16/P0)^n, so with
    |a_n| <= D R^n <= D (P0/16)^n it moves log tau by at most D 2^-144.
    S = -sum_n a_n log zeta_{>=P0}(n) +- |log T| is then summed exactly
    in integers at the finest of those scales, exp(S) is bracketed by
    _exp_bound with directed rounding, and arch * prefix multiplies the
    bracket exactly, so `enclosure` holds exact Fractions.  lo and hi are
    its ends rounded outward to floats.  prime_cutoff is accepted for
    callers that still pass one and does not change the result.
    """
    fan.require_split("tau")
    P0, N, tail, exps, prefix = _polynomial_terms(euler_polynomial(fan))
    arch = archimedean_density(fan)

    # S in units of 2^-scale, the finest scale of the log brackets
    scale = _log_bits(N, P0)
    spread = -(-(tail.numerator << scale) // tail.denominator)
    s_lo, s_hi = -spread, spread
    for n, a in enumerate(exps, 1):
        if a:
            shift = scale - _log_bits(n, P0)
            pair = [-a * e << shift for e in _log_zeta(n, P0)]
            s_lo += min(pair)
            s_hi += max(pair)
    one = 1 << scale
    assert -one <= s_lo <= s_hi <= one
    base = arch * prefix
    ends = (
        base * Fraction(_exp_bound(Fraction(s_lo, one), scale, False), one),
        base * Fraction(_exp_bound(Fraction(s_hi, one), scale, True), one),
    )
    return EulerProduct(
        cutoff=P0,
        terms=N,
        archimedean=arch,
        partial=float(prefix),
        tail_log_bound=_float_up(tail),
        lo=_float_down(ends[0]),
        hi=_float_up(ends[1]),
        enclosure=ends,
    )


@lru_cache(maxsize=None)
def _polynomial_terms(coeffs):
    """(P0, N, tail bound, [a_1..a_N], prefix) of tau: the work on f alone, once per f."""
    D = len(coeffs) - 1
    R = root_bound(coeffs)
    P0 = 1 << (_P0_RATIO * R - 1).bit_length()
    # q^N is about 2^-128 at N = 128 / log2(P0/R); search up from below it
    limit = Fraction(1, 2**_TARGET_BITS)
    N = max(2, int(_TARGET_BITS / math.log2(P0 / R)) - 2)
    while _tail_log_bound(D, R, P0, N) > limit:
        N += 1
    primes = primes_upto(P0 - 1)
    prefix = Fraction(
        math.prod(sum(c * p ** (D - j) for j, c in enumerate(coeffs)) for p in primes),
        math.prod(p**D for p in primes),
    )
    return P0, N, _tail_log_bound(D, R, P0, N), tuple(factor_exponents(coeffs, N)), prefix


def _float_down(x):
    """The largest float <= x, a Fraction."""
    f = float(x)
    return f if f <= x else math.nextafter(f, -math.inf)


def _float_up(x):
    """The smallest float >= x, a Fraction."""
    f = float(x)
    return f if f >= x else math.nextafter(f, math.inf)


@dataclass
class ThetaReport:
    """alpha * beta * tau: alpha and beta exact; tau and theta as float intervals
    rounded outward from exact integer fixed-point enclosures."""

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


def theta(fan, prime_cutoff=None) -> ThetaReport:
    """Assemble the leading constant; nonsplit fans get alpha and beta only.

    prime_cutoff is accepted for callers that still pass one and does not
    change the result.
    """
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
    tp = tau(fan)
    ab = a * b
    prov.append(
        "tau = 2^d*|max cones| * prod_p (1-1/p)^k Card(F_p)/p^d; this "
        "real-place normalization is the one matching the direct point "
        "counts (another common convention divides it out)"
    )
    prov.append(
        "tau certified by the zeta-factored Euler product (Cohen 1998): "
        "exact factors below P0 = %d, zeta_{>=P0}(n)^(-a_n) for n <= N = %d "
        "by Euler-Maclaurin, |log tail| <= %.3g, combined in integer "
        "fixed point with directed rounding" % (tp.cutoff, tp.terms, tp.tail_log_bound)
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
