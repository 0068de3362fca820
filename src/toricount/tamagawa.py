"""Certified Euler products for the Tamagawa number and the full constant.

For a split fan over Q the per-prime factor is the exact rational

    (1 - 1/p)^k * Card(X(F_p)) / p^d  =  f(1/p),
    f(x) = (1 - x)^k * sum_i f_i x^i (1 - x)^(d - i),

where (f_0, ..., f_d) is the fan's f-vector (tamagawa.euler_polynomial).
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

tau is therefore a function of the f-vector alone: f comes from the f_i
(tamagawa.euler_coefficients) and arch = 2^d * f_d.  It is certified
once per f-vector and shared by every fan that has it, such as all
n-ray smooth complete surfaces, or a fan and its relabelings.

The certificate is exact arithmetic throughout: the prefix, the zeta
brackets and the tail bound are Fractions, and each zeta factor is raised
to its power and multiplied into the product in integer fixed point with
every rounding directed outward (tau's docstring), so no floating point
enters the enclosure before its ends are rounded outward to floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

from .arith import iroot, mobius_table, primes_upto
from .cones import alpha
from .picard import picard_data

# tau is certified to this many bits, relative: the tail and the zeta
# brackets are each held below 2^-_TARGET_BITS
_TARGET_BITS = 128
# bits carried beyond the target against the roundings of the combination
_GUARD_BITS = 16
# P0 is the least power of two >= _P0_RATIO * R, so q = R/P0 <= 1/16 and
# every zeta term gains at least 4 bits
_P0_RATIO = 16


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
    return 2**fan.dim * fan.f_vector()[-1]


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


def _power_bound(x, e, bits, up):
    """An integer P with P 2^-bits <= x^e, or >= when up, for a Fraction x >= 1 and an int e.

    Square-and-multiply on x rounded toward the bound to a multiple of
    2^-bits, each product floored (or, when up, ceiled) back to 2^-bits:
    every operand is >= 1 and the roundings all point one way, so the
    result bounds x^e.  For e < 0, x^e = 1 / x^-e with the rounding flipped.
    """
    if e < 0:
        inv = _power_bound(x, -e, bits, not up)
        return -((-1 << 2 * bits) // inv) if up else (1 << 2 * bits) // inv
    num = x.numerator << bits
    X = -(-num // x.denominator) if up else num // x.denominator
    P = 1 << bits
    while e:
        if e & 1:
            P = -(-P * X >> bits) if up else P * X >> bits
        e >>= 1
        if e:
            X = -(-X * X >> bits) if up else X * X >> bits
    return P


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
    _rough_zeta brackets zeta_{>=P0}(n) to a relative half-width of at
    most 2^-144 (16/P0)^n, so with |a_n| <= D R^n <= D (P0/16)^n the
    factor zeta_{>=P0}(n)^(-a_n) is bracketed to a relative D 2^-144.
    Its lower bound is _power_bound, rounded down, at the end of the
    bracket that makes the factor least (the high end for a_n > 0, the
    low end for a_n < 0), and its upper bound _power_bound, rounded up, at
    the other end.  The lower bounds are multiplied at 2^-b with floors,
    the upper bounds with ceilings, and a floor (ceiling) of a product of
    positive lower (upper) bounds is still a lower (upper) bound, so lo
    and hi enclose prod_n zeta_{>=P0}(n)^(-a_n).  The precision is

        b = 144 + bits(max |a_n|) + 2 bits(N):

    square-and-multiply to the power e at 2^-b is off by about 4|e| 2^-b,
    relative, so the N factors' roundings add about 2^-(142 + bits(N)),
    below the zeta brackets' widths.  Last, T lies between exp(-t) and
    exp(t) for t the tail bound, and 1 - t <= exp(-t), exp(t) <= 1/(1 - t),
    so `enclosure` is the pair of exact Fractions

        arch * prefix * lo 2^-b * (1 - t),  arch * prefix * hi 2^-b / (1 - t),

    and the EulerProduct's lo and hi are its ends rounded outward to floats.

    All of this reads f and arch, so only the fan's f-vector: the
    certificate is built once per f-vector, and a later fan with the same
    f-vector gets the same EulerProduct from one lookup, once the fan
    itself is refused unless valid and split.  prime_cutoff is accepted
    for callers that still pass one and does not change the result.
    """
    fan.require_split("tau")
    return _certified_tau(fan.f_vector(), archimedean_density(fan))


@lru_cache(maxsize=None)
def _certified_tau(f_vector, arch):
    """tau's EulerProduct for this f-vector and arch, its archimedean density, built once."""
    coeffs = euler_coefficients(f_vector)
    D = len(coeffs) - 1
    R = root_bound(coeffs)
    P0 = 1 << (_P0_RATIO * R - 1).bit_length()
    # q^N is about 2^-128 at N = 128 / log2(P0/R); search up from below it
    limit = Fraction(1, 2**_TARGET_BITS)
    N = max(2, int(_TARGET_BITS / math.log2(P0 / R)) - 2)
    while _tail_log_bound(D, R, P0, N) > limit:
        N += 1
    tail = _tail_log_bound(D, R, P0, N)
    primes = primes_upto(P0 - 1)
    prefix = Fraction(
        math.prod(sum(c * p ** (D - j) for j, c in enumerate(coeffs)) for p in primes),
        math.prod(p**D for p in primes),
    )

    exps = factor_exponents(coeffs, N)
    b = _TARGET_BITS + _GUARD_BITS + max(map(abs, exps)).bit_length() + 2 * N.bit_length()
    lo = hi = 1 << b
    for n, a in enumerate(exps, 1):
        if a:
            # zeta_{>=P0}(n) > 1, so an end of the bracket below 1 may be raised to it
            z = [max(end, Fraction(1)) for end in _rough_zeta(n, P0)]
            if a > 0:
                z.reverse()
            lo = lo * _power_bound(z[0], -a, b, False) >> b
            hi = -(-hi * _power_bound(z[1], -a, b, True) >> b)
    base = arch * prefix
    ends = base * Fraction(lo, 1 << b) * (1 - tail), base * Fraction(hi, 1 << b) / (1 - tail)
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


def euler_polynomial(fan):
    """Coefficients, low degree first, of the Euler polynomial of a split fan.

    f(x) = (1 - x)^k * sum_i f_i x^i (1 - x)^(d - i), with (f_0, ..., f_d)
    the f-vector and k = n - d, is localdata.qsigma_split(fan) on the
    diagonal, and f(1/p) = (1 - 1/p)^k * Card(X(F_p)) / p^d.  It depends on
    the f-vector alone (euler_coefficients).
    """
    fan.require_split("the Euler polynomial")
    return euler_coefficients(fan.f_vector())


def euler_coefficients(f_vector):
    """euler_polynomial from the f-vector (f_0, ..., f_d) of a complete fan.

    Every ray spans a cone, so n = f_1.  The x^j coefficient is
    sum_i f_i (-1)^(j - i) C(n - i, j - i); trailing zeros are dropped.
    """
    n = f_vector[1]
    coeffs = [
        sum(
            (-1) ** (j - i) * math.comb(n - i, j - i) * fi
            for i, fi in enumerate(f_vector[: j + 1])
        )
        for j in range(n + 1)
    ]
    while coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


def _float_down(x):
    """The largest float <= x, a Fraction."""
    f = float(x)
    return f if f <= x else math.nextafter(f, -math.inf)


def _float_up(x):
    """The smallest float >= x, a Fraction."""
    f = float(x)
    return f if f >= x else math.nextafter(f, math.inf)


@dataclass(frozen=True)
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
    provenance: tuple = ()

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
            "provenance": list(self.provenance),
        }


def theta(fan, prime_cutoff=None) -> ThetaReport:
    """Assemble the leading constant; nonsplit fans get alpha and beta only,
    and alpha refuses an invalid fan.

    alpha, beta and tau depend on the fan's value alone, so the report is
    assembled once per Fan value and shared, frozen, by every later call
    on an equal fan.  prime_cutoff is accepted for callers that still pass
    one and does not change the result.
    """
    return _theta(fan)


@lru_cache(maxsize=None)
def _theta(fan):
    """theta's report for this fan, assembled once per Fan value."""
    a = alpha(fan)
    pd = picard_data(fan)
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
            provenance=tuple(prov),
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
        provenance=tuple(prov),
    )
