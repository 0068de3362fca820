"""Elementary number theory: one prime sieve, its derived tables, factoring,
a primality test and exact integer roots.

Every table comes from the same bytearray sieve of Eratosthenes, capped
at SIEVE_CAP entries (past it the sieve raises BudgetExceededError): the
primes are its set flags, the smallest prime factors are filled in by
slice assignment over the primes up to sqrt(n), and Euler phi and Moebius
follow from the smallest prime factors by their multiplicative
recurrences.  Integer roots use Newton's method on integers, so they are
exact for arbitrarily large ints and Fractions and never touch a float.

BudgetExceededError, the refusal of every capped computation, lives here
beside the counters' DEFAULT_BUDGET and STRATEGIES, so the command line
builds its parser without loading the counters.
"""

from __future__ import annotations

import math
from itertools import compress

SIEVE_CAP = 2_000_000


class BudgetExceededError(RuntimeError):
    """A computation would pass its budget of work.

    The estimate and the budget count the refused computation's own unit
    of work, which the message names: scan candidates, torsor prefixes,
    sieve entries, lattice terms or digits.
    """

    def __init__(self, estimate, budget, unit):
        # str() refuses ints past 4300 digits, so huge estimates are not spelled out
        shown = estimate if estimate < 10**18 else "over 10^18"
        super().__init__(
            "work estimate of %s %s is over the budget of %d" % (shown, unit, budget)
        )
        self.estimate = estimate
        self.budget = budget


# the counters' default budget, in scan candidates or torsor prefixes
DEFAULT_BUDGET = 50_000_000
STRATEGIES = ("auto", "naive", "specialized")


def _prime_flags(n):
    """bytearray whose entry k is 1 exactly when k <= n is prime."""
    if n > SIEVE_CAP:
        raise BudgetExceededError(n, SIEVE_CAP, "sieve entries")
    flags = bytearray([1]) * (n + 1)
    flags[:2] = bytes(min(2, n + 1))
    for p in range(2, math.isqrt(n) + 1):
        if flags[p]:
            flags[p * p :: p] = bytes(len(range(p * p, n + 1, p)))
    return flags


def primes_upto(n):
    """The primes p <= n, increasing."""
    return list(compress(range(n + 1), _prime_flags(n)))


def smallest_prime_factors(n):
    """spf[k] = smallest prime dividing k for 2 <= k <= n (spf[0], spf[1] = 0)."""
    flags = _prime_flags(n)
    spf = [0] * (n + 1)
    # larger primes first, so the smallest prime of each k is written last
    for p in reversed(list(compress(range(math.isqrt(n) + 1), flags))):
        spf[p * p :: p] = [p] * len(range(p * p, n + 1, p))
    for p in compress(range(n + 1), flags):
        spf[p] = p
    return spf


def euler_phi_table(n):
    """phi[k] = Euler's totient of k for 1 <= k <= n (phi[0] = 0)."""
    spf = smallest_prime_factors(n)
    phi = [0] * (n + 1)
    if n >= 1:
        phi[1] = 1
    for k in range(2, n + 1):
        p = spf[k]
        m = k // p
        phi[k] = phi[m] * p if m % p == 0 else phi[m] * (p - 1)
    return phi


def mobius_table(n):
    """mu[k] = Moebius function of k for 1 <= k <= n (mu[0] = 0)."""
    spf = smallest_prime_factors(n)
    mu = [0] * (n + 1)
    if n >= 1:
        mu[1] = 1
    for k in range(2, n + 1):
        p = spf[k]
        m = k // p
        mu[k] = 0 if m % p == 0 else -mu[m]
    return mu


def factor(n):
    """Prime factorization {p: e} of a positive integer, by trial division."""
    if n < 1:
        raise ValueError("factor needs a positive integer, got %r" % (n,))
    out = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1 if p == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


# Miller-Rabin to the first 13 prime bases is exact below this bound
# (Sorenson and Webster, Math. Comp. 86, 2017)
PRIMALITY_LIMIT = 3_317_044_064_679_887_385_961_981
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_prime(n):
    """Deterministic Miller-Rabin primality test for 0 <= n < PRIMALITY_LIMIT."""
    if n >= PRIMALITY_LIMIT:
        raise ValueError("is_prime is exact only below %d" % PRIMALITY_LIMIT)
    if n < 2:
        return False
    for p in _WITNESSES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def iroot(x, k):
    """Largest integer m with m^k <= x, for an int or Fraction x >= 0.

    m^k <= x exactly when m^k <= floor(x), so the root of floor(x) is
    math.isqrt for k = 2, and otherwise taken by integer Newton steps
    from a power-of-two overestimate; the steps decrease strictly until
    they reach the floor of the root.
    """
    if k < 1:
        raise ValueError("root degree must be >= 1")
    n = x.numerator // x.denominator
    if n < 0:
        raise ValueError("iroot needs x >= 0")
    if k == 1 or n < 2:
        return n
    if k == 2:
        return math.isqrt(n)
    m = 1 << -(-n.bit_length() // k)
    while True:
        y = ((k - 1) * m + n // m ** (k - 1)) // k
        if y >= m:
            return m
        m = y
