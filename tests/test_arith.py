import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toricount.arith import (
    PRIMALITY_LIMIT,
    euler_phi_table,
    factor,
    iroot,
    is_prime,
    mobius_table,
    primes_upto,
    smallest_prime_factors,
)

BIG = 10**400
big_ints = st.integers(min_value=0, max_value=BIG)
fractions = st.builds(Fraction, big_ints, st.integers(min_value=1, max_value=BIG))
degrees = st.integers(min_value=1, max_value=6)
sizes = st.integers(min_value=0, max_value=2000)


def _brute_factor(n):
    out = {}
    for p in range(2, n + 1):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    return out


@settings(max_examples=300)
@given(x=st.one_of(big_ints, fractions), k=degrees)
def test_iroot_defining_inequality(x, k):
    m = iroot(x, k)
    assert isinstance(m, int) and m >= 0
    assert m**k <= x < (m + 1) ** k


@given(m=st.integers(min_value=0, max_value=10**130), k=degrees)
def test_iroot_exact_powers(m, k):
    assert iroot(m**k, k) == m
    if m:
        assert iroot(m**k - 1, k) == m - 1


def test_iroot_rejects_bad_input():
    with pytest.raises(ValueError):
        iroot(-1, 2)
    with pytest.raises(ValueError):
        iroot(Fraction(-1, 3), 3)
    with pytest.raises(ValueError):
        iroot(8, 0)


def _brute_tables():
    """Primes, smallest prime factors, phi and mu up to 2000, from definitions."""
    n = 2000
    facs = [None, {}] + [_brute_factor(k) for k in range(2, n + 1)]
    primes = [k for k in range(2, n + 1) if facs[k] == {k: 1}]
    spf = [0, 0] + [next(p for p in range(2, k + 1) if k % p == 0) for k in range(2, n + 1)]
    phi = [0] + [sum(1 for a in range(1, k + 1) if math.gcd(a, k) == 1) for k in range(1, n + 1)]
    mu = [0] + [
        0 if any(e > 1 for e in facs[k].values()) else (-1) ** len(facs[k])
        for k in range(1, n + 1)
    ]
    return primes, spf, phi, mu


PRIMES, SPF, PHI, MU = _brute_tables()


@given(n=sizes)
def test_primes_upto_brute(n):
    assert primes_upto(n) == [p for p in PRIMES if p <= n]


@given(n=sizes)
def test_smallest_prime_factors_brute(n):
    assert smallest_prime_factors(n) == SPF[: n + 1]


@given(n=sizes)
def test_euler_phi_brute(n):
    assert euler_phi_table(n) == PHI[: n + 1]


@given(n=sizes)
def test_mobius_brute(n):
    assert mobius_table(n) == MU[: n + 1]


@given(n=st.integers(min_value=1, max_value=2000))
def test_factor_brute(n):
    assert factor(n) == _brute_factor(n)


def test_factor_rejects_nonpositive():
    for n in (0, -6):
        with pytest.raises(ValueError):
            factor(n)


def test_is_prime_matches_sieve():
    primes = set(primes_upto(20000))
    assert [n for n in range(20001) if is_prime(n)] == sorted(primes)


def test_is_prime_strong_pseudoprimes_and_limit():
    # the least strong pseudoprimes to the first 7, 9 and 12 prime bases
    for n in (341550071728321, 3825123056546413051, 318665857834031151167461):
        assert not is_prime(n)
    assert is_prime(10**18 + 3) and is_prime(2**61 - 1) and not is_prime(10**18 + 1)
    with pytest.raises(ValueError):
        is_prime(PRIMALITY_LIMIT)
