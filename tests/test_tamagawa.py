import math
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles.interval_tau import interval_tau
from oracles.truncated_tau import truncated_tau
from test_height_oracles import DP7, P2_RAYS, subdivided_surfaces, surface

from toricount.fan import Fan
from toricount.localdata import euler_polynomial, point_count_fp
from toricount.tamagawa import (
    _bernoulli_ratio,
    _exp_bound,
    _float_down,
    _float_up,
    _log1p_bound,
    archimedean_density,
    factor_exponents,
    root_bound,
    tau,
    theta,
    zeta_bracket,
)

Z2 = float(mpmath.zeta(2))
Z3 = float(mpmath.zeta(3))
# tau(dp6) to 33 digits, stable under the zeta-factored product at
# (P0, N, digits) = (50, 80, 120), (100, 100, 150) and (200, 120, 200)
DP6_REFERENCE = "1.18372016590560220228742184208752"
SPLIT_FANS = ["p1", "p2", "p1xp1", "hirzebruch1", "dp6", "dp6xp1", "dp6xp2", "dp7xdp7"]


def product_fan(a, b):
    """The fan of the product variety: rays (r, 0) and (0, s), cones c x e."""
    return Fan(
        a.dim + b.dim,
        [r + (0,) * b.dim for r in a.rays] + [(0,) * a.dim + s for s in b.rays],
        [c + tuple(a.nrays + j for j in e) for c in a.max_cones for e in b.max_cones],
    )


def _named_fan(corpus, name):
    """A corpus fan, or one of the benchmark's product fans."""
    if name == "dp6xp1":
        return product_fan(corpus["dp6"], corpus["p1"])
    if name == "dp6xp2":
        return product_fan(corpus["dp6"], surface(P2_RAYS))
    if name == "dp7xdp7":
        return product_fan(DP7, DP7)
    return corpus[name]


def test_archimedean_density_values(p1, p2, p1xp1, dp6):
    assert archimedean_density(p1) == 4
    assert archimedean_density(p2) == 12
    assert archimedean_density(p1xp1) == 16
    assert archimedean_density(dp6) == 24


def test_archimedean_density_oracle_p1(p1):
    # int over R* of min(|t|, 1/|t|) dt/|t| = 4
    from scipy.integrate import quad

    inner, _ = quad(lambda t: min(t, 1 / t) / t, 0, 1)
    outer, _ = quad(lambda t: min(t, 1 / t) / t, 1, math.inf)
    total = 2 * (inner + outer)  # both signs
    assert abs(total - archimedean_density(p1)) < 1e-8


def test_archimedean_density_oracle_p2(p2):
    # int over R^2 of exp(-phi_Sigma) = |Sigma(2)| = 3; each component of
    # T(R) contributes one copy, 2^2 of them
    from scipy.integrate import dblquad

    def integrand(y, x):
        return math.exp(-max(x + y, -2 * x + y, x - 2 * y))

    val, _ = dblquad(integrand, -40, 40, -40, 40, epsabs=1e-9)
    assert abs(val - 3.0) < 1e-6
    assert archimedean_density(p2) == 4 * 3


def test_per_prime_factor_telescopes(p1, p2):
    for p in (2, 3, 5, 7, 11):
        assert point_count_fp(p1, p).euler_factor == 1 - Fraction(1, p**2)
        assert point_count_fp(p2, p).euler_factor == 1 - Fraction(1, p**3)
        ld = point_count_fp(p1, p)
        assert ld.euler_factor == Fraction(p - 1, p) * Fraction(p + 1, p)


def _exact(x):
    """An mpf as the exact Fraction it stands for."""
    return Fraction(*mpmath.libmp.to_rational(x._mpf_))


def _assert_encloses(t, value, digits=25):
    lo, hi = t.enclosure
    assert lo <= value <= hi
    assert hi - lo <= Fraction(1, 10**digits) * lo


def test_tau_closed_forms(p1, p2, p1xp1, hirzebruch1):
    # each to at least 25 digits, against mpmath's zeta at 300 bits
    with mpmath.workprec(300):
        z2, z3 = mpmath.zeta(2), mpmath.zeta(3)
        _assert_encloses(tau(p1), _exact(4 / z2))
        _assert_encloses(tau(p2), _exact(12 / z3))
        _assert_encloses(tau(p1xp1), _exact(16 / z2**2))
        _assert_encloses(tau(hirzebruch1), _exact(16 / z2**2))
    assert tau(p1).contains(4 / Z2)


def test_tau_dp6_reference_enclosure(dp6):
    # the 33-digit reference, correct to half a unit in its last place
    ref = Fraction(DP6_REFERENCE)
    t = tau(dp6)
    lo, hi = t.enclosure
    assert lo <= ref + Fraction(5, 10**33) and ref - Fraction(5, 10**33) <= hi
    assert hi - lo <= Fraction(1, 10**25) * lo
    assert t.lo <= float(ref) <= t.hi


def test_tau_multiplicative(dp6, p1):
    # tau of a product fan is the product of the factors' tau
    prod = product_fan(dp6, p1)
    a, b, ab = tau(dp6).enclosure, tau(p1).enclosure, tau(prod).enclosure
    assert ab[0] <= a[1] * b[1] and a[0] * b[0] <= ab[1]


@pytest.mark.parametrize("n", range(2, 61))
def test_zeta_bracket_contains_zeta(n):
    # mpmath's value is within an ulp, 2^-299 near 1, of zeta(n)
    lo, hi = zeta_bracket(n, 64, Fraction(1, 2**260))
    with mpmath.workprec(300):
        z = _exact(mpmath.zeta(n))
    ulp = Fraction(1, 2**299)
    assert lo - ulp <= z <= hi + ulp
    assert hi - lo <= Fraction(1, 2**250)


def test_factor_exponents_reproduce_the_polynomial(corpus):
    # prod_{n <= N} (1 - x^n)^(a_n) agrees with f up to x^N
    N = 12
    for fan in corpus.values():
        if not fan.is_split():
            continue
        coeffs = euler_polynomial(fan)
        series = [1] + [0] * N
        for n, a in enumerate(factor_exponents(coeffs, N), 1):
            for _ in range(abs(a)):
                if a > 0:  # times (1 - x^n)
                    for j in range(N, n - 1, -1):
                        series[j] -= series[j - n]
                else:  # divided by (1 - x^n)
                    for j in range(n, N + 1):
                        series[j] += series[j - n]
        assert series == list(coeffs) + [0] * (N + 1 - len(coeffs))


def test_root_bound_covers_the_roots(corpus):
    import numpy as np

    for name in SPLIT_FANS:
        coeffs = euler_polynomial(_named_fan(corpus, name))
        # read highest degree first, the coefficients of f give the
        # polynomial whose roots are the reciprocal roots of f
        assert max(abs(np.roots(coeffs))) <= root_bound(coeffs), name


@pytest.mark.parametrize("name", SPLIT_FANS)
def test_tau_prime_bound_stays_small(corpus, name):
    # P0, the bound below which primes are multiplied out one by one, comes
    # from the root bound and stays small; a return to the long prime loop
    # would show here as a large cutoff
    assert tau(_named_fan(corpus, name)).cutoff <= 200


@settings(max_examples=15, deadline=None)
@given(subdivided_surfaces(max_blowups=6))
def test_tau_inside_the_truncated_product(fan):
    t, oracle = tau(fan), truncated_tau(fan, 1000)
    assert oracle.lo <= t.lo <= t.hi <= oracle.hi


def test_tau_nested_intervals(corpus):
    for name in ("p1", "p2", "p1xp1", "dp6"):
        fan = corpus[name]
        intervals = [truncated_tau(fan, P) for P in (100, 1000, 10000)]
        for a, b in zip(intervals, intervals[1:]):
            assert a.lo <= b.center <= a.hi, name
            assert b.hi - b.lo < a.hi - a.lo, name
        assert intervals[-1].lo <= tau(fan).lo <= tau(fan).hi <= intervals[-1].hi, name


def test_tau_doubling_cutoff_agreement(dp6):
    # the truncated product at two cutoffs P and 2P must agree within bounds
    for P in (500, 2000):
        a = truncated_tau(dp6, P)
        b = truncated_tau(dp6, 2 * P)
        assert a.lo <= b.center <= a.hi
        assert b.tail_log_bound < a.tail_log_bound


def test_tau_rejects_small_cutoff(p1):
    with pytest.raises(ValueError):
        truncated_tau(p1, 50)


def test_tau_rejects_nonsplit(corpus):
    fan = Fan(1, [(1,), (-1,)], [(0,), (1,)], galois=[[[-1]]])
    with pytest.raises(ValueError):
        tau(fan)
    with pytest.raises(ValueError):
        truncated_tau(fan, 1000)
    for name in ("p1-norm-one", "p1xp1-swap", "p2-threecycle"):
        with pytest.raises(ValueError, match="tau needs a split fan"):
            tau(corpus[name])
        with pytest.raises(ValueError, match="needs a split fan"):
            archimedean_density(corpus[name])


def test_tau_ignores_a_passed_cutoff(dp6):
    assert tau(dp6, 150000) == tau(dp6) == tau(dp6, 100)


def test_theta_values(p1, p2, p1xp1):
    th = theta(p1)
    assert th.alpha == Fraction(1, 2) and th.beta == 1 and th.k == 1
    assert th.theta_lo <= 2 / Z2 <= th.theta_hi
    th = theta(p2)
    assert th.theta_lo <= 4 / Z3 <= th.theta_hi
    th = theta(p1xp1)
    assert th.theta_lo <= 4 / Z2**2 <= th.theta_hi
    assert any("zeta-factored" in note and "P0 = " in note for note in th.provenance)


def test_theta_nonsplit_refuses_tau():
    fan = Fan(
        2,
        [(1, 0), (0, 1), (-1, -1)],
        [(0, 1), (1, 2), (2, 0)],
        galois=[[[0, -1], [1, -1]]],
    )
    th = theta(fan)
    assert th.alpha == Fraction(1, 3)
    assert th.beta == 1
    assert th.h == 3
    assert th.tau_interval is None and th.theta_lo is None
    assert any("refused" in note for note in th.provenance)


def test_theta_interval_contains_measured_slope(p1):
    # cross-module: the counting slope matches within its own tolerance
    from toricount.counting import count_p1

    B = 10**6
    slope = count_p1(B) / B
    th = theta(p1)
    tol = 0.01 * slope
    assert th.theta_lo - tol <= slope <= th.theta_hi + tol


def test_euler_product_serialization(p1):
    keys = {"cutoff", "archimedean", "partial", "tail_log_bound", "lo", "hi"}
    for ep in (truncated_tau(p1, 1000), tau(p1)):
        d = ep.to_json_dict()
        assert set(d) == keys
        assert d["lo"] < d["hi"]
    # tau.cutoff is the P0 used: the least power of two >= 16 * 2 for p1
    assert tau(p1).to_json_dict()["cutoff"] == 32


@pytest.mark.parametrize("cutoff", [200, 1000, 10**4])
def test_tau_dp6_contains_reference(dp6, cutoff):
    # the truncated product contains the 33-digit reference at every cutoff
    ref = mpmath.mpf(DP6_REFERENCE)
    t = truncated_tau(dp6, cutoff)
    with mpmath.workprec(128):
        assert mpmath.mpf(t.lo) <= ref <= mpmath.mpf(t.hi)


def test_tau_endpoints_round_outward(dp6):
    # lo and hi are floats rounded away from the exact enclosure, not
    # nudged by a fixed 1e-15
    x = Fraction(1, 3)
    assert Fraction(_float_down(x)) <= x <= Fraction(_float_up(x))
    assert math.nextafter(_float_down(x), math.inf) == _float_up(x)
    assert _float_down(Fraction(1, 2)) == _float_up(Fraction(1, 2)) == 0.5
    t = tau(dp6)
    assert Fraction(t.lo) <= t.enclosure[0] < t.enclosure[1] <= Fraction(t.hi)


def test_theta_interval_rounds_outward(corpus):
    # float(alpha) * beta * tau_hi rounded to nearest fell below the exact
    # product on p2, hirzebruch1 and dp6
    for fan in corpus.values():
        if not fan.is_split():
            continue
        r = theta(fan)
        ab = r.alpha * r.beta
        assert Fraction(r.theta_lo) <= ab * Fraction(r.tau_interval.lo)
        assert Fraction(r.theta_hi) >= ab * Fraction(r.tau_interval.hi)


def _dyadics(lo, hi):
    """Fractions k / 2^e in [lo, hi] for e up to 300."""
    return st.integers(1, 300).flatmap(
        lambda e: st.integers(math.ceil(lo * 2**e), math.floor(hi * 2**e)).map(
            lambda k: Fraction(k, 2**e)
        )
    )


def _reals(lo, hi):
    """The ends, and dyadic and rational points of [lo, hi]."""
    return st.one_of(
        st.sampled_from([Fraction(lo), Fraction(hi), Fraction(0)]),
        _dyadics(lo, hi),
        st.fractions(min_value=lo, max_value=hi, max_denominator=2**200),
    )


def _at_400_bits(f, x):
    """f(x) by mpmath at 400 bits, as an exact Fraction."""
    with mpmath.workprec(400):
        return _exact(f(mpmath.mpf(x.numerator) / x.denominator))


@settings(max_examples=300, deadline=None)
@given(_reals(0, Fraction(1, 2)), st.integers(1, 300))
def test_log1p_bounds_enclose_log(x, bits):
    # mpmath's value is within 2^-399 of log(1 + x) <= log(3/2); the bounds
    # are within a unit of 2^-bits per term summed
    value = _at_400_bits(mpmath.log1p, x)
    lo = Fraction(_log1p_bound(x, bits, False), 2**bits)
    hi = Fraction(_log1p_bound(x, bits, True), 2**bits)
    ulp = Fraction(1, 2**399)
    assert lo <= value + ulp and value - ulp <= hi
    assert hi - lo <= Fraction(2 * bits + 4, 2**bits)


@settings(max_examples=300, deadline=None)
@given(_reals(-1, 1), st.integers(1, 300))
def test_exp_bounds_enclose_exp(x, bits):
    # mpmath's value is within 2^-397 of exp(x) <= e
    value = _at_400_bits(mpmath.exp, x)
    lo = Fraction(_exp_bound(x, bits, False), 2**bits)
    hi = Fraction(_exp_bound(x, bits, True), 2**bits)
    ulp = Fraction(1, 2**397)
    assert lo <= value + ulp and value - ulp <= hi
    assert hi - lo <= Fraction(2 * bits + 16, 2**bits)


def test_bernoulli_ratios():
    for k in range(1, 81):
        assert _bernoulli_ratio(k) == Fraction(*mpmath.bernfrac(2 * k)) / math.factorial(2 * k), k


def _assert_matches_interval_oracle(fan):
    # the same exact pieces combined in mpmath.iv: the integer combination
    # is no wider, and as both round a few dozen times at 2^-144 or finer,
    # their ends agree to 2^-140 relative (the tail alone is 2^-128 wide)
    lo, hi = tau(fan).enclosure
    olo, ohi = interval_tau(fan)
    assert hi - lo <= ohi - olo
    assert abs(lo - olo) <= lo / 2**140 and abs(hi - ohi) <= lo / 2**140


def test_tau_carries_each_log_bracket_outward(monkeypatch, dp6):
    # widen every log zeta bracket by 2^-60 on both sides: each a_n log
    # zeta must enter with its ends in the right order, or the enclosure
    # would shrink past tau (held here by the oracle's enclosure)
    import toricount.tamagawa as tamagawa

    real = tamagawa._log_zeta

    def widened(n, P0):
        lo, hi = real(n, P0)
        unit = 1 << (tamagawa._log_bits(n, P0) - 60)
        return lo - unit, hi + unit

    monkeypatch.setattr(tamagawa, "_log_zeta", widened)
    lo, hi = tau(dp6).enclosure
    olo, ohi = interval_tau(dp6)
    assert lo < olo and ohi < hi


@pytest.mark.parametrize("name", SPLIT_FANS)
def test_tau_matches_interval_oracle(corpus, name):
    _assert_matches_interval_oracle(_named_fan(corpus, name))


@settings(max_examples=25, deadline=None)
@given(subdivided_surfaces(max_blowups=8))
def test_tau_matches_interval_oracle_on_surfaces(fan):
    _assert_matches_interval_oracle(fan)
