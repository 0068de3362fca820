import math
from fractions import Fraction

import mpmath
import pytest

from toricount.fan import Fan
from toricount.localdata import point_count_fp
from toricount.tamagawa import archimedean_density, euler_factor, tau, theta

Z2 = float(mpmath.zeta(2))
Z3 = float(mpmath.zeta(3))


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
        assert euler_factor(p1, p) == 1 - Fraction(1, p**2)
        assert euler_factor(p2, p) == 1 - Fraction(1, p**3)
        ld = point_count_fp(p1, p)
        assert ld.euler_factor == Fraction(p - 1, p) * Fraction(p + 1, p)


def test_tau_closed_forms(p1, p2, p1xp1, hirzebruch1):
    assert tau(p1, 10**4).contains(4 / Z2)
    assert tau(p2, 10**4).contains(12 / Z3)
    assert tau(p1xp1, 10**4).contains(16 / Z2**2)
    assert tau(hirzebruch1, 10**4).contains(16 / Z2**2)


def test_tau_nested_intervals(corpus):
    for name in ("p1", "p2", "p1xp1", "dp6"):
        fan = corpus[name]
        intervals = [tau(fan, P) for P in (100, 1000, 10000)]
        for a, b in zip(intervals, intervals[1:]):
            assert a.lo <= b.center <= a.hi, name
            assert b.hi - b.lo < a.hi - a.lo, name


def test_tau_doubling_cutoff_agreement(dp6):
    # no closed form for dP6: two cutoffs P and 2P must agree within bounds
    for P in (500, 2000):
        a = tau(dp6, P)
        b = tau(dp6, 2 * P)
        assert a.lo <= b.center <= a.hi
        assert b.tail_log_bound < a.tail_log_bound


def test_tau_rejects_small_cutoff(p1):
    with pytest.raises(ValueError):
        tau(p1, 50)


def test_tau_rejects_nonsplit():
    fan = Fan(1, [(1,), (-1,)], [(0,), (1,)], galois=[[[-1]]])
    with pytest.raises(ValueError):
        tau(fan, 1000)


def test_theta_values(p1, p2, p1xp1):
    th = theta(p1, 10**4)
    assert th.alpha == Fraction(1, 2) and th.beta == 1 and th.k == 1
    assert th.theta_lo <= 2 / Z2 <= th.theta_hi
    th = theta(p2, 10**4)
    assert th.theta_lo <= 4 / Z3 <= th.theta_hi
    th = theta(p1xp1, 10**4)
    assert th.theta_lo <= 4 / Z2**2 <= th.theta_hi


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
    th = theta(p1, 10**4)
    tol = 0.01 * slope
    assert th.theta_lo - tol <= slope <= th.theta_hi + tol


def test_euler_product_serialization(p1):
    ep = tau(p1, 1000)
    d = ep.to_json_dict()
    assert set(d) == {"cutoff", "archimedean", "partial", "tail_log_bound", "lo", "hi"}
    assert d["lo"] < d["hi"]


@pytest.mark.parametrize("cutoff", [200, 1000, 10**4])
def test_tau_dp6_contains_reference(dp6, cutoff):
    # tau(dp6) to 33 digits, from the zeta-factored Euler product
    ref = mpmath.mpf("1.18372016590560220228742184208752")
    t = tau(dp6, cutoff)
    with mpmath.workprec(128):
        assert mpmath.mpf(t.lo) <= ref <= mpmath.mpf(t.hi)


def test_tau_endpoints_round_outward(dp6):
    # lo and hi are floats rounded away from the 128-bit enclosure, not
    # nudged by a fixed 1e-15
    from toricount.tamagawa import _float_down, _float_up

    with mpmath.workprec(128):
        x = mpmath.mpf(1) / 3
        assert mpmath.mpf(_float_down(x)) <= x <= mpmath.mpf(_float_up(x))
        assert math.nextafter(_float_down(x), math.inf) == _float_up(x)
        assert _float_down(mpmath.mpf(0.5)) == _float_up(mpmath.mpf(0.5)) == 0.5


def test_theta_interval_rounds_outward(corpus):
    # float(alpha) * beta * tau_hi rounded to nearest fell below the exact
    # product on p2, hirzebruch1 and dp6
    for fan in corpus.values():
        if not fan.is_split():
            continue
        for cutoff in (100, 1000):
            r = theta(fan, cutoff)
            ab = r.alpha * r.beta
            assert Fraction(r.theta_lo) <= ab * Fraction(r.tau_interval.lo)
            assert Fraction(r.theta_hi) >= ab * Fraction(r.tau_interval.hi)
