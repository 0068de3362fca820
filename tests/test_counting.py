import math
import random
from fractions import Fraction

import pytest

from toricount.counting import (
    BudgetExceededError,
    asymptotic_report,
    candidate_estimate,
    count_p1,
    count_p1xp1,
    count_p2,
    count_points,
    enumerate_naive,
    fit_leading_coefficient,
    specialized_id_for,
)
from toricount.corpus import fan
from toricount.heights import TorusPoint, anticanonical_height
from toricount.picard import anticanonical, pl_evaluate


def test_naive_p1_examples(p1):
    pts = enumerate_naive(p1, 4)
    assert {p.coords[0] for p in pts} == {
        Fraction(1),
        Fraction(-1),
        Fraction(2),
        Fraction(-2),
        Fraction(1, 2),
        Fraction(-1, 2),
    }
    assert {p.coords[0] for p in enumerate_naive(p1, 1)} == {
        Fraction(1),
        Fraction(-1),
    }
    assert enumerate_naive(p1, Fraction(99, 100)) == []


def test_naive_deterministic_and_deduplicated(p2):
    a = enumerate_naive(p2, 50)
    b = enumerate_naive(p2, 50)
    assert a == b
    assert len({p.coords for p in a}) == len(a)
    for p in a:
        for c in p.coords:
            assert math.gcd(abs(c.numerator), c.denominator) == 1
            assert c.denominator > 0


def test_specialized_examples(p1, p2):
    assert count_points(p1, 4, strategy="specialized") == 6
    assert count_points(p1, 10**4, strategy="specialized") == count_p1(10**4)
    assert count_points(p2, 8, strategy="specialized") == 28


def test_specialized_id_detection(corpus):
    assert specialized_id_for(corpus["p1"]) == "p1"
    assert specialized_id_for(corpus["p2"]) == "p2"
    assert specialized_id_for(corpus["p1xp1"]) == "p1xp1"
    assert specialized_id_for(corpus["dp6"]) is None
    assert specialized_id_for(corpus["hirzebruch1"]) is None


def test_cross_strategy_equality_small(p1, p2, p1xp1):
    for B in (1, 3, 10, 64, 200):
        assert len(enumerate_naive(p1, B)) == count_p1(B)
        assert len(enumerate_naive(p2, B)) == count_p2(B)
        assert len(enumerate_naive(p1xp1, B)) == count_p1xp1(B)


def test_p1xp1_convolution_identity(p1xp1):
    # N(B) = sum over P^1 points x with H(x) <= B of N_P1(B / H(x))
    for B in (16, 100, 333):
        total = 0
        m = 1
        while m * m <= B:
            cnt = 2 if m == 1 else 4 * _phi(m)
            total += cnt * count_p1(Fraction(B, m * m))
            m += 1
        assert total == count_p1xp1(B)


def _phi(n):
    out = n
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            out -= out // p
            while m % p == 0:
                m //= p
        p += 1
    if m > 1:
        out -= out // m
    return out


def test_search_bound_slope_is_valid(corpus):
    # phi(n) >= |n|_1 / w with w = max_j |e_j|_1 underlies the product cap
    rng = random.Random(10)
    for name, fan in corpus.items():
        if not fan.is_split():
            continue
        w = max(sum(abs(x) for x in r) for r in fan.rays)
        phi = anticanonical(fan)
        for _ in range(200):
            n = [rng.randint(-30, 30) for _ in range(fan.dim)]
            val = pl_evaluate(fan, phi, n)
            l1 = sum(abs(x) for x in n)
            assert val >= Fraction(l1, w), (name, n)


def test_naive_completeness_random_points(p2, dp6):
    rng = random.Random(2718)
    for fan, B in ((p2, 200), (dp6, 60)):
        got = {p.coords for p in enumerate_naive(fan, B)}
        inside = outside = 0
        while inside < 500 or outside < 500:
            coords = tuple(
                Fraction(
                    rng.randint(1, 15) * rng.choice([1, -1]), rng.randint(1, 15)
                )
                for _ in range(fan.dim)
            )
            h = anticanonical_height(fan, TorusPoint(coords))
            if h <= B and inside < 500:
                assert coords in got, (coords, h)
                inside += 1
            elif h > B and outside < 500:
                assert coords not in got
                outside += 1


def test_naive_non_nef_fan_matches_heights():
    # F3 is not nef: phi is no max of cone forms, and the scan has no axis caps
    from toricount.counting import _anticanonical_forms
    from toricount.fan import Fan, validate_fan

    f3 = Fan(2, [(1, 0), (0, 1), (-1, 3), (0, -1)], [(0, 1), (1, 2), (2, 3), (3, 0)])
    assert validate_fan(f3).ok
    assert not _anticanonical_forms(f3)[1]
    for B in (1, 2, 4):
        got = enumerate_naive(f3, B, with_heights=True)
        for pt, h in got:
            assert h == anticanonical_height(f3, pt) <= B, (pt.coords, h)
        assert len({pt.coords for pt, _h in got}) == len(got)


def test_symmetry_under_coordinate_swap(p1xp1):
    pts = {p.coords for p in enumerate_naive(p1xp1, 150)}
    swapped = {(c[1], c[0]) for c in pts}
    assert pts == swapped


def test_monotone_and_linear_bounded(p1):
    prev = 0
    for B in (1, 2, 4, 10, 100, 1000):
        n = count_p1(B)
        assert n >= prev
        prev = n
        assert n <= 3 * B  # no superlinear blow-up for k = 1


def test_budget_refusal(p2):
    with pytest.raises(BudgetExceededError):
        enumerate_naive(p2, 10**12)
    with pytest.raises(BudgetExceededError):
        enumerate_naive(p2, 10**4, budget=10)


def test_candidate_estimate_matches_scan(p2):
    # the exact estimate is what the scan visits; enumerated points are fewer
    est = candidate_estimate(p2, 100)
    pts = enumerate_naive(p2, 100)
    assert len(pts) // 4 <= est


def test_count_points_strategies(p2):
    assert count_points(p2, 100, strategy="naive") == count_points(
        p2, 100, strategy="specialized"
    )
    assert count_points(p2, 100, strategy="auto") == count_points(
        p2, 100, strategy="naive"
    )
    with pytest.raises(ValueError):
        count_points(p2, 100, strategy="bogus")
    with pytest.raises(ValueError, match="not registered"):
        count_points(fan("dp6"), 10, strategy="specialized")


def test_asymptotic_report_k1(p1):
    rep = asymptotic_report(
        p1,
        [100, 1000, 10**4, 10**5],
        (1.21, 1.22),
        strategy="specialized",
        fan_id="p1",
    )
    assert rep.k == 1
    assert rep.regression == {}
    assert all(0.9 < r < 1.1 for r in rep.ratios[1:])
    csv = rep.to_csv()
    assert csv.splitlines()[0] == "B,N,predicted,ratio"


def test_asymptotic_report_k2_regression(p1xp1):
    rep = asymptotic_report(
        p1xp1,
        [10**4, 10**5, 10**6, 10**7],
        (1.47, 1.49),
        strategy="specialized",
        fan_id="p1xp1",
    )
    assert rep.k == 2
    assert "leading" in rep.regression
    assert rep.regression["leading_se"] >= 0


def test_asymptotic_report_regression_ignores_rows_below_one(p1xp1):
    # log B <= 0 there: such rows stay in the table but not in the fit
    long = [10**4, 10**5, 10**6, 10**7]
    base = asymptotic_report(p1xp1, long, (1.47, 1.49), strategy="specialized")
    rep = asymptotic_report(
        p1xp1, [Fraction(1, 2), 1] + long, (1.47, 1.49), strategy="specialized"
    )
    assert rep.counts[:2] == [0, 4]
    assert rep.regression == base.regression != {}
    short = asymptotic_report(
        p1xp1, [Fraction(1, 2), 1, 10, 2000], (1.47, 1.49), strategy="specialized"
    )
    assert short.regression == {}


def test_asymptotic_report_counts_a_repeated_b_once(p1xp1, monkeypatch):
    # 1000 three times and 10^5 are two distinct points: a plain table with
    # one row per entry, not an exact two-point fit passed off as four
    import toricount.counting as counting

    seen = []
    sieve = counting._route

    def route(*args):
        name, count = sieve(*args)
        return name, lambda b: seen.append(b) or count(b)

    monkeypatch.setattr(counting, "_route", route)
    sched = [1000, 1000, 1000, 10**5]
    rep = asymptotic_report(p1xp1, sched, (1.47, 1.49))
    assert sorted(seen) == [1000, 10**5]
    assert rep.schedule == sched
    assert rep.counts == [count_p1xp1(b) for b in sched]
    assert len(rep.predicted) == len(rep.ratios) == 4
    assert rep.regression == {}
    assert rep.provenance[1] == "plain table; schedule too short for a regression"
    supplied = asymptotic_report(p1xp1, sched, (1.47, 1.49), counts=rep.counts)
    assert supplied.regression == {}
    with pytest.raises(ValueError, match="one value at each B"):
        asymptotic_report(p1xp1, [10, 10], (1.47, 1.49), counts=[36, 37])


def test_asymptotic_report_refuses_counts_of_another_length(p1xp1, monkeypatch):
    # three schedule entries and one count: refused before any row is built
    import toricount.counting as counting

    def no_row(*args):
        raise AssertionError("a row was built")

    monkeypatch.setattr(counting, "leading_term", no_row)
    with pytest.raises(ValueError, match="1 counts for 3 schedule entries"):
        asymptotic_report(p1xp1, [10, 100, 1000], (1.47, 1.49), counts=[36])


def test_asymptotic_report_sorts_supplied_counts_with_their_bounds(p1xp1):
    # each count is the true N at its own B, in a schedule given unsorted
    shuffled = asymptotic_report(p1xp1, [1000, 10, 100], (1.47, 1.49), counts=[10372, 52, 836])
    ordered = asymptotic_report(p1xp1, [10, 100, 1000], (1.47, 1.49), counts=[52, 836, 10372])
    assert shuffled == ordered
    assert shuffled.counts == [count_p1xp1(b) for b in (10, 100, 1000)]
    with pytest.raises(ValueError, match="one value at each B"):
        asymptotic_report(p1xp1, [100, 10, 100], (1.47, 1.49), counts=[836, 52, 837])


def test_asymptotic_report_insufficient_schedule(p1xp1):
    # too few points, or too narrow a span: a plain table, no regression
    for sched in ([10, 20, 30], [10, 20, 30, 40]):
        rep = asymptotic_report(p1xp1, sched, (1.47, 1.49))
        assert rep.counts == [count_p1xp1(b) for b in sched]
        assert rep.regression == {}
        assert rep.provenance == [
            "counts by the sieve counter (strategy 'auto')",
            "plain table; schedule too short for a regression",
        ]


def test_naive_dimension_three_product_fan():
    # (P^1)^3: octant fan; heights factor, so N is a triple convolution
    from itertools import product

    from toricount.fan import Fan, validate_fan

    rays = [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)]
    cones = [
        (i, 2 + j, 4 + k) for i in range(2) for j in range(2) for k in range(2)
    ]
    cube = Fan(3, rays, cones)
    assert validate_fan(cube).ok
    for B in (1, 10, 50):
        total = 0
        m1 = 1
        while m1 * m1 <= B:
            c1 = 2 if m1 == 1 else 4 * _phi(m1)
            rest = Fraction(B, m1 * m1)
            m2 = 1
            while m2 * m2 <= rest:
                c2 = 2 if m2 == 1 else 4 * _phi(m2)
                total += c1 * c2 * count_p1(rest / (m2 * m2))
                m2 += 1
            m1 += 1
        assert len(enumerate_naive(cube, B)) == total, B


def test_fast_height_path_matches_heights_module(dp6, p2):
    import random as _r

    rng = _r.Random(31)
    for fan in (dp6, p2):
        pts = enumerate_naive(fan, 40)
        sample = rng.sample(pts, min(60, len(pts)))
        for p in sample:
            assert anticanonical_height(fan, p) <= 40


def test_descent_uncertifiable_tail_rejected():
    from oracles.descent import descent_check

    from toricount.cones import PolyCone

    with pytest.raises(ValueError, match="certify"):
        descent_check(PolyCone(2, [(1, 0), (0, 1)]), (0, 1), (1, 2))


def test_count_table_short_schedule(p2):
    rep = asymptotic_report(p2, [1000], (3.32, 3.34), strategy="naive", fan_id="p2")
    assert rep.counts == [count_p2(1000)]
    assert rep.regression == {}


def test_asymptotic_report_p2_to_1e9():
    from toricount.corpus import fan

    rep = asymptotic_report(
        fan("p2"),
        [10**6, 10**7, 10**8, 10**9],
        (3.32, 3.34),
        strategy="specialized",
        fan_id="p2",
    )
    assert abs(rep.ratios[-1] - 1) < 0.02


def test_asymptotic_report_rejects_decreasing_counts(p1xp1):
    with pytest.raises(ValueError, match="nondecreasing"):
        asymptotic_report(p1xp1, [10, 20], (1.0, 2.0), counts=[5, 3])


@pytest.mark.parametrize(
    "schedule",
    [
        [10**3, 10**4, 10**5, 10**6],
        [10**7, 10**8, 10**9, 10**10, 10**11],
        [2, 5, 20, 200],
    ],
)
def test_fit_leading_coefficient_matches_lstsq(schedule):
    # the exact normal equations against floating least squares on real counts
    import numpy as np

    counts = [count_p1xp1(b) for b in schedule]
    a, se, b = fit_leading_coefficient(schedule, counts, 2)
    bs = np.array(schedule, dtype=float)
    X = np.column_stack([bs * np.log(bs), bs])
    y = np.array(counts, dtype=float)
    coef = np.linalg.lstsq(X, y, rcond=None)[0]
    resid = y - X @ coef
    var = resid @ resid / (len(schedule) - 2) * np.linalg.inv(X.T @ X)[0, 0]
    assert a == pytest.approx(coef[0], rel=1e-9)
    assert b == pytest.approx(coef[1], rel=1e-9)
    assert se == pytest.approx(math.sqrt(var), rel=1e-6)


def test_fit_leading_coefficient_recovers_synthetic():
    # synthesize N = a B log B + b B exactly and recover a
    a, b = 1.5, -2.0
    sched = [10**3, 10**4, 10**5, 10**6]
    counts = [a * B * math.log(B) + b * B for B in sched]
    ahat, se, bhat = fit_leading_coefficient(sched, counts, 2)
    assert abs(ahat - a) < 1e-9
    assert abs(bhat - b) < 1e-6
