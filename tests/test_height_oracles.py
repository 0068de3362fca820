"""Heights and counts against oracles that do not share HeightEvaluator.

The scan, local_height and global_height all go through one evaluator,
so comparing them with each other checks nothing about it.  These
oracles share only the cone forms with it:

- for nef fans phi is convex, so every local height is the max over the
  cone forms (the rule the scan used for nef fans before);
- for any fan the real place is exp(pl_evaluate) at a float
  approximation of -log|x|, and its cone is located in floats;
- counts are brute force over the whole box the product cap allows.
"""

import math
import random
from fractions import Fraction
from functools import lru_cache
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toricount.arith import factor, iroot
from toricount.corpus import fan as corpus_fan
from toricount.counting import enumerate_naive
from toricount.fan import Fan, cone_pieces, validate_fan
from toricount.heights import TorusPoint, local_height
from toricount.picard import PLFunction, anticanonical, pl_evaluate


def surface(rays):
    """Complete 2-d fan on rays listed counter-clockwise."""
    n = len(rays)
    return Fan(2, rays, [(i, (i + 1) % n) for i in range(n)])


def hirzebruch(a):
    return surface([(1, 0), (0, 1), (-1, a), (0, -1)])


P2_RAYS = [(1, 0), (0, 1), (-1, -1)]
F0_RAYS = [(1, 0), (0, 1), (-1, 0), (0, -1)]
DP7 = surface([(1, 0), (1, 1), (0, 1), (-1, 0), (-1, -1)])
CUBE = Fan(
    3,
    [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)],
    [(i, 2 + j, 4 + k) for i in range(2) for j in range(2) for k in range(2)],
)


def blown_up_p2(nrays):
    """P^2 blown up nrays - 3 times, always in the cone after the ray (1, 0)."""
    rays = list(P2_RAYS)
    while len(rays) < nrays:
        rays.insert(1, (rays[0][0] + rays[1][0], rays[0][1] + rays[1][1]))
    return surface(rays)


@st.composite
def subdivided_surfaces(draw, max_blowups=4):
    """Star subdivisions of P^2 or F_0: by Oda, every smooth complete surface
    arises from one of the minimal ones this way."""
    rays = list(draw(st.sampled_from([P2_RAYS, F0_RAYS])))
    for _ in range(draw(st.integers(min_value=0, max_value=max_blowups))):
        i = draw(st.integers(min_value=0, max_value=len(rays) - 1))
        u, v = rays[i], rays[(i + 1) % len(rays)]
        rays.insert(i + 1, (u[0] + v[0], u[1] + v[1]))
    return surface(rays)


def _valuation(q, p):
    v, num, den = 0, abs(q.numerator), q.denominator
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v


def _primes(coords):
    out = set()
    for c in coords:
        out.update(factor(abs(c.numerator)))
        out.update(factor(c.denominator))
    return out


def _real(m, coords):
    h = Fraction(1)
    for mi, c in zip(m, coords):
        h *= abs(c) ** -mi
    return h


def max_form_height(fan, coords):
    """Anticanonical height as the max over the cone forms at every place.

    Valid only when phi is convex (the anticanonical class is nef).
    """
    forms = [m for _, m in cone_pieces(fan, (1,) * fan.nrays)]
    h = max(_real(m, coords) for m in forms)
    for p in _primes(coords):
        v = [_valuation(c, p) for c in coords]
        h *= Fraction(p) ** max(sum(a * b for a, b in zip(m, v)) for m in forms)
    return h


def _log_point(coords):
    """-log|x| as the exact Fractions of its float approximation."""
    return [
        Fraction(math.log(c.denominator) - math.log(abs(c.numerator))) for c in coords
    ]


@lru_cache(maxsize=None)
def _anticanonical_pieces(fan):
    return cone_pieces(fan, anticanonical(fan).values)


def located_form_height(fan, coords):
    """Anticanonical height with the real place on the first cone whose
    rows are >= 0 at the float value of -log|x|.

    A float error (~1e-15 here) can only misplace a point that lies within
    it of a facet, so every row is asserted to hold the point with a
    margin, or the point is checked to lie on that facet exactly, where the
    two cones' forms agree.
    """
    v = [math.log(c.denominator) - math.log(abs(c.numerator)) for c in coords]
    for rows, m in _anticanonical_pieces(fan):
        margins = [sum(a * b for a, b in zip(u, v)) for u in rows]
        if min(margins) > -1e-9:
            break
    for u, margin in zip(rows, margins):
        if margin < 1e-9:
            assert _real(u, coords) == 1, ("too close to a facet to call", coords)
    h = _real(m, coords)
    for p in _primes(coords):
        h *= Fraction(p) ** _phi_at(fan, tuple(_valuation(c, p) for c in coords))
    return h


@lru_cache(maxsize=None)
def _phi_at(fan, vbar):
    return pl_evaluate(fan, anticanonical(fan), vbar)


def _box(fan, B):
    """Positive reduced fractions a/b with max(a, b) at most the product cap.

    Every coordinate of a point of height <= B lies in this box, so counts
    over box^d are complete.
    """
    w = max(sum(abs(x) for x in r) for r in fan.rays)
    cap = iroot(Fraction(B) ** w, 2)
    return [
        Fraction(a, b)
        for a in range(1, cap + 1)
        for b in range(1, cap + 1)
        if math.gcd(a, b) == 1
    ]


def brute_force_points(fan, B, oracle):
    """Positive-orthant coordinate tuples of oracle height <= B, with heights."""
    return {
        coords: h
        for coords in product(_box(fan, B), repeat=fan.dim)
        if (h := oracle(fan, coords)) <= B
    }


def _positive(points):
    return {
        pt.coords: h for pt, h in points if all(c > 0 for c in pt.coords)
    }


NEF_COUNT_CASES = [
    ("p1", 100),
    ("p2", 10),
    ("p1xp1", 40),
    ("hirzebruch1", 10),
    ("dp6", 8),
    ("dp7", 8),
    ("cube", 20),
    ("F2", 6),
]


def _nef_fan(name):
    return {"dp7": DP7, "cube": CUBE, "F2": hirzebruch(2)}.get(name) or corpus_fan(name)


@pytest.mark.parametrize("name, B", NEF_COUNT_CASES)
def test_nef_naive_count_matches_brute_force_max_form(name, B):
    fan = _nef_fan(name)
    got = enumerate_naive(fan, B, with_heights=True)
    assert len(got) == 2**fan.dim * len(_positive(got))
    assert _positive(got) == brute_force_points(fan, B, max_form_height)


@pytest.mark.parametrize(
    "name, B",
    [("p2", 200), ("p1xp1", 150), ("hirzebruch1", 300), ("dp6", 100), ("dp7", 100), ("cube", 50)],
)
def test_nef_naive_heights_match_max_form(name, B):
    fan = _nef_fan(name)
    for pt, h in enumerate_naive(fan, B, with_heights=True):
        assert h == max_form_height(fan, pt.coords), (name, pt.coords)


@pytest.mark.parametrize("a, B", [(3, 4), (4, 2)])
def test_non_nef_naive_count_matches_brute_force(a, B):
    fan = hirzebruch(a)
    got = enumerate_naive(fan, B, with_heights=True)
    assert len(got) == 4 * len(_positive(got))
    assert _positive(got) == brute_force_points(fan, B, located_form_height)


def _check_real_place(fan, phi, coords):
    want = math.exp(float(pl_evaluate(fan, phi, _log_point(coords))))
    got = float(local_height(fan, phi, TorusPoint(coords), "inf"))
    assert math.isclose(got, want, rel_tol=1e-9), (fan.rays, phi, coords)


def _random_coords(rng, d):
    return tuple(
        Fraction(rng.randint(1, 10**4) * rng.choice((1, -1)), rng.randint(1, 10**4))
        for _ in range(d)
    )


@pytest.mark.parametrize("a", [2, 3, 4])
def test_real_place_matches_float_oracle_hirzebruch(a):
    fan = hirzebruch(a)
    rng = random.Random(a)
    for _ in range(300):
        phi = PLFunction(tuple(rng.randint(-3, 3) for _ in range(fan.nrays)))
        for psi in (anticanonical(fan), phi):
            _check_real_place(fan, psi, _random_coords(rng, 2))


@settings(max_examples=40, deadline=None)
@given(fan=subdivided_surfaces(), seed=st.integers(min_value=0, max_value=2**32))
def test_real_place_matches_float_oracle_subdivisions(fan, seed):
    assert validate_fan(fan).ok
    rng = random.Random(seed)
    for _ in range(20):
        phi = PLFunction(tuple(rng.randint(-3, 3) for _ in range(fan.nrays)))
        for psi in (anticanonical(fan), phi):
            _check_real_place(fan, psi, _random_coords(rng, 2))


@settings(max_examples=15, deadline=None)
@given(fan=subdivided_surfaces())
def test_naive_count_matches_brute_force_subdivisions(fan):
    got = enumerate_naive(fan, 2, with_heights=True)
    assert _positive(got) == brute_force_points(fan, 2, located_form_height)
