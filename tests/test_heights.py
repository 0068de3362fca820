import random
from fractions import Fraction

import pytest
from oracles.exact import from_character

from toricount.fan import Fan
from toricount.heights import TorusPoint, anticanonical_height, global_height, local_height
from toricount.picard import PLFunction, anticanonical


def test_local_height_p1_examples(p1):
    phi = PLFunction((1, 1))
    x = TorusPoint([Fraction(2, 3)])
    assert local_height(p1, phi, x, 2) == 2
    assert local_height(p1, phi, x, 3) == 3
    assert local_height(p1, phi, x, 5) == 1
    assert local_height(p1, phi, x, "inf") == Fraction(3, 2)


@pytest.mark.parametrize("place", [4, 1, 0, -2, 2.5, "infinity"])
def test_local_height_rejects_non_places(p1, place):
    # neither "inf" nor a prime: at 4 a power of 2 would pass for a place
    with pytest.raises(ValueError, match="place"):
        local_height(p1, PLFunction((1, 1)), TorusPoint([4]), place)


def test_zero_pl_gives_one_everywhere(corpus):
    rng = random.Random(1)
    for name, fan in corpus.items():
        if not fan.is_split():
            continue
        phi = PLFunction((0,) * fan.nrays)
        x = TorusPoint(
            [Fraction(rng.randint(1, 30), rng.randint(1, 30)) for _ in range(fan.dim)]
        )
        for place in (2, 3, 7, "inf"):
            assert local_height(fan, phi, x, place) == 1


def test_unit_coordinates_have_trivial_heights(p2):
    phi = anticanonical(p2)
    for coords in ([1, 1], [-1, 1], [1, -1], [-1, -1]):
        x = TorusPoint(coords)
        for place in (2, 5, "inf"):
            assert local_height(p2, phi, x, place) == 1
        assert global_height(p2, phi, x) == 1


def test_global_height_p1_closed_form(p1):
    phi = anticanonical(p1)
    assert global_height(p1, phi, TorusPoint([Fraction(2, 3)])) == 9
    rng = random.Random(2)
    for _ in range(200):
        a = rng.randint(1, 400) * rng.choice([1, -1])
        b = rng.randint(1, 400)
        x = TorusPoint([Fraction(a, b)])
        f = x.coords[0]
        expect = max(abs(f.numerator), f.denominator) ** 2
        assert global_height(p1, phi, x) == expect


def test_global_height_p2_closed_form(p2):
    phi = anticanonical(p2)
    assert global_height(p2, phi, TorusPoint([2, Fraction(1, 3)])) == 216
    rng = random.Random(3)
    for _ in range(200):
        x1 = Fraction(rng.randint(1, 60) * rng.choice([1, -1]), rng.randint(1, 60))
        x2 = Fraction(rng.randint(1, 60) * rng.choice([1, -1]), rng.randint(1, 60))
        x = TorusPoint([x1, x2])
        # primitive homogeneous coordinates of (1 : x1 : x2)
        from math import gcd, lcm

        den = lcm(x1.denominator, x2.denominator)
        z = (den, abs(x1.numerator) * den // x1.denominator,
             abs(x2.numerator) * den // x2.denominator)
        g = gcd(gcd(z[0], z[1]), z[2])
        z = tuple(v // g for v in z)
        assert global_height(p2, phi, x) == max(z) ** 3


def test_character_heights_are_one(p1):
    # the PL function of any lattice character has global height 1
    phi = from_character(p1, [1])
    for c in (Fraction(2, 3), Fraction(-7, 5), Fraction(30)):
        assert global_height(p1, phi, TorusPoint([c])) == 1


def test_product_formula(corpus):
    rng = random.Random(4)
    for name, fan in corpus.items():
        if not fan.is_split():
            continue
        for _ in range(60):
            m = [rng.randint(-3, 3) for _ in range(fan.dim)]
            phi = from_character(fan, m)
            x = TorusPoint(
                [
                    Fraction(
                        rng.randint(1, 50) * rng.choice([1, -1]), rng.randint(1, 50)
                    )
                    for _ in range(fan.dim)
                ]
            )
            assert global_height(fan, phi, x) == 1, (name, m, x)


def test_height_multiplicativity(p2, dp6):
    rng = random.Random(5)
    for fan in (p2, dp6):
        for _ in range(40):
            f1 = PLFunction(tuple(rng.randint(0, 3) for _ in range(fan.nrays)))
            f2 = PLFunction(tuple(rng.randint(0, 3) for _ in range(fan.nrays)))
            x = TorusPoint(
                [
                    Fraction(
                        rng.randint(1, 40) * rng.choice([1, -1]), rng.randint(1, 40)
                    )
                    for _ in range(fan.dim)
                ]
            )
            lhs = global_height(fan, f1 + f2, x)
            rhs = global_height(fan, f1, x) * global_height(fan, f2, x)
            assert lhs == rhs


def test_sign_invariance(p1xp1):
    phi = anticanonical(p1xp1)
    rng = random.Random(6)
    for _ in range(40):
        coords = [
            Fraction(rng.randint(1, 30), rng.randint(1, 30)) for _ in range(2)
        ]
        base = TorusPoint(coords)
        for signs in ((1, -1), (-1, 1), (-1, -1)):
            flipped = TorusPoint([s * c for s, c in zip(signs, coords)])
            for place in (2, 3, "inf"):
                assert local_height(p1xp1, phi, base, place) == local_height(
                    p1xp1, phi, flipped, place
                )


def test_padic_unit_invariance(p2):
    phi = anticanonical(p2)
    p = 5
    rng = random.Random(7)
    for _ in range(40):
        coords = [
            Fraction(rng.randint(1, 40), rng.randint(1, 40)) for _ in range(2)
        ]
        x = TorusPoint(coords)
        # multiply a coordinate by a unit rational at p
        while True:
            u = Fraction(rng.randint(1, 20), rng.randint(1, 20))
            if u.numerator % p and u.denominator % p:
                break
        y = TorusPoint([coords[0] * u, coords[1]])
        assert local_height(p2, phi, x, p) == local_height(p2, phi, y, p)


def test_anticanonical_height_at_least_one(corpus):
    rng = random.Random(8)
    for name, fan in corpus.items():
        if not fan.is_split():
            continue
        for _ in range(30):
            x = TorusPoint(
                [
                    Fraction(
                        rng.randint(1, 25) * rng.choice([1, -1]), rng.randint(1, 25)
                    )
                    for _ in range(fan.dim)
                ]
            )
            h = anticanonical_height(fan, x)
            torsion = all(abs(c) == 1 for c in x.coords)
            if torsion:
                assert h == 1
            else:
                assert h > 1


def test_nonsplit_rejected():
    fan = Fan(1, [(1,), (-1,)], [(0,), (1,)], galois=[[[-1]]])  # p1-norm-one
    x = TorusPoint([Fraction(2)])
    for place in (2, "inf"):
        with pytest.raises(ValueError, match="needs a split fan"):
            local_height(fan, PLFunction((1, 1)), x, place)
    with pytest.raises(ValueError, match="needs a split fan"):
        global_height(fan, PLFunction((1, 1)), x)
    with pytest.raises(ValueError, match="needs a split fan"):
        anticanonical_height(fan, x)


def test_zero_coordinate_rejected():
    with pytest.raises(ValueError):
        TorusPoint([Fraction(0), Fraction(1)])
