import json
import os
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from oracles.census_triangulation import census_triangulate
from oracles.descent import descent_check, descent_check_double
from oracles.exact import solve_exact
from test_height_oracles import DP7, subdivided_surfaces, surface

from toricount import cones, dd
from toricount.cones import ConeRationalFunction, PolyCone, alpha, triangulate, xfunction
from toricount.corpus import NAMES, fan, golden_constants
from toricount.fan import Fan, validate_fan
from toricount.linalg import identity, mat_vec, quotient_map, unimodular_inverse
from toricount.picard import picard_data

DATA = os.path.join(os.path.dirname(__file__), "data")


def orthant(k):
    return PolyCone(k, [[1 if i == j else 0 for j in range(k)] for i in range(k)])


def dual(c):
    return PolyCone(c.ambient_rank, c.dual_generators())


def test_dual_cone_examples():
    assert set(dual(orthant(2)).generators) == {(1, 0), (0, 1)}
    d = dual(PolyCone(2, [(1, 0), (1, 2)]))
    assert set(d.generators) == {(0, 1), (2, -1)}


def test_dual_of_unimodular_simplicial_cone_is_inverse_transpose():
    u = [[1, 2], [0, 1]]
    c = PolyCone(2, u)
    uinv_t = list(zip(*unimodular_inverse(u)))
    expected = {tuple(row) for row in uinv_t}
    assert set(dual(c).generators) == expected


def test_dual_of_dual_regenerates(p2):
    rng = random.Random(3)
    for _ in range(20):
        while True:
            gens = [
                (rng.randint(-3, 3), rng.randint(-3, 3), rng.randint(1, 4))
                for _ in range(rng.randint(3, 6))
            ]
            try:
                c = PolyCone(3, gens)
                break
            except ValueError:
                continue
        dd = dual(dual(c))
        # extreme rays of the original cone, primitive and sorted
        rays = dual(PolyCone(3, dual(c).generators)).generators
        assert set(dd.generators) == set(rays)


def test_not_full_dimensional_rejected():
    with pytest.raises(ValueError, match="full-dimensional"):
        PolyCone(2, [(1, 0)])


def test_not_pointed_rejected():
    with pytest.raises(ValueError, match="pointed"):
        PolyCone(2, [(1, 0), (-1, 0), (0, 1)])


def test_xfunction_orthant():
    for k in (1, 2, 3, 4):
        xf = xfunction(orthant(k))
        s = [Fraction(j + 2, 1) for j in range(k)]
        expect = Fraction(1)
        for v in s:
            expect /= v
        assert xf.evaluate(s) == expect


def test_evaluate_is_exact_only():
    xf = xfunction(orthant(2))
    assert xf.evaluate([2, 3]) == Fraction(1, 6)
    for s in ([2.0, 3], [2 + 1j, 3]):
        with pytest.raises(TypeError):
            xf.evaluate(s)


def test_xfunction_homogeneity():
    c = PolyCone(3, [(1, 0, 0), (1, 2, 0), (0, 1, 1), (1, 1, 3)])
    xf = xfunction(c)
    s = [Fraction(5), Fraction(3), Fraction(7, 2)]
    assert xf.evaluate([2 * x for x in s]) == xf.evaluate(s) / 8
    assert xf.evaluate([3 * x for x in s]) == xf.evaluate(s) / 27


def test_xfunction_positive_on_interior():
    rng = random.Random(5)
    c = PolyCone(3, [(1, 0, 0), (1, 2, 0), (0, 1, 1), (1, 1, 3)])
    xf = xfunction(c)
    for _ in range(25):
        s = [Fraction(0)] * 3
        for g in c.generators:
            w = Fraction(rng.randint(1, 9), rng.randint(1, 4))
            s = [si + w * gi for si, gi in zip(s, g)]
        assert xf.evaluate(s) > 0


def test_triangulation_independence():
    rng = random.Random(17)
    cones = [
        PolyCone(3, [(1, 0, 0), (1, 2, 0), (0, 1, 1), (1, 1, 3)]),
        dp6_effective_cone(),
    ]
    for c in cones:
        xf1 = xfunction(c, order="lex")
        xf2 = xfunction(c, order="revlex")
        for _ in range(25):
            s = [Fraction(0)] * c.ambient_rank
            for g in c.generators:
                w = Fraction(rng.randint(1, 9), rng.randint(1, 5))
                s = [si + w * gi for si, gi in zip(s, g)]
            assert xf1.evaluate(s) == xf2.evaluate(s)


def test_triangulation_covers_dual_cone_once():
    # random interior points of the dual cone land in exactly one piece,
    # strictly, or on a shared wall of at least one piece
    rng = random.Random(23)
    for trial in range(25):
        k = rng.choice([2, 3, 4])
        while True:
            gens = [
                tuple(rng.randint(-3, 3) for _ in range(k - 1)) + (rng.randint(1, 3),)
                for _ in range(rng.randint(k, k + 3))
            ]
            try:
                c = PolyCone(k, gens)
                break
            except ValueError:
                continue
        duals = c.dual_generators()
        simplices = triangulate(duals, k)
        for _ in range(20):
            y = [Fraction(0)] * k
            for w in duals:
                t = Fraction(rng.randint(1, 7), rng.randint(1, 3))
                y = [yi + t * wi for yi, wi in zip(y, w)]
            strict = 0
            weak = 0
            for simplex in simplices:
                coords = solve_exact([list(col) for col in zip(*simplex)], y)
                if all(t > 0 for t in coords):
                    strict += 1
                if all(t >= 0 for t in coords):
                    weak += 1
            assert weak >= 1, (gens, y)
            assert strict <= 1, (gens, y)


def test_unimodular_change_of_variables():
    # transforming the cone and the argument together preserves X
    c = PolyCone(2, [(1, 0), (1, 3)])
    a = [[2, 1], [1, 1]]  # det 1
    image = PolyCone(2, [mat_vec(a, list(g)) for g in c.generators])
    xf = xfunction(c)
    xfi = xfunction(image)
    for s in ([Fraction(4), Fraction(1)], [Fraction(7), Fraction(2)]):
        # s interior to c maps to As interior to image
        if c.contains_interior(s):
            assert xfi.evaluate(mat_vec(a, s)) == xf.evaluate(s)


def test_boundary_blowup():
    c = dp6_effective_cone()
    xf = xfunction(c)
    antican = [sum(g[i] for g in c.generators) for i in range(4)]
    w = c.dual_generators()[0]
    boundary = [Fraction(0)] * 4
    for g in c.generators:
        if sum(wi * gi for wi, gi in zip(w, g)) == 0:
            boundary = [b + gi for b, gi in zip(boundary, g)]
    values = []
    for k in range(0, 26):
        s = [b + Fraction(1, 2**k) * a for b, a in zip(boundary, antican)]
        values.append(xf.evaluate(s))
    assert all(values[i] < values[i + 1] for i in range(len(values) - 1))
    assert values[-1] > 10**6 * values[0]


def dp6_effective_cone():
    gamma1 = [1, -1, 0, 0, 1, -1]
    gamma2 = [1, 0, -1, 1, 0, -1]
    project, _, torsion = quotient_map([gamma1, gamma2], 6)
    assert torsion == []
    pm = [list(p) for p in project]
    gens = [mat_vec(pm, [1 if j == i else 0 for j in range(6)]) for i in range(6)]
    return PolyCone(4, gens)


def dp6_projection():
    gamma1 = [1, -1, 0, 0, 1, -1]
    gamma2 = [1, 0, -1, 1, 0, -1]
    project, _, _ = quotient_map([gamma1, gamma2], 6)
    return [list(p) for p in project]


def dp6_closed_form(s1, s2, s3, s12, s13, s23):
    num = s1 + s2 + s3 + s12 + s13 + s23
    den = (
        (s1 + s23)
        * (s2 + s13)
        * (s3 + s12)
        * (s1 + s2 + s3)
        * (s12 + s13 + s23)
    )
    return Fraction(num) / den


def test_dp6_xfunction_formula():
    pm = dp6_projection()
    xf = xfunction(dp6_effective_cone())
    rng = random.Random(41)
    for _ in range(20):
        s = [Fraction(rng.randint(1, 40), rng.randint(1, 9)) for _ in range(6)]
        assert xf.evaluate(mat_vec(pm, s)) == dp6_closed_form(*s)
    assert xf.evaluate(mat_vec(pm, [Fraction(1)] * 6)) == Fraction(1, 12)


def test_alpha_values(p1, p2, p1xp1, dp6, hirzebruch1):
    assert alpha(p1) == Fraction(1, 2)
    assert alpha(p2) == Fraction(1, 3)
    assert alpha(p1xp1) == Fraction(1, 4)
    assert alpha(dp6) == Fraction(1, 12)
    assert alpha(hirzebruch1) == Fraction(1, 6)


def test_alpha_oracle_p1_by_quadrature(p1):
    # Pic(P^1) = Z, effective cone R>=0, -K = 2: alpha = int_0^inf e^{-2y} dy
    from scipy.integrate import quad

    val, _ = quad(lambda y: pow(2.718281828459045, -2 * y), 0, 50)
    assert abs(val - float(alpha(p1))) < 1e-9


def test_alpha_oracle_monte_carlo(p1xp1, p2):
    # uniform box Monte Carlo over the dual cone, seeded
    rng = random.Random(777)
    import math

    # P1xP1: dual cone is the orthant in Z^2, -K = (2, 2)
    box, n = 8.0, 400_000
    acc = 0.0
    for _ in range(n):
        y1, y2 = rng.random() * box, rng.random() * box
        acc += math.exp(-2 * y1 - 2 * y2)
    mc = acc / n * box * box
    assert abs(mc - float(alpha(p1xp1))) < 0.02
    # P2: Pic = Z, -K = 3
    acc = 0.0
    for _ in range(n // 4):
        y = rng.random() * box
        acc += math.exp(-3 * y)
    mc = acc / (n // 4) * box
    assert abs(mc - float(alpha(p2))) < 0.02


def test_alpha_nonsplit_geometric_values():
    # these varieties have rational points, so over K they are the split
    # ones in disguise and alpha is forced
    assert alpha(fan("p1-norm-one")) == Fraction(1, 2)
    assert alpha(fan("p1xp1-swap")) == Fraction(1, 2)
    assert alpha(fan("p2-threecycle")) == Fraction(1, 3)


def test_contains_interior_rejects_an_outside_point():
    c = PolyCone(2, [(1, 0), (1, 2)])
    assert not c.contains_interior([0, 1])


def test_descent_check_orthant():
    resid = descent_check(orthant(2), (1, -1), (1, 2))
    assert resid < 1e-6


def test_descent_check_rejects_zero_gamma():
    with pytest.raises(ValueError, match="nonzero"):
        descent_check(orthant(2), (0, 0), (1, 2))


def test_descent_check_rejects_imprimitive_gamma():
    with pytest.raises(ValueError, match="primitive"):
        descent_check(orthant(2), (2, -2), (1, 2))


def test_descent_check_double_dp6():
    resid = descent_check_double(
        orthant(6),
        [1, -1, 0, 0, 1, -1],
        [1, 0, -1, 1, 0, -1],
        [1, 2, 1, 1, 2, 1],
    )
    assert resid < 1e-6


def test_serialization_roundtrip_and_golden():
    xf = xfunction(dp6_effective_cone())
    back = ConeRationalFunction.from_json_dict(xf.to_json_dict())
    s = [Fraction(3), Fraction(2), Fraction(5, 2), Fraction(1)]
    assert back.evaluate(s) == xf.evaluate(s)
    with open(os.path.join(DATA, "dp6_xfunction.golden.json")) as f:
        golden = json.load(f)
    assert xf.to_json_dict() == golden


def test_alpha_hirzebruch2():
    # second Hirzebruch surface: effective cone spanned by the section and
    # the fiber, -K = 2E + 4F in that basis, so alpha = 1/8
    from toricount.fan import Fan, validate_fan

    f2 = Fan(2, [(1, 0), (0, 1), (-1, 2), (0, -1)], [(0, 1), (1, 2), (2, 3), (3, 0)])
    assert validate_fan(f2).ok
    assert alpha(f2) == Fraction(1, 8)


def test_effective_cone_data_split_matches_picard(p2):
    from toricount.picard import picard_data

    pd = picard_data(p2)
    gens = pd.eff_generators_G
    assert pd.rank_K == 1 and pd.h == 1
    assert sorted(gens) == [(1,), (1,), (1,)] or sorted(gens) == [(-1,), (-1,), (-1,)]
    # a split fan's PL^G / M^G is its Picard lattice
    assert gens == pd.eff_generators
    assert pd.anticanonical_G == pd.anticanonical_class


@st.composite
def pointed_cones(draw):
    """Cones on 2 to 7 generators in Z^2..Z^4 with a positive last entry, so
    pointed; generators need not be extreme or primitive."""
    k = draw(st.integers(min_value=2, max_value=4))
    entry, last = st.integers(min_value=-3, max_value=3), st.integers(min_value=1, max_value=4)
    gens = draw(st.lists(st.tuples(*[entry] * (k - 1), last), min_size=k, max_size=k + 3))
    try:
        return PolyCone(k, gens)
    except ValueError:
        assume(False)


@settings(max_examples=150, deadline=None)
@given(pointed_cones())
def test_triangulate_matches_census_oracle_on_random_cones(c):
    k = c.ambient_rank
    for gens in (c.generators, c.dual_generators()):
        for order in ("lex", "revlex"):
            assert triangulate(gens, k, order) == census_triangulate(gens, k, order)


@settings(max_examples=20, deadline=None)
@given(subdivided_surfaces(max_blowups=8))
def test_triangulate_matches_census_oracle_on_surface_effective_cones(surface):
    # the dual of the effective cone is what alpha triangulates
    assume(surface.nrays <= 11)
    pd = picard_data(surface)
    c = PolyCone(pd.rank_K, pd.eff_generators_G)
    for order in ("lex", "revlex"):
        assert triangulate(c.dual_generators(), c.ambient_rank, order) == census_triangulate(
            c.dual_generators(), c.ambient_rank, order
        )


def triangulated_alpha(f):
    """The reference: the triangulated X-function of the effective cone at -K, over h."""
    pd = picard_data(f)
    return xfunction(PolyCone(pd.rank_K, pd.eff_generators_G)).evaluate(pd.anticanonical_G) / pd.h


def product_fan(a, b):
    rays = [r + (0,) * b.dim for r in a.rays] + [(0,) * a.dim + r for r in b.rays]
    cones_ = [c + tuple(a.nrays + j for j in e) for c in a.max_cones for e in b.max_cones]
    return Fan(a.dim + b.dim, rays, cones_)


def recoordinatized(f, perm, ops):
    """f with ray k moved to perm[k] and N changed by the row operations (i, j, c):
    row i plus c times row j, or row i negated when i == j."""
    u = identity(f.dim)
    for i, j, c in ops:
        u[i] = [-x for x in u[i]] if i == j else [x + c * y for x, y in zip(u[i], u[j])]
    rays = [None] * f.nrays
    for k, new in enumerate(perm):
        rays[new] = tuple(mat_vec(u, f.rays[k]))
    return Fan(f.dim, rays, [[perm[k] for k in c] for c in f.max_cones])


@st.composite
def recoordinatized_products(draw):
    """(X, Y, X x Y) for a drawn surface X and Y = P^1, P^2 or a drawn surface,
    the product in shuffled ray order after a drawn GL(d, Z) change."""
    a = draw(subdivided_surfaces(max_blowups=2))
    b = draw(st.sampled_from([fan("p1"), fan("p2")]) | subdivided_surfaces(max_blowups=2))
    f = product_fan(a, b)
    index = st.integers(min_value=0, max_value=f.dim - 1)
    ops = draw(st.lists(st.tuples(index, index, st.integers(min_value=-2, max_value=2)), max_size=3 * f.dim))
    return a, b, recoordinatized(f, draw(st.permutations(range(f.nrays))), ops)


@settings(max_examples=200, deadline=None)
@given(subdivided_surfaces(max_blowups=7))
def test_alpha_by_residues_matches_triangulation_on_surfaces(surface_fan):
    assert surface_fan.nrays <= 11
    assert alpha(surface_fan) == triangulated_alpha(surface_fan)


@settings(max_examples=40, deadline=None)
@given(recoordinatized_products())
def test_alpha_by_residues_factors_over_products(case):
    a, b, f = case
    assert validate_fan(f).ok
    assert alpha(f) == triangulated_alpha(f) == alpha(a) * alpha(b)


# P^2 with two rays swapped: its Gale dual is one rank-1 component (1, -2)
P2_SWAP = Fan(2, [(1, 0), (0, 1), (-1, -1)], [(0, 1), (1, 2), (2, 0)], galois=[((0, 1), (1, 0))])


@pytest.mark.parametrize("name", ["p1-norm-one", "p1xp1-swap", "p2-threecycle"])
def test_alpha_by_residues_matches_triangulation_on_nonsplit_fans(name):
    assert alpha(fan(name)) == triangulated_alpha(fan(name))


def test_alpha_by_residues_reaches_multiple_poles_and_scaled_rank_one(monkeypatch):
    orders = []
    left_residues = cones._left_residues

    def spy(factors):
        poles = Counter(Fraction(-a, c) for a, c in factors if a * c > 0)
        orders.append(max(poles.values(), default=0))
        return left_residues(factors)

    monkeypatch.setattr(cones, "_left_residues", spy)
    five = surface([(1, 0), (1, 1), (1, 2), (0, 1), (-1, -1)])
    assert alpha(five) == triangulated_alpha(five)
    assert max(orders) == 2
    assert validate_fan(P2_SWAP).ok
    assert cones._gale_blocks(picard_data(P2_SWAP).gale_dual) == [((1,), (-2,))]
    assert alpha(P2_SWAP) == triangulated_alpha(P2_SWAP) == Fraction(1, 3)


def test_block_value_is_normalized_by_the_relation_lattice():
    # scaling a block's coordinates keeps its integer relations, so its value
    assert cones._block_value(((2,), (-4,))) == cones._block_value(((1,), (-2,))) == Fraction(1, 3)
    p2 = ((1, 0), (0, 1), (-1, -1))
    assert cones._block_value(tuple((3 * a, b) for a, b in p2)) == cones._block_value(p2) == Fraction(1, 3)


def test_alpha_refuses_a_configuration_that_does_not_positively_span():
    # a coloop, a rank-1 block of one sign and a rank-2 block in a half-plane
    # are Gale duals of effective cones that are not pointed
    for columns in ([(1, 0), (0, 1), (0, -1)], [(1,), (2,)], [(1, 0), (0, 1), (1, 1)]):
        with pytest.raises(ValueError, match="not pointed"):
            for block in cones._gale_blocks(columns):
                cones._block_value(block)


# alpha of seeded_surface(40, 0), pinned from the residue route
BIG_ALPHA = Fraction(
    161493176567249043940196589302009700119771886704515656824756817835926258701,
    672787663574124221041972545911875530839886789601270271909464182731972978487066624000000000000,
)


class TriangulationReached(Exception):
    pass


def seeded_surface(nrays, seed):
    rng, rays = random.Random(seed), list(DP7.rays)
    while len(rays) < nrays:
        i = rng.randrange(len(rays))
        u, v = rays[i], rays[(i + 1) % len(rays)]
        rays.insert(i + 1, (u[0] + v[0], u[1] + v[1]))
    return surface(rays)


# P^3; P^3 blown up at a point; and a 3-fold with an involution whose Gale
# dual repeats a column in a rank-2 component (P^2 x P^1 with the curves
# over 0 and infinity through one fixed point blown up, z -> -z)
P3 = Fan(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)], [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)])
P3_BLOWN_UP = Fan(
    3,
    [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1), (1, 1, 1)],
    [(0, 1, 3), (0, 2, 3), (1, 2, 3), (0, 1, 4), (0, 2, 4), (1, 2, 4)],
)
REPEATED_COLUMN = Fan(
    3,
    [(1, 0, 0), (0, 1, 0), (-1, -1, 0), (0, 0, 1), (0, 0, -1), (1, 0, 1), (1, 0, -1)],
    [(5, 1, 3), (0, 1, 5), (2, 5, 3), (2, 0, 5), (1, 2, 3), (6, 1, 4), (0, 1, 6), (2, 6, 4), (2, 0, 6), (1, 2, 4)],
    galois=[((1, 0, 0), (0, 1, 0), (0, 0, -1))],
)


def test_alpha_reaches_no_triangulation_below_rank_three(monkeypatch):
    def refuse(*args, **kwargs):
        raise TriangulationReached

    dp6, dp7 = fan("dp6"), DP7
    pinned = {
        dp7: Fraction(1, 12),
        product_fan(dp6, fan("p1")): Fraction(1, 24),
        product_fan(dp6, fan("p2")): Fraction(1, 36),
        product_fan(dp7, dp7): Fraction(1, 144),
        product_fan(dp6, dp6): Fraction(1, 144),
    }
    big = seeded_surface(40, 0)
    # no other route reaches 40 rays: the value must not depend on coordinates
    moved = recoordinatized(big, random.Random(1).sample(range(40), 40), [(0, 1, 3), (1, 0, -2), (0, 1, 1)])
    monkeypatch.setattr(cones, "triangulate", refuse)
    monkeypatch.setattr(dd, "extreme_rays", refuse)
    for name in NAMES:
        assert alpha(fan(name)) == Fraction(golden_constants(name)["alpha"])
    assert all(alpha(f) == value for f, value in pinned.items())
    assert validate_fan(moved).ok
    assert alpha(big) == alpha(moved) == BIG_ALPHA
    for f in (P3, P3_BLOWN_UP, REPEATED_COLUMN):
        assert validate_fan(f).ok
        with pytest.raises(TriangulationReached):
            alpha(f)
