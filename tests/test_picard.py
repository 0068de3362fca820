import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from oracles.exact import from_character, h1_cocycle, h1_cyclic, solve_exact, solve_in_lattice

from toricount.cones import alpha
from toricount.fan import Fan, galois_group, galois_orbits, validate_fan
from toricount.heights import HeightEvaluator, TorusPoint, global_height
from toricount.linalg import identity, mat_mul, mat_vec, rank, unimodular_inverse
from toricount.localdata import local_integral
from toricount.picard import (
    PLFunction,
    _dual_action,
    _induced_pic_action,
    anticanonical,
    h1,
    picard_data,
    picard_quotient,
    pl_evaluate,
)


def test_pl_evaluate_examples(p1, p2):
    assert pl_evaluate(p2, anticanonical(p2), (1, 1)) == 2
    assert pl_evaluate(p2, PLFunction((0, 0, 0)), (7, -9)) == 0
    assert pl_evaluate(p1, PLFunction((1, 1)), (-3,)) == 3


def test_characters_are_globally_linear(corpus):
    rng = random.Random(7)
    for name, fan in corpus.items():
        for _ in range(20):
            m = [rng.randint(-5, 5) for _ in range(fan.dim)]
            phi = from_character(fan, m)
            v = [Fraction(rng.randint(-40, 40), rng.randint(1, 7)) for _ in range(fan.dim)]
            want = sum(mi * vi for mi, vi in zip(m, v))
            assert pl_evaluate(fan, phi, v) == want


def test_picard_data_split(p2):
    pd = picard_data(p2)
    assert pd.rank_split == 1
    assert pd.rank_K == 1
    assert pd.h == 1
    assert pd.beta == 1
    assert pd.anticanonical_class == (3,) or pd.anticanonical_class == (-3,)


def test_rank_split_is_n_minus_d(corpus):
    for name, fan in corpus.items():
        assert picard_data(fan).rank_split == fan.nrays - fan.dim, name


def test_norm_one_torus_h():
    fan = Fan(1, [(1,), (-1,)], [(0,), (1,)], galois=[[[-1]]])
    pd = picard_data(fan)
    assert pd.h == 2
    assert pd.beta == 1
    assert pd.t == 0
    assert pd.rank_K == 1


def test_swap_torus():
    fan = Fan(
        2,
        [(1, 0), (0, 1), (-1, 0), (0, -1)],
        [(0, 1), (1, 2), (2, 3), (3, 0)],
        galois=[[[0, 1], [1, 0]]],
    )
    pd = picard_data(fan)
    assert (pd.t, pd.r, pd.rank_K) == (1, 2, 1)
    assert pd.h == 1
    assert pd.beta == 1


def test_three_cycle():
    fan = Fan(
        2,
        [(1, 0), (0, 1), (-1, -1)],
        [(0, 1), (1, 2), (2, 0)],
        galois=[[[0, -1], [1, -1]]],
    )
    pd = picard_data(fan)
    assert pd.h == 3
    assert pd.beta == 1


def test_exactness_bookkeeping(corpus):
    # free ranks of the exact sequence: rank_K + rank M^G = rank PL^G = r
    for name, fan in corpus.items():
        pd = picard_data(fan)
        assert pd.rank_K + pd.t == pd.r == galois_orbits(fan).r, name


def test_beta_split_is_one(corpus):
    for name, fan in corpus.items():
        if fan.is_split():
            assert picard_data(fan).beta == 1, name


def _random_finite_order_matrix(rng, size, order):
    """Conjugate of a block of structured finite-order integer matrices."""
    blocks = []
    left = size
    while left > 0:
        choices = [(1, 1)]
        if order % 2 == 0:
            choices.append((1, -1))
        if left >= 2:
            if order % 3 == 0:
                choices.append((2, "c3"))
            if order % 4 == 0:
                choices.append((2, "c4"))
            if order % 6 == 0:
                choices.append((2, "c6"))
            choices.append((2, "swap"))
        kind = rng.choice(choices)
        if kind == (1, 1):
            blocks.append([[1]])
            left -= 1
        elif kind == (1, -1):
            blocks.append([[-1]])
            left -= 1
        elif kind[1] == "c3":
            blocks.append([[0, -1], [1, -1]])
            left -= 2
        elif kind[1] == "c4":
            blocks.append([[0, -1], [1, 0]])
            left -= 2
        elif kind[1] == "c6":
            blocks.append([[0, -1], [1, 1]])
            left -= 2
        else:
            if order % 2 != 0:
                blocks.append([[1]])
                left -= 1
                continue
            blocks.append([[0, 1], [1, 0]])
            left -= 2
    a = [[0] * size for _ in range(size)]
    pos = 0
    for b in blocks:
        for i, row in enumerate(b):
            for j, x in enumerate(row):
                a[pos + i][pos + j] = x
        pos += len(b)
    # conjugate by a random unimodular matrix
    u = identity(size)
    for _ in range(6):
        i, j = rng.randrange(size), rng.randrange(size)
        if i != j:
            q = rng.randint(-2, 2)
            for t in range(size):
                u[i][t] += q * u[j][t]
    return _conjugate(u, a)


def _conjugate(u, a):
    """u a u^-1, for a unimodular u."""
    return tuple(map(tuple, mat_mul(mat_mul(u, a), unimodular_inverse(u))))


def test_h1_three_routes_agree_on_random_cyclic_modules():
    # the stacked Smith form, the periodic resolution and the cocycle route
    rng = random.Random(2024)
    done = 0
    while done < 100:
        size = rng.randint(1, 4)
        order = rng.choice([1, 2, 3, 4, 5, 6])
        a = _random_finite_order_matrix(rng, size, order)
        power = identity(size)
        for _ in range(order):
            power = mat_mul(power, a)
        if power != identity(size):
            continue
        assert h1([a]) == h1_cyclic(a, order) == h1_cocycle([a]), (a, order)
        done += 1


@st.composite
def signed_permutation_groups(draw):
    """(generators, u): 2-3 signed permutation matrices of one size <= 3,
    which generate a finite group, and a unimodular u to conjugate by."""
    size = draw(st.integers(1, 3))
    signs = st.lists(st.sampled_from((1, -1)), min_size=size, max_size=size)
    signed_permutations = st.tuples(st.permutations(range(size)), signs)
    gens = [
        tuple(tuple(sign[i] * (perm[i] == j) for j in range(size)) for i in range(size))
        for perm, sign in draw(st.lists(signed_permutations, min_size=2, max_size=3))
    ]
    index = st.integers(0, size - 1)
    u = identity(size)
    for i, j, q in draw(st.lists(st.tuples(index, index, st.integers(-2, 2)), max_size=4)):
        if i != j:
            u[i] = [x + q * y for x, y in zip(u[i], u[j])]
    return gens, u


@settings(max_examples=150, deadline=None)
@given(signed_permutation_groups())
def test_h1_stacked_smith_form_matches_the_cocycle_route(group):
    # any finite group, and the same module in a random basis
    gens, u = group
    assert h1(gens) == h1_cocycle(gens) == h1([_conjugate(u, g) for g in gens])


def test_h1_permutation_module_is_trivial():
    # Shapiro: a group permuting a basis has no H^1, cyclic or not
    cyc = ((0, 1, 0), (0, 0, 1), (1, 0, 0))
    swap = ((0, 1, 0), (1, 0, 0), (0, 0, 1))
    assert h1([cyc]) == h1_cyclic(cyc, 3) == h1_cocycle([cyc]) == ()
    assert h1([cyc, swap]) == h1_cocycle([cyc, swap]) == ()


def test_h1_of_the_trivial_group_takes_no_smith_form(monkeypatch, p2):
    import toricount.picard as picard

    def refuse(a):
        raise AssertionError("Smith form taken for the trivial group")

    monkeypatch.setattr(picard, "kernel_basis", refuse)
    monkeypatch.setattr(picard, "invariant_factors", refuse)
    assert h1([]) == ()
    # nor does a split fan's group part, past the cache
    pd = picard.picard_data.__wrapped__(p2)
    assert (pd.t, pd.h1_GM, pd.h1_GPic) == (2, (), ())


def test_h1_norm_one_module():
    assert h1([((-1,),)]) == h1_cyclic(((-1,),), 2) == h1_cocycle([((-1,),)]) == (2,)


def test_order_four_rotation_on_p1xp1():
    # rotation by 90 degrees: one ray orbit, M^G = 0, h = 2 from the
    # rotation module, beta trivial (the action on Pic is the swap)
    fan = Fan(
        2,
        [(1, 0), (0, 1), (-1, 0), (0, -1)],
        [(0, 1), (1, 2), (2, 3), (3, 0)],
        galois=[[[0, -1], [1, 0]]],
    )
    pd = picard_data(fan)
    assert (pd.r, pd.t, pd.rank_K) == (1, 0, 1)
    assert pd.h == 2
    assert pd.beta == 1
    # Pic over the ground field is generated by the invariant class with
    # -K twice that class, so alpha must come out 1/2
    assert alpha(fan) == Fraction(1, 2)


def test_order_six_rotation_on_dp6():
    fan = Fan(
        2,
        [(1, 0), (1, 1), (0, 1), (-1, 0), (-1, -1), (0, -1)],
        [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)],
        galois=[[[1, -1], [1, 0]]],
    )
    assert validate_fan(fan).ok
    pd = picard_data(fan)
    assert (pd.r, pd.t, pd.rank_K) == (1, 0, 1)
    assert pd.h == 1
    # -K generates the ground-field Picard lattice here
    assert alpha(fan) == Fraction(1, 1)


def _pic_actions(fan):
    """The induced action on Pic of each of the fan's Galois generators."""
    project, lift = picard_quotient(fan)
    return [_induced_pic_action(fan, project, lift, g) for g in fan.galois]


def test_beta_agrees_with_cocycle_route_on_pic_actions():
    # all three cohomology routes on the induced Picard action itself
    cases = [
        Fan(1, [(1,), (-1,)], [(0,), (1,)], galois=[[[-1]]]),
        Fan(2, [(1, 0), (0, 1), (-1, 0), (0, -1)],
            [(0, 1), (1, 2), (2, 3), (3, 0)], galois=[[[0, 1], [1, 0]]]),
        Fan(2, [(1, 0), (0, 1), (-1, 0), (0, -1)],
            [(0, 1), (1, 2), (2, 3), (3, 0)], galois=[[[0, -1], [1, 0]]]),
        Fan(2, [(1, 0), (0, 1), (-1, -1)],
            [(0, 1), (1, 2), (2, 0)], galois=[[[0, -1], [1, -1]]]),
        Fan(2, [(1, 0), (1, 1), (0, 1), (-1, 0), (-1, -1), (0, -1)],
            [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)],
            galois=[[[1, -1], [1, 0]]]),
    ]
    for fan in cases:
        (hat,) = _pic_actions(fan)
        got = h1([hat])
        assert got == h1_cyclic(hat, len(galois_group(fan))) == h1_cocycle([hat])
        assert got == picard_data(fan).h1_GPic


SQUARE = ([(1, 0), (0, 1), (-1, 0), (0, -1)], [(0, 1), (1, 2), (2, 3), (3, 0)])
HEXAGON = (
    [(1, 0), (1, 1), (0, 1), (-1, 0), (-1, -1), (0, -1)],
    [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)],
)
TRIANGLE = ([(1, 0), (0, 1), (-1, -1)], [(0, 1), (1, 2), (2, 0)])


@pytest.mark.parametrize(
    "shape, galois, order, h1_gm, beta, k, alpha_",
    [
        # Klein four by sign flips on P^1 x P^1
        (SQUARE, [[[-1, 0], [0, 1]], [[1, 0], [0, -1]]], 4, (2, 2), 1, 2, Fraction(1, 4)),
        # S_3 on P^2
        (TRIANGLE, [[[0, -1], [1, -1]], [[0, 1], [1, 0]]], 6, (3,), 1, 1, Fraction(1, 3)),
        # D_6, the whole symmetry group of dp6
        (HEXAGON, [[[1, -1], [1, 0]], [[0, 1], [1, 0]]], 12, (), 1, 1, Fraction(1)),
    ],
    ids=["klein4-p1xp1", "s3-p2", "d6-dp6"],
)
def test_noncyclic_groups_give_pinned_values(shape, galois, order, h1_gm, beta, k, alpha_):
    fan = Fan(2, *shape, galois=galois)
    assert validate_fan(fan).ok and len(galois_group(fan)) == order
    pd = picard_data(fan)
    assert (pd.h1_GM, pd.beta, pd.rank_K, alpha(fan)) == (h1_gm, beta, k, alpha_)
    # the cocycle route on both the M action and the Pic action
    assert h1_cocycle([_dual_action(g) for g in fan.galois]) == pd.h1_GM
    assert h1_cocycle(_pic_actions(fan)) == pd.h1_GPic


def test_pl_evaluate_vanishes_at_apex(corpus):
    rng = random.Random(12)
    for name, fan in corpus.items():
        phi = PLFunction(tuple(rng.randint(-5, 5) for _ in range(fan.nrays)))
        assert pl_evaluate(fan, phi, [0] * fan.dim) == 0


def test_pic_quotient_torsion_free(corpus):
    for name, fan in corpus.items():
        project, lift = picard_quotient(fan)
        assert len(project) == fan.nrays - fan.dim, name


@st.composite
def lattice_problems(draw):
    """(A, x, k): a full-column-rank integer B, column scales k, and A = B diag(k)."""
    s = draw(st.integers(1, 4))
    rows = draw(st.integers(s, s + 2))
    b = draw(
        st.lists(
            st.lists(st.integers(-5, 5), min_size=s, max_size=s),
            min_size=rows,
            max_size=rows,
        )
    )
    assume(rank(b) == s)
    k = draw(st.lists(st.integers(1, 4), min_size=s, max_size=s))
    x = draw(st.lists(st.integers(-12, 12), min_size=s, max_size=s))
    a = [[row[j] * k[j] for j in range(s)] for row in b]
    return a, b, k, x


@settings(max_examples=300, deadline=None)
@given(lattice_problems())
def test_solve_in_lattice_against_scaled_basis(problem):
    # A y = B x with A = B diag(k) and B of full column rank holds exactly
    # when y_j = x_j / k_j, so B x lies in the lattice iff every k_j | x_j
    a, b, k, x = problem
    target = mat_vec(b, x)
    if all(xj % kj == 0 for xj, kj in zip(x, k)):
        assert solve_in_lattice(a, target) == [xj // kj for xj, kj in zip(x, k)]
    else:
        with pytest.raises(ValueError):
            solve_in_lattice(a, target)


@settings(max_examples=100, deadline=None)
@given(lattice_problems(), st.lists(st.integers(-5, 5), min_size=6, max_size=6))
def test_solve_in_lattice_rejects_targets_off_the_span(problem, w):
    a, _, _, x = problem
    w = w[: len(a)]
    assume(rank([row + [wi] for row, wi in zip(a, w)]) > len(a[0]))
    target = [t + wi for t, wi in zip(mat_vec(a, x), w)]
    with pytest.raises(ValueError):
        solve_in_lattice(a, target)


def _pl_fraction_oracle(fan, phi, v):
    """phi(v) by the Fraction route: solve for the cone coordinates of v."""
    for cone in fan.max_cones:
        coords = solve_exact(
            [[fan.rays[j][i] for j in cone] for i in range(fan.dim)], list(v)
        )
        if all(c >= 0 for c in coords):
            return sum(c * phi.values[j] for c, j in zip(coords, cone))
    raise AssertionError("vector not located")


def test_pl_evaluate_integer_vectors_give_ints(corpus):
    rng = random.Random(5)
    for name, fan in corpus.items():
        for _ in range(40):
            phi = PLFunction(tuple(rng.randint(-6, 6) for _ in range(fan.nrays)))
            v = tuple(rng.randint(-30, 30) for _ in range(fan.dim))
            got = pl_evaluate(fan, phi, v)
            assert type(got) is int, (name, v)
            assert got == _pl_fraction_oracle(fan, phi, v), (name, v)
            # the same vector as Fractions takes the same route exactly
            assert pl_evaluate(fan, phi, [Fraction(x, 3) for x in v]) == Fraction(got, 3)


def _subdivided_p2(steps):
    rays = [(1, 0), (0, 1), (-1, -1)]
    for t in range(steps):
        i = (3 * t) % len(rays)
        u, v = rays[i], rays[(i + 1) % len(rays)]
        rays.insert(i + 1, (u[0] + v[0], u[1] + v[1]))
    n = len(rays)
    return Fan(2, rays, [(i, (i + 1) % n) for i in range(n)])


def _product(a, b):
    rays = [r + (0,) * b.dim for r in a.rays] + [(0,) * a.dim + r for r in b.rays]
    cones = [c + tuple(a.nrays + j for j in e) for c in a.max_cones for e in b.max_cones]
    return Fan(a.dim + b.dim, rays, cones)


def test_picard_data_on_a_20_ray_product():
    fan = _product(_subdivided_p2(7), _subdivided_p2(7))
    assert fan.nrays == 20 and validate_fan(fan).ok
    project, lift = picard_quotient(fan)
    k = fan.nrays - fan.dim
    assert mat_mul([list(r) for r in project], [list(r) for r in lift]) == identity(k)
    pd = picard_data(fan)
    assert pd.rank_split == k == 16
    assert pd.rank_K == k and pd.beta == 1
    # characters map to the zero class
    for m in identity(fan.dim):
        assert mat_vec([list(r) for r in project], list(from_character(fan, m).values)) == [0] * k


def test_one_integrality_rule_for_local_sums_and_heights(p2):
    x = TorusPoint((Fraction(2), Fraction(3, 4)))
    for values in ((2.0, 2.0, 2.0), (Fraction(1, 2),) * 3, (2, 2, 2.5)):
        phi = PLFunction(values)
        calls = (phi.integer_values, lambda: local_integral(p2, 2, phi), lambda: HeightEvaluator(p2, phi))
        for call in calls:
            with pytest.raises(ValueError, match="need integer PL values"):
                call()
    # integral Fractions are ints to both callers
    phi, ints = PLFunction((Fraction(2),) * 3), PLFunction((2, 2, 2))
    assert phi.integer_values() == (2, 2, 2)
    assert local_integral(p2, 2, phi) == local_integral(p2, 2, ints)
    assert global_height(p2, phi, x) == global_height(p2, ints, x)
