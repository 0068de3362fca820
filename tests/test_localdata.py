import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles.archimedean import archimedean_transform
from oracles.exact import abs_coeff_sum_nonconstant, diagonal_coeffs, solve_exact
from oracles.product_qsigma import product_qsigma
from test_height_oracles import CUBE, DP7, blown_up_p2, subdivided_surfaces

from toricount.arith import BudgetExceededError, primes_upto
from toricount.fan import Fan, OrbitDecomposition, galois_group, galois_orbits, validate_fan
from toricount.localdata import (
    QSIGMA_MONOMIALS_CAP,
    euler_polynomial,
    local_integral,
    point_count_fp,
    qsigma,
    qsigma_split,
)
from toricount.picard import PLFunction, picard_data


def test_qsigma_p1_split(p1):
    q = qsigma_split(p1)
    assert q.coeff_dict() == {(0, 0): 1, (1, 1): -1}


def test_qsigma_constant_term_is_one(corpus):
    for name, fan in corpus.items():
        q = qsigma_split(fan)
        zero = tuple([0] * q.nvars)
        assert q.coeff_dict().get(zero) == 1, name
        assert q.evaluate([0] * q.nvars) == 1, name


def test_qsigma_p2_split_cross_checked_by_series(p2):
    # the algebra says 1 - u1 u2 u3; the series identity at several
    # primes confirms the module value independently
    q = qsigma_split(p2)
    assert q.coeff_dict() == {(0, 0, 0): 1, (1, 1, 1): -1}
    for p in (2, 3):
        li = local_integral(p2, p, PLFunction((2, 2, 2)), truncation=12)
        assert 0 <= li.closed_form - li.truncated <= li.tail_bound


def test_qsigma_nonsplit_examples():
    p1n = Fan(1, [(1,), (-1,)], [(0,), (1,)], galois=[[[-1]]])
    assert qsigma(p1n, galois_orbits(p1n)).coeff_dict() == {(0,): 1, (2,): -1}
    p2c = Fan(
        2,
        [(1, 0), (0, 1), (-1, -1)],
        [(0, 1), (1, 2), (2, 0)],
        galois=[[[0, -1], [1, -1]]],
    )
    assert qsigma(p2c, galois_orbits(p2c)).coeff_dict() == {(0,): 1, (3,): -1}


def all_cyclic_subgroup_orbits(fan):
    """Orbit decompositions of every cyclic subgroup of the Galois group."""
    seen = set()
    out = []
    for g in galois_group(fan):
        orb = galois_orbits(Fan(fan.dim, fan.rays, fan.max_cones, galois=[g]))
        if orb.orbits not in seen:
            seen.add(orb.orbits)
            out.append(orb)
    return out


def test_degree_ge_two_for_all_corpus_fans_and_subgroups(corpus):
    for name, fan in corpus.items():
        for orb in all_cyclic_subgroup_orbits(fan):
            q = qsigma(fan, orb)
            assert q.degree_ge_two_away_from_one(), (name, orb.orbits)


# counter-clockwise rays and a rotation that maps the fan to itself
ROTATIONS = (
    ([(1, 0), (0, 1), (-1, -1)], [[0, -1], [1, -1]]),
    ([(1, 0), (0, 1), (-1, 0), (0, -1)], [[0, -1], [1, 0]]),
    ([(1, 0), (0, 1), (-1, 0), (0, -1)], [[-1, 0], [0, -1]]),
    ([(1, 0), (1, 1), (0, 1), (-1, 0), (-1, -1), (0, -1)], [[1, -1], [1, 0]]),
)


@st.composite
def rotated_surfaces(draw, max_rays=10):
    """P^2, F_0 or dp6 with a rotation as its Galois action, after blowing up
    whole orbits of torus-fixed points, so the rotation stays a symmetry."""
    rays, g = draw(st.sampled_from(ROTATIONS))
    rays = list(rays)
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        image = tuple(sum(a * b for a, b in zip(row, rays[0])) for row in g)
        shift = rays.index(image)
        if len(rays) + len(rays) // shift > max_rays:
            break
        i = draw(st.integers(min_value=0, max_value=shift - 1))
        for j in reversed(range(i, len(rays), shift)):
            u, v = rays[j], rays[(j + 1) % len(rays)]
            rays.insert(j + 1, (u[0] + v[0], u[1] + v[1]))
    n = len(rays)
    return Fan(2, rays, [(i, (i + 1) % n) for i in range(n)], galois=[g])


def swapped_square(fan):
    """X x X with the factor swap as its Galois action."""
    d, n = fan.dim, fan.nrays
    rays = [r + (0,) * d for r in fan.rays] + [(0,) * d + r for r in fan.rays]
    cones = [a + tuple(n + j for j in b) for a in fan.max_cones for b in fan.max_cones]
    swap = [[int(j == (i + d) % (2 * d)) for j in range(2 * d)] for i in range(2 * d)]
    return Fan(2 * d, rays, cones, galois=[swap])


@settings(max_examples=40, deadline=None)
@given(st.one_of(rotated_surfaces(), subdivided_surfaces(max_blowups=1).map(swapped_square)))
def test_qsigma_matches_product_oracle(fan):
    assert validate_fan(fan).ok
    decompositions = [
        OrbitDecomposition(tuple((j,) for j in range(fan.nrays))),
        galois_orbits(fan),
    ] + [galois_orbits(Fan(fan.dim, fan.rays, fan.max_cones, galois=[g])) for g in galois_group(fan)]
    for orb in decompositions:
        assert qsigma(fan, orb) == product_qsigma(fan, orb), orb.orbits


def test_qsigma_rejects_bad_partition(p2):
    with pytest.raises(ValueError):
        qsigma(p2, OrbitDecomposition(((0, 1),)))


def test_local_integral_p1_closed_form(p1):
    for p in (2, 3):
        li = local_integral(p1, p, PLFunction((2, 2)), truncation=40)
        expect = (1 + Fraction(1, p**2)) / (1 - Fraction(1, p**2))
        assert li.closed_form == expect


def test_local_integral_tails_certified(corpus):
    for name in ("p1", "p2"):
        fan = corpus[name]
        for p in (2, 3):
            for s in (2, 3):
                for r in (10, 20, 40):
                    li = local_integral(fan, p, PLFunction((s,) * fan.nrays), truncation=r)
                    gap = li.closed_form - li.truncated
                    assert 0 <= gap <= li.tail_bound, (name, p, s, r)


def test_local_integral_large_s_tends_to_one(p1):
    li = local_integral(p1, 2, PLFunction((40, 40)), truncation=2)
    assert abs(li.closed_form - 1) < Fraction(1, 10**11)


def test_local_integral_rejects_nonpositive(p1):
    with pytest.raises(ValueError, match="divergent"):
        local_integral(p1, 2, PLFunction((0, 2)))


def test_diagonal_factorization(corpus):
    # closed form = L_p(s,T) L_p(s,T_NS) Q(p^-s,...) with split L-factors
    for name in ("p1", "p2", "dp6"):
        fan = corpus[name]
        q = qsigma_split(fan)
        pd = picard_data(fan)
        d, k = fan.dim, pd.rank_split
        for p in (2, 3, 5):
            s = 2
            li = local_integral(fan, p, PLFunction((s,) * fan.nrays), truncation=6)
            u = Fraction(1, p**s)
            rhs = q.evaluate([u] * fan.nrays) / ((1 - u) ** (d + k))
            assert li.closed_form == rhs, (name, p)


def test_archimedean_examples(p1, p2):
    at = archimedean_transform(p1, PLFunction((1, 1)), (0,))
    assert (at.real, at.imag) == (2, 0)
    at = archimedean_transform(p2, PLFunction((1, 1, 1)), (0, 0))
    assert (at.real, at.imag) == (3, 0)
    at = archimedean_transform(p1, PLFunction((1, 1)), (1,))
    assert (at.real, at.imag) == (1, 0)


def test_archimedean_y_zero_identity(corpus):
    rng = random.Random(8)
    for name, fan in corpus.items():
        svals = [Fraction(rng.randint(1, 6)) for _ in range(fan.nrays)]
        at = archimedean_transform(fan, PLFunction(tuple(svals)), [0] * fan.dim)
        expect = Fraction(0)
        for cone in fan.max_cones:
            term = Fraction(1)
            for j in cone:
                term *= svals[j]
            expect += 1 / term
        assert at.real == expect and at.imag == 0
        ones = archimedean_transform(fan, PLFunction((1,) * fan.nrays), [0] * fan.dim)
        assert ones.real == len(fan.max_cones)


def test_archimedean_rejects_nonpositive(p1):
    with pytest.raises(ValueError):
        archimedean_transform(p1, PLFunction((0, 1)), (0,))


def _phi_float(fan, svals, x):
    best = None
    for ci, cone in enumerate(fan.max_cones):
        from toricount.fan import cone_pieces

        m = cone_pieces(fan, svals)[ci][1]
        coords_ok = True
        from toricount.fan import _cone_dual_basis

        for u in _cone_dual_basis(fan, ci):
            if sum(a * b for a, b in zip(u, x)) < -1e-9:
                coords_ok = False
                break
        if coords_ok:
            return sum(float(mi) * xi for mi, xi in zip(m, x))
    raise AssertionError("point not located")


def test_archimedean_quadrature_oracle_p1(p1):
    from scipy.integrate import quad

    for svals, y in (((1, 1), 1.0), ((2, 1), 0.5), ((1, 2), 2.0)):
        at = complex(archimedean_transform(p1, PLFunction(svals), (Fraction(y),)))

        def re_part(x):
            return math.exp(-_phi_float(p1, svals, [x])) * math.cos(x * y)

        def im_part(x):
            return -math.exp(-_phi_float(p1, svals, [x])) * math.sin(x * y)

        lo, hi = -60.0, 60.0
        vr, _ = quad(re_part, lo, hi, limit=200)
        vi, _ = quad(im_part, lo, hi, limit=200)
        assert abs(complex(vr, vi) - at) <= 1e-6 * abs(at)


def test_section6_decay_order(p2):
    # dyadic sweep: |transform| should decay at least like 1/|y| overall
    svals = (1, 1, 1)
    norms, mags = [], []
    for j in range(2, 11):
        y = (Fraction(2**j), Fraction(2**j) * Fraction(3, 7))
        at = archimedean_transform(p2, PLFunction(svals), y)
        mag = math.hypot(float(at.real), float(at.imag))
        norms.append(float(2**j))
        mags.append(mag)
    slope = (math.log(mags[-1]) - math.log(mags[0])) / (
        math.log(norms[-1]) - math.log(norms[0])
    )
    assert slope <= -1.0


def test_point_count_examples(p1, p2, dp6):
    ld = point_count_fp(p2, 2)
    assert ld.point_count == 7
    assert ld.density == Fraction(7, 4)
    assert ld.convergence_factor == Fraction(1, 2)
    for p in (2, 3, 5, 7, 11):
        assert point_count_fp(p1, p).point_count == p + 1
        assert point_count_fp(dp6, p).point_count == p * p + 4 * p + 1


def test_point_count_polynomial_structure(corpus):
    # interpolate Card(F_p) as a polynomial in q = p - 1 (the variable of
    # the orbit decomposition): constant term |Sigma(d)|, leading coeff 1
    primes = [2, 3, 5, 7, 11, 13, 17]
    for name, fan in corpus.items():
        if not fan.is_split():
            continue
        d = fan.dim
        xs = [p - 1 for p in primes[: d + 1]]
        ys = [point_count_fp(fan, p).point_count for p in primes[: d + 1]]
        vandermonde = [[x**j for j in range(d + 1)] for x in xs]
        coeffs = solve_exact(vandermonde, ys)
        assert coeffs[d] == 1, name
        assert coeffs[0] == len(fan.max_cones), name
        # interpolation is exact at a fresh prime too
        extra = primes[d + 1]
        assert sum(
            c * (extra - 1) ** j for j, c in enumerate(coeffs)
        ) == point_count_fp(fan, extra).point_count, name


def test_density_o_p2_structure(corpus):
    # |factor_p - 1| <= C0/p^2 with C0 from the Q coefficients, exactly
    for name, fan in corpus.items():
        if not fan.is_split():
            continue
        q = qsigma_split(fan)
        c0 = abs_coeff_sum_nonconstant(q.monomials)
        for p in (2, 3, 5, 7):
            f = point_count_fp(fan, p).euler_factor
            assert abs(f - 1) <= Fraction(c0, p**2), (name, p)


def test_euler_factor_equals_q_diagonal(corpus):
    for name, fan in corpus.items():
        if not fan.is_split():
            continue
        q = qsigma_split(fan)
        for p in (2, 3, 5):
            assert point_count_fp(fan, p).euler_factor == q.evaluate(
                [Fraction(1, p)] * fan.nrays
            ), name


def _diagonal(fan):
    coeffs = diagonal_coeffs(qsigma_split(fan).monomials)
    while coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


def test_euler_polynomial_is_the_q_diagonal(corpus):
    for name, fan in list(corpus.items()) + [("dp7", DP7), ("cube", CUBE)]:
        if fan.is_split():
            assert euler_polynomial(fan) == _diagonal(fan), name


@settings(max_examples=25, deadline=None)
@given(subdivided_surfaces(max_blowups=6))
def test_euler_polynomial_is_the_q_diagonal_on_surfaces(fan):
    assert euler_polynomial(fan) == _diagonal(fan)


def test_point_count_from_the_f_vector(corpus):
    # the f-vector count against the sum of one torus orbit per cone
    for name, fan in list(corpus.items()) + [("dp7", DP7), ("cube", CUBE)]:
        if not fan.is_split():
            continue
        for p in primes_upto(50):
            orbits = sum((p - 1) ** (fan.dim - len(c)) for c in fan.all_cones())
            assert point_count_fp(fan, p).point_count == orbits, (name, p)


def test_nonsplit_rejected(corpus):
    fan = corpus["p1-norm-one"]
    with pytest.raises(ValueError, match="needs a split fan"):
        point_count_fp(fan, 5)
    with pytest.raises(ValueError, match="needs a split fan"):
        local_integral(fan, 2, PLFunction((2, 2)))
    with pytest.raises(ValueError, match="needs a split fan"):
        euler_polynomial(fan)


def test_local_integral_refuses_an_uncertifiable_tail_before_the_sum(p2, monkeypatch):
    # slope min(s)/max|e_j|_1 = 1/2 < 1 depends on the fan and s alone, so
    # no lattice term is evaluated before the refusal
    import toricount.localdata

    def no_sum(*args):
        raise AssertionError("the lattice sum ran")

    monkeypatch.setattr(toricount.localdata, "pl_evaluate", no_sum)
    with pytest.raises(ValueError, match="cannot certify the tail"):
        local_integral(p2, 2, PLFunction((1, 1, 1)))


def test_local_integral_work_budget(p1, p2):
    from toricount.arith import BudgetExceededError

    # (2r + 1)^d lattice terms, then the digits of the largest power of p
    with pytest.raises(BudgetExceededError, match="lattice terms"):
        local_integral(p2, 3, PLFunction((2, 2, 2)), truncation=10**5)
    with pytest.raises(BudgetExceededError, match="digits"):
        local_integral(p1, 2, PLFunction((10**6, 10**6)), truncation=2)


def test_qsigma_refuses_over_its_cap_at_once():
    # Q has up to 2^n monomials for n rays: 17 rays pass the cap of 2^16,
    # and the refusal comes before any cone is expanded
    fan = blown_up_p2(17)
    start = time.perf_counter()
    with pytest.raises(BudgetExceededError, match="Q monomials"):
        qsigma_split(fan)
    assert time.perf_counter() - start < 0.1
    # 12 rays, as many as dp6 x dp6 has, stay under it
    assert 2**12 <= QSIGMA_MONOMIALS_CAP
    q = qsigma_split(blown_up_p2(12))
    assert q.degree_ge_two_away_from_one() and len(q.monomials) > 2**10
