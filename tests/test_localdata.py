import cmath
import math
import random
from fractions import Fraction

import pytest

from toricount.fan import Fan, OrbitDecomposition, galois_group, galois_orbits
from toricount.localdata import (
    archimedean_transform,
    local_integral,
    point_count_fp,
    qsigma,
    qsigma_split,
    unramified_character_transform,
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
        orb = galois_orbits(fan, generators=[g])
        if orb.orbits not in seen:
            seen.add(orb.orbits)
            out.append(orb)
    return out


def test_degree_ge_two_for_all_corpus_fans_and_subgroups(corpus):
    for name, fan in corpus.items():
        for orb in all_cyclic_subgroup_orbits(fan):
            q = qsigma(fan, orb)
            assert q.degree_ge_two_away_from_one(), (name, orb.orbits)


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


def test_character_transform_trivial_theta(p2):
    li = local_integral(p2, 3, PLFunction((2, 2, 2)), truncation=6)
    tv = unramified_character_transform(p2, 3, PLFunction((2, 2, 2)), [1, 1, 1])
    assert tv == li.closed_form


def test_character_transform_twisted_p1(p1):
    # theta = (e^{i a}, e^{-i a}) comes from the character n -> e^{i a n}
    p, s, r = 2, 2, 60
    for a in (0.7, 2.1):
        theta = [cmath.exp(1j * a), cmath.exp(-1j * a)]
        val = unramified_character_transform(p1, p, PLFunction((s, s)), theta)
        brute = 1 + sum(
            p ** (-s * n) * (cmath.exp(1j * a * n) + cmath.exp(-1j * a * n))
            for n in range(1, r + 1)
        )
        tail = 2 * p ** (-s * (r + 1)) / (1 - p**-s)
        assert abs(val - brute) <= tail + 1e-12


def test_character_transform_minus_one(p1):
    p = 2
    val = unramified_character_transform(p1, p, PLFunction((2, 2)), [-1, -1])
    expect = (1 - Fraction(1, p**4)) / (1 + Fraction(1, p**2)) ** 2
    assert val == expect
    # against the twisted truncated sum
    brute = 1 + sum(Fraction((-1) ** n * 2, p ** (2 * n)) for n in range(1, 80))
    assert abs(Fraction(val) - brute) < Fraction(1, 10**40)


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
    from toricount.linalg import solve_exact

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
        c0 = q.abs_coeff_sum_nonconstant()
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


def test_nonsplit_rejected(corpus):
    fan = corpus["p1-norm-one"]
    with pytest.raises(ValueError):
        point_count_fp(fan, 5)
    with pytest.raises(ValueError):
        local_integral(fan, 2, PLFunction((2, 2)))
