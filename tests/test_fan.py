import random
from fractions import Fraction

import pytest

from toricount.fan import (
    Fan,
    cone_linear_form,
    galois_group,
    galois_orbits,
    locate_cone,
    validate_fan,
)
from toricount.heights import TorusPoint, local_height
from toricount.picard import PLFunction, pl_evaluate


def check(report, name):
    return next(c for c in report.checks if c.name == name)


def test_p2_all_checks_pass(p2):
    report = validate_fan(p2)
    assert report.ok
    assert [c.name for c in report.checks] == [
        "primitivity",
        "regularity",
        "face_intersection",
        "completeness",
        "galois",
    ]


def test_corpus_fans_validate(corpus):
    for name, fan in corpus.items():
        assert validate_fan(fan).ok, name


def test_missing_cone_fails_completeness_with_witness():
    bad = Fan(2, [(1, 0), (0, 1), (-1, -1)], [(0, 1), (1, 2)])
    report = validate_fan(bad)
    assert not report.ok
    c = check(report, "completeness")
    assert not c.passed
    assert "witness" in c.witness
    # the reported witness really is uncovered
    assert check(report, "face_intersection").passed


def test_irregular_cone_reports_determinant():
    bad = Fan(2, [(1, 0), (1, 2), (-1, -1)], [(0, 1)])
    c = check(validate_fan(bad), "regularity")
    assert not c.passed
    assert "determinant 2" in c.witness


def test_nonprimitive_ray_fails():
    bad = Fan(2, [(2, 0), (0, 1), (-2, -1)], [(0, 1), (1, 2), (2, 0)])
    assert not check(validate_fan(bad), "primitivity").passed


def test_overlapping_cones_fail_face_intersection():
    bad = Fan(2, [(1, 0), (0, 1), (1, 1)], [(0, 1), (0, 2)])
    report = validate_fan(bad)
    assert not check(report, "face_intersection").passed


def test_duplicate_cone_fails_face_intersection():
    dup = Fan(2, [(1, 0), (0, 1), (-1, -1)], [(0, 1), (0, 1), (1, 2), (2, 0)])
    report = validate_fan(dup)
    assert not check(report, "face_intersection").passed
    assert "overlapping interiors" in check(report, "face_intersection").witness


def test_bad_galois_matrix_fails(p2):
    bad = Fan(2, p2.rays, p2.max_cones, galois=[[[1, 1], [0, 1]]])
    assert not check(validate_fan(bad), "galois").passed


def test_validation_order_independent(p2):
    rng = random.Random(0)
    for _ in range(10):
        perm = list(range(p2.nrays))
        rng.shuffle(perm)
        new_rays = [None] * p2.nrays
        for old, new in enumerate(perm):
            new_rays[new] = p2.rays[old]
        cones = [tuple(perm[j] for j in c) for c in p2.max_cones]
        rng.shuffle(cones)
        shuffled = Fan(2, new_rays, cones)
        assert validate_fan(shuffled).ok


def test_galois_matrices_preserve_fan(corpus):
    for name, fan in corpus.items():
        if fan.is_split():
            continue
        cone_sets = {frozenset(fan.rays[j] for j in c) for c in fan.max_cones}
        for g in galois_group(fan):
            mapped = {
                frozenset(
                    tuple(
                        sum(g[i][t] * fan.rays[j][t] for t in range(fan.dim))
                        for i in range(fan.dim)
                    )
                    for j in c
                )
                for c in fan.max_cones
            }
            assert mapped == cone_sets, name


def test_orbits_swap(p1xp1):
    swapped = Fan(2, p1xp1.rays, p1xp1.max_cones, galois=[[[0, 1], [1, 0]]])
    orb = galois_orbits(swapped)
    assert orb.orbits == ((0, 1), (2, 3))
    assert orb.lengths == (2, 2)


def test_orbits_trivial_group(p2):
    assert galois_orbits(p2).orbits == ((0,), (1,), (2,))


def test_orbits_three_cycle(p2):
    fan = Fan(2, p2.rays, p2.max_cones, galois=[[[0, -1], [1, -1]]])
    orb = galois_orbits(fan)
    assert orb.orbits == ((0, 1, 2),)
    assert orb.lengths == (3,)


def test_group_cap():
    # an infinite-order matrix blows past the closure cap
    fan = Fan(2, [(1, 0), (0, 1), (-1, -1)], [(0, 1), (1, 2), (2, 0)])
    with pytest.raises(ValueError):
        galois_group(fan, generators=[[[1, 1], [0, 1]]])


def test_locate_cone_examples(p2):
    assert p2.max_cones[locate_cone(p2, (2, 3))] == (0, 1)
    assert locate_cone(p2, (0, 0)) == 0  # apex: smallest index
    # the real place of x = (3/2, 2/3) sits at -log|x| = (log 2/3, log 3/2),
    # inside cone (1, 2); phi = 1 on ray 2 alone has a different form on
    # each cone, giving 1 on (0, 1), 3/2 on (1, 2) and 2/3 on (2, 0)
    x = TorusPoint((Fraction(3, 2), Fraction(2, 3)))
    assert local_height(p2, PLFunction((0, 0, 1)), x, "inf") == Fraction(3, 2)


def test_locate_cone_incomplete_fan_errors():
    bad = Fan(2, [(1, 0), (0, 1), (-1, -1)], [(0, 1), (1, 2)])
    with pytest.raises(ValueError):
        locate_cone(bad, (1, -2))


def test_locate_cone_random_vectors(corpus):
    rng = random.Random(1234)
    for name, fan in corpus.items():
        for _ in range(1000 // len(corpus) + 50):
            v = [
                Fraction(rng.randint(-60, 60), rng.randint(1, 13))
                for _ in range(fan.dim)
            ]
            ci = locate_cone(fan, v)
            from toricount.fan import _cone_dual_basis

            for u in _cone_dual_basis(fan, ci):
                assert sum(a * b for a, b in zip(u, v)) >= 0


def test_facet_consistency_of_pl_evaluation(corpus):
    # points on shared facets evaluate identically through either cone
    rng = random.Random(99)
    for name, fan in corpus.items():
        if fan.dim < 2:
            continue
        phi = PLFunction(tuple(rng.randint(-4, 4) for _ in range(fan.nrays)))
        for ci, cone in enumerate(fan.max_cones):
            for cj in range(ci + 1, len(fan.max_cones)):
                common = sorted(set(cone) & set(fan.max_cones[cj]))
                if len(common) != fan.dim - 1:
                    continue
                # a point inside the shared facet
                weights = {j: rng.randint(1, 5) for j in common}
                v = [
                    sum(weights[j] * fan.rays[j][i] for j in common)
                    for i in range(fan.dim)
                ]
                m1 = cone_linear_form(fan, ci, phi.values)
                m2 = cone_linear_form(fan, cj, phi.values)
                v1 = sum(a * b for a, b in zip(m1, v))
                v2 = sum(a * b for a, b in zip(m2, v))
                assert v1 == v2 == pl_evaluate(fan, phi, v)
