import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles.fan_intersection import facet_counts_complete, pairwise_face_intersection
from test_height_oracles import CUBE, DP7, F0_RAYS, P2_RAYS, surface
from test_tamagawa import product_fan

from toricount import dd
from toricount.cones import alpha
from toricount.counting import asymptotic_report, count_points, counter_for, enumerate_naive
from toricount.fan import (
    Fan,
    cone_pieces,
    galois_group,
    galois_orbits,
    locate_cone,
    validate_fan,
)
from toricount.heights import HeightEvaluator, TorusPoint, anticanonical_height, local_height
from toricount.localdata import local_integral, point_count_fp
from toricount.picard import PLFunction, picard_data, pl_evaluate
from toricount.tamagawa import tau, theta


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


# each fan once gave constants or counts: P^2 with a cone missing got a
# theta interval and alpha = 1/3, the one with a determinant-2 cone theta
# 2.4957, and both beta 1 and an F_5 density (6/5 and 31/25)
INVALID = {
    "missing-cone": (
        Fan(2, [(1, 0), (0, 1), (-1, -1)], [(0, 1), (1, 2)]),
        "completeness check failed: facet (0,) lies in 1 maximal cone; witness (1, -1/2)",
    ),
    "determinant-2": (
        Fan(2, [(1, 0), (1, 2), (-1, -1)], [(0, 1), (1, 2), (2, 0)]),
        "regularity check failed: cone 0 has determinant 2",
    ),
}
ENTRIES = {
    "tau": tau,
    "alpha": alpha,
    "theta": theta,
    "count_points": lambda fan: count_points(fan, 100),
    "count_points-naive": lambda fan: count_points(fan, 100, strategy="naive"),
    "counter_for": counter_for,
    "asymptotic_report": lambda fan: asymptotic_report(fan, [10, 100], (1.0, 1.1)),
    "asymptotic_report-counts": lambda fan: asymptotic_report(
        fan, [10, 100], (1.0, 1.1), counts=[4, 36]
    ),
    "enumerate_naive": lambda fan: enumerate_naive(fan, 10),
    "point_count_fp": lambda fan: point_count_fp(fan, 5),
    "picard_data": picard_data,
}


@pytest.mark.parametrize("entry", sorted(ENTRIES))
@pytest.mark.parametrize("name", sorted(INVALID))
def test_invalid_fan_refused_by_every_entry(name, entry):
    fan, failure = INVALID[name]
    with pytest.raises(ValueError) as err:
        ENTRIES[entry](fan)
    assert str(err.value) == "invalid fan: " + failure


def test_require_passes_a_valid_fan(p2):
    assert validate_fan(p2).require() is None


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


def shuffled(fan, rng):
    """The same fan with its rays and its cones listed in a seeded order."""
    perm = list(range(fan.nrays))
    rng.shuffle(perm)
    new_rays = [None] * fan.nrays
    for old, new in enumerate(perm):
        new_rays[new] = fan.rays[old]
    cones = [tuple(perm[j] for j in c) for c in fan.max_cones]
    rng.shuffle(cones)
    return Fan(fan.dim, new_rays, cones, fan.galois)


P1 = Fan(1, [(1,), (-1,)], [(0,), (1,)])
P3 = Fan(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)], [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)])
EQUATOR = [(1, 0, 0), (0, 1, 0), (-1, 0, 0), (0, -1, 0)]
# Complete pseudomanifolds whose cones wind twice around the origin: every
# facet has two owners on opposite sides, yet every cone is covered twice.
WOUND_FANS = {
    "d1": Fan(1, [(1,), (1,)], [(0,), (1,)]),
    "d2": Fan(2, P2_RAYS * 2, [(i, (i + 1) % 6) for i in range(6)]),
    "d3": Fan(
        3,
        EQUATOR * 2 + [(0, 0, 1), (0, 0, -1)],
        [(i, (i + 1) % 8, pole) for i in range(8) for pole in (8, 9)],
    ),
}


@pytest.mark.parametrize("name", sorted(WOUND_FANS))
def test_wound_fan_fails_face_intersection(name):
    fan = WOUND_FANS[name]
    report = validate_fan(fan)
    assert check(report, "regularity").passed
    assert check(report, "completeness").passed
    c = check(report, "face_intersection")
    assert not c.passed and "overlapping interiors" in c.witness
    assert pairwise_face_intersection(fan) is not None


def test_spiral_fails_completeness_in_every_order():
    # 1.5 turns of F_0's cones: its first and last cones each own a facet
    # alone; face_intersection sees the overlap only from the doubled half
    rays = F0_RAYS + F0_RAYS[:3]
    cones = [(i, i + 1) for i in range(6)]
    for k in range(6):
        report = validate_fan(Fan(2, rays, cones[k:] + cones[:k]))
        assert not check(report, "completeness").passed
        assert check(report, "face_intersection").passed == (k in (2, 3))


def test_validation_runs_no_double_description(monkeypatch, corpus):
    def refuse(*args):
        raise AssertionError("validate_fan ran a double description")

    # validate_fan is cached per fan value: run the uncached worker, so
    # that no report built before the patch answers for it
    run = validate_fan.__wrapped__
    monkeypatch.setattr(dd, "extreme_rays", refuse)
    assert run(product_fan(DP7, DP7)).ok
    for name, fan in corpus.items():
        assert run(fan).ok, name
    for fan in WOUND_FANS.values():
        assert not run(fan).ok


def test_wound_fans_stay_invalid_after_valid_fans_are_cached(corpus):
    for fan in corpus.values():
        assert validate_fan(fan).ok
    for name, fan in WOUND_FANS.items():
        report = validate_fan(fan)
        assert not report.ok and report == validate_fan.__wrapped__(fan), name


def test_validation_order_independent(corpus):
    rng = random.Random(0)
    fans = dict(corpus, dp7xdp7=shuffled(product_fan(DP7, DP7), rng), **WOUND_FANS)
    for name, fan in fans.items():
        want = [c.passed for c in validate_fan(fan).checks]
        for _ in range(10):
            assert [c.passed for c in validate_fan(shuffled(fan, rng)).checks] == want, name


def star_subdivide(fan, face):
    """Blow up the orbit of `face`: a new ray at the sum of its rays, and
    each maximal cone through it split into len(face) cones."""
    v = tuple(map(sum, zip(*(fan.rays[j] for j in face))))
    new = fan.nrays
    cones = []
    for c in fan.max_cones:
        if set(face) <= set(c):
            cones.extend(tuple(new if i == j else i for i in c) for j in face)
        else:
            cones.append(c)
    return Fan(fan.dim, fan.rays + (v,), cones)


@st.composite
def blowups(draw, base, max_rays):
    """Star subdivisions of `base` at faces of dimension >= 2, up to max_rays rays."""
    fan = base
    for _ in range(draw(st.integers(min_value=0, max_value=max_rays - base.nrays))):
        cone = draw(st.sampled_from(fan.max_cones))
        face = draw(st.lists(st.sampled_from(cone), min_size=2, max_size=fan.dim, unique=True))
        fan = star_subdivide(fan, sorted(face))
    return fan


SURFACES = st.sampled_from([surface(P2_RAYS), surface(F0_RAYS)])
SMOOTH_FANS = st.one_of(
    st.just(P1),
    SURFACES.flatmap(lambda base: blowups(base, 11)),
    st.sampled_from([P3, CUBE]).flatmap(lambda base: blowups(base, 9)),
    st.tuples(st.just(P1), SURFACES.flatmap(lambda base: blowups(base, 6))).map(
        lambda ab: product_fan(*ab)
    ),
    st.tuples(SURFACES.flatmap(lambda base: blowups(base, 5)), SURFACES).map(
        lambda ab: product_fan(*ab)
    ),
    st.sampled_from([P3, CUBE]).flatmap(lambda base: blowups(base, 7)).map(
        lambda a: product_fan(a, P1)
    ),
)


@st.composite
def perturbed(draw, fans):
    """A smooth fan after up to three edits of its rays and cones."""
    fan = draw(fans)
    rays, cones = list(fan.rays), list(fan.max_cones)
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        edit = draw(st.sampled_from(["drop", "duplicate", "repoint", "swap", "negate", "add"]))
        i = draw(st.integers(min_value=0, max_value=len(cones) - 1))
        j, k = draw(st.lists(st.integers(0, len(rays) - 1), min_size=2, max_size=2))
        if edit == "drop" and len(cones) > 1:
            del cones[i]
        elif edit == "duplicate":
            cones.append(cones[i])
        elif edit == "repoint" and j not in cones[i]:
            old = draw(st.sampled_from(cones[i]))
            cones[i] = tuple(j if t == old else t for t in cones[i])
        elif edit == "swap":
            rays[j], rays[k] = rays[k], rays[j]
        elif edit == "negate":
            rays[j] = tuple(-x for x in rays[j])
        elif edit == "add":
            cones.append(draw(st.lists(st.sampled_from(range(len(rays))), min_size=fan.dim, max_size=fan.dim, unique=True)))
    return Fan(fan.dim, rays, cones)


@settings(max_examples=250, deadline=None)
@given(perturbed(SMOOTH_FANS))
def test_validation_matches_pairwise_oracle(fan):
    report = validate_fan(fan)
    passed = {c.name: c.passed for c in report.checks}
    if not passed["regularity"]:
        assert not report.ok
        return
    pairwise = pairwise_face_intersection(fan) is None
    assert passed["completeness"] == facet_counts_complete(fan)
    # a failure always exhibits an overlap; a pass is exact given completeness
    if not passed["face_intersection"] or passed["completeness"]:
        assert passed["face_intersection"] == pairwise
    assert report.ok == (passed["primitivity"] and pairwise and passed["completeness"])


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
    fan = Fan(2, [(1, 0), (0, 1), (-1, -1)], [(0, 1), (1, 2), (2, 0)], galois=[[[1, 1], [0, 1]]])
    with pytest.raises(ValueError):
        galois_group(fan)


def test_galois_group_is_closed_once_per_fan(corpus, monkeypatch):
    # validate_fan, galois_orbits, picard_data and theta share one closure
    # of the group and one ray map per element: on a fan value no other
    # test builds, each nonsplit corpus fan with its generators listed
    # twice, they cost one product per element and generator, and one
    # image per element and ray, and agree with the corpus fan
    import toricount.fan as fan_module

    calls = dict.fromkeys(("mat_mul", "mat_vec"), 0)

    def counted(name):
        real = getattr(fan_module, name)

        def wrapper(*args):
            calls[name] += 1
            return real(*args)

        return wrapper

    def facts(fan):
        pd, th = picard_data(fan), theta(fan)
        return validate_fan(fan), galois_orbits(fan), pd.beta, pd.h, th.beta, th.h

    for name in calls:
        monkeypatch.setattr(fan_module, name, counted(name))
    for name, f in corpus.items():
        if f.is_split():
            continue
        expected = facts(f)
        twin = Fan(f.dim, f.rays, f.max_cones, galois=f.galois * 2)
        calls.update(dict.fromkeys(calls, 0))
        got = facts(twin)
        order = len(galois_group(twin))
        assert got == expected, name
        assert calls == {"mat_mul": order * len(twin.galois), "mat_vec": order * twin.nrays}, name


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


def test_locate_cone_refuses_floats(p2):
    # a float on a wall could fail the cone tests of both cones
    with pytest.raises(TypeError):
        locate_cone(p2, (0.5, 1))
    with pytest.raises(TypeError):
        pl_evaluate(p2, PLFunction((1, 1, 1)), (1.0, 0))


def test_wrong_lengths_refused_at_every_entry_point(p2):
    # a short vector was located by its first entries, and surplus PL
    # values were ignored
    for v in ((-1,), (1, 1, 1)):
        message = "vector of length %d in a fan of dimension 2" % len(v)
        for call in (lambda: locate_cone(p2, v), lambda: pl_evaluate(p2, PLFunction((1, 1, 1)), v)):
            with pytest.raises(ValueError, match=message):
                call()
    x = TorusPoint((Fraction(2), Fraction(3, 4)))
    for values in ((1, 1), (1, 1, 1, 1)):
        phi = PLFunction(values)
        for call in (
            lambda: cone_pieces(p2, values),
            lambda: pl_evaluate(p2, phi, (1, 1)),
            lambda: local_integral(p2, 2, phi),
            lambda: HeightEvaluator(p2, phi),
            lambda: local_height(p2, phi, x, 2),
        ):
            with pytest.raises(ValueError, match="%d PL values for 3 rays" % len(values)):
                call()


def test_cone_pieces_keeps_value_types_apart():
    # P^2 under (x, y) -> (x, x + y): a fan no other test builds, so its
    # cone table is first filled here with float and Fraction values
    fan = Fan(2, [(1, 1), (0, 1), (-1, -2)], [(0, 1), (1, 2), (0, 2)])
    v = (3, -5)  # 11 * (1, 1) + 8 * (-1, -2), in cone (0, 2) with form (3, -2)
    got = pl_evaluate(fan, PLFunction((1.0, 1.0, 1.0)), v)
    assert type(got) is float and got == 19
    got = pl_evaluate(fan, PLFunction((Fraction(1),) * 3), v)
    assert type(got) is Fraction and got == 19
    got = pl_evaluate(fan, PLFunction((1, 1, 1)), v)
    assert type(got) is int and got == 19
    forms = [form for _, form in cone_pieces(fan, (1, 1, 1))]
    assert forms == [(0, 1), (-3, 1), (3, -2)]
    assert {type(c) for form in forms for c in form} == {int}
    h = anticanonical_height(fan, TorusPoint((Fraction(2, 3), Fraction(5, 7))))
    assert type(h) is Fraction and h >= 1
    assert type(pl_evaluate(fan, PLFunction((1.0, 1.0, 1.0)), (1, 0))) is float


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
                m1 = cone_pieces(fan, phi.values)[ci][1]
                m2 = cone_pieces(fan, phi.values)[cj][1]
                v1 = sum(a * b for a, b in zip(m1, v))
                v2 = sum(a * b for a, b in zip(m2, v))
                assert v1 == v2 == pl_evaluate(fan, phi, v)
