"""The universal-torsor counter against the naive scan, its budget and routing."""

import math
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from operator import mul

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st
from oracles.product_count import p1_product_count
from oracles.torsor_walk import _walk_prefixes, torsor_prefixes, torsor_tally, torsor_walk
from test_cones import P3
from test_height_oracles import CUBE, DP7, hirzebruch, subdivided_surfaces, surface
from test_tamagawa import product_fan

from toricount import arith, counting
from toricount.arith import BudgetExceededError, iroot
from toricount.corpus import NAMES
from toricount.corpus import fan as corpus_fan
from toricount.counting import (
    DEFAULT_BUDGET,
    _anticanonical_forms,
    _kernel_source,
    _plan,
    _prefix_bound,
    _prefix_caps,
    _prefix_walk,
    _stabilizer_orbit,
    _torsor_context,
    _torsor_count,
    _torsor_kernel,
    _torsor_plan,
    asymptotic_report,
    candidate_estimate,
    count_points,
    counter_for,
    enumerate_naive,
    specialized_id_for,
)
from toricount.fan import Fan, automorphisms, primitive_collections, validate_fan
from toricount.linalg import det
from toricount.tamagawa import theta

BOUNDS = [Fraction(1, 2), Fraction(99, 100), 1, 2, Fraction(25, 2), 57, 100, 300]
SPLIT_CORPUS = [n for n in NAMES if corpus_fan(n).is_split()]
EXTRA = {"dp7": DP7, "cube": CUBE, "F2": hirzebruch(2)}
F3 = hirzebruch(3)


def _fan(name):
    return EXTRA.get(name) or corpus_fan(name)


def torsor_points(fan, B):
    """N(B) by the torsor counter, also on the fans auto sends to a sieve."""
    return 2**fan.dim * _torsor_count(_torsor_plan(fan), B)[0]


@pytest.mark.parametrize("name", SPLIT_CORPUS + list(EXTRA))
def test_torsor_matches_naive(name):
    fan = _fan(name)
    for B in BOUNDS:
        assert torsor_points(fan, B) == count_points(fan, B, strategy="naive"), (name, B)


# The naive oracle visits candidate_estimate(fan, B) tuples, about 11 us
# each, and a drawn fan with a steep ray such as (3, 1) has 1.4e7 of them
# at B = 213/4.  B is halved until the scan fits, so every drawn fan is
# still checked.
ORACLE_CANDIDATES = 50_000


@settings(
    max_examples=25, deadline=None, suppress_health_check=[HealthCheck.filter_too_much]
)
@given(
    fan=subdivided_surfaces(),
    B=st.fractions(min_value=Fraction(1, 3), max_value=60, max_denominator=4),
)
def test_torsor_matches_naive_on_nef_subdivisions(fan, B):
    assume(_anticanonical_forms(fan)[1])
    while candidate_estimate(fan, B) > ORACLE_CANDIDATES:
        B /= 2
    assert torsor_points(fan, B) == count_points(fan, B, strategy="naive")


KERNEL_FANS = {
    "P3": P3,
    "cube": CUBE,
    "F2": hirzebruch(2),
    "dp7": DP7,
    "dp6xP1": product_fan(corpus_fan("dp6"), corpus_fan("p1")),
}


def _plan_in(fan, order, orbits=()):
    """The torsor plan of a nef fan that takes its rays in order, with a chain of ray orbits."""
    forms, _ = _anticanonical_forms(fan)
    return _plan(fan, [[1 - sum(map(mul, m, r)) for r in fan.rays] for m in forms], order, orbits)


def _largest_orbit(fan):
    """The rays of the first largest orbit of the fan's automorphisms."""
    return max((sorted({p[j] for p in automorphisms(fan)}) for j in range(fan.nrays)), key=len)


def _chains(fan, order):
    """No chain, the largest orbit, and it with the orbit below its anchor in order."""
    orbit = _largest_orbit(fan)
    return [(), (orbit,), (orbit, _stabilizer_orbit(fan, order, orbit))]


def _check_count(plan, B):
    # the kernel returns the walk's (count, visits) and its tally of vectors by
    # their tie sums, and the chain's weights count what the whole walk
    # counts, as do those of its first level alone
    got = _torsor_count(plan, B)
    assert got == torsor_walk(plan, B), (plan, B)
    assert got[0] == torsor_walk(replace(plan, chain=()), B)[0], (plan, B)
    assert got[0] == _torsor_count(replace(plan, chain=plan.chain[:1]), B)[0], (plan, B)
    top = max(math.floor(Fraction(B)), 0)
    tally = _torsor_kernel(plan)[0](*_torsor_context(plan, top), counting._LEAF_MEMO_SIZE)[0]
    assert Counter(dict(enumerate(tally, 1))) == torsor_tally(plan, B)[0], (plan, B)


def _check_bound(plan, top):
    # the generated bound returns the recursive walk's (bound, steps) in the
    # plan's order, and stops early exactly as it does at every limit
    bound = _walk_prefixes(plan, top, math.inf)[0]
    for limit in (math.inf, 0, 1, bound // 2, bound - 1, bound, bound + 1):
        want = _walk_prefixes(plan, top, limit)
        got = _prefix_walk(plan, top, limit, _torsor_kernel.__wrapped__)
        assert got == want, (plan, top, limit)


def _index_order_walk(fan, plan, top):
    """plan's prefix bound, walked with the other rays in index order.

    plan's rays are found by their caps (no two rays have the same
    exponents, since the forms span the dual space), and the closed-form
    ray stays last.  Each prefix ray the plan's bound caps by an anchor ray
    stays capped by it, wherever the two fall in index order: an anchor
    then starts at the largest of the rays it caps.  One leaf count per
    prefix, no blocks.
    """
    n = fan.nrays
    order = _order_of(fan, plan)
    # (anchor ray, ray it caps) over the chain's levels
    pairs = [(order[level[0]], order[i]) for level in plan.chain[:2] for i in level[1:] if i < n - 1]
    rays = sorted(order[:-1])
    caps = _plan_in(fan, tuple(rays) + (order[-1],)).caps
    zs = {}

    def walk(i, R):
        hi = min([iroot(R[s], a) for s, a in caps[i]] + [zs[x] for x, y in pairs if y == rays[i] and x in zs])
        lo = max([zs[y] for x, y in pairs if x == rays[i] and y in zs], default=1)
        if i == n - 2:
            return max(hi - lo + 1, 0)
        total = 0
        for z in range(lo, hi + 1):
            zs[rays[i]] = z
            R2 = list(R)
            for s, a in caps[i]:
                R2[s] //= z**a
            total += walk(i + 1, R2)
        zs.pop(rays[i], None)
        return total

    return walk(0, [top] * plan.nforms)


def _order_of(fan, plan):
    """The ray order of a plan, found by its caps."""
    ray_of = {caps: j for j, caps in enumerate(_plan_in(fan, tuple(range(fan.nrays))).caps)}
    return [ray_of[caps] for caps in plan.caps]


@pytest.mark.parametrize("name", list(KERNEL_FANS))
def test_kernel_matches_the_recursive_walk(name):
    # the generated kernel visits the same prefixes as the walk it replaced,
    # and its bound takes the same steps in the same order
    plan = _torsor_plan(KERNEL_FANS[name])
    for B in BOUNDS:
        _check_count(plan, B)
    for top in (1, 2, 12, 100, 300):
        _check_bound(plan, top)


# the order and chain the plan search keeps: a pair moved to the leaf, with
# the orbit of most prefix rays anchored, replaces index order without
# one, the closed-form ray last, only when its bound takes fewer steps (or
# as many over fewer prefixes).  Below the anchor, the orbit of the rays
# that fix it with the most prefix rays: dp6's two hexagon neighbours of
# ray 2, the cube's four rays off the axis of ray 1, P^3's other three
# rays.  F_1, F_2 and dp7 have none that cuts the walk.
PLAN_ORDERS = {
    "dp6": ((2, 3, 4, 1, 5, 0), (range(6), (1, 3))),
    "dp7": ((2, 3, 1, 4, 0), ((1, 3),)),
    "cube": ((1, 3, 5, 2, 4, 0), (range(6), (2, 3, 4, 5))),
    "hirzebruch1": ((2, 0, 1, 3), ((0, 2),)),
    "F2": ((2, 0, 1, 3), ((0, 2),)),
    "P3": ((3, 1, 2, 0), (range(4), (0, 1, 2))),
}


@pytest.mark.parametrize("name", list(PLAN_ORDERS))
def test_plan_takes_one_ray_order(name):
    fan = KERNEL_FANS.get(name) or _fan(name)
    plan = _torsor_plan(fan)
    order, chain = PLAN_ORDERS[name]
    assert plan == _plan_in(fan, order, chain)
    if len(chain) > 1:
        assert set(chain[1]) == _stabilizer_orbit(fan, order, chain[0])
    for B in (1, 12, 100, 1000):
        _check_count(plan, B)
        _check_bound(plan, B)


@settings(
    max_examples=40, deadline=None, suppress_health_check=[HealthCheck.filter_too_much]
)
@given(fan=subdivided_surfaces(max_blowups=5), data=st.data(), B=st.sampled_from(BOUNDS))
def test_kernel_matches_the_recursive_walk_on_nef_subdivisions(fan, data, B):
    plan = _torsor_plan(fan)
    assume(plan is not None)
    _check_count(plan, B)
    # and in any order, with the orbit below the anchor where one cuts the walk
    order = data.draw(st.permutations(range(fan.nrays)))
    _check_count(_plan_in(fan, order, _chains(fan, order)[2]), B)


@pytest.mark.parametrize("name", list(KERNEL_FANS) + ["dp6"])
@settings(max_examples=10, deadline=None)
@given(data=st.data(), B=st.sampled_from([12, 100, 300]))
def test_kernel_matches_the_recursive_walk_in_any_order(name, data, B):
    # the last coordinate, in any order, can fall in O1, in O2 and in the
    # O2(c) of other orbit rays, where its ties change the tie sum
    fan = KERNEL_FANS.get(name) or _fan(name)
    order = data.draw(st.permutations(range(fan.nrays)))
    _check_count(_plan_in(fan, order, _chains(fan, order)[2]), B)


RELABELED = {
    name: KERNEL_FANS.get(name) or _fan(name)
    for name in ("dp6", "cube", "P3", "F2", "dp6xP1")
}


@pytest.mark.parametrize("name", list(RELABELED))
@settings(max_examples=8, deadline=None)
@given(data=st.data(), B=st.sampled_from([1, 12, 100, 300]))
def test_orbit_count_does_not_depend_on_ray_labels(name, data, B):
    # the same fan with its rays renumbered: its own automorphisms, chain
    # and plan, and the count of the whole walk
    fan = RELABELED[name]
    perm = data.draw(st.permutations(range(fan.nrays)))
    where = {j: i for i, j in enumerate(perm)}
    cones = [[where[j] for j in c] for c in fan.max_cones]
    relabeled = Fan(fan.dim, [fan.rays[j] for j in perm], cones)
    plan = _torsor_plan.__wrapped__(relabeled)
    assert len(plan.chain) == len(_torsor_plan(fan).chain) > 0
    _check_count(plan, B)
    assert _torsor_count(plan, B)[0] == _torsor_count(_torsor_plan(fan), B)[0]


def test_orbit_count_refuses_a_fraction_of_a_vector(monkeypatch):
    # one vector of tie sum 5 counts 12/5 on dp6, whose chain uses its 12
    # automorphisms: no whole number of vectors
    plan = _torsor_plan(corpus_fan("dp6"))
    assert list(map(len, plan.chain)) == [6] + [2] * 6

    def kernel(top, extend, sums, room):
        return [0, 0, 0, 0, 1] + [0] * 7, 0

    monkeypatch.setattr(counting, "_torsor_kernel", lambda plan: (kernel, None))
    with pytest.raises(ArithmeticError, match="whole number"):
        _torsor_count(plan, 100)


@pytest.mark.parametrize("name", ["dp6", "cube", "P3", "dp6xP1", "F2"])
def test_chain_weights_count_each_vector_once(name):
    # each vector z the plan walks, in its domain D, weighs |G| / #{h in G :
    # h.z in D}, with #{...} found by applying every automorphism: summed,
    # they count what the walk without a chain counts
    fan = KERNEL_FANS.get(name) or _fan(name)
    plan = _torsor_plan(fan)
    order = _order_of(fan, plan)
    where = {j: i for i, j in enumerate(order)}
    # h moves the coordinate at position i to position moves[i]
    group = [[where[p[j]] for j in order] for p in automorphisms(fan)]
    capped = [(level[0], i) for level in plan.chain[:2] for i in level[1:]]
    for B in (12, 100, 300):
        total = Fraction(0)

        def leaf(zs, L, terms, rad):
            nonlocal total
            for x in range(1, L + 1):
                if math.gcd(x, rad) == 1:
                    zs[-1] = x
                    images = 0
                    for moves in group:
                        hz = [0] * len(zs)
                        for i, z in zip(moves, zs):
                            hz[i] = z
                        images += all(hz[i] <= hz[a] for a, i in capped)
                    total += Fraction(len(group), images)

        torsor_prefixes(plan, B, leaf)
        assert total == torsor_walk(replace(plan, chain=()), B)[0], (name, B)


def test_stabilizer_level_cuts_the_prefix_bound():
    # dp6's bound at 10^7 fits the default budget, and each bound is the one
    # a walk with the anchor and one stabilizer level takes, still over the
    # prefixes the count visits
    dp6 = corpus_fan("dp6")
    assert _prefix_bound(_torsor_plan(dp6), 10**7, math.inf) == 29_071_824 < DEFAULT_BUDGET
    for fan, top, bound in ((dp6, 10**6, 2_655_627), (CUBE, 10**5, 12_159), (P3, 10**4, 220)):
        plan = _torsor_plan(fan)
        assert _prefix_bound(plan, top, math.inf) == bound
        if fan is not dp6:
            assert _torsor_count(plan, top)[1] <= bound


AUTOMORPHISM_ORDERS = {
    "dp6": (12, [6]),
    "cube": (48, [6]),
    "P3": (24, [4]),
    "hirzebruch1": (2, [2, 1, 1]),
    "F2": (2, [2, 1, 1]),
    "dp7": (2, [2, 2, 1]),
    "dp6xP1": (24, [6, 2]),
}


@pytest.mark.parametrize("name", list(AUTOMORPHISM_ORDERS))
def test_automorphisms(name):
    fan = KERNEL_FANS.get(name) or _fan(name)
    group = automorphisms(fan)
    assert group[0] == tuple(range(fan.nrays))
    order, sizes = AUTOMORPHISM_ORDERS[name]
    assert len(set(group)) == len(group) == order
    orbits = {frozenset(p[j] for p in group) for j in range(fan.nrays)}
    assert sorted(map(len, orbits), reverse=True) == sizes
    _check_automorphisms(fan, group)


def _check_automorphisms(fan, group):
    # each comes from a unimodular map and, implied by that and not
    # tested by automorphisms, permutes the exponent rows and the
    # primitive collections
    forms, _ = _anticanonical_forms(fan)
    exps = {tuple(1 - sum(map(mul, m, r)) for r in fan.rays) for m in forms}
    collections = {frozenset(c) for c in primitive_collections(fan)}
    for p in group:
        assert abs(det([list(fan.rays[p[j]]) for j in fan.max_cones[0]])) == 1
        assert {tuple(e[p.index(j)] for j in range(fan.nrays)) for e in exps} == exps
        assert {frozenset(p[j] for j in c) for c in collections} == collections


@settings(max_examples=40, deadline=None)
@given(fan=subdivided_surfaces(max_blowups=6))
def test_automorphisms_of_subdivisions(fan):
    group = automorphisms(fan)
    assert group[0] == tuple(range(fan.nrays))
    _check_automorphisms(fan, group)


def test_automorphisms_of_dp6_x_dp6_and_an_asymmetric_fan():
    dp6 = corpus_fan("dp6")
    fan = product_fan(dp6, dp6)
    group = automorphisms(fan)
    assert len(group) == 288
    assert {p[0] for p in group} == set(range(12))
    _check_automorphisms(fan, group)
    # P^2 blown up in the cone of (1, 0) and (0, 1), then in the cone of
    # (1, 0) and the new ray (1, 1): a nef surface with no symmetry left
    fan = surface([(1, 0), (2, 1), (1, 1), (0, 1), (-1, -1)])
    assert validate_fan(fan).ok
    assert automorphisms(fan) == (tuple(range(5)),)
    assert _torsor_plan(fan).chain == ()


def test_dp6_at_10_to_the_5():
    assert count_points(corpus_fan("dp6"), 10**5) == 8_992_564


def test_extend_memo_size_changes_no_count(monkeypatch):
    # extend's memo is a cache: a full one recomputes what it no longer keeps
    plan = _torsor_plan(KERNEL_FANS["dp6xP1"])
    want = torsor_walk(plan, 300)
    monkeypatch.setattr(counting, "_EXTEND_MEMO_SIZE", 1)
    assert _torsor_count(plan, 300) == want


# schedules as asymptotic_report meets them: repeated entries, B < 1, fractions
SCHEDULES = st.lists(
    st.one_of(st.sampled_from(BOUNDS), st.fractions(0, 300, max_denominator=3)), min_size=1, max_size=4
).map(lambda bs: bs + bs[:1])


def _check_shared_context(plan, schedule):
    # one context, built at the schedule's largest B, serves every B of it
    context = _torsor_context(plan, math.floor(max(schedule)))
    for B in schedule:
        assert _torsor_count(plan, B, context) == torsor_walk(plan, B), (plan, B)


@pytest.mark.parametrize("name", list(KERNEL_FANS))
@settings(max_examples=10, deadline=None)
@given(schedule=SCHEDULES)
def test_one_context_counts_a_schedule(name, schedule):
    _check_shared_context(_torsor_plan(KERNEL_FANS[name]), schedule)


@settings(
    max_examples=40, deadline=None, suppress_health_check=[HealthCheck.filter_too_much]
)
@given(fan=subdivided_surfaces(max_blowups=5), schedule=SCHEDULES)
def test_one_context_counts_a_schedule_on_nef_subdivisions(fan, schedule):
    plan = _torsor_plan(fan)
    assume(plan is not None)
    _check_shared_context(plan, schedule)


@pytest.mark.parametrize("size", [0, 1])
def test_leaf_memo_size_changes_no_count(monkeypatch, size):
    # the leaf sums are a cache too: past its size a sum is recomputed
    plan = _torsor_plan(corpus_fan("dp6"))
    want = [torsor_walk(plan, B) for B in (300, 100)]
    monkeypatch.setattr(counting, "_LEAF_MEMO_SIZE", size)
    context = _torsor_context(plan, 300)
    assert [_torsor_count(plan, B, context) for B in (300, 100)] == want
    assert len(context[2]) == size


def test_context_of_a_smaller_top_is_not_reused():
    # its sieve and its terms stop short of a larger B: a new context is built
    plan = _torsor_plan(corpus_fan("dp6"))
    small = _torsor_context(plan, 100)
    _torsor_count(plan, 100, small)
    kept = dict(small[2])
    assert _torsor_count(plan, 300, small) == torsor_walk(plan, 300)
    assert small[2] == kept


def _stored(plan):
    """The plan's stored context, None if the store holds none."""
    return counting._context_slot(plan)[0]


# calls as a warm process meets them: rising, falling and repeated bounds
CALLS = st.lists(
    st.one_of(st.sampled_from(BOUNDS), st.fractions(0, 300, max_denominator=3)), min_size=1, max_size=4
).flatmap(lambda bs: st.sampled_from([sorted(bs) + bs[:1], sorted(bs, reverse=True), bs + bs[::-1]]))


def _check_stored_contexts(plan, calls):
    # each call counts with the plan's stored context, which grows to the
    # largest B seen so far and counts what a fresh context and the walk count
    counting._context_slot.cache_clear()
    seen = []
    for B in calls:
        seen.append(max(math.floor(Fraction(B)), 0))
        fresh = _torsor_context(plan, seen[-1])
        assert _torsor_count(plan, B) == _torsor_count(plan, B, fresh) == torsor_walk(plan, B), (plan, B)
        assert _stored(plan)[0] == max(seen), (plan, calls)


@pytest.mark.parametrize("name", list(KERNEL_FANS))
@settings(max_examples=10, deadline=None)
@given(calls=CALLS)
def test_stored_context_counts_a_sequence_of_calls(name, calls):
    _check_stored_contexts(_torsor_plan(KERNEL_FANS[name]), calls)


@settings(
    max_examples=25, deadline=None, suppress_health_check=[HealthCheck.filter_too_much]
)
@given(fan=subdivided_surfaces(max_blowups=5), calls=CALLS)
def test_stored_context_counts_a_sequence_of_calls_on_nef_subdivisions(fan, calls):
    plan = _torsor_plan(fan)
    assume(plan is not None)
    _check_stored_contexts(plan, calls)


def test_stored_context_is_reused_up_to_its_top():
    dp6 = corpus_fan("dp6")
    plan = _torsor_plan(dp6)
    want = count_points(dp6, 300)
    stored = _stored(plan)
    assert stored[0] == 300
    for B in (300, 100, Fraction(601, 2), 0):
        count_points(dp6, B)
        assert _stored(plan) is stored, B
    assert count_points(dp6, 300) == want
    # a larger B builds a new context at it, with memos of its own
    assert _torsor_count(plan, 301) == torsor_walk(plan, 301)
    grown = _stored(plan)
    assert grown is not stored and grown[0] == 301 and grown[2] is not stored[2]
    # the store keeps the last TORSOR_CONTEXTS plans used, dp6 among them
    others = [KERNEL_FANS[name] for name in list(KERNEL_FANS)[: counting.TORSOR_CONTEXTS]]
    for fan in others[:-1]:
        count_points(fan, 10)
    count_points(dp6, 10)
    count_points(others[-1], 10)
    assert counting._context_slot.cache_info().currsize == counting.TORSOR_CONTEXTS
    assert _stored(plan) is grown
    assert _stored(_torsor_plan(others[0])) is None


def test_stored_context_with_full_leaf_sums_is_replaced(monkeypatch):
    # a full memo holds the keys of the counts that filled it: a smaller B
    # counts with a new context at it, which replaces the full one
    monkeypatch.setattr(counting, "_LEAF_MEMO_SIZE", 5)
    dp6 = corpus_fan("dp6")
    plan = _torsor_plan(dp6)
    count_points(dp6, 300)
    full = _stored(plan)
    assert len(full[2]) == 5
    assert _torsor_count(plan, 200) == torsor_walk(plan, 200)
    assert _stored(plan) is not full and _stored(plan)[0] == 200
    # a context whose memo has room is kept
    monkeypatch.setattr(counting, "_LEAF_MEMO_SIZE", 10**6)
    kept = _stored(plan)
    assert _torsor_count(plan, 150) == torsor_walk(plan, 150)
    assert _stored(plan) is kept


def test_refusals_leave_the_store_unchanged(monkeypatch):
    dp6, f1 = corpus_fan("dp6"), corpus_fan("hirzebruch1")
    count_points(dp6, 300)
    count_points(f1, 10**5)
    plans = [_torsor_plan(dp6), _torsor_plan(f1)]
    before = [_stored(plan) for plan in plans]
    # the budget is checked at the top before the store is read
    with pytest.raises(BudgetExceededError):
        count_points(dp6, 10**8)
    with pytest.raises(BudgetExceededError):
        count_points(dp6, 1000, budget=1000)
    with pytest.raises(BudgetExceededError):
        count_points(DP7, 1000, budget=10)
    # a larger table than the cap is refused as it is allocated, and the
    # context built at the smaller top stays
    monkeypatch.setattr(arith, "SIEVE_CAP", 1000)
    with pytest.raises(BudgetExceededError, match="sieve entries"):
        count_points(f1, 10**7)
    assert counting._context_slot.cache_info().currsize == 2
    assert all(_stored(plan) is context for plan, context in zip(plans, before))


def test_counter_decided_once_per_fan_and_strategy(monkeypatch):
    # the decision is cached, a refusal is raised on every call
    calls = []

    def spy(fan):
        calls.append(fan)
        return specialized_id_for(fan)

    monkeypatch.setattr(counting, "specialized_id_for", spy)
    counting._counter.cache_clear()
    dp6 = corpus_fan("dp6")
    for B in (10, 100, 10):
        count_points(dp6, B)
    assert counter_for(dp6) == "torsor"
    assert calls == [dp6]
    for _ in range(2):
        with pytest.raises(ValueError, match="not registered"):
            count_points(dp6, 10, strategy="specialized")
        with pytest.raises(ValueError, match="unknown strategy"):
            count_points(dp6, 10, strategy="fast")
    assert calls == [dp6, dp6, dp6]


@pytest.mark.parametrize("name", list(KERNEL_FANS) + ["dp6"])
def test_cap_product_bounds_the_prefix_walk(name):
    # each prefix coordinate under its own cap: the product of the caps
    # bounds the walk, so _route skips the walk where it is under the budget
    plan = _torsor_plan(KERNEL_FANS.get(name) or _fan(name))
    for top in (1, 12, 100, 10**3, 10**4) + ((10**6,) if name == "dp6" else ()):
        bound = _prefix_bound(plan, top, math.inf)
        assert math.prod(_prefix_caps(plan, top)) >= bound, (name, top)
        # and _prefix_walk refuses at once when one cap passes the limit
        assert max(_prefix_caps(plan, top)) <= bound, (name, top)


def test_no_bound_walk_under_the_cap_product(monkeypatch):
    # at the benchmark's count bounds the cap product is under the budget
    def walk(*args):
        raise AssertionError("the prefix bound was walked")

    monkeypatch.setattr(counting, "_prefix_bound", walk)
    for fan, top in ((corpus_fan("hirzebruch1"), 1650), (corpus_fan("dp6"), 440), (DP7, 440)):
        rep = asymptotic_report(fan, [top * 9 // 11, top], (1.0, 1.1))
        assert rep.counts == [torsor_points(fan, B) for B in rep.schedule]


def test_torsor_count_of_dp6_x_p1_is_the_convolution():
    # an oracle for products, independent of the scan and of torsor_walk
    dp6 = corpus_fan("dp6")
    fan = KERNEL_FANS["dp6xP1"]
    assert counter_for(fan) == "torsor"
    for B in (10, 100, 1000, 3000):
        assert count_points(fan, B) == p1_product_count(lambda b: count_points(dp6, b), B), B


def test_kernel_compiled_once_per_plan(monkeypatch):
    sources = []

    def spy(source, filename, mode):
        sources.append(filename)
        return compile(source, filename, mode)

    dp6 = corpus_fan("dp6")
    # the plan search compiles each candidate's bound and drops it: warm it
    # first, so only the chosen plan's kernel is compiled below
    _torsor_plan(dp6)
    monkeypatch.setattr(counting, "compile", spy, raising=False)
    _torsor_kernel.cache_clear()
    first = count_points(dp6, 300)
    assert sources == ["<torsor kernel>"]
    assert count_points(dp6, 300) == first
    assert count_points(dp6, 200) < first
    assert sources == ["<torsor kernel>"]


def test_plan_search_caches_only_the_chosen_kernel():
    # the ranked candidates are compiled and dropped, so the cache holds
    # no more kernels as the fan gains rays
    _torsor_kernel.cache_clear()
    plan = _torsor_plan.__wrapped__(KERNEL_FANS["dp6xP1"])
    assert _torsor_kernel.cache_info().currsize == 0
    assert plan == _torsor_plan(KERNEL_FANS["dp6xP1"])
    count_points(KERNEL_FANS["dp6xP1"], 10)
    assert _torsor_kernel.cache_info().currsize == 1


@pytest.mark.parametrize("name", SPLIT_CORPUS + ["dp7", "dp6xdp6"])
def test_plan_ranking_compiles_bounds_only(monkeypatch, name):
    # ranking runs only the candidates' bounds, so it compiles no count
    # kernel, and it keeps the plan that ranking by the full modules keeps
    dp6 = corpus_fan("dp6")
    fan = product_fan(dp6, dp6) if name == "dp6xdp6" else _fan(name)
    sources = []

    def spy(source, filename, mode):
        sources.append(source)
        return compile(source, filename, mode)

    monkeypatch.setattr(counting, "compile", spy, raising=False)
    plan = _torsor_plan.__wrapped__(fan)
    assert sources and not any("def kernel" in source for source in sources)
    monkeypatch.setattr(counting, "_bound_only", _torsor_kernel.__wrapped__)
    assert _torsor_plan.__wrapped__(fan) == plan


@pytest.mark.parametrize("name", list(KERNEL_FANS))
@settings(max_examples=10, deadline=None)
@given(data=st.data(), top=st.sampled_from([1, 2, 12, 100, 300]))
def test_bound_matches_the_recursive_walk(name, data, top):
    # in any ray order, with any ray counted in closed form, with no chain,
    # the largest orbit, or it and the orbit below its anchor; the order of
    # the others changes the bound's cost, not its value
    fan = KERNEL_FANS[name]
    order = data.draw(st.permutations(range(fan.nrays)))
    plan = _plan_in(fan, order, data.draw(st.sampled_from(_chains(fan, order))))
    _check_bound(plan, top)
    assert _walk_prefixes(plan, top, math.inf)[0] == _index_order_walk(fan, plan, top)


@settings(
    max_examples=40, deadline=None, suppress_health_check=[HealthCheck.filter_too_much]
)
@given(
    fan=subdivided_surfaces(max_blowups=5),
    data=st.data(),
    top=st.sampled_from([1, 2, 12, 100, 1000]),
)
def test_bound_matches_the_recursive_walk_on_nef_subdivisions(fan, data, top):
    assume(_anticanonical_forms(fan)[1])
    order = data.draw(st.permutations(range(fan.nrays)))
    plan = _plan_in(fan, order, data.draw(st.sampled_from(_chains(fan, order))))
    _check_bound(plan, top)
    assert _walk_prefixes(plan, top, math.inf)[0] == _index_order_walk(fan, plan, top)


@pytest.mark.parametrize(
    "field, bad",
    [
        ("caps", Fraction(2)),  # equal to the int 2, but not one
        ("caps", "2) or exec('') or (1"),
        ("caps", True),
        ("avoids", 1.0),
        ("closes", "z0"),
        ("chain", "0] or exec('') or tally[0"),
        ("chain", True),
    ],
)
def test_kernel_source_takes_plan_integers_only(monkeypatch, field, bad):
    # the plan search compiles its candidates' bounds: search before the spy
    plan = _torsor_plan(corpus_fan("dp6"))
    compiled = []
    monkeypatch.setattr(counting, "compile", lambda *args: compiled.append(args), raising=False)
    entries = getattr(plan, field)
    if field == "chain":
        # the chain is one tuple of position tuples: the last of its last becomes bad
        doctored = replace(plan, chain=entries[:-1] + (entries[-1][:-1] + (bad,),))
    else:
        # the last integer of the field's first nonempty entry becomes bad
        i = next(i for i, entry in enumerate(entries) if entry)
        *head, last = entries[i]
        doctored = replace(plan, **{field: entries[:i] + ((*head, last[:-1] + (bad,)),) + entries[i + 1 :]})
    with pytest.raises(TypeError, match="ints"):
        _kernel_source(doctored)
    # True and Fraction(2) hash and compare like 1 and 2, so a cached kernel
    # of the plan they mimic would be returned without any source written
    _torsor_kernel.cache_clear()
    with pytest.raises(TypeError, match="ints"):
        _torsor_kernel(doctored)
    assert compiled == []


@pytest.mark.parametrize("field", ["caps", "avoids", "closes", "chain"])
def test_kernel_source_takes_plan_tuples_of_int_tuples(field):
    # an entry one level too shallow is refused by name, not by a bare
    # "object is not iterable"; the chain is one level shallower than the rest
    plan = _torsor_plan(corpus_fan("dp6"))
    if field == "chain":
        shallow = replace(plan, chain=(1, 2))
    else:
        shallow = replace(plan, **{field: ((1, 2),) + getattr(plan, field)[1:]})
    with pytest.raises(TypeError, match="tuples of int tuples"):
        _kernel_source(shallow)


def test_auto_routing():
    assert counter_for(corpus_fan("p2")) == "sieve"
    assert counter_for(corpus_fan("dp6")) == "torsor"
    assert counter_for(corpus_fan("dp6"), "naive") == "naive"
    # F_3 is not nef: its torsor exponents go negative, so auto scans
    assert not _anticanonical_forms(F3)[1]
    assert _torsor_plan(F3) is None
    assert counter_for(F3) == "naive"
    assert count_points(F3, 4) == count_points(F3, 4, strategy="naive")
    # the sieves match rays alone: a nonsplit P^1 was counted as the split one
    nonsplit = corpus_fan("p1-norm-one")
    for strategy in ("auto", "specialized", "naive"):
        with pytest.raises(ValueError, match="split"):
            count_points(nonsplit, 100, strategy=strategy)
        with pytest.raises(ValueError, match="split"):
            counter_for(nonsplit, strategy)
    with pytest.raises(ValueError, match="split"):
        enumerate_naive(nonsplit, 100)
    # theta gives a nonsplit fan the interval (None, None): routing refuses
    # the fan before the report reads it
    with pytest.raises(ValueError, match="split"):
        asymptotic_report(nonsplit, [10, 100], (None, None))
    with pytest.raises(ValueError, match="split"):
        asymptotic_report(nonsplit, [10, 100], (1.0, 1.0), counts=[4, 36])


def test_primitive_collections():
    # non-adjacent pairs on a polygon; the three rays of P^2 together
    assert primitive_collections(corpus_fan("p2")) == ((0, 1, 2),)
    assert primitive_collections(corpus_fan("p1xp1")) == ((0, 2), (1, 3))
    assert len(primitive_collections(corpus_fan("dp6"))) == 9
    assert primitive_collections(CUBE) == ((0, 1), (2, 3), (4, 5))


@pytest.mark.parametrize("name", SPLIT_CORPUS + ["dp7", "cube"])
def test_prefix_bound_covers_visits(name):
    # the gcd-free recursion bounds the prefixes the count really visits
    plan = _torsor_plan(_fan(name))
    for top in (1, 2, 12, 100, 1000, 5000):
        _count, visits = _torsor_count(plan, top)
        assert visits <= _prefix_bound(plan, top, float("inf")), (name, top)


@pytest.mark.parametrize("name", SPLIT_CORPUS + ["dp7", "cube"])
def test_prefix_bound_equals_the_index_order_walk(name):
    # the blocks and the plan's ray order change the cost of the bound, not its value
    fan = _fan(name)
    plan = _torsor_plan(fan)
    if plan is None:
        return
    for top in (100, 10**3, 10**4):
        bound = _prefix_bound(plan, top, float("inf"))
        assert bound == _index_order_walk(fan, plan, top), (name, top)
        # a budget refuses exactly when the whole bound is over it
        for budget in (bound - 1, bound):
            assert (_prefix_bound(plan, top, budget) > budget) == (bound > budget)


def test_torsor_budget_refusal():
    dp6 = corpus_fan("dp6")
    # the bound stops early, at the first prefix total past the budget
    with pytest.raises(BudgetExceededError) as err:
        count_points(dp6, 10**8)
    assert str(err.value) == (
        "work estimate of 50136612 torsor prefixes is over the budget of 50000000"
    )
    with pytest.raises(BudgetExceededError):
        count_points(dp6, 1000, budget=1000)
    # one coordinate alone passes any budget here: refused at once
    with pytest.raises(BudgetExceededError):
        count_points(dp6, Fraction(10) ** 400)
    assert count_points(dp6, Fraction(1, 2), budget=0) == 0


def test_report_names_the_counter():
    dp6, p2 = corpus_fan("dp6"), corpus_fan("p2")
    theta_c = (0.09, 0.1)
    cases = [(dp6, "auto", "torsor"), (dp6, "naive", "naive"), (p2, "auto", "sieve")]
    for fan, strategy, counter in cases:
        rep = asymptotic_report(fan, [10], theta_c, strategy=strategy)
        assert rep.strategy == strategy
        want = "counts by the %s counter (strategy %r)" % (counter, strategy)
        assert rep.provenance[0] == want
    rep = asymptotic_report(dp6, [10], theta_c, counts=[count_points(dp6, 10)])
    assert rep.provenance[0] == "counts supplied by the caller"


def test_f2_acceptance():
    # F_2 is nef but not Fano.  Its ratio N / prediction falls toward 1
    # from B = 10^4 on, like F_1's (at 10^3 it is 1.217, below the 1.229
    # of 10^4), and stays further above it.
    schedule = [10**3, 10**4, 10**5, 10**6]
    ratios = {}
    for name, fan in (("F1", corpus_fan("hirzebruch1")), ("F2", hirzebruch(2))):
        th = theta(fan, prime_cutoff=10**4)
        rep = asymptotic_report(fan, schedule, (th.theta_lo, th.theta_hi))
        assert rep.provenance[0].startswith("counts by the torsor counter")
        assert rep.ratios[1] > rep.ratios[2] > rep.ratios[3] > 1, rep.ratios
        ratios[name] = rep.ratios[-1]
    assert abs(ratios["F2"] - 1.118) < 0.001, ratios
    assert abs(ratios["F1"] - 1.097) < 0.001, ratios


@pytest.mark.parametrize(
    "name, strategy, counter, schedule, budget",
    [
        ("dp6", "auto", "_torsor_count", [10, 100, 10**4], 1000),
        ("dp6", "naive", "_scan", [10, 100, 10**4], 1000),
        ("p2", "auto", "p2", [10, 10**3, 10**20], 10**9),
    ],
)
def test_schedule_refused_before_any_point_is_counted(monkeypatch, name, strategy, counter, schedule, budget):
    # every counter's work grows with B.  The torsor's prefixes and the
    # scan's candidates are checked before the counter runs, the top
    # first; a sieve is asked for the top first, and arith refuses its table
    import toricount.counting as counting

    seen = []

    def recorded(count):
        def wrapper(*args):
            seen.append(args[-1])
            return count(*args)

        return wrapper

    if counter in counting.SPECIALIZED:
        monkeypatch.setitem(counting.SPECIALIZED, counter, recorded(counting.SPECIALIZED[counter]))
    else:
        monkeypatch.setattr(counting, counter, recorded(getattr(counting, counter)))
    with pytest.raises(BudgetExceededError):
        asymptotic_report(corpus_fan(name), schedule, (1.0, 1.1), strategy=strategy, budget=budget)
    assert seen == ([schedule[-1]] if counter in counting.SPECIALIZED else [])


def test_sieve_entries_refusals(monkeypatch):
    # p2's Moebius table runs to the cube root of the largest bound
    with pytest.raises(BudgetExceededError) as err:
        asymptotic_report(corpus_fan("p2"), [10, 10**20], (1.0, 1.1))
    assert str(err.value) == (
        "work estimate of 4641588 sieve entries is over the budget of 2000000"
    )
    assert (err.value.estimate, err.value.budget) == (4641588, arith.SIEVE_CAP)
    # F_1's prefix bound fits the budget, but its table of smallest prime
    # factors, up to the largest prefix coordinate, passes the cap
    monkeypatch.setattr(arith, "SIEVE_CAP", 1000)
    f1 = corpus_fan("hirzebruch1")
    assert _prefix_bound(_torsor_plan(f1), 10**7, math.inf) < DEFAULT_BUDGET
    with pytest.raises(BudgetExceededError) as err:
        asymptotic_report(f1, [10, 10**7], (1.0, 1.1))
    assert str(err.value) == "work estimate of 3162 sieve entries is over the budget of 1000"
    assert (err.value.estimate, err.value.budget) == (3162, 1000)
