"""Exact point counts of bounded anticanonical height, and asymptotics.

count_points routes strategy "auto" to the first counter that applies:
the closed-form sieve of a registered fan (p1, p2, p1xp1), then the
universal-torsor counter for a split fan whose anticanonical class is
nef, then the naive scan.  "naive" always runs the scan, which stays the
oracle of the other two; "specialized" runs a sieve or refuses.  Every
public entry refuses an invalid fan first (ValidationReport.require),
then a nonsplit one (Fan.require_split).

Torsor counter (Salberger, Asterisque 251; de la Breteche, J. Number
Theory 87).  By Cox, the rational points of a smooth split toric variety
are the integer vectors z, one coordinate per ray, with gcd 1 on every
primitive collection (Batyrev), up to the 2^(n-d) signs of the
Neron-Severi torus.  A torus point has every z_j nonzero, so N(B) is 2^d
times the number of positive such z of height <= B.  That height is
max_sigma prod_j z_j^a(sigma, j) with a(sigma, j) = 1 - <m_sigma, e_j>,
and a nef class (convex phi_Sigma) makes every exponent >= 0, so each
partial product caps the coordinates still to come.  The last
coordinate is counted in closed form, by inclusion-exclusion over the
primes of the gcds it must avoid, so the work is the number of prefixes
of the other n - 1 coordinates.  A plan fixes one order of the rays,
the closed-form ray last, and those prefixes are walked in it by a
kernel generated once per plan (_torsor_kernel): one flat loop per
position, with the plan's exponents and gcd conditions written into
its source as integer literals and its remainders held in local
variables.  The recursive walks it and its bound replaced are the test
oracles in tests/oracles/torsor_walk.py, which walk the same order.
The fan's automorphisms (fan.automorphisms) fix phi_Sigma and map faces
to faces, so they permute the exponent rows and primitive collections
and keep the set of vectors counted.  So a plan walks one fundamental
domain of them (_TorsorPlan): an orbit's anchor is one more cap on each
later coordinate of the orbit, and one orbit of the anchor's stabilizer
caps its later coordinates by its first.  A vector walked counts the
group's order over the number of automorphisms that keep it in the
domain, which the kernel tallies as a tie sum.  dp6's chain uses all 12
of its automorphisms: at 10^5 it visits 84,324 prefixes, against 138,304
with the orbit of its six rays alone.
A plan's counts share one context (_torsor_context): the table of
smallest prime factors, the memo of Moebius terms per radical, and a memo
of the leaf's Moebius sums by (radical, cap), which every B up to the
context's top shares exactly.  The contexts of the last TORSOR_CONTEXTS
plans counted are kept across calls (_stored_context), so a call whose
largest B is at most the stored top starts on warm memos; a larger B,
or a stored context whose leaf sums are full, builds a new context at
the call's top, which replaces the old one.  Which counter a fan gets
is decided once per (fan, strategy) (_counter).
Non-nef fans (such as F_3) have negative exponents and no such caps:
they stay on the naive scan.

Naive scan.  It is provably complete: the anticanonical PL function
satisfies phi(n) >= |n|_1 / w with w = max_j |e_j|_1, which forces

    prod_i max(num_i, den_i)^2 <= B^w

for every point of height <= B (the finite places bound valuations, the
real place bounds magnitudes, and every local factor is >= 1).  Reduced
fractions are scanned inside that product cap and filtered by the exact
height of heights.HeightEvaluator, one rule for nef and non-nef fans
alike.  One scan core yields the positive-orthant survivors: counting
adds 2^d per survivor and builds no points, enumeration expands each
into its 2^d signed TorusPoints.

Budgets.  A count over its budget is refused up front with
BudgetExceededError: the scan's candidate tuples are counted exactly
(candidate_estimate), and the torsor's prefixes are bounded by the
product of the prefix coordinates' caps and, only where that product
passes the budget, by the kernel's loops, in the plan's order, with its
chain's caps and without the gcd pruning, generated into the same module
from the same plan.  A schedule is refused when these bounds, summed
over its distinct B, pass the budget; as all grow with B, it is
accepted at once when its number of distinct B times the bound at its
largest B is within the budget.  arith
refuses every table past arith.SIEVE_CAP entries as it allocates it (a
sieve's, the torsor's smallest prime factors, the scan's totients), and
a schedule is counted from its largest B down, so that refusal also
comes before any smaller B is counted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache, partial
from itertools import accumulate, chain, permutations, takewhile
from itertools import product as iter_product
from operator import itemgetter, mul

from .arith import (
    DEFAULT_BUDGET,
    STRATEGIES,
    BudgetExceededError,
    euler_phi_table,
    iroot,
    mobius_table,
    smallest_prime_factors,
)
from .fan import automorphisms, cone_pieces, primitive_collections, validate_fan
from .heights import HeightEvaluator, TorusPoint
from .picard import anticanonical, picard_data


def _product_cap(fan, B):
    """The cap on prod_i max(num_i, den_i) over points of height <= B."""
    bound = Fraction(B)
    if bound < 1:
        return 0
    w = max(sum(abs(x) for x in r) for r in fan.rays)
    # prod max_i <= B^{w/2}, taken as the square root of B^w to stay exact
    return iroot(bound**w, 2)


def _coords_by_max(cap):
    """Positive reduced fractions a/b grouped by max(a, b), as (a, b) pairs."""
    groups = {1: [(1, 1)]}
    for m in range(2, cap + 1):
        pairs = []
        for a in range(1, m):
            if math.gcd(a, m) == 1:
                pairs.append((a, m))
        for b in range(1, m):
            if math.gcd(m, b) == 1:
                pairs.append((m, b))
        groups[m] = pairs
    return groups


def _anticanonical_forms(fan):
    """Per-cone linear forms of phi_Sigma, plus a convexity certificate.

    When phi_Sigma is convex (anticanonical class nef) it equals the max
    of its cone forms everywhere, which gives the scan its axis caps.
    """
    forms = [form for _, form in cone_pieces(fan, (1,) * fan.nrays)]
    convex = all(
        max(sum(m[i] * r[i] for i in range(fan.dim)) for m in forms) == 1
        for r in fan.rays
    )
    return forms, convex


def _scan_plan(fan, B):
    """(product cap, per-coordinate caps) of the scan.

    Every coordinate obeys max(num_i, den_i) <= product cap.  For a convex
    phi the height also dominates the pairwise form max, and with
    delta = m_sigma - m_tau supported on axis i alone the product formula
    leaves H(x) >= max(num, den)(x_i^{delta_i}), so max(num_i, den_i) <=
    B^{1/delta_i}: complete by proof, and much tighter than the product
    cap on the surfaces.
    """
    cap = _product_cap(fan, B)
    forms, convex = _anticanonical_forms(fan)
    d = fan.dim
    caps = [cap] * d
    if convex:
        for i in range(d):
            e = 0
            for ma in forms:
                for mb in forms:
                    delta = [ma[t] - mb[t] for t in range(d)]
                    if delta[i] > 0 and all(delta[t] == 0 for t in range(d) if t != i):
                        e = max(e, delta[i])
            if e > 0:
                caps[i] = min(cap, iroot(Fraction(B), e))
    return cap, caps


def candidate_estimate(fan, B):
    """Exact number of positive-orthant candidate tuples the scan visits."""
    validate_fan(fan).require()
    cap, coord_caps = _scan_plan(fan, B)
    return _candidate_count(cap, coord_caps)


def _candidate_count(cap, coord_caps):
    """Tuples of reduced fractions under the product and coordinate caps.

    Its totient sieve refuses coordinate caps past arith.SIEVE_CAP.
    """
    if cap <= 0:
        return 0
    sieve_size = max(coord_caps)
    phi = euler_phi_table(sieve_size)
    # sizes[m] = number of positive reduced fractions with max(num, den) = m
    sizes = [0, 1] + [2 * phi[m] for m in range(2, sieve_size + 1)]
    prefix = list(accumulate(sizes))
    d = len(coord_caps)

    @lru_cache(maxsize=None)
    def tuples(i, P):
        if i == d:
            return 1
        lim = min(P, coord_caps[i])
        if i == d - 1:
            return prefix[lim]
        return sum(sizes[m] * tuples(i + 1, P // m) for m in range(1, lim + 1))

    return tuples(0, cap)


def _check_scan(fan, bounds, budget):
    """Refuse scans at the bounds whose exact candidate counts pass the budget."""
    bounds = sorted(set(map(Fraction, bounds)), reverse=True)

    def work(B, limit):
        return candidate_estimate(fan, B) if B >= 1 else 0

    _check_work(bounds, budget, "scan candidates", work)


def _scan(fan, B):
    """Yield (pairs, num, den) for each positive-orthant point of height <= B.

    pairs are the coordinates as reduced (a_i, b_i) with x_i = a_i / b_i,
    num / den is the exact anticanonical height, and the order is
    deterministic.  The callers refuse a nonsplit fan and check the
    budget first (_check_scan).
    """
    bound = Fraction(B)
    if bound < 1:
        return
    cap, coord_caps = _scan_plan(fan, B)
    d = fan.dim
    groups = _coords_by_max(max(coord_caps))
    height = HeightEvaluator(fan, anticanonical(fan)).height
    bnum, bden = bound.numerator, bound.denominator

    def rec(i, cap_left, pairs):
        lim = min(cap_left, coord_caps[i])
        for m in range(1, lim + 1):
            for pair in groups[m]:
                pairs.append(pair)
                if i + 1 == d:
                    hn, hd = height(pairs)
                    if hn * bden <= bnum * hd:
                        yield tuple(pairs), hn, hd
                else:
                    yield from rec(i + 1, cap_left // m, pairs)
                pairs.pop()

    yield from rec(0, cap, [])


def enumerate_naive(fan, B, budget=DEFAULT_BUDGET, with_heights=False):
    """Complete list of torus points with anticanonical height <= B.

    Expands each point the scan keeps into its 2^d sign patterns (a sign
    never changes any local height).  Deterministic order.  Refuses scans
    whose exact candidate count exceeds the budget.
    """
    fan.require_split("counting")
    _check_scan(fan, [B], budget)
    signs = list(iter_product((1, -1), repeat=fan.dim))
    out = []
    for pairs, hn, hd in _scan(fan, B):
        h = Fraction(hn, hd)
        for sign in signs:
            pt = TorusPoint([Fraction(s * a, b) for s, (a, b) in zip(sign, pairs)])
            out.append((pt, h) if with_heights else pt)
    return out


# ---------------------------------------------------------------------------
# specialized counters


def count_p1(B) -> int:
    """Coprime-pair sieve: points +-a/b with max(|a|, b)^2 <= B."""
    bound = Fraction(B)
    if bound < 1:
        return 0
    s = iroot(bound, 2)
    phi = euler_phi_table(s)
    coprime_pairs = 2 * sum(phi[1 : s + 1]) - 1
    return 2 * coprime_pairs


def count_p2(B) -> int:
    """Primitive-triple sieve: nonzero (z0, z1, z2), gcd 1, max^3 <= B."""
    bound = Fraction(B)
    if bound < 1:
        return 0
    m = iroot(bound, 3)
    mu = mobius_table(m)
    triples = sum(mu[k] * (m // k) ** 3 for k in range(1, m + 1))
    return 4 * triples


def count_p1xp1(B) -> int:
    """Sorted convolution of two P^1 height multisets (H1 * H2 <= B)."""
    bound = Fraction(B)
    if bound < 1:
        return 0
    s = iroot(bound, 2)
    phi = euler_phi_table(s)
    # P^1 points with height exactly m^2: 2 for m = 1, else 4*phi(m)
    npts = [0, 2] + [4 * phi[m] for m in range(2, s + 1)]
    prefix = list(accumulate(npts))
    total = 0
    for m1 in range(1, s + 1):
        m2_max = iroot(bound / (m1 * m1), 2)
        total += npts[m1] * prefix[min(m2_max, s)]
    return total


SPECIALIZED = {
    "p1": count_p1,
    "p2": count_p2,
    "p1xp1": count_p1xp1,
}


def specialized_id_for(fan):
    """Registered id of the fan, matched on exact ray and cone sets."""
    rays = set(fan.rays)
    cones = {frozenset(c) for c in fan.max_cones}
    if fan.dim == 1 and rays == {(1,), (-1,)}:
        return "p1"
    if fan.dim == 2 and rays == {(1, 0), (0, 1), (-1, -1)} and len(cones) == 3:
        return "p2"
    if fan.dim == 2 and rays == {(1, 0), (0, 1), (-1, 0), (0, -1)} and len(cones) == 4:
        return "p1xp1"
    return None


# ---------------------------------------------------------------------------
# universal torsor counter

# the bound at which _torsor_plan ranks the choices of closed-form coordinate
_PLAN_REFERENCE_B = 100

# the most (rad, g) pairs a torsor context's extend keeps (a few MB)
_EXTEND_MEMO_SIZE = 4096

# the most (rad, L) leaf sums a torsor context keeps: F_1 at 10^9 fills
# it and peaks about 1 MB higher, dp6 at 10^5 meets 10,101
_LEAF_MEMO_SIZE = 8192

# the torsor plans whose contexts a process keeps across calls: a
# workload's few fans, with room.  A context's table of smallest prime
# factors stops at arith.SIEVE_CAP entries, 20.8 MB (tracemalloc), so the
# store keeps at most about 83 MB of tables, plus each context's memos
# (F_1's at 10^9, with both memos full, keep 4.1 MB with its table)
TORSOR_CONTEXTS = 4


@dataclass(frozen=True)
class _TorsorPlan:
    """The Cox-coordinate recursion of one nef split fan, in one ray order.

    Position i takes the i-th ray of the order, the ray counted in closed
    form last, and the kernel, its bound and the oracles loop over
    positions 0..n-2.  caps[i] holds the (form, exponent) pairs with a
    positive exponent at that ray.  Each primitive collection is listed
    once, as the positions of its other members, at the position where
    its gcd is known: in avoids[i] when it ends at i < n - 1 (the
    coordinate set there must avoid that gcd's primes), in closes[i] when
    it ends at the last position and its other members end at i (their
    gcd's primes are then excluded from the last coordinate).

    chain holds one or two levels of the fan's automorphism group G, or
    none.  chain[0] is an orbit O1 of G, as sorted positions; its first,
    a, is the anchor, and each later O1 coordinate has one more cap, z_j
    <= z_a.  With a second level, chain[1 + k] is O2(c) for the k-th
    position c of O1: O2 = chain[1] is an orbit of the stabilizer G_a,
    its first, b, caps each later O2 coordinate the same way, and O2(c)
    = g(O2) for any g in G with g(a) = c.  The caps cut the walk to a
    domain D that meets every G-orbit of vectors, and G keeps the set of
    vectors counted, so the count is the sum over D of |G| / #{h in G :
    h z in D}.  h z is in D exactly when h^-1(a) is some c of O1 with z_c
    = z_a and h^-1(b) is a largest coordinate of O2(c): one coset of
    G_(a,b) for each such pair, and |G| = |O1| |O2| |G_(a,b)|.  So z
    counts |O1| |O2| / m(z), its tie sum m(z) being the number of such
    pairs (with one level, |O2| = 1 and m counts the c alone).
    """

    caps: tuple
    avoids: tuple
    closes: tuple
    nforms: int
    chain: tuple = ()


def _plan(fan, exps, order, orbits=()):
    """The plan that takes the rays in order, the closed-form ray last.

    orbits is empty, or a ray orbit O1 of the fan's automorphisms, or O1
    and an orbit O2 of the automorphisms that fix O1's ray at the first
    position.  A level is kept when two of its rays are prefix positions,
    and the second only below the first: with only the last coordinate
    capped, the walk is not cut.
    """
    n = fan.nrays
    pos = {j: i for i, j in enumerate(order)}
    levels = [sorted(pos[j] for j in level) for level in orbits]
    levels = list(takewhile(lambda level: len(level) > 1 and level[1] < n - 1, levels))
    if len(levels) == 2:
        # O2(c) is the image of O2 under an automorphism that maps the anchor to c
        anchor = order[levels[0][0]]
        image = {p[anchor]: p for p in automorphisms(fan)}
        levels[1:] = [sorted(pos[image[order[c]][j]] for j in orbits[1]) for c in levels[0]]
    avoids = [[] for _ in range(n - 1)]
    closes = [[] for _ in range(n - 1)]
    for coll in primitive_collections(fan):
        *others, end = sorted(pos[j] for j in coll)
        if end == n - 1:
            closes[others[-1]].append(tuple(others))
        else:
            avoids[end].append(tuple(others))
    return _TorsorPlan(
        caps=tuple(
            tuple((s, e[j]) for s, e in enumerate(exps) if e[j] > 0) for j in order
        ),
        avoids=tuple(map(tuple, avoids)),
        closes=tuple(map(tuple, closes)),
        nforms=len(exps),
        chain=tuple(map(tuple, levels)),
    )


def _stabilizer_orbit(fan, order, orbit):
    """The rays of the orbit a plan in order caps below its anchor.

    The anchor a is orbit's ray at the first position.  Of the orbits of
    the automorphisms that fix a, other than a's own, the one with the
    most prefix positions is taken, and of those the one that starts
    first.
    """
    n = len(order)
    pos = {j: i for i, j in enumerate(order)}
    anchor = min(orbit, key=pos.get)
    stabilizer = [p for p in automorphisms(fan) if p[anchor] == anchor]
    orbits = {frozenset(p[j] for p in stabilizer) for j in range(n) if j != anchor}
    return max(orbits, key=lambda o: (sum(pos[j] < n - 1 for j in o), -min(map(pos.get, o))))


@lru_cache(maxsize=None)
def _torsor_plan(fan):
    """The torsor plan of a split fan with convex phi_Sigma, else None.

    Only the choice of the closed-form coordinate changes how many
    prefixes the count visits (the caps and gcd conditions on the other
    coordinates do not depend on their order), so each choice, the others
    in index order, is ranked by its prefix bound at a small reference B
    and the least is kept.  Moving an ordered pair of the others to the
    leaf replaces that order when its bound then takes fewer steps at
    that B (at 10^5 it runs 2.7-4.4x faster on dp6, dp7 and the cube); no
    order changes the bound's value.  Each moved order also anchors the
    orbit with the most prefix rays (_TorsorPlan), and wins over the first
    order by fewer steps, or as many over fewer prefixes.  An automorphism
    maps a plan onto one with the same bound and steps, so one closed-form
    ray per orbit, and one moved order per class under the automorphisms
    that fix it, are ranked.  Each candidate's bound, without the count
    kernel, is compiled uncached (_bound_only) and dropped, so only the
    chosen plan's kernel is ever cached.  The chosen order's orbit then
    gets its level below (_stabilizer_orbit), with which no candidate is
    ranked.
    """
    forms, convex = _anticanonical_forms(fan)
    if not convex:
        return None
    exps = [[1 - sum(map(mul, m, r)) for r in fan.rays] for m in forms]

    def ranked(order, orbits=()):
        plan = _plan(fan, exps, order, orbits)
        bound, steps = _prefix_walk(plan, _PLAN_REFERENCE_B, math.inf, _bound_only)
        return bound, steps, order, plan

    n = fan.nrays
    group = automorphisms(fan)
    lasts = sorted({min(p[j] for p in group) for j in range(n)})
    orders = (tuple(j for j in range(n) if j != last) + (last,) for last in lasts)
    first = min(map(ranked, orders), key=itemgetter(0))
    *rest, last = first[2]
    orbit = max(({p[j] for p in group} for j in rest), key=lambda o: len(o - {last}))
    stabilizer = [p for p in group if p[last] == last]
    seen = {first[2]}

    def unseen(order):
        if order in seen:
            return False
        seen.update(tuple(p[j] for j in order) for p in stabilizer)
        return True

    moved = (tuple(k for k in rest if k not in p) + p + (last,) for p in permutations(rest, 2))
    # listed first, the first order wins ties
    ranks = chain([first], (ranked(o, (orbit,)) for o in moved if unseen(o)))
    _, _, order, plan = min(ranks, key=itemgetter(1, 0))
    if not plan.chain:
        return plan
    return _plan(fan, exps, order, (orbit, _stabilizer_orbit(fan, order, orbit)))


def _prefix_caps(plan, top):
    """The largest value each of the first n - 1 coordinates can take.

    A coordinate alone, the others at 1, obeys z^a <= top for each of its
    exponents a, and the largest a binds.
    """
    return [iroot(top, max(a for _, a in ci)) for ci in plan.caps[:-1]]


def _prefix_walk(plan, top, limit, build):
    """(prefix bound, steps taken) by the bound build(plan) compiles.

    The bound counts the (n-1)-prefixes under the height caps at B = top,
    gcds ignored: the loops of _torsor_count without its gcd pruning, so
    it bounds the prefixes the count visits at a fraction of its cost.
    Each level stops once its own total passes limit, and when one
    coordinate alone (the others at 1) passes it, that is the bound.
    """
    single = max(_prefix_caps(plan, top))
    if single > limit:
        return single, 0
    return build(plan)[1](top, limit)


def _bound_only(plan):
    """(None, bound) of the plan, compiled and not cached: ranking never counts."""
    return _torsor_kernel.__wrapped__(plan, count=False)


def _prefix_bound(plan, top, limit):
    """The prefix bound of _prefix_walk, by the plan's cached kernel."""
    return _prefix_walk(plan, top, limit, _torsor_kernel)[0]


def _torsor_context(plan, top):
    """(top, extend, sums): what the plan's counts at every B <= top share.

    terms holds (d, mu(d)) for the squarefree products d of the primes
    the last coordinate must avoid (rad is their product), so the last
    coordinate contributes sum mu(d) * (L // d) for its cap L.  extend
    adds the primes of a gcd, read from a table of smallest prime factors
    up to the largest prefix coordinate at top, and keeps no d past the
    last coordinate's cap at top.  terms are then exactly the squarefree
    divisors of rad up to that cap, so (rad, g) fixes what extend
    returns, up to an order of terms no sum sees, and it is memoized on
    them.  The memo keeps the first _EXTEND_MEMO_SIZE pairs, which the
    outer loops meet again most: F_1 at 10^9 meets 31,621, and keeping
    all their terms took that count from 23 to 43 MB of peak RSS.  A
    count at B <= top has L <= that cap, so the terms past L add zero and
    the leaf's sum depends on (rad, L) alone: sums memoizes it for every
    such B, its first _LEAF_MEMO_SIZE entries.
    """
    spf = smallest_prime_factors(max(_prefix_caps(plan, top)))
    dmax = iroot(top, max(a for _, a in plan.caps[-1]))
    memo = {}

    def extend(terms, rad, g):
        out = memo.get((rad, g))
        if out is None:
            t, r, m = terms, rad, g
            while m > 1:
                p = spf[m]
                while m % p == 0:
                    m //= p
                if r % p:
                    r *= p
                    t = t + [(d * p, -mu) for d, mu in t if d * p <= dmax]
            out = t, r
            if len(memo) < _EXTEND_MEMO_SIZE:
                memo[rad, g] = out
        return out

    return top, extend, {}


@lru_cache(maxsize=TORSOR_CONTEXTS)
def _context_slot(plan):
    """A one-item list that holds the plan's stored context, None until one is built."""
    return [None]


def _stored_context(plan, top):
    """The plan's stored _torsor_context, or a new one at top that replaces it.

    A stored context built at a top >= top is reused while its leaf sums
    have room; otherwise a new one is built at top and replaces it.  A
    full memo holds the keys of the counts that filled it: F_1's stored
    at 10^9 counted schedules up to 10^7 about 8% slower than a new
    context at their top.  The store keeps the contexts of the last
    TORSOR_CONTEXTS plans used.
    """
    slot = _context_slot(plan)
    if slot[0] is None or slot[0][0] < top or len(slot[0][2]) >= _LEAF_MEMO_SIZE:
        slot[0] = _torsor_context(plan, top)
    return slot[0]


def _torsor_count(plan, B, context=None):
    """(positive Cox vectors of height <= B, (n-1)-prefixes visited).

    The vectors counted have gcd 1 on every primitive collection.  The
    plan's kernel (_torsor_kernel) tallies them by their tie sums
    (_TorsorPlan), and only here are they weighed.  It walks the
    prefixes with the memos of context, a _torsor_context built at a top
    >= B; without one, or with one built for a smaller top, it takes the
    plan's stored context (_stored_context).
    """
    top = max(math.floor(Fraction(B)), 0)
    if context is None or context[0] < top:
        context = _stored_context(plan, top)
    _, extend, sums = context
    tally, visits = _torsor_kernel(plan)[0](top, extend, sums, _LEAF_MEMO_SIZE)
    # tally[m - 1] vectors have the tie sum m (_TorsorPlan), and each counts
    # |O1| |O2| / m, summed in units of 1 / lcm(1..|O1| |O2|)
    size = math.prod(map(len, plan.chain[:2]))
    scale = math.lcm(*range(1, size + 1))
    count, rest = divmod(sum(size * scale // m * v for m, v in enumerate(tally, 1)), scale)
    if rest:
        raise ArithmeticError("the chain's weighted count is not a whole number of vectors")
    return count, visits


def _check_plan_ints(plan):
    """Refuse a plan whose caps, avoids, closes or chain hold anything but ints.

    The first three are a tuple per position of tuples of ints, the chain
    a tuple of int tuples.  The kernel source formats these integers and nothing
    else, so any other entry, or any other depth of nesting, is refused
    before a line of it is written.
    """
    for entries in (plan.caps, plan.avoids, plan.closes, (plan.chain,)):
        try:
            ints = [x for entry in entries for part in entry for x in part]
        except TypeError:
            raise TypeError(
                "a torsor plan holds tuples of int tuples per position, and a chain of int tuples"
            ) from None
        if set(map(type, ints)) - {int}:
            bad = next(x for x in ints if type(x) is not int)
            raise TypeError("a torsor plan holds ints, not %r" % (bad,))


def _kernel_source(plan, count=True):
    """Source of kernel(top, extend, sums, room) -> (tally, visits) and bound(top, limit).

    With count false only the bound is written.

    kernel: one for loop per prefix position, nested, with z<i> the
    coordinate at position i and L<i> its cap.  x<i>_<s> is what is left
    of top for form s once z<i> and the coordinates before it are divided
    out; a remainder no later position reads is not kept, and equal
    remainders share one name.  g<i> is the product of the gcds position
    i must avoid, t<i> and r<i> the Moebius terms and radical once the
    gcds closed at i are known.  The leaf, position n - 2, adds the last
    coordinate's count for each z: its cap L = min root(x // z^b, a), or
    sum mu(d) * (L // d) over the terms, with the caps that do not move
    with z (b = 0) taken once, as f.  That sum is read from the dict sums
    by (radical, L), and a sum not there is stored while sums holds fewer
    than room.

    bound -> (prefix bound, steps): the same loops over the same
    positions without the gcd tests, and its leaf is positions n - 3 and
    n - 2.  The first is summed in blocks on which the cap h of the
    second is constant: h is nonincreasing in z, and a cap root(x // z^b,
    a) with b > 0 stays >= h exactly while z^b <= x // h^a.  Every
    radicand is >= 1 inside the loops, so h >= 1.  Position i keeps its
    own total<i> and stops once it passes limit; a block that would pass
    it stops at the value the term-by-term sum reaches at the first z
    that does.  steps counts the z of the outer levels and the leaf's blocks.

    Chain (anchors z<a> and z<b>, _TorsorPlan): in both, each later
    position of a level has one more cap, (z<anchor>, exponent 1),
    emitted with its height caps.  Where the bound's leaf sums over the
    anchor, the cap would make h grow with z, so a z below h is a block of
    its own, of value z.  The kernel adds each vector to tally[m - 1], m
    its tie sum; e<i> counts the later O1 coordinates through position i
    equal to z<a>, u<i> the later O2 coordinates equal to z<b>, and at
    the leaf these ties fall on its last z alone.  With one level m = 1 +
    e, and a last coordinate equal to z<a> that avoids the radical moves
    one vector from tally[e] to tally[e + 1].  With two, a prefix with e
    = 0 has m = 1 + u, and a last coordinate L that ties z<b> (L in O2)
    adds 1, or one that ties z<a> (L in O1) adds m_L, read from the
    prefix.  A prefix with e > 0 adds m_c for each tied c, each one more
    where L meets the largest v of the rest of O2(c); where L can pass v
    (v < L) its last coordinates are tallied stretch by stretch
    (_leaf_split).  _torsor_count weighs tally[m - 1] by |O1| |O2| / m.
    Without a chain the tally has one entry, the count.

    Minima are written as comparisons, which cost a fraction of a call
    to min.  Roots are monotone and fall as the exponent grows, so a
    radicand capped under several exponents keeps only its largest, and
    the radicands of one exponent share the root of their least.
    """
    _check_plan_ints(plan)
    caps, avoids, closes, chain = plan.caps, plan.avoids, plan.closes, plan.chain
    n = len(caps)
    orbit, below = (chain[0], chain[1:]) if chain else ((), ())
    # each level's anchor caps its later positions by one more cap, (z<anchor>, 1)
    anchor = "z%d" % orbit[0] if orbit else None
    anchored = {}
    for level in chain[:2]:
        for i in level[1:]:
            anchored.setdefault(i, []).append(("z%d" % level[0], 1))
    forms = [{s for s, _ in ci} for ci in caps]
    lines = []
    rem, named = {}, {}

    def emit(depth, line):
        lines.append("    " * depth + line)

    def start(header):
        lines.append(header)
        rem.update(dict.fromkeys(range(plan.nforms), "top"))
        named.clear()

    def root(x, a):
        return x if a == 1 else "isqrt(%s)" % x if a == 2 else "iroot(%s, %d)" % (x, a)

    def over(x, z, a):
        return "%s // %s" % (x, z if a == 1 else "(%s * %s)" % (z, z) if a == 2 else "%s**%d" % (z, a))

    def smallest(depth, name, exprs):
        emit(depth, "%s = %s" % (name, exprs[0]))
        for e in exprs[1:]:
            if not e.isidentifier():
                emit(depth, "v = %s" % e)
                e = "v"
            emit(depth, "if %s < %s: %s = %s" % (e, name, name, e))

    def least(depth, name, pairs):
        # name = min root(x, a) over the (x, a) pairs, one root per exponent;
        # root(x, a) does not grow with a, so each x keeps its largest a
        exp_of = {}
        for x, a in pairs:
            exp_of[x] = max(a, exp_of.get(x, 0))
        by_exp = {}
        for x, a in exp_of.items():
            by_exp.setdefault(a, []).append(x)
        roots = []
        for a, xs in by_exp.items():
            if a > 1 and len(xs) > 1:
                smallest(depth, "m%d" % a, xs)
                xs = ["m%d" % a]
            roots += [root(x, a) for x in xs]
        smallest(depth, name, roots)

    def cap(depth, i):
        least(depth, "L%d" % i, [(rem[s], a) for s, a in caps[i]] + anchored.get(i, []))

    def divide(depth, i, later):
        # the remainders once z<i> is divided out, of the forms later positions read
        for s, a in caps[i]:
            if s in later:
                expr = over(rem[s], "z%d" % i, a)
                if expr not in named:
                    named[expr] = "x%d_%d" % (i, s)
                    emit(depth, "%s = %s" % (named[expr], expr))
                rem[s] = named[expr]

    def leaf_caps(depth, i, j):
        # position j's caps once position i holds z: fixed ones as f, the rest
        # (x, a, b); a cap by z<i> itself grows with z, and is left to the caller
        at_i = dict(caps[i])
        fixed = [(rem[s], a) for s, a in caps[j] if s not in at_i]
        fixed += [(x, a) for x, a in anchored.get(j, []) if x != "z%d" % i]
        moving = [(rem[s], a, at_i[s]) for s, a in caps[j] if s in at_i]
        if fixed:
            least(depth, "f", fixed)
            fixed = [("f", 1)]
        return fixed, moving

    def gcd(positions):
        zs = ["z%d" % k for k in positions]
        return zs[0] if len(zs) == 1 else "gcd(%s)" % ", ".join(zs)

    def add(depth, index):
        # the last coordinates up to L that avoid the radical, into tally[index]
        if not any(closes):
            emit(depth, "tally[%s] += L" % index)
            return
        emit(depth, "if %s == 1:" % rad)
        emit(depth + 1, "tally[%s] += L" % index)
        emit(depth, "else:")
        emit(depth + 1, "s = sums.get((%s, L))" % rad)
        emit(depth + 1, "if s is None:")
        emit(depth + 2, "s = 0")
        emit(depth + 2, "for d, mu in %s:" % terms)
        emit(depth + 3, "s += mu * (L // d)")
        emit(depth + 2, "if len(sums) < room:")
        emit(depth + 3, "sums[%s, L] = s" % rad)
        emit(depth + 1, "tally[%s] += s" % index)

    def at_top(depth, anchor_name, index, positions=None):
        # a last coordinate L equal to anchor_name, if it avoids the radical,
        # moves from tally[index] on by 1, or by the ties at the top of positions
        avoids_rad = " and gcd(%s, %s) == 1" % (anchor_name, rad) if any(closes) else ""
        emit(depth, "if L == %s%s:" % (anchor_name, avoids_rad))
        more = "1" if positions is None else ties_at_max(depth + 1, positions)
        emit(depth + 1, "tally[%s] -= 1" % index)
        emit(depth + 1, "tally[%s + %s] += 1" % (index, more))

    def at_max(depth, positions):
        # v = the largest coordinate at positions; returns how many are at v
        zs = ["z%d" % q for q in positions]
        if len(zs) == 1:
            emit(depth, "v = %s" % zs[0])
            return "1"
        emit(depth, "v = max(%s)" % ", ".join(zs))
        return " + ".join("(%s == v)" % z for z in zs)

    def ties_at_max(depth, positions):
        # how many coordinates at positions take their largest value
        if len(positions) == 2:
            return "1 + (z%d == z%d)" % tuple(positions)
        return at_max(depth, positions)

    def weigh(depth):
        # the tie sum of a vector whose only orbit coordinate at the anchor's
        # value is the anchor is 1 + its O2 ties, one more where L ties z<b>
        # (L in O2), or m_L more where L ties z<a> (L in O1).  Not both: L in
        # O1 and O2 puts b in O1, and z<b> < z<a> here
        if n - 1 in below[0]:
            at_top(depth, "z%d" % below[0][0], ties["u"])
        if n - 1 in orbit:
            at_top(depth, anchor, ties["u"], below[orbit.index(n - 1)])
        add(depth, ties["u"])

    def weigh_ties(depth):
        # some later orbit coordinate ties the anchor: k is the index of the
        # last coordinates below L, j what L adds where it ties too, and a last
        # coordinate that can pass the others of some O2(c) is split
        emit(depth, "k = %s" % ties["u"])
        emit(depth, "j = 0")
        prefix = ", ".join("z%d" % q for q in range(n - 1))
        for c, o2 in zip(orbit[1:], below[1:]):
            if c == n - 1:
                continue
            emit(depth, "if z%d == %s:" % (c, anchor))
            if n - 1 not in o2:
                emit(depth + 1, "k += %s" % ties_at_max(depth + 1, o2))
                continue
            count = at_max(depth + 1, [q for q in o2 if q != n - 1])
            emit(depth + 1, "if v < L:")
            emit(depth + 2, "split(tally, (%s,), L, %s)" % (prefix, terms if any(closes) else "[(1, 1)]"))
            emit(depth + 2, "continue")
            emit(depth + 1, "if v == L: j += 1")
            emit(depth + 1, "k += %s" % count)
        if n - 1 in below[0]:
            emit(depth, "if L == z%d: j += 1" % below[0][0])
        if n - 1 in orbit:
            emit(depth, "if L == %s:" % anchor)
            emit(depth + 1, "j += %s" % ties_at_max(depth + 1, below[orbit.index(n - 1)]))
        emit(depth, "if j%s:" % (" and gcd(L, %s) == 1" % rad if any(closes) else ""))
        emit(depth + 1, "tally[k] -= 1")
        emit(depth + 1, "tally[k + j] += 1")
        add(depth, "k")

    if count:
        start("def kernel(top, extend, sums, room):")
        emit(1, "tally, visits = [0] * %d, 0" % math.prod(map(len, chain[:2])))
        if any(closes):
            emit(1, "t, r = [(1, 1)], 1")
        terms, rad = "t", "r"
        # the name of each level's tie count so far: e<i> for O1, u<i> for O2
        ties = {"e": "0", "u": "0"}
        depth = 1
        for i in range(n - 1):
            leaf = i == n - 2
            if avoids[i]:
                emit(depth, "g%d = %s" % (i, " * ".join(gcd(c) for c in avoids[i])))
            cap(depth, i)
            if leaf:
                fixed, moving = leaf_caps(depth, i, n - 1)
                if not avoids[i]:
                    emit(depth, "visits += L%d" % i)
                for level, name in zip(chain[:2], "eu"):
                    if i in level[1:]:
                        emit(depth, "%s%d = %s" % (name, i, ties[name]))
            emit(depth, "for z%d in range(1, L%d + 1):" % (i, i))
            depth += 1
            if avoids[i]:
                emit(depth, "if g%d > 1 and gcd(z%d, g%d) > 1:" % (i, i, i))
                emit(depth + 1, "continue")
                if leaf:
                    emit(depth, "visits += 1")
            if closes[i]:
                emit(depth, "t%d, r%d = %s, %s" % (i, i, terms, rad))
                terms, rad = "t%d" % i, "r%d" % i
                for c in closes[i]:
                    emit(depth, "g = %s" % gcd(c))
                    emit(depth, "if g > 1:")
                    emit(depth + 1, "%s, %s = extend(%s, %s, g)" % (terms, rad, terms, rad))
            # e<i> counts the later O1 coordinates through i equal to z<a>,
            # u<i> the later O2 coordinates equal to z<b>
            for level, name in zip(chain[:2], "eu"):
                if i not in level[1:]:
                    continue
                # at the leaf, z<i> <= the anchor ties with it at the loop's last z alone
                tie = "z%d == z%d" % (i, level[0])
                if leaf:
                    emit(depth, "if %s: %s%d = %s + 1" % (tie, name, i, ties[name]))
                else:
                    # "0 + " makes the first tie count an int: CPython's fast list index takes no bool
                    emit(depth, "%s%d = %s + (%s)" % (name, i, ties[name], tie))
                ties[name] = "%s%d" % (name, i)
            if not leaf:
                divide(depth, i, set().union(*forms[i + 1 :]))
                continue
            least(depth, "L", fixed + [(over(x, "z%d" % i, b), a) for x, a, b in moving])
            if len(chain) > 1:
                emit(depth, "if %s:" % ties["e"])
                weigh_ties(depth + 1)
                emit(depth + 1, "continue")
                weigh(depth)
                continue
            if n - 1 in anchored:
                at_top(depth, anchor, ties["e"])
            add(depth, ties["e"])
        emit(1, "return tally, visits")

    start("def bound(top, limit):")
    emit(1, "steps = 0")
    depth = 1
    for i in range(n - 3):
        emit(depth, "total%d = 0" % i)
        cap(depth, i)
        emit(depth, "for z%d in range(1, L%d + 1):" % (i, i))
        depth += 1
        emit(depth, "steps += 1")
        divide(depth, i, set().union(*forms[i + 1 : n - 1]))
    if n == 2:
        # a single prefix position: its cap is the bound
        least(depth, "total0", [(rem[s], a) for s, a in caps[0]])
    else:
        i = n - 3
        cap(depth, i)
        fixed, moving = leaf_caps(depth, i, i + 1)
        emit(depth, "total%d = 0" % i)
        emit(depth, "z = 1")
        emit(depth, "while z <= L%d:" % i)
        emit(depth + 1, "steps += 1")
        least(depth + 1, "h", fixed + [(over(x, "z", b), a) for x, a, b in moving])
        ends = [("L%d" % i, 1)] + [(over(x, "h", a), b) for x, a, b in moving]
        if ("z%d" % i, 1) in anchored.get(i + 1, ()):
            # z<i + 1> <= z as well: a z below h is a block of its own, of value z
            emit(depth + 1, "if z < h:")
            emit(depth + 2, "h = end = z")
            emit(depth + 1, "else:")
            least(depth + 2, "end", ends)
        else:
            least(depth + 1, "end", ends)
        emit(depth + 1, "w = h * (end - z + 1)")
        emit(depth + 1, "if total%d + w > limit:" % i)
        emit(depth + 2, "total%d += h * ((limit - total%d) // h + 1)" % (i, i))
        emit(depth + 2, "break")
        emit(depth + 1, "total%d += w" % i)
        emit(depth + 1, "z = end + 1")
    for i in reversed(range(n - 3)):
        emit(depth, "total%d += total%d" % (i, i + 1))
        emit(depth, "if total%d > limit:" % i)
        emit(depth + 1, "break")
        depth -= 1
    emit(1, "return total0, steps")
    return "\n".join(lines) + "\n"


def _leaf_split(chain, tally, prefix, L, terms):
    """Tally the last coordinates x <= L after prefix that avoid terms' primes, by tie sum.

    The kernel calls it where the last coordinate, in some O2(c) of a tied
    c, can pass that set's other coordinates.  A tie sum changes only where
    x meets a prefix coordinate, so each stretch between two of those
    values is counted at once, by the Moebius sums over terms.
    """
    orbit, below = chain[0], chain[1:]

    def tie_sum(x):
        zs = prefix + (x,)
        total = 0
        for c, o2 in zip(orbit, below):
            if zs[c] == zs[orbit[0]]:
                values = [zs[q] for q in o2]
                total += values.count(max(values))
        return total

    def avoiding(x):
        return sum(mu * (x // d) for d, mu in terms)

    lo = 1
    for v in sorted({z for z in prefix if z <= L}) + [L + 1]:
        if lo < v:
            tally[tie_sum(lo) - 1] += avoiding(v - 1) - avoiding(lo - 1)
        if v <= L:
            tally[tie_sum(v) - 1] += avoiding(v) - avoiding(v - 1)
        lo = v + 1


@lru_cache(maxsize=None)
def _torsor_kernel(plan, count=True):
    """(kernel, bound) of the plan, compiled as one module once per plan.

    See _kernel_source.  _torsor_plan ranks its candidates through
    _torsor_kernel.__wrapped__ with count false (_bound_only), which
    compiles the bound alone and returns None for the kernel, so only the
    plans the counters run stay in this cache.
    """
    namespace = {"gcd": math.gcd, "isqrt": math.isqrt, "iroot": iroot, "split": partial(_leaf_split, plan.chain)}
    exec(compile(_kernel_source(plan, count), "<torsor kernel>", "exec"), namespace)
    # popped, so no cycle through their globals outlives the last reference
    return namespace.pop("kernel", None), namespace.pop("bound")


# ---------------------------------------------------------------------------
# routing


@lru_cache(maxsize=None)
def _counter(fan, strategy):
    """("sieve", its id), ("torsor", its plan) or ("naive", None) for the fan.

    Decided once per (fan, strategy).  A refusal raises on every call, as
    lru_cache keeps no exception: an unknown strategy, an invalid or
    nonsplit fan, and a "specialized" fan with no sieve.
    """
    if strategy not in STRATEGIES:
        raise ValueError("unknown strategy %r" % strategy)
    # the sieves match rays alone, so they would count a nonsplit torus as split
    fan.require_split("counting")
    sid = None if strategy == "naive" else specialized_id_for(fan)
    if sid is not None:
        return "sieve", sid
    if strategy == "specialized":
        raise ValueError("fan is not registered for specialized counting")
    plan = None if strategy == "naive" else _torsor_plan(fan)
    return ("naive", None) if plan is None else ("torsor", plan)


def _route(fan, strategy, bounds, budget):
    """(counter name, N as a function of B <= top), refused up front.

    bounds are the B the caller counts and top the largest of them.  The
    name is "sieve", "torsor" or "naive" (_counter).  Each count's work
    is bounded by the scan's candidate count or the torsor's prefix bound,
    and the call is refused when those bounds, summed over the distinct
    B, pass the budget (_check_work); the function returned checks
    nothing.  The check runs on every call, before any context is read.
    The torsor's counts of every B share the plan's stored context
    (_stored_context), reused when its top is at least top and its leaf
    sums have room, and otherwise built at top.
    """
    name, choice = _counter(fan, strategy)
    if name == "sieve":
        return name, SPECIALIZED[choice]
    if name == "naive":
        _check_scan(fan, bounds, budget)
        return name, lambda B: 2**fan.dim * sum(1 for _ in _scan(fan, B))
    plan = choice
    bounds = sorted({max(math.floor(Fraction(B)), 0) for B in bounds}, reverse=True) or [0]

    def work(B, limit):
        # the product of the prefix caps bounds the walk's value: within
        # the limit, the walk could not pass it
        caps = math.prod(_prefix_caps(plan, B))
        return caps if caps <= limit else _prefix_bound(plan, B, limit)

    _check_work(bounds, budget, "torsor prefixes", work)
    context = _stored_context(plan, bounds[0])
    return name, lambda B: 2**fan.dim * _torsor_count(plan, B, context)[0]


def _check_work(bounds, budget, unit, work):
    """Refuse counts at the distinct bounds, largest first, whose work passes the budget.

    work(B, limit) bounds the work of the count at B, and grows with B; it
    may stop early with any value past limit.  No count does more than the
    top's work, so the counts are accepted at once when their number times
    the top's work is within the budget; otherwise the bounds are summed
    until the sum passes the budget.
    """
    total = 0
    for i, B in enumerate(bounds):
        total += work(B, budget - total)
        if total > budget:
            raise BudgetExceededError(total, budget, unit)
        if i == 0 and len(bounds) * total <= budget:
            return


def counter_for(fan, strategy="auto"):
    """The counter count_points runs: "sieve", "torsor" or "naive"."""
    return _counter(fan, strategy)[0]


def count_points(fan, B, strategy="auto", budget=DEFAULT_BUDGET):
    """N(B) by the requested strategy ("auto", "naive", "specialized").

    "auto" runs the registered sieve when the fan has one, the torsor
    counter when -K is nef, and the naive scan otherwise (counter_for).
    Refuses up front, with BudgetExceededError, a count over the budget.
    """
    return _route(fan, strategy, [B], budget)[1](B)


# ---------------------------------------------------------------------------
# asymptotic comparison


@dataclass
class CountReport:
    fan_id: str
    strategy: str
    schedule: list
    counts: list
    predicted: list
    ratios: list
    k: int
    theta_lo: float
    theta_hi: float
    regression: dict = field(default_factory=dict)
    provenance: list = field(default_factory=list)

    def to_csv(self):
        lines = ["B,N,predicted,ratio"]
        for b, n, p, r in zip(self.schedule, self.counts, self.predicted, self.ratios):
            lines.append("%s,%d,%.6f,%.6f" % (b, n, p, r))
        return "\n".join(lines) + "\n"

    def to_json_dict(self):
        return {
            "fan_id": self.fan_id,
            "strategy": self.strategy,
            "schedule": [str(b) for b in self.schedule],
            "counts": self.counts,
            "predicted": self.predicted,
            "ratios": [None if math.isnan(r) else r for r in self.ratios],
            "k": self.k,
            "theta": {"lo": self.theta_lo, "hi": self.theta_hi},
            "regression": self.regression,
            "provenance": self.provenance,
        }


def leading_term(k, theta, B):
    """theta / (k-1)! * B (log B)^(k-1), and 0 for B <= 1 when k >= 2.

    log B <= 0 there, and an odd power of it would predict a negative count.
    For k = 1 no logarithm is taken, so a B that underflowed to 0.0 is fine.
    """
    if k < 2:
        return theta * B
    if B <= 1:
        return 0.0
    return theta / math.factorial(k - 1) * B * math.log(B) ** (k - 1)


def fit_leading_coefficient(schedule, counts, k):
    """Two-term least squares N ~ a*B log^{k-1}B/(k-1)! + b*B log^{k-2}B.

    Returns (a, standard error of a, b).  Needs k >= 2.  The design
    matrix is built in floats; its 2x2 normal equations, the residuals
    and the variance of a are then exact in Fractions.
    """
    if k < 2:
        raise ValueError("use ratio tables for k = 1")
    xs = []
    for b in schedule:
        bf = float(b)
        lb = math.log(bf)
        x1 = bf * lb ** (k - 1) / math.factorial(k - 1)
        xs.append((Fraction(x1), Fraction(bf * lb ** (k - 2))))
    ys = [Fraction(n) for n in counts]
    s11 = sum(x1 * x1 for x1, _ in xs)
    s12 = sum(x1 * x2 for x1, x2 in xs)
    s22 = sum(x2 * x2 for _, x2 in xs)
    t1 = sum(x1 * y for (x1, _), y in zip(xs, ys))
    t2 = sum(x2 * y for (_, x2), y in zip(xs, ys))
    det = s11 * s22 - s12 * s12
    a = (s22 * t1 - s12 * t2) / det
    b = (s11 * t2 - s12 * t1) / det
    rss = sum((y - a * x1 - b * x2) ** 2 for (x1, x2), y in zip(xs, ys))
    dof = max(len(xs) - 2, 1)
    # var(a) = sigma^2 * [(X^T X)^-1]_00, and [(X^T X)^-1]_00 = s22 / det
    return float(a), math.sqrt(rss / dof * s22 / det), float(b)


def asymptotic_report(
    fan,
    schedule,
    theta_interval,
    strategy="auto",
    fan_id="",
    budget=DEFAULT_BUDGET,
    counts=None,
):
    """Counts along the schedule against theta/(k-1)! * B (log B)^(k-1).

    Any schedule gets the table, one row per entry.  Schedules with at
    least 4 distinct points B > 1 spanning two decades also get, when
    k >= 2, a two-term regression over those points, each counted once;
    shorter ones are marked as a plain table.  A zero prediction has
    ratio nan.
    """
    # both branches refuse a nonsplit fan before its theta, (None, None), is read
    if counts is None:
        schedule = sorted(schedule)
        name, count = _route(fan, strategy, schedule, budget)
        source = "counts by the %s counter (strategy %r)" % (name, strategy)
        # each distinct B once, largest first, so arith refuses an oversized
        # table before any count
        count_of = {b: count(b) for b in sorted(set(schedule), reverse=True)}
        counts = [count_of[b] for b in schedule]
    else:
        if len(counts) != len(schedule):
            raise ValueError("%d counts for %d schedule entries" % (len(counts), len(schedule)))
        fan.require_split("counting")
        source = "counts supplied by the caller"
        # each count stays with its own B as the schedule is sorted
        pairs = sorted(zip(schedule, counts))
        schedule = [b for b, _ in pairs]
        counts = [n for _, n in pairs]
        count_of = dict(pairs)
        if any(count_of[b] != n for b, n in pairs):
            raise ValueError("N(B) must take one value at each B")
    k = picard_data(fan).rank_K
    theta_lo, theta_hi = float(theta_interval[0]), float(theta_interval[1])
    theta_c = (theta_lo + theta_hi) / 2
    prev = -1
    for n in counts:
        if n < prev:
            raise ValueError("N(B) must be nondecreasing")
        prev = n
    predicted = [leading_term(k, theta_c, float(b)) for b in schedule]
    ratios = [n / p if p else float("nan") for n, p in zip(counts, predicted)]
    regression = {}
    # log B <= 0 for B <= 1, where the asymptotic model means nothing
    fit = sorted((b, n) for b, n in count_of.items() if b > 1)
    if len(fit) < 4 or Fraction(fit[-1][0]) < 100 * Fraction(fit[0][0]):
        provenance = [source, "plain table; schedule too short for a regression"]
    else:
        provenance = [source, "prediction uses the midpoint of the theta interval"]
        if len(fit) < len(count_of):
            provenance.append("rows with B <= 1 are left out of the regression")
        if k >= 2:
            a, se, b2 = fit_leading_coefficient(*zip(*fit), k)
            regression = {
                "leading": a,
                "leading_se": se,
                "secondary": b2,
                "model": "N ~ a*B*log^%d(B)/%d! + b*B*log^%d(B)"
                % (k - 1, k - 1, k - 2),
            }
    return CountReport(
        fan_id=fan_id,
        strategy=strategy,
        schedule=list(schedule),
        counts=list(counts),
        predicted=predicted,
        ratios=ratios,
        k=k,
        theta_lo=theta_lo,
        theta_hi=theta_hi,
        regression=regression,
        provenance=provenance,
    )
