"""Exact point counts of bounded anticanonical height, and asymptotics.

count_points routes strategy "auto" to the first counter that applies:
the closed-form sieve of a registered fan (p1, p2, p1xp1), then the
universal-torsor counter for a split fan whose anticanonical class is
nef, then the naive scan.  "naive" always runs the scan, which stays the
oracle of the other two; "specialized" runs a sieve or refuses.  Every
public entry refuses a nonsplit fan first (Fan.require_split).

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
of the other n - 1 coordinates.  Non-nef fans (such as F_3) have
negative exponents and no such caps: they stay on the naive scan.

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
(candidate_estimate), and the torsor's prefixes are bounded by the same
recursion without the gcd pruning.  Both grow with B, so a schedule is
checked once, at its largest B.  arith refuses every table past
arith.SIEVE_CAP entries as it allocates it (a sieve's, the torsor's
smallest prime factors, the scan's totients), and a schedule is counted
from its largest B down, so that refusal also comes before any smaller B
is counted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, permutations
from itertools import product as iter_product
from operator import mul

from .arith import (
    BudgetExceededError,
    euler_phi_table,
    iroot,
    mobius_table,
    smallest_prime_factors,
)
from .fan import cone_pieces, primitive_collections
from .heights import HeightEvaluator, TorusPoint
from .picard import anticanonical, picard_data

DEFAULT_BUDGET = 50_000_000


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


def _check_scan(fan, B, budget):
    """Refuse a scan whose exact candidate count exceeds the budget."""
    if Fraction(B) < 1:
        return
    estimate = candidate_estimate(fan, B)
    if estimate > budget:
        raise BudgetExceededError(estimate, budget, "scan candidates")


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
    _check_scan(fan, B, budget)
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


@dataclass(frozen=True)
class _TorsorPlan:
    """The Cox-coordinate recursion of one nef split fan.

    Positions take the rays in index order, except that the ray counted
    in closed form comes last.  caps[i] holds the (form, exponent) pairs
    with a positive exponent at that ray.  Each primitive collection is
    listed once, as the positions of its other members, at the position
    where its gcd is known: in avoids[i] when it ends at i < n - 1 (the
    coordinate set there must avoid that gcd's primes), in closes[i] when
    it ends at the last position and its other members end at i (their
    gcd's primes are then excluded from the last coordinate).
    """

    caps: tuple
    avoids: tuple
    closes: tuple
    nforms: int
    walk: tuple  # the order in which _prefix_bound walks positions 0..n-2


def _root(x, a):
    return x if a == 1 else math.isqrt(x) if a == 2 else iroot(x, a)


def _plan(fan, exps, last):
    n = fan.nrays
    order = tuple(j for j in range(n) if j != last) + (last,)
    pos = {j: i for i, j in enumerate(order)}
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
        walk=tuple(range(n - 1)),
    )


@lru_cache(maxsize=None)
def _torsor_plan(fan):
    """The torsor plan of a split fan with convex phi_Sigma, else None.

    Only the choice of the closed-form coordinate changes how many
    prefixes the count visits (the caps and gcd conditions on the other
    coordinates do not depend on their order), so each choice is ranked
    by its prefix bound at a small reference B and the least is kept.
    The bound's walk then takes the leaf pair of positions with which it
    takes the fewest steps at that B (at 10^5 it runs 2.3-10x faster on
    dp6, dp7 and the cube than in index order); its value does not depend
    on the order.
    """
    forms, convex = _anticanonical_forms(fan)
    if not convex:
        return None
    exps = [[1 - sum(map(mul, m, r)) for r in fan.rays] for m in forms]
    plans = [_plan(fan, exps, last) for last in range(fan.nrays)]
    plan = min(plans, key=lambda p: _prefix_bound(p, _PLAN_REFERENCE_B, math.inf))
    m = fan.nrays - 1
    orders = [
        tuple(k for k in range(m) if k not in (i, j)) + (i, j)
        for i, j in permutations(range(m), 2)
    ]
    return replace(plan, walk=min(
        orders or [plan.walk],
        key=lambda o: _walk_prefixes(plan, o, _PLAN_REFERENCE_B, math.inf)[1],
    ))


def _next_caps(caps, i):
    """(form, exponent a at i + 1, exponent b at i) over caps[i + 1].

    Once position i holds z, position i + 1 is capped by the least
    root(R[s] // z^b, a), with no copy of R.
    """
    at_i = dict(caps[i])
    return [(s, a, at_i.get(s, 0)) for s, a in caps[i + 1]]


def _prefix_cap(plan, top):
    """The largest value any of the first n - 1 coordinates can take."""
    return max(min(_root(top, a) for _, a in ci) for ci in plan.caps[:-1])


def _prefix_bound(plan, top, limit):
    """The (n-1)-prefixes under the height caps at B = top, gcds ignored.

    The recursion of _torsor_count without its gcd pruning, and with the
    last prefix coordinate counted rather than walked, so it bounds the
    prefixes the count visits at a fraction of its cost.  Each level stops
    once its own total passes limit.
    """
    return _walk_prefixes(plan, plan.walk, top, limit)[0]


def _walk_prefixes(plan, order, top, limit):
    """(_prefix_bound, steps taken), walking the prefix positions in order.

    A prefix passes the caps exactly when prod_j z_j^(e_sj) <= top for
    every form s positive at some prefix position (the partial products
    only grow), so the bound does not depend on the order, but its cost
    does.  The last two positions of the order form the leaf: the first
    is summed in blocks, the second counted.
    """
    caps = [plan.caps[k] for k in order]
    m = len(caps)
    # each prefix coordinate alone, the others at 1, makes this many prefixes
    single = _prefix_cap(plan, top)
    if m == 1 or single > limit:
        return single, 0
    leaf = _next_caps(caps, m - 2)
    steps = 0

    def walk(i, R):
        nonlocal steps
        ci = caps[i]
        L = min([_root(R[s], a) for s, a in ci])
        if i == m - 2:
            total, blocks = _leaf_sum(R, leaf, L, limit)
            steps += blocks
            return total
        total = 0
        for z in range(1, L + 1):
            steps += 1
            R2 = list(R)
            for s, a in ci:
                R2[s] //= z**a
            total += walk(i + 1, R2)
            if total > limit:
                break
        return total

    return walk(0, [top] * plan.nforms), steps


def _leaf_sum(R, leaf, L, limit):
    """(sum_{z=1..L} h(z), blocks summed), stopped past limit.

    h(z) is the least root(R[s] // z^b, a) over the leaf.  h is
    nonincreasing, so it is summed over the blocks on which it is
    constant: h(z) = v >= 1 holds on to the last z' with every cap still
    >= v, and a cap root(R[s] // z^b, a) with b > 0 stays >= v exactly
    while z^b <= R[s] // v^a (caps with b = 0 never change).  Past limit
    it stops at the value the term-by-term sum reaches at the first z
    that takes it past limit.
    """
    fixed = min([_root(R[s], a) for s, a, b in leaf if not b], default=math.inf)
    moving = [(R[s], a, b) for s, a, b in leaf if b]
    total, z, blocks = 0, 1, 0
    while z <= L:
        blocks += 1
        v = min([fixed] + [_root(x // z**b, a) for x, a, b in moving])
        if v == 0:
            break
        end = min([L] + [_root(x // v**a, b) for x, a, b in moving])
        if total + v * (end - z + 1) > limit:
            return total + v * ((limit - total) // v + 1), blocks
        total += v * (end - z + 1)
        z = end + 1
    return total, blocks


def _torsor_count(plan, B):
    """(positive Cox vectors of height <= B, (n-1)-prefixes visited).

    The vectors counted have gcd 1 on every primitive collection.  R[s]
    is what is left of top = floor(B) for form s once the prefix's partial product
    is divided out, so the next coordinate z obeys z^a <= R[s].  terms
    holds (d, mu(d)) for the squarefree products d of the primes the last
    coordinate must avoid (rad is their product), so the last coordinate
    contributes sum mu(d) * (L // d) for its cap L.
    """
    top = max(math.floor(Fraction(B)), 0)
    caps, avoids, closes = plan.caps, plan.avoids, plan.closes
    n = len(caps)
    spf = smallest_prime_factors(_prefix_cap(plan, top))
    dmax = min(_root(top, a) for _, a in caps[-1])
    leaf = _next_caps(caps, n - 2)
    radicals = {}
    zs = [0] * n
    visits = 0

    def primes_of(g):
        ps = radicals.get(g)
        if ps is None:
            ps, m = [], g
            while m > 1:
                p = spf[m]
                ps.append(p)
                while m % p == 0:
                    m //= p
            radicals[g] = ps
        return ps

    def walk(i, R, terms, rad):
        nonlocal visits
        ci = caps[i]
        L = min([_root(R[s], a) for s, a in ci])
        G = 1
        for c in avoids[i]:
            G *= math.gcd(*[zs[k] for k in c])
        total = 0
        for z in range(1, L + 1):
            if G > 1 and math.gcd(z, G) > 1:
                continue
            zs[i] = z
            t, r = terms, rad
            for c in closes[i]:
                for p in primes_of(math.gcd(*[zs[k] for k in c])):
                    if r % p:
                        r *= p
                        t = t + [(d * p, -mu) for d, mu in t if d * p <= dmax]
            if i < n - 2:
                R2 = list(R)
                for s, a in ci:
                    R2[s] //= z**a
                total += walk(i + 1, R2, t, r)
                continue
            visits += 1
            L2 = min([_root(R[s] // z**b, a) for s, a, b in leaf])
            total += L2 if r == 1 else sum(mu * (L2 // d) for d, mu in t)
        return total

    return walk(0, [top] * plan.nforms, [(1, 1)], 1), visits


# ---------------------------------------------------------------------------
# routing

STRATEGIES = ("auto", "naive", "specialized")


def _route(fan, strategy, top, budget):
    """(counter name, N as a function of B <= top), refused up front at top.

    The name is "sieve", "torsor" or "naive", as counter_for reports it.
    The torsor's prefix bound and the scan's candidate count grow with B,
    so the one check at top covers every smaller B, and the function
    returned checks nothing.
    """
    if strategy not in STRATEGIES:
        raise ValueError("unknown strategy %r" % strategy)
    # the sieves match rays alone, so they would count a nonsplit torus as split
    fan.require_split("counting")
    sid = None if strategy == "naive" else specialized_id_for(fan)
    if sid is not None:
        return "sieve", SPECIALIZED[sid]
    if strategy == "specialized":
        raise ValueError("fan is not registered for specialized counting")
    plan = None if strategy == "naive" else _torsor_plan(fan)
    if plan is None:
        _check_scan(fan, top, budget)
        return "naive", lambda B: 2**fan.dim * sum(1 for _ in _scan(fan, B))
    bound = _prefix_bound(plan, max(math.floor(Fraction(top)), 0), budget)
    if bound > budget:
        raise BudgetExceededError(bound, budget, "torsor prefixes")
    return "torsor", lambda B: 2**fan.dim * _torsor_count(plan, B)[0]


def counter_for(fan, strategy="auto"):
    """The counter count_points runs: "sieve", "torsor" or "naive"."""
    # nothing is counted at B = 0, so no budget applies
    return _route(fan, strategy, 0, 0)[0]


def count_points(fan, B, strategy="auto", budget=DEFAULT_BUDGET):
    """N(B) by the requested strategy ("auto", "naive", "specialized").

    "auto" runs the registered sieve when the fan has one, the torsor
    counter when -K is nef, and the naive scan otherwise (counter_for).
    Refuses up front, with BudgetExceededError, a count over the budget.
    """
    return _route(fan, strategy, B, budget)[1](B)


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

    Any schedule gets the table.  Schedules with at least 4 points B > 1
    spanning two decades also get, when k >= 2, a two-term regression
    over those points; shorter ones are marked as a plain table.  A zero
    prediction has ratio nan.
    """
    schedule = sorted(schedule)
    # both branches refuse a nonsplit fan before its theta, (None, None), is read
    if counts is None:
        name, count = _route(fan, strategy, max(schedule, default=0), budget)
        source = "counts by the %s counter (strategy %r)" % (name, strategy)
        # largest B first, so arith refuses an oversized table before any count
        counts = [count(b) for b in reversed(schedule)][::-1]
    else:
        fan.require_split("counting")
        source = "counts supplied by the caller"
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
    fit = [(b, n) for b, n in zip(schedule, counts) if b > 1]
    if len(fit) < 4 or Fraction(fit[-1][0]) < 100 * Fraction(fit[0][0]):
        provenance = [source, "plain table; schedule too short for a regression"]
    else:
        provenance = [source, "prediction uses the midpoint of the theta interval"]
        if len(fit) < len(schedule):
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
