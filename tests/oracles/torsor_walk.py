"""The recursive walks of the universal-torsor count and its bound, kept as test oracles.

`toricount.counting._torsor_count` runs a kernel generated from the plan,
with one flat loop per prefix position, and its budget check runs a bound
generated into the same module.  These are the walks they replaced: one
recursion level per position, the remainders copied as lists and the
caps looked up at run time.  They read the same plan and walk its
positions in the same order, and follow the same two rules for the
chain.  Each level's anchor is one more cap: each later coordinate of
the level is at most the anchor's, also where the bound's leaf sums
over the anchor.  A vector counts |O1| |O2| / m for its tie
sum m (tie_sum): torsor_tally must return the kernel's tally by m and
its visits, torsor_walk the (count, visits) of _torsor_count, and
_walk_prefixes the bound's (bound, steps).
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction

from toricount.arith import iroot, smallest_prime_factors
from toricount.counting import _prefix_caps


def torsor_walk(plan, B):
    """(positive Cox vectors of height <= B, (n-1)-prefixes visited).

    The vectors counted have gcd 1 on every primitive collection: each
    vector torsor_tally walks counts |O1| |O2| / m, in Fractions.
    """
    tally, visits = torsor_tally(plan, B)
    size = math.prod(len(level) for level in plan.chain[:2])
    count = size * sum(Fraction(v, m) for m, v in tally.items())
    assert count.denominator == 1, count
    return int(count), visits


def tie_sum(chain, zs):
    """The sum of m_c over the orbit positions c whose coordinate ties the anchor's.

    chain[0] is the orbit O1, its anchor first, and chain[1 + k] the
    positions O2(c) below its k-th position c; m_c is the number of
    coordinates of O2(c) at their largest value, and 1 with one level.
    """
    orbit, below = chain[0], chain[1:]
    total = 0
    for k, c in enumerate(orbit):
        if zs[c] != zs[orbit[0]]:
            continue
        if below:
            values = [zs[j] for j in below[k]]
            total += values.count(max(values))
        else:
            total += 1
    return total


def torsor_tally(plan, B):
    """(tally, (n-1)-prefixes visited) of the vectors torsor_walk counts.

    tally[m] is the number of vectors of tie sum m (tie_sum; m = 1 for
    every vector without a chain).  With a chain, each vector's last
    coordinate is walked one by one.
    """
    tally = Counter()

    def leaf(zs, L, terms, rad):
        if not plan.chain:
            tally[1] += L if rad == 1 else sum(mu * (L // d) for d, mu in terms)
            return
        for z in range(1, L + 1):
            if math.gcd(z, rad) == 1:
                zs[-1] = z
                tally[tie_sum(plan.chain, zs)] += 1

    return tally, torsor_prefixes(plan, B, leaf)


def _anchors(plan):
    """{position: the anchors that cap it}, over the chain's levels."""
    out = {}
    for level in plan.chain[:2]:
        for j in level[1:]:
            out.setdefault(j, []).append(level[0])
    return out


def torsor_prefixes(plan, B, leaf):
    """The (n-1)-prefixes visited, each handed to leaf(zs, L, terms, rad).

    zs holds the coordinates by position, the last one free, and L is the
    last coordinate's cap.  R[s] is what is left of top = floor(B) for
    form s once the prefix's partial product is divided out, so the next
    coordinate z obeys z^a <= R[s].  terms holds (d, mu(d)) for the
    squarefree products d of the primes the last coordinate must avoid
    (rad is their product), so the last coordinate contributes sum mu(d)
    * (L // d) for its cap L.  Each later coordinate of a chain level is
    capped by the level's anchor, the last coordinate too.
    """
    top = max(math.floor(Fraction(B)), 0)
    caps, avoids, closes = plan.caps, plan.avoids, plan.closes
    n = len(caps)
    anchors = _anchors(plan)
    spf = smallest_prime_factors(max(_prefix_caps(plan, top)))
    dmax = min(iroot(top, a) for _, a in caps[-1])
    last = _next_caps(caps, n - 2)
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
        L = min([iroot(R[s], a) for s, a in ci] + [zs[k] for k in anchors.get(i, ())])
        G = 1
        for c in avoids[i]:
            G *= math.gcd(*[zs[k] for k in c])
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
                walk(i + 1, R2, t, r)
                continue
            visits += 1
            L2 = min([iroot(R[s] // z**b, a) for s, a, b in last] + [zs[k] for k in anchors.get(n - 1, ())])
            leaf(zs, L2, t, r)

    walk(0, [top] * plan.nforms, [(1, 1)], 1)
    return visits


def _next_caps(caps, i):
    """(form, exponent a at i + 1, exponent b at i) over caps[i + 1].

    Once position i holds z, position i + 1 is capped by the least
    root(R[s] // z^b, a), with no copy of R.
    """
    at_i = dict(caps[i])
    return [(s, a, at_i.get(s, 0)) for s, a in caps[i + 1]]


def _walk_prefixes(plan, top, limit):
    """(_prefix_bound, steps taken), walking the plan's prefix positions.

    A prefix passes the caps exactly when prod_j z_j^(e_sj) <= top for
    every form s positive at some prefix position (the partial products
    only grow), so the bound does not depend on the plan's order, but
    its cost does.  The last two prefix positions form the leaf: the
    first is summed in blocks, the second counted.  Each later coordinate
    of a chain level in the prefix is capped by the level's anchor; where
    the leaf's first position anchors its second, that cap is kept as
    blocks of one z each (_leaf_sum's below_z).
    """
    caps = plan.caps[:-1]
    m = len(caps)
    anchors = _anchors(plan)
    zs = [0] * m
    # each prefix coordinate alone, the others at 1, makes this many prefixes
    single = max(_prefix_caps(plan, top))
    if m == 1 or single > limit:
        return single, 0
    leaf = _next_caps(caps, m - 2)
    steps = 0

    def walk(i, R):
        nonlocal steps
        ci = caps[i]
        L = min([iroot(R[s], a) for s, a in ci] + [zs[k] for k in anchors.get(i, ())])
        if i == m - 2:
            extra = min([zs[k] for k in anchors.get(m - 1, ()) if k < m - 2], default=math.inf)
            total, blocks = _leaf_sum(R, leaf, L, limit, extra, m - 2 in anchors.get(m - 1, ()))
            steps += blocks
            return total
        total = 0
        for z in range(1, L + 1):
            steps += 1
            zs[i] = z
            R2 = list(R)
            for s, a in ci:
                R2[s] //= z**a
            total += walk(i + 1, R2)
            if total > limit:
                break
        return total

    return walk(0, [top] * plan.nforms), steps


def _leaf_sum(R, leaf, L, limit, extra=math.inf, below_z=False):
    """(sum_{z=1..L} h(z), blocks summed), stopped past limit.

    h(z) is the least root(R[s] // z^b, a) over the leaf, and extra.  h is
    nonincreasing, so it is summed over the blocks on which it is
    constant: h(z) = v >= 1 holds on to the last z' with every cap still
    >= v, and a cap root(R[s] // z^b, a) with b > 0 stays >= v exactly
    while z^b <= R[s] // v^a (caps with b = 0 never change).  Past limit
    it stops at the value the term-by-term sum reaches at the first z
    that takes it past limit.  With below_z the leaf's second coordinate
    is also at most z, so a z below h(z) is a block of its own, of value z.
    """
    fixed = min([iroot(R[s], a) for s, a, b in leaf if not b] + [extra])
    moving = [(R[s], a, b) for s, a, b in leaf if b]
    total, z, blocks = 0, 1, 0
    while z <= L:
        blocks += 1
        v = min([fixed] + [iroot(x // z**b, a) for x, a, b in moving])
        if v == 0:
            break
        end = min([L] + [iroot(x // v**a, b) for x, a, b in moving])
        if below_z and z < v:
            v = end = z
        if total + v * (end - z + 1) > limit:
            return total + v * ((limit - total) // v + 1), blocks
        total += v * (end - z + 1)
        z = end + 1
    return total, blocks
