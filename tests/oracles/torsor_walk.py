"""The recursive walk of the universal-torsor count, kept as a test oracle.

`toricount.counting._torsor_count` runs a kernel generated from the plan,
with one flat loop per prefix position.  This is the walk it replaced:
one recursion level per position, the remainders copied as lists and the
caps looked up at run time.  It reads the same plan and must return the
same (count, visits).
"""

from __future__ import annotations

import math
from fractions import Fraction

from toricount.arith import smallest_prime_factors
from toricount.counting import _next_caps, _prefix_cap, _root


def torsor_walk(plan, B):
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
