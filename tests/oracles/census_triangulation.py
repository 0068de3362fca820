"""Placing triangulation that recounts every facet for each new generator.

The reference for `cones.triangulate`, which keeps the boundary in one
table instead.  Before each generator g it rebuilds the facet census of
all simplices placed so far; a facet owned by one simplex is on the
boundary, and g is joined to each boundary facet whose inward normal is
negative at g.  Same seed, order and output as `cones.triangulate`.
"""

from __future__ import annotations

from itertools import combinations

from toricount.cones import _facet_normal
from toricount.linalg import rank


def census_triangulate(generators, k, order="lex"):
    gens = sorted(set(tuple(g) for g in generators))
    if order == "revlex":
        gens = gens[::-1]
    elif order != "lex":
        raise ValueError("unknown order %r" % order)

    seed = []
    rest = []
    for g in gens:
        if len(seed) < k and rank([list(x) for x in seed + [g]]) > len(seed):
            seed.append(g)
        else:
            rest.append(g)
    if len(seed) < k:
        raise ValueError("generators do not span")
    simplices = [tuple(seed)]

    for g in rest:
        facet_count = {}
        for s in simplices:
            for f in combinations(s, k - 1):
                key = frozenset(f)
                facet_count.setdefault(key, []).append(s)
        new = []
        for key, owners in facet_count.items():
            if len(owners) != 1:
                continue
            s = owners[0]
            facet = tuple(key)
            other = next(x for x in s if x not in key)
            u = _facet_normal(facet, other, k)
            if sum(ui * gi for ui, gi in zip(u, g)) < 0:
                new.append(tuple(facet) + (g,))
        simplices.extend(new)
    return simplices
