"""X-functions of polyhedral cones as exact rational functions, and alpha.

The X-function of a pointed full-dimensional cone L in Z^k is the Laplace
transform of the indicator of the dual cone,

    X_L(s) = integral over L* of exp(-<s, y>) dy,

with the Haar measure normalized so the dual lattice has covolume 1.  For
polyhedral L this is a rational function: triangulate L* (one facet table
holds the boundary) and sum |det W| / prod_j <w_j, s> over the pieces.
Everything here is exact: ConeRationalFunction.evaluate takes rational
points only.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from . import dd
from .linalg import det, kernel_basis, primitive_vector, rank
from .picard import picard_data


@dataclass(frozen=True)
class PolyCone:
    """A pointed, full-dimensional, finitely generated cone in Z^k."""

    ambient_rank: int
    generators: tuple

    def __init__(self, ambient_rank, generators):
        gens = tuple(tuple(int(x) for x in g) for g in generators)
        object.__setattr__(self, "ambient_rank", int(ambient_rank))
        object.__setattr__(self, "generators", gens)
        k = self.ambient_rank
        if any(len(g) != k for g in gens):
            raise ValueError("generator of wrong dimension")
        if rank([list(g) for g in gens]) != k:
            raise ValueError("cone is not full-dimensional")
        # pointedness certificate: a strictly positive functional exists
        rays, lineality = dd.extreme_rays([list(g) for g in gens], k)
        if lineality or not rays:
            raise ValueError("cone is not pointed")
        y0 = [sum(r[i] for r in rays) for i in range(k)]
        if any(sum(gi * yi for gi, yi in zip(g, y0)) <= 0 for g in gens):
            raise ValueError("cone is not pointed (no strictly positive functional)")
        object.__setattr__(self, "_dual_rays", tuple(rays))

    def dual_generators(self):
        return self._dual_rays

    def contains_interior(self, s):
        """True if s lies strictly inside the cone (all facets positive)."""
        return all(
            sum(w[i] * s[i] for i in range(self.ambient_rank)) > 0
            for w in self._dual_rays
        )


@dataclass(frozen=True)
class ConeRationalFunction:
    """Sum of coeff / prod <form, s> terms, homogeneous of degree -k."""

    ambient_rank: int
    terms: tuple  # ((Fraction, (form, ...)), ...)

    def evaluate(self, s):
        """Exact value at a rational point where no form vanishes."""
        if not all(isinstance(x, (int, Fraction)) for x in s):
            raise TypeError("evaluate needs int or Fraction entries, got %r" % (tuple(s),))
        total = Fraction(0)
        for coeff, forms in self.terms:
            denom = 1
            for w in forms:
                value = sum(wi * si for wi, si in zip(w, s))
                if value == 0:
                    raise ZeroDivisionError(
                        "form %r vanishes at %r" % (w, tuple(s))
                    )
                denom *= value
            total += coeff / denom
        return total

    def to_json_dict(self):
        return {
            "terms": [
                {
                    "coeff": "%d/%d" % (c.numerator, c.denominator),
                    "forms": [list(w) for w in forms],
                }
                for c, forms in self.terms
            ]
        }

    @classmethod
    def from_json_dict(cls, data, ambient_rank=None):
        terms = []
        for t in data["terms"]:
            num, _, den = t["coeff"].partition("/")
            coeff = Fraction(int(num), int(den or 1))
            forms = tuple(tuple(int(x) for x in w) for w in t["forms"])
            terms.append((coeff, forms))
        k = ambient_rank if ambient_rank is not None else len(terms[0][1][0])
        return cls(k, tuple(terms))


def _facet_normal(facet, other, k):
    """Primitive u vanishing on the facet generators, positive at `other`."""
    u = kernel_basis([list(g) for g in facet])
    if len(u) != 1:
        raise ValueError("degenerate facet")
    u = primitive_vector(u[0])
    s = sum(ui * oi for ui, oi in zip(u, other))
    if s == 0:
        raise ValueError("degenerate simplex")
    if s < 0:
        u = [-x for x in u]
    return u


def triangulate(generators, k, order="lex"):
    """Placing triangulation of a pointed cone on its generator list.

    Deterministic: generators are processed in sorted order ("lex") or
    reverse sorted order ("revlex", the pulling variant used by the
    independence tests).  Returns a list of k-tuples of generators.

    The boundary is one table: facet -> [vertex off it, inward normal,
    solved on first use].  Placing pops a facet met twice (now interior);
    g's new facets contain g, so a snapshot walk sees the boundary before g.
    """
    gens = sorted(set(tuple(g) for g in generators))
    if order == "revlex":
        gens = gens[::-1]
    elif order != "lex":
        raise ValueError("unknown order %r" % order)

    seed, rest = [], []
    for g in gens:
        if len(seed) < k and rank([list(x) for x in seed + [g]]) > len(seed):
            seed.append(g)
        else:
            rest.append(g)
    if len(seed) < k:
        raise ValueError("generators do not span")
    boundary = {}
    simplices = []

    def place(simplex):
        simplices.append(simplex)
        for f, other in zip(combinations(simplex, k - 1), reversed(simplex)):
            if boundary.pop(frozenset(f), None) is None:
                boundary[frozenset(f)] = [other, None]

    place(tuple(seed))
    for g in rest:
        for facet, entry in list(boundary.items()):
            if entry[1] is None:
                entry[1] = _facet_normal(tuple(facet), entry[0], k)
            if sum(ui * gi for ui, gi in zip(entry[1], g)) < 0:
                place(tuple(facet) + (g,))
    return simplices


def xfunction(c: PolyCone, order="lex") -> ConeRationalFunction:
    """X_L as an exact rational function, via a triangulated dual cone.

    Each simplicial piece of the dual with primitive generator matrix W
    contributes |det W| / prod_j <w_j, s>; the determinant carries the
    lattice normalization vol(dual space / dual lattice) = 1.
    """
    k = c.ambient_rank
    duals = c.dual_generators()
    terms = []
    for simplex in triangulate(duals, k, order=order):
        w = [list(v) for v in simplex]
        terms.append((Fraction(abs(det(w))), tuple(tuple(v) for v in simplex)))
    return ConeRationalFunction(k, tuple(terms))


def alpha(fan) -> Fraction:
    """X-value of the effective cone at the anticanonical class.

    Computed in the coordinates of PL^G/M^G and divided by h = |H^1(G,M)|
    to account for the index of that lattice in the Picard lattice (the
    measure is normalized by the Picard lattice).  For split fans h = 1
    and the lattice is the Picard lattice itself.
    """
    pd = picard_data(fan)
    cone = PolyCone(pd.rank_K, pd.eff_generators_G)
    if not cone.contains_interior(pd.anticanonical_G):
        raise ValueError(
            "anticanonical class is not interior to the effective cone; "
            "alpha undefined"
        )
    return xfunction(cone).evaluate([Fraction(x) for x in pd.anticanonical_G]) / pd.h
