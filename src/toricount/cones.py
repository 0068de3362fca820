"""X-functions of polyhedral cones as exact rational functions, and alpha.

The X-function of a pointed full-dimensional cone L in Z^k is the Laplace
transform of the indicator of the dual cone,

    X_L(s) = integral over L* of exp(-<s, y>) dy,

with the Haar measure normalized so the dual lattice has covolume 1.  For
polyhedral L this is a rational function: triangulate L* (one facet table
holds the boundary) and sum |det W| / prod_j <w_j, s> over the pieces.
Everything here is exact: ConeRationalFunction.evaluate takes rational
points only.

alpha needs one value of X, at -K on the effective cone, and takes it
from the Gale dual instead: the Fourier transform of the orthant,
(2 pi)^-rho * integral of prod_o 1/(1 + i<m, E_o>) dm, factors over the
connected components of the columns' matroid, and components of rank 1
and 2 are exact residue sums in integers.  Only a component of rank 3 or
more, or a rank-2 one with a repeated column, sends the fan to xfunction.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, combinations, islice
from math import gcd
from operator import mul

from . import dd
from .fan import validate_fan
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


def _horizon_normal(u, v, g, facet, other, k):
    """The normal of facet, a ridge R and g, from the normals u and v at R.

    u and v are the inward normals, not parallel, of the two boundary
    facets that meet at R, and g is below u's.  Both vanish on R, so
    w = <v, g> u - <u, g> v vanishes on R and at g, and its primitive
    part is the normal _facet_normal would solve for once it is positive
    at `other`, the vertex of u's facet off R: there <u, other> = 0, so
    <w, other> = -<u, g> <v, other> > 0, as other is above v's facet.
    Any other sign (a degenerate simplex) goes to _facet_normal.
    """
    ug, vg = _dot(u, g), _dot(v, g)
    w = [vg * a - ug * b for a, b in zip(u, v)]
    if _dot(w, other) <= 0:
        return _facet_normal(facet, other, k)
    d = gcd(*w)
    return [x // d for x in w]


def _dot(u, v):
    return sum(map(mul, u, v))


def triangulate(generators, k, order="lex"):
    """Placing triangulation of a pointed cone on its generator list.

    Deterministic: generators are processed in sorted order ("lex") or
    reverse sorted order ("revlex", the pulling variant used by the
    independence tests).  Returns a list of k-tuples of generators.

    The boundary is one table, facet -> inward normal, with an index of
    the boundary facets through each ridge.  A generator g is placed over
    every facet it is below; a new facet, a ridge R of that facet and g,
    is popped when met twice (now interior), and otherwise R is a horizon
    ridge and its normal is an integer combination of the normals of the
    two facets at R (_horizon_normal).  Only the first simplex's facets
    are solved by Smith form.  g's new facets contain g, so a snapshot
    walk sees the boundary before g.
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
    if not rest:
        return [tuple(seed)]
    boundary = {}
    ridges = {}  # ridge -> the boundary facets through it

    def add(f, normal):
        boundary[f] = normal
        for x in f:
            ridges.setdefault(f - {x}, []).append(f)

    def pop(f):
        del boundary[f]
        for x in f:
            ridges[f - {x}].remove(f)

    simplices = [tuple(seed)]
    for f, other in zip(combinations(seed, k - 1), reversed(seed)):
        add(frozenset(f), _facet_normal(f, other, k))
    for g in rest:
        for facet, u in list(boundary.items()):
            if _dot(u, g) >= 0:
                continue
            simplex = tuple(facet) + (g,)
            simplices.append(simplex)
            pop(facet)
            # the simplex's other facets: a ridge of facet and g, opposite
            # the vertex of facet off that ridge
            for f, other in islice(zip(combinations(simplex, k - 1), reversed(simplex)), 1, None):
                f = frozenset(f)
                if f in boundary:
                    pop(f)
                    continue
                across = ridges.get(f - {g}, ())
                if len(across) != 1:
                    add(f, _facet_normal(f, other, k))
                elif boundary[across[0]] == u:
                    # the facet across is coplanar, so also below g: its
                    # simplex pops f later in this walk, and f needs no normal
                    add(f, None)
                else:
                    add(f, _horizon_normal(u, boundary[across[0]], g, f, other, k))
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

    The X-value is the Fourier integral of prod_o 1/(1 + i<m, E_o>) over
    the Gale dual columns E_o (PicardData.gale_dual).  It is the product
    over the connected components of their matroid, each evaluated by
    exact residues when its rank is 1, or 2 with distinct columns.  Any
    other component sends the whole fan to xfunction of the effective
    cone.  A component that does not positively span its span (a cone
    that is not pointed) raises ValueError on either route, as does a fan
    that fails validate_fan.
    """
    validate_fan(fan).require()
    pd = picard_data(fan)
    blocks = _gale_blocks(pd.gale_dual)
    # -K is the sum of the generators, so interior once the cone is pointed,
    # which _block_value's sign checks decide
    if all(len(b[0]) == 1 or (len(b[0]) == 2 and len(set(b)) == len(b)) for b in blocks):
        value = Fraction(1)
        for block in blocks:
            value *= _block_value(block)
        return value / pd.h
    cone = PolyCone(pd.rank_K, pd.eff_generators_G)
    if not cone.contains_interior(pd.anticanonical_G):
        raise ValueError(
            "anticanonical class is not interior to the effective cone; "
            "alpha undefined"
        )
    return xfunction(cone).evaluate([Fraction(x) for x in pd.anticanonical_G]) / pd.h


def _gale_blocks(columns):
    """The connected components of the columns' matroid, as integer blocks.

    Integer Gauss-Jordan leaves each pivot row zero on the other pivot
    columns, so column c is in the fundamental circuit of pivot row i
    exactly when row i is nonzero at c; rows sharing a column form one
    component.  A block is its component's pivot rows restricted to the
    columns nonzero there: full row rank, and the same integer relations
    as those columns.  Zero columns (loops, factor 1) are left out.
    """
    rows = [list(r) for r in zip(*columns)]
    pivots = []
    for c in range(len(columns)):
        i = next((i for i in range(len(rows)) if rows[i][c] and i not in pivots), None)
        if i is None:
            continue
        pivots.append(i)
        for k, row in enumerate(rows):
            if k != i and row[c]:
                new = [rows[i][c] * x - row[c] * y for x, y in zip(row, rows[i])]
                g = gcd(*new) or 1
                rows[k] = [x // g for x in new]
    comps = []
    for c in range(len(columns)):
        hit = {i for i in pivots if rows[i][c]}
        for comp in [comp for comp in comps if comp & hit]:
            comps.remove(comp)
            hit |= comp
        if hit:
            comps.append(hit)
    blocks = []
    for comp in comps:
        members = sorted(comp)
        block = (tuple(rows[i][c] for i in members) for c in range(len(columns)))
        blocks.append(tuple(col for col in block if any(col)))
    return blocks


def _block_value(cols):
    """g * (2 pi)^-rho * integral over R^rho of prod_k 1/(1 + i<m, col_k>), rho <= 2.

    g, the gcd of the rho x rho minors, is the index of the lattice the
    columns span, so this is the block's X-value normalized by its
    relation lattice.  Rank 1 is one residue sum in u = i*m.  Rank 2
    takes residues in m1 at the poles with a_j > 0, then in u = i*m2 on
    the line Im m2 > 0, which leaves the cancelling poles at u = 0 out:

        sum_{a_j > 0} a_j^(n-2) sum_{u0 < 0} Res_{u0} prod_{k != j} 1/((a_j - a_k) + c_jk u)

    with c_jk = a_j b_k - a_k b_j.  The sign checks are that the columns
    positively span R^rho.
    """
    if len(cols[0]) == 1:
        a = [x for (x,) in cols]
        if not min(a) < 0 < max(a):
            raise ValueError("effective cone is not pointed; alpha undefined")
        return gcd(*a) * _left_residues([(1, x) for x in a])
    c = [[aj * bk - ak * bj for ak, bk in cols] for aj, bj in cols]
    if not all(min(row) < 0 < max(row) for row in c):
        raise ValueError("effective cone is not pointed; alpha undefined")
    n = len(cols)
    total = Fraction(0)
    for j, ((aj, _), row) in enumerate(zip(cols, c)):
        if aj > 0:
            factors = [(aj - ak, cjk) for k, ((ak, _), cjk) in enumerate(zip(cols, row)) if k != j]
            total += aj ** (n - 2) * _left_residues(factors)
    return gcd(*chain.from_iterable(c)) * total


def _left_residues(factors):
    """Sum over the poles u0 < 0 of the residues of prod 1/(a + c*u), exactly.

    factors are integer pairs (a, c).  At u0 = p/q, with t = u - u0, the m
    factors with that pole read c*t and the others (b + c*q*t)/q with
    b = a*q + c*p != 0.  The residue is the coefficient of t^(m-1) in the
    product of the others over prod c: a Taylor series kept in integers,
    coefficient i over den^i where den is the product of the b so far.
    """
    poles = {(-abs(a) // g, abs(c) // g) for a, c in factors if a * c > 0 for g in (gcd(a, c),)}
    total = Fraction(0)
    for p, q in poles:
        lead, rest = 1, []
        for a, c in factors:
            b = a * q + c * p
            if b:
                rest.append((b, c))
            else:
                lead *= c
        m = len(factors) - len(rest)
        series, den = [1] + [0] * (m - 1), 1
        for b, c in rest:
            for i in range(1, m):
                series[i] = series[i] * b**i - c * q * den * series[i - 1]
            den *= b
        total += Fraction(q ** len(rest) * series[-1], lead * den**m)
    return total
