"""X-functions of polyhedral cones as exact rational functions, and alpha.

The X-function of a pointed full-dimensional cone L in Z^k is the Laplace
transform of the indicator of the dual cone,

    X_L(s) = integral over L* of exp(-<s, y>) dy,

with the Haar measure normalized so the dual lattice has covolume 1.  For
polyhedral L this is a rational function: triangulate L* and sum
|det W| / prod_j <w_j, s> over the simplicial pieces.  Everything here is
exact; floats appear only in the quadrature cross-checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import dd
from .linalg import (
    det,
    kernel_basis,
    mat_vec,
    primitive_vector,
    quotient_map,
    rank,
)
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
        rays, lineality = dd.extreme_rays(
            [list(g) for g in gens], k, allow_lineality=True
        )
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


def dual_cone(c: PolyCone) -> PolyCone:
    """The dual cone {y : <x, y> >= 0 for all x in c}, by double description."""
    return PolyCone(c.ambient_rank, c.dual_generators())


@dataclass(frozen=True)
class ConeRationalFunction:
    """Sum of coeff / prod <form, s> terms, homogeneous of degree -k."""

    ambient_rank: int
    terms: tuple  # ((Fraction, (form, ...)), ...)

    def evaluate(self, s):
        """Exact value at a rational interior point, complex allowed."""
        rational = all(isinstance(x, (int, Fraction)) for x in s)
        total = Fraction(0) if rational else 0j
        for coeff, forms in self.terms:
            denom = Fraction(1) if rational else complex(1)
            for w in forms:
                value = sum(wi * si for wi, si in zip(w, s))
                if value == 0:
                    raise ZeroDivisionError(
                        "form %r vanishes at %r" % (w, tuple(s))
                    )
                denom *= value
            total += coeff / denom if rational else complex(coeff) / denom
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
    """
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

    from itertools import combinations

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


def _quotient_cone(c: PolyCone, gammas):
    """(image cone, projection) modulo the sublattice spanned by gammas."""
    k = c.ambient_rank
    project, _, torsion = quotient_map([list(g) for g in gammas], k)
    if torsion:
        raise ValueError("quotient directions span a non-saturated sublattice")
    pm = [list(p) for p in project]
    images = [mat_vec(pm, list(g)) for g in c.generators]
    images = [g for g in images if any(g)]
    image = PolyCone(len(project), images)
    return image, pm


def _contour_tail_constant(xf, s, gamma):
    """(C, q_min) with |X(s + iy*gamma)| <= C / y^{q_min} for all y > 0."""
    worst_q = None
    total = Fraction(0)
    per_term = []
    for coeff, forms in xf.terms:
        q = 0
        const = Fraction(coeff)
        for w in forms:
            wg = sum(wi * gi for wi, gi in zip(w, gamma))
            if wg:
                q += 1
                const /= abs(wg)
            else:
                ws = sum(wi * si for wi, si in zip(w, s))
                const /= ws
        per_term.append((const, q))
        worst_q = q if worst_q is None else min(worst_q, q)
    return per_term, worst_q


def descent_check(c: PolyCone, gamma, s, tol=1e-8):
    """|numeric contour integral - exact X of the quotient cone|.

    Checks X_{L/gamma}(psi(s)) = (1/2pi) * integral of X_L(s + iy*gamma) dy
    by adaptive quadrature on [-T, T], with T chosen so the certified tail
    of the 1/y^2 decay is below `tol`.
    """
    from scipy.integrate import quad

    gamma = [int(x) for x in gamma]
    if all(x == 0 for x in gamma):
        raise ValueError("gamma must be nonzero")
    if gamma != primitive_vector(gamma):
        raise ValueError("gamma must be primitive")
    s = [Fraction(x) for x in s]
    if not c.contains_interior(s):
        raise ValueError("s must be interior to the cone")

    image, pm = _quotient_cone(c, [gamma])
    psi_s = mat_vec(pm, s)
    exact = xfunction(image).evaluate(psi_s)

    xf = xfunction(c)
    per_term, worst_q = _contour_tail_constant(xf, s, gamma)
    if worst_q < 2:
        raise ValueError(
            "cannot certify the contour tail: some term decays like 1/y^%d"
            % worst_q
        )
    T = 1.0
    while True:
        tail = sum(
            float(const) * T ** (1 - q) / (q - 1) for const, q in per_term
        )
        if tail / 3.141592653589793 < tol:
            break
        T *= 2.0
        if T > 1e12:
            raise ValueError("tail refuses to certify; partial T=%g" % T)

    sf = [float(x) for x in s]
    gf = [float(x) for x in gamma]

    def integrand(y):
        point = [sv + 1j * y * gv for sv, gv in zip(sf, gf)]
        return xf.evaluate(point).real

    # the real part is even in y; log-spaced breakpoints keep the adaptive
    # rule from overlooking the central peak on the huge certified interval
    breaks = [0.0]
    b = 1.0
    while b < T:
        breaks.append(b)
        b *= 10.0
    value, _err = quad(
        integrand, 0.0, T, limit=800, points=breaks, epsabs=1e-11, epsrel=1e-11
    )
    numeric = 2.0 * value / (2 * 3.141592653589793)
    return abs(numeric - float(exact))


def descent_check_double(c: PolyCone, gamma1, gamma2, s):
    """Two nested 1-D quadratures against the exact rank-2 quotient."""
    from scipy.integrate import quad

    g1 = [int(x) for x in gamma1]
    g2 = [int(x) for x in gamma2]
    s = [Fraction(x) for x in s]
    image, pm = _quotient_cone(c, [g1, g2])
    psi_s = mat_vec(pm, s)
    exact = xfunction(image).evaluate(psi_s)

    xf = xfunction(c)
    sf = [float(x) for x in s]

    def x_at(y1, y2):
        point = [
            sv + 1j * (y1 * a + y2 * b) for sv, a, b in zip(sf, g1, g2)
        ]
        return xf.evaluate(point)

    # the full double integral is real by conjugate symmetry, so only the
    # real part needs integrating; it is also even in (y1, y2) -> (-y1, -y2),
    # so the outer integral runs over [0, inf) and is doubled
    def inner_real(y1):
        val, _ = quad(
            lambda y2: x_at(y1, y2).real,
            float("-inf"),
            float("inf"),
            limit=200,
            epsabs=1e-10,
        )
        return val

    outer, _ = quad(inner_real, 0.0, float("inf"), limit=200, epsabs=1e-10)
    numeric = 2.0 * outer / (2 * 3.141592653589793) ** 2
    return abs(numeric - float(exact))
