"""Fans: lattice data model, validation, Galois actions, cone location.

A fan is given by its primitive ray generators and the ray-index sets of
its maximal cones; faces are derived on demand and never stored.  All
types are immutable values, safe to share between workers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import gcd
from operator import mul

from . import dd
from .linalg import det, identity, mat_mul, mat_vec, unimodular_inverse

GALOIS_GROUP_CAP = 10000


@dataclass(frozen=True)
class Fan:
    """Complete regular fan data: rays, maximal cones, optional Galois action.

    `rays` are primitive integer vectors; `max_cones` are 0-based index
    tuples; `galois` is a tuple of d x d integer matrices generating a
    finite subgroup of GL(d, Z) that permutes rays and cones.  Use
    validate_fan to check all of that; the constructor only normalizes
    shapes.
    """

    dim: int
    rays: tuple
    max_cones: tuple
    galois: tuple = ()

    def __init__(self, dim, rays, max_cones, galois=()):
        if dim < 1:
            raise ValueError("lattice rank must be >= 1")
        object.__setattr__(self, "dim", int(dim))
        object.__setattr__(
            self, "rays", tuple(tuple(int(x) for x in r) for r in rays)
        )
        object.__setattr__(
            self,
            "max_cones",
            tuple(tuple(sorted(int(i) for i in c)) for c in max_cones),
        )
        object.__setattr__(
            self,
            "galois",
            tuple(tuple(tuple(int(x) for x in row) for row in g) for g in galois),
        )
        for r in self.rays:
            if len(r) != dim:
                raise ValueError("ray %r has wrong dimension" % (r,))
        for c in self.max_cones:
            if len(set(c)) != len(c) or any(i < 0 or i >= len(self.rays) for i in c):
                raise ValueError("bad cone index set %r" % (c,))

    @property
    def nrays(self):
        return len(self.rays)

    def is_split(self):
        return not self.galois

    def all_cones(self):
        """Every cone of the fan as a sorted tuple of ray indices.

        Faces of the (simplicial) maximal cones, including the zero cone ().
        """
        return _all_cones(self)


@dataclass(frozen=True)
class OrbitDecomposition:
    """Partition of ray indices into orbits of the Galois group."""

    orbits: tuple
    lengths: tuple = field(init=False)

    def __post_init__(self):
        object.__setattr__(
            self, "lengths", tuple(len(o) for o in self.orbits)
        )

    @property
    def r(self):
        return len(self.orbits)


@dataclass
class CheckResult:
    name: str
    passed: bool
    witness: str = ""


@dataclass
class ValidationReport:
    checks: list

    @property
    def ok(self):
        return all(c.passed for c in self.checks)

    def failed(self):
        return [c for c in self.checks if not c.passed]

    def __str__(self):
        lines = []
        for c in self.checks:
            mark = "PASS" if c.passed else "FAIL"
            suffix = "" if c.passed else "  [%s]" % c.witness
            lines.append("%-18s %s%s" % (c.name, mark, suffix))
        return "\n".join(lines)


@lru_cache(maxsize=None)
def _all_cones(fan):
    from itertools import combinations

    seen = {()}
    for c in fan.max_cones:
        for j in range(1, len(c) + 1):
            for sub in combinations(c, j):
                seen.add(sub)
    return tuple(sorted(seen, key=lambda s: (len(s), s)))


@lru_cache(maxsize=None)
def _cone_dual_basis(fan, cone_idx):
    """Rows u_i with: v in cone  iff  <u_i, v> >= 0 for all i.

    Valid for maximal cones of a regular complete fan (ray matrix is
    unimodular); u_i are the dual basis vectors, integer.
    """
    idxs = fan.max_cones[cone_idx]
    cols = [[fan.rays[j][i] for j in idxs] for i in range(fan.dim)]
    return tuple(tuple(row) for row in unimodular_inverse(cols))


@lru_cache(maxsize=None)
def _dual_bases(fan):
    """_cone_dual_basis of every maximal cone, in cone order."""
    return tuple(_cone_dual_basis(fan, ci) for ci in range(len(fan.max_cones)))


def cone_pieces(fan, values):
    """(dual-basis rows, linear form) of each maximal cone, in cone order.

    v lies in cone i iff <u, v> >= 0 for every row u of piece i, and there
    the PL function with these ray values is <form, v>.  The rows satisfy
    <u_k, e_l> = delta_kl on the cone's rays sigma_1..sigma_d, so the form
    is sum_k values[sigma_k] * u_k.  Cached per (fan, values); the key
    holds the type of each value, since 1, 1.0 and Fraction(1) hash alike
    but give forms of different types.
    """
    values = tuple(values)
    return _cone_pieces(fan, values, tuple(map(type, values)))


@lru_cache(maxsize=256)
def _cone_pieces(fan, values, types):
    return tuple(
        (rows, tuple(sum(values[j] * u[i] for j, u in zip(idxs, rows)) for i in range(fan.dim)))
        for idxs, rows in zip(fan.max_cones, _dual_bases(fan))
    )


def locate_cone(fan, v):
    """Index of a maximal cone containing v (smallest on ties).

    The entries of v must be ints or Fractions, so that the cone tests are
    exact: a float on a wall could fail them in both cones.
    """
    if not all(isinstance(x, (int, Fraction)) for x in v):
        raise TypeError("locate_cone needs int or Fraction entries, got %r" % (v,))
    for ci, rows in enumerate(_dual_bases(fan)):
        if all(sum(map(mul, u, v)) >= 0 for u in rows):
            return ci
    raise ValueError("no maximal cone contains the vector; fan incomplete?")


def galois_group(fan, generators=None):
    """All elements of the group generated by the Galois matrices.

    Closure with a hard cap; realistic inputs are small subgroups of
    GL(d, Z), anything larger signals a non-finite action.
    """
    gens = fan.galois if generators is None else tuple(
        tuple(tuple(int(x) for x in row) for row in g) for g in generators
    )
    ident = tuple(map(tuple, identity(fan.dim)))
    group = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for g in frontier:
            for h in gens:
                prod = tuple(map(tuple, mat_mul(g, h)))
                if prod not in group:
                    group.add(prod)
                    nxt.append(prod)
                    if len(group) > GALOIS_GROUP_CAP:
                        raise ValueError(
                            "Galois closure exceeded %d elements; "
                            "action looks non-finite" % GALOIS_GROUP_CAP
                        )
        frontier = nxt
    return sorted(group)


def ray_permutation(fan, matrix):
    """The permutation j -> index of matrix * e_j within the ray list.

    Returns None if some image is not a ray of the fan.
    """
    perm = []
    index = {r: i for i, r in enumerate(fan.rays)}
    for r in fan.rays:
        img = tuple(mat_vec([list(row) for row in matrix], list(r)))
        if img not in index:
            return None
        perm.append(index[img])
    return perm


def galois_orbits(fan, generators=None):
    """Orbit decomposition of the ray set, sorted by smallest member."""
    group = galois_group(fan, generators)
    n = fan.nrays
    perms = []
    for g in group:
        p = ray_permutation(fan, g)
        if p is None:
            raise ValueError("Galois matrix does not permute the rays")
        perms.append(p)
    seen = set()
    orbits = []
    for j in range(n):
        if j in seen:
            continue
        orb = sorted({p[j] for p in perms})
        seen.update(orb)
        orbits.append(tuple(orb))
    orbits.sort(key=lambda o: o[0])
    return OrbitDecomposition(tuple(orbits))


def validate_fan(fan):
    """Run all structural checks; failures are report entries, not errors."""
    checks = []

    # primitivity
    bad = None
    for j, r in enumerate(fan.rays):
        g = 0
        for x in r:
            g = gcd(g, abs(x))
        if g != 1:
            bad = "ray %d = %r has content %d" % (j, r, g)
            break
    checks.append(CheckResult("primitivity", bad is None, bad or ""))

    # regularity: every maximal cone spanned by part of a Z-basis
    bad = None
    for ci, c in enumerate(fan.max_cones):
        if len(c) != fan.dim:
            bad = "cone %d has %d rays, expected %d" % (ci, len(c), fan.dim)
            break
        dd_ = det([list(fan.rays[j]) for j in c])
        if abs(dd_) != 1:
            bad = "cone %d has determinant %d" % (ci, dd_)
            break
    regular = bad is None
    checks.append(CheckResult("regularity", regular, bad or ""))

    # face intersections (needs regularity for the H-descriptions)
    if regular:
        bad = None
        for ci in range(len(fan.max_cones)):
            for cj in range(ci + 1, len(fan.max_cones)):
                w = _intersection_defect(fan, ci, cj)
                if w:
                    bad = w
                    break
            if bad:
                break
        checks.append(CheckResult("face_intersection", bad is None, bad or ""))
    else:
        checks.append(
            CheckResult("face_intersection", False, "skipped: fan not regular")
        )

    # completeness: every facet of a maximal cone shared by exactly two,
    # and every ray in some maximal cone
    if regular:
        unused = set(range(fan.nrays)).difference(*fan.max_cones)
        bad = None
        if not fan.max_cones:
            bad = "the fan has no maximal cones"
        elif unused:
            bad = "ray %d lies in no maximal cone" % min(unused)
        from itertools import combinations

        facet_count = {}
        for c in fan.max_cones:
            for f in combinations(c, fan.dim - 1):
                facet_count[f] = 0
        for f in facet_count:
            fs = set(f)
            for c in fan.max_cones:
                if fs <= set(c):
                    facet_count[f] += 1
        for f, cnt in sorted(facet_count.items()):
            if cnt != 2:
                bad = "facet %r lies in %d maximal cones; witness %r" % (
                    f,
                    cnt,
                    _uncovered_witness(fan, f),
                )
                break
        checks.append(CheckResult("completeness", bad is None, bad or ""))
    else:
        checks.append(CheckResult("completeness", False, "skipped: fan not regular"))

    # Galois compatibility
    bad = None
    for gi, g in enumerate(fan.galois):
        if len(g) != fan.dim or any(len(row) != fan.dim for row in g):
            bad = "galois matrix %d has wrong shape" % gi
            break
        if abs(det([list(row) for row in g])) != 1:
            bad = "galois matrix %d not in GL(d, Z)" % gi
            break
    if bad is None and fan.galois:
        try:
            group = galois_group(fan)
        except ValueError as exc:
            bad = str(exc)
            group = []
        cone_set = {frozenset(c) for c in fan.max_cones}
        for g in group:
            if bad:
                break
            perm = ray_permutation(fan, g)
            if perm is None:
                bad = "group element %r does not permute the rays" % (g,)
                break
            for c in fan.max_cones:
                if frozenset(perm[j] for j in c) not in cone_set:
                    bad = "group element %r maps cone %r off the fan" % (g, c)
                    break
    checks.append(CheckResult("galois", bad is None, bad or ""))

    return ValidationReport(checks)


def _intersection_defect(fan, ci, cj):
    """None if cone ci and cone cj meet in a common face, else a witness."""
    cons = list(_cone_dual_basis(fan, ci)) + list(_cone_dual_basis(fan, cj))
    rays, lineality = dd.extreme_rays(cons, fan.dim)
    if lineality:
        return "cones %d,%d intersect in a non-pointed set" % (ci, cj)
    common = set(fan.max_cones[ci]) & set(fan.max_cones[cj])
    allowed = {fan.rays[j] for j in common}
    for r in rays:
        if tuple(r) not in allowed:
            return "cones %d,%d share ray %r outside their common face" % (
                ci,
                cj,
                r,
            )
    if len(rays) == fan.dim and ci != cj:
        # full-dimensional intersection would mean overlapping interiors
        return "cones %d,%d have overlapping interiors" % (ci, cj)
    return None


def _uncovered_witness(fan, facet):
    """A rational vector just outside a deficient facet, if one exists."""
    owners = [c for c in fan.max_cones if set(facet) <= set(c)]
    if not owners:
        return None
    owner = owners[0]
    other = next(j for j in owner if j not in facet)
    step = Fraction(1, 2)
    base = [sum(fan.rays[j][i] for j in facet) for i in range(fan.dim)]
    for _ in range(64):
        w = [Fraction(b) - step * fan.rays[other][i] for i, b in enumerate(base)]
        try:
            locate_cone(fan, w)
        except ValueError:
            return tuple(w)
        step /= 2
    return None
