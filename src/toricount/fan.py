"""Fans: lattice data model, validation, Galois actions, automorphisms, cone location.

A fan is given by its primitive ray generators and the ray-index sets of
its maximal cones; faces are derived on demand and never stored.  All
types are immutable values, safe to share between workers.

validate_fan reads one facet table, each (d-1)-subset of a maximal cone
mapped to its owners, by exact dot products with the cones' dual bases.
For regular cones, completeness asks that every ray be used and every
facet have two owners; face_intersection that those lie on opposite
sides of it (separation) and that the ray sum of cone 0 lie in no other
cone (degree one).  Then radial projection onto S^(d-1) is a covering off
the codimension-2 faces, of constant degree, set to 1 by that point: the
cones tile R^d face to face.  A fan passes all three, and a failure of
either face_intersection test always shows two overlapping cones.

A lattice map taking rays to rays is a symmetry when it permutes the
maximal cones, the one test (_cone_off_fan) of automorphisms and galois.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, permutations
from math import gcd
from operator import mul

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
        rays = tuple(tuple(map(int, r)) for r in rays)
        for r in rays:
            if len(r) != dim:
                raise ValueError("ray %r has wrong dimension" % (r,))
        max_cones = tuple(tuple(sorted(map(int, c))) for c in max_cones)
        for c in max_cones:
            if c and (c[0] < 0 or c[-1] >= len(rays) or len(set(c)) != len(c)):
                raise ValueError("bad cone index set %r" % (c,))
        object.__setattr__(self, "dim", int(dim))
        object.__setattr__(self, "rays", rays)
        object.__setattr__(self, "max_cones", max_cones)
        object.__setattr__(
            self, "galois", tuple(tuple(tuple(map(int, row)) for row in g) for g in galois)
        )

    @property
    def nrays(self):
        return len(self.rays)

    def is_split(self):
        return not self.galois

    def require_split(self, what):
        """Raise ValueError("<what> needs a split fan"): the one scope check."""
        if not self.is_split():
            raise ValueError("%s needs a split fan" % what)

    def all_cones(self):
        """Every cone of the fan as a sorted tuple of ray indices.

        Faces of the (simplicial) maximal cones, including the zero cone ().
        """
        return _all_cones(self)

    def f_vector(self):
        """(f_0, ..., f_d): f_i is the number of i-dimensional cones."""
        return _f_vector(self)


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


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    witness: str = ""


@dataclass(frozen=True)
class ValidationReport:
    checks: tuple

    @property
    def ok(self):
        return all(c.passed for c in self.checks)

    def failed(self):
        return [c for c in self.checks if not c.passed]

    def require(self):
        """Raise ValueError("invalid fan: <check> check failed: <witness>")
        at the first failed check: the one refusal of an invalid fan."""
        failed = self.failed()
        if failed:
            raise ValueError(
                "invalid fan: %s check failed: %s" % (failed[0].name, failed[0].witness)
            )

    def __str__(self):
        lines = []
        for c in self.checks:
            mark = "PASS" if c.passed else "FAIL"
            suffix = "" if c.passed else "  [%s]" % c.witness
            lines.append("%-18s %s%s" % (c.name, mark, suffix))
        return "\n".join(lines)


@lru_cache(maxsize=None)
def _all_cones(fan):
    seen = {()}
    for c in fan.max_cones:
        for j in range(1, len(c) + 1):
            for sub in combinations(c, j):
                seen.add(sub)
    return tuple(sorted(seen, key=lambda s: (len(s), s)))


@lru_cache(maxsize=None)
def _f_vector(fan):
    counts = [0] * (fan.dim + 1)
    for c in _all_cones(fan):
        counts[len(c)] += 1
    return tuple(counts)


@lru_cache(maxsize=None)
def primitive_collections(fan):
    """Batyrev's primitive collections: minimal ray sets spanning no cone.

    The cones of a simplicial fan form a simplicial complex, and these
    are its minimal non-faces: at most d + 1 rays, not a cone, every
    subset one smaller a cone.
    """
    faces = set(_all_cones(fan))
    return tuple(
        c
        for k in range(2, fan.dim + 2)
        for c in combinations(range(fan.nrays), k)
        if c not in faces and all(c[:i] + c[i + 1 :] in faces for i in range(k))
    )


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
    but give forms of different types.  Refuses values of the wrong length.
    """
    values = tuple(values)
    if len(values) != fan.nrays:
        raise ValueError("%d PL values for %d rays" % (len(values), fan.nrays))
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
    exact: a float on a wall could fail them in both cones.  Refuses a
    vector whose length is not the fan's dimension.
    """
    if len(v) != fan.dim:
        raise ValueError("vector of length %d in a fan of dimension %d" % (len(v), fan.dim))
    if not all(isinstance(x, (int, Fraction)) for x in v):
        raise TypeError("locate_cone needs int or Fraction entries, got %r" % (v,))
    for ci, rows in enumerate(_dual_bases(fan)):
        if all(sum(map(mul, u, v)) >= 0 for u in rows):
            return ci
    raise ValueError("no maximal cone contains the vector; fan incomplete?")


@lru_cache(maxsize=None)
def automorphisms(fan):
    """The ray permutations of the lattice automorphisms of a regular fan.

    perm[j] is the image of ray j.  An automorphism maps the ordered rays
    of cone 0 onto some maximal cone in some order, and that fixes it, so
    the |cones| * d! such maps are the candidates.  One is kept when it
    maps every ray to a ray and permutes the maximal cones.
    """
    # the rays off cone 0, in the basis of cone 0's rays
    base = fan.max_cones[0]
    coords = [
        (j, tuple(sum(map(mul, u, r)) for u in _dual_bases(fan)[0]))
        for j, r in enumerate(fan.rays)
        if j not in base
    ]
    index = {r: j for j, r in enumerate(fan.rays)}
    found = []
    for cone in fan.max_cones:
        for images in permutations(cone):
            matrix = list(zip(*(fan.rays[j] for j in images)))
            perm = [0] * fan.nrays
            for k, j in zip(base, images):
                perm[k] = j
            for k, c in coords:
                j = index.get(tuple([sum(map(mul, row, c)) for row in matrix]))
                if j is None:
                    break
                perm[k] = j
            else:
                if _cone_off_fan(fan, perm) is None:
                    found.append(tuple(perm))
    # cone 0 onto itself in its own order comes first: the identity
    return tuple(found)


def _cone_off_fan(fan, perm):
    """The first maximal cone that the ray map perm sends onto no maximal cone, or None."""
    cones = set(fan.max_cones)
    image = perm.__getitem__
    return next((c for c in fan.max_cones if tuple(sorted(map(image, c))) not in cones), None)


def galois_group(fan):
    """All elements of the group generated by the Galois matrices, sorted."""
    return [g for g, _ in galois_action(fan)]


@lru_cache(maxsize=None)
def galois_action(fan):
    """(element, ray permutation) for each element of the group generated by
    the Galois matrices, in sorted order, once per fan value.

    perm[j] is the index of g * e_j within the ray list, and perm is None
    if some image is not a ray of the fan.  Closure with a hard cap;
    realistic inputs are small subgroups of GL(d, Z), anything larger
    signals a non-finite action, refused on every call.
    """
    ident = tuple(map(tuple, identity(fan.dim)))
    group = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for g in frontier:
            for h in fan.galois:
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
    index = {r: i for i, r in enumerate(fan.rays)}
    action = []
    for g in sorted(group):
        images = [index.get(tuple(mat_vec(g, r))) for r in fan.rays]
        action.append((g, None if None in images else tuple(images)))
    return tuple(action)


def galois_orbits(fan):
    """Orbit decomposition of the ray set, sorted by smallest member."""
    perms = [p for _, p in galois_action(fan)]
    if None in perms:
        raise ValueError("Galois matrix does not permute the rays")
    n = fan.nrays
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


@lru_cache(maxsize=None)
def validate_fan(fan):
    """Run all structural checks; failures are report entries, not errors.

    The report depends on the fan's value alone, so it is built once per
    Fan value and shared: equal fans, however built, get the same frozen
    report from one lookup.
    """
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

    # face_intersection and completeness, both from one facet table
    if regular:
        facets = _facet_table(fan)
        bad = _overlap(fan, facets)
        checks.append(CheckResult("face_intersection", bad is None, bad or ""))
        checks.append(CheckResult("completeness", *_completeness(fan, facets)))
    else:
        for name in ("face_intersection", "completeness"):
            checks.append(CheckResult(name, False, "skipped: fan not regular"))

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
            action = galois_action(fan)
        except ValueError as exc:
            bad = str(exc)
            action = ()
        for g, perm in action:
            if perm is None:
                bad = "group element %r does not permute the rays" % (g,)
                break
            c = _cone_off_fan(fan, perm)
            if c is not None:
                bad = "group element %r maps cone %r off the fan" % (g, c)
                break
    checks.append(CheckResult("galois", bad is None, bad or ""))

    return ValidationReport(tuple(checks))


def _facet_table(fan):
    """Each (d-1)-subset of a maximal cone -> its owners (cone, opposite
    ray, the dual row dual to that ray: the cone's inward facet normal)."""
    table = {}
    for ci, (cone, rows) in enumerate(zip(fan.max_cones, _dual_bases(fan))):
        for k, j in enumerate(cone):
            table.setdefault(cone[:k] + cone[k + 1 :], []).append((ci, j, rows[k]))
    return table


def _overlap(fan, facets):
    """A witness that two maximal cones have overlapping interiors, or None.

    Two unimodular cones on one facet have equal or opposite inward
    normals, so one test per pair decides the sides they lie on.
    """
    for facet, owners in facets.items():
        for (ci, j, _), (cj, _, u) in combinations(owners, 2):
            if sum(map(mul, fan.rays[j], u)) > 0:
                return "cones %d,%d have overlapping interiors across facet %r" % (ci, cj, facet)
    if fan.max_cones:
        p = [sum(fan.rays[j][i] for j in fan.max_cones[0]) for i in range(fan.dim)]
        for cj, rows in enumerate(_dual_bases(fan)[1:], 1):
            if all(sum(map(mul, u, p)) >= 0 for u in rows):
                return "cones 0,%d have overlapping interiors at %s" % (cj, _fmt(p))
    return None


def _completeness(fan, facets):
    """(passed, witness): every ray used and every facet owned exactly twice."""
    for facet, owners in sorted(facets.items()):
        if len(owners) == 1:
            bad = "facet %r lies in 1 maximal cone" % (facet,)
            w = _uncovered_witness(fan, facet, owners[0][1])
            return False, bad if w is None else "%s; witness %s" % (bad, _fmt(w))
        if len(owners) > 2:
            return False, "facet %r lies in %d maximal cones" % (facet, len(owners))
    if not fan.max_cones:
        return False, "the fan has no maximal cones"
    unused = set(range(fan.nrays)).difference(*fan.max_cones)
    if unused:
        return False, "ray %d lies in no maximal cone" % min(unused)
    return True, ""


def _fmt(v):
    """A vector of ints or Fractions as (1, -1/2)."""
    return "(%s)" % ", ".join(map(str, v))


def _uncovered_witness(fan, facet, other):
    """A rational vector just across a facet from the ray `other` of its
    only owner, in no maximal cone, if one is found."""
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
