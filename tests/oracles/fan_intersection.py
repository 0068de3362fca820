"""Pairwise fan checks: one double description per pair of maximal cones.

The reference for `validate_fan`'s facet-table checks.  Two regular
cones meet in a common face iff the cone cut out by both dual bases is
pointed and its extreme rays are rays of their common face; completeness
counts, for every facet, the maximal cones that contain it.  Both need
the fan's cones to be regular.
"""

from __future__ import annotations

from itertools import combinations

from toricount import dd
from toricount.fan import _cone_dual_basis


def intersection_defect(fan, ci, cj):
    """None if cone ci and cone cj meet in a common face, else a witness."""
    cons = list(_cone_dual_basis(fan, ci)) + list(_cone_dual_basis(fan, cj))
    rays, lineality = dd.extreme_rays(cons, fan.dim)
    if lineality:
        return "cones %d,%d intersect in a non-pointed set" % (ci, cj)
    allowed = {fan.rays[j] for j in set(fan.max_cones[ci]) & set(fan.max_cones[cj])}
    for r in rays:
        if tuple(r) not in allowed:
            return "cones %d,%d share ray %r outside their common face" % (ci, cj, r)
    if len(rays) == fan.dim:
        # full-dimensional intersection would mean overlapping interiors
        return "cones %d,%d have overlapping interiors" % (ci, cj)
    return None


def pairwise_face_intersection(fan):
    """The first defect over all pairs of maximal cones, or None."""
    for ci, cj in combinations(range(len(fan.max_cones)), 2):
        bad = intersection_defect(fan, ci, cj)
        if bad:
            return bad
    return None


def facet_counts_complete(fan):
    """True iff some cone exists, every ray is used and every facet of a
    maximal cone lies in exactly two maximal cones."""
    if not fan.max_cones or set(range(fan.nrays)).difference(*fan.max_cones):
        return False
    for c in fan.max_cones:
        for f in combinations(c, fan.dim - 1):
            if sum(set(f) <= set(e) for e in fan.max_cones) != 2:
                return False
    return True
