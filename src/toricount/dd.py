"""Double description: extreme rays of a cone given by linear inequalities.

Incremental insertion with the algebraic adjacency test, exact integer
arithmetic throughout.  Sized for ambient dimension <= 8; the corpus
needs <= 4.
"""

from __future__ import annotations

from .linalg import primitive_vector, rank


class NotPointedError(ValueError):
    """The inequality system leaves a nonzero lineality space."""


def _dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def extreme_rays(constraints, dim, allow_lineality=False):
    """Extreme rays of {y in Z^dim tensor R : <a, y> >= 0 for all a}.

    Returns (rays, lineality): primitive integer vectors, rays sorted
    lexicographically.  If the cone contains a line and allow_lineality is
    False, raises NotPointedError.
    """
    lineality = [
        [1 if i == j else 0 for j in range(dim)] for i in range(dim)
    ]
    rays = []
    processed = []

    for a in constraints:
        a = list(a)
        if all(x == 0 for x in a):
            continue
        # lineality phase: if some line leaves the halfspace, it splits
        hit = next((i for i, l in enumerate(lineality) if _dot(a, l) != 0), None)
        if hit is not None:
            z = lineality.pop(hit)
            sz = _dot(a, z)
            if sz < 0:
                z = [-x for x in z]
                sz = -sz
            lineality = [
                primitive_vector([sz * li - _dot(a, l) * zi for li, zi in zip(l, z)])
                for l in lineality
            ]
            rays = [
                primitive_vector([sz * ri - _dot(a, r) * zi for ri, zi in zip(r, z)])
                for r in rays
            ]
            rays.append(primitive_vector(z))
        else:
            plus = [r for r in rays if _dot(a, r) > 0]
            zero = [r for r in rays if _dot(a, r) == 0]
            minus = [r for r in rays if _dot(a, r) < 0]
            if minus:
                new = plus + zero
                target_rank = dim - len(lineality) - 2
                for p in plus:
                    zp = {i for i, c in enumerate(processed) if _dot(c, p) == 0}
                    for n in minus:
                        zn = {i for i, c in enumerate(processed) if _dot(c, n) == 0}
                        common = zp & zn
                        if rank([processed[i] for i in common]) != target_rank:
                            continue
                        combo = [
                            _dot(a, p) * ni - _dot(a, n) * pi
                            for pi, ni in zip(p, n)
                        ]
                        new.append(primitive_vector(combo))
                rays = new
        processed.append(a)
        # dedupe, keep primitive representatives
        seen = set()
        deduped = []
        for r in rays:
            key = tuple(r)
            if key not in seen and any(r):
                seen.add(key)
                deduped.append(r)
        rays = deduped

    if lineality and not allow_lineality:
        raise NotPointedError(
            "cone contains a line, e.g. direction %r" % (lineality[0],)
        )
    return sorted(tuple(r) for r in rays), [tuple(l) for l in lineality]
