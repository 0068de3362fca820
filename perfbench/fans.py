"""Seeded fan generator for the benchmark.

Every fan is built here as a plain JSON dict, checked with
`toricount.fan.validate_fan`, and written to disk so that the CLI reads it
the way it reads a user's file.  All randomness comes from the
`random.Random` passed in, so one seed always gives the same files.
"""

from __future__ import annotations

import json
import os

P2 = [[1, 0], [0, 1], [-1, -1]]
F0 = [[1, 0], [0, 1], [-1, 0], [0, -1]]
# P^2 blown up at two torus-fixed points: the toric del Pezzo of degree 7.
DP7 = [[1, 0], [1, 1], [0, 1], [-1, 0], [-1, -1]]


def surface(rays):
    """Complete 2-d fan on rays listed in counter-clockwise order."""
    n = len(rays)
    return {
        "dim": 2,
        "rays": [list(r) for r in rays],
        "max_cones": [[i, (i + 1) % n] for i in range(n)],
    }


def star_subdivision(base, nrays, rng):
    """Insert u + v between adjacent rays u, v until there are `nrays` rays.

    Each step blows up a torus-fixed point, so the result is again a smooth
    complete toric surface.
    """
    rays = [list(r) for r in base]
    while len(rays) < nrays:
        i = rng.randrange(len(rays))
        u, v = rays[i], rays[(i + 1) % len(rays)]
        rays.insert(i + 1, [u[0] + v[0], u[1] + v[1]])
    return surface(rays)


def nonnegative_curves(fan):
    """Number of torus-invariant curves D_i with D_i^2 >= 0 on a surface.

    On a smooth complete surface u_{i-1} + u_{i+1} = b_i u_i with
    D_i^2 = -b_i, where u_i are the rays in cyclic order.
    """
    rays = fan["rays"]
    n = len(rays)
    count = 0
    for i, u in enumerate(rays):
        s = [a + b for a, b in zip(rays[i - 1], rays[(i + 1) % n])]
        if sum(x * y for x, y in zip(s, u)) <= 0:
            count += 1
    return count


def product(a, b):
    """Fan of the product variety: rays (r, 0) and (0, s), cones c x e."""
    da, db = a["dim"], b["dim"]
    na = len(a["rays"])
    return {
        "dim": da + db,
        "rays": [list(r) + [0] * db for r in a["rays"]]
        + [[0] * da + list(r) for r in b["rays"]],
        "max_cones": [
            list(c) + [na + j for j in e] for c in a["max_cones"] for e in b["max_cones"]
        ],
    }


def relabel(fan, rng):
    """The same fan with its rays listed in a seeded order.

    The variety is unchanged, but every array the program builds from the
    ray list is permuted, so each seed gives a distinct input file.
    """
    n = len(fan["rays"])
    order = list(range(n))
    rng.shuffle(order)
    new_index = {old: new for new, old in enumerate(order)}
    out = dict(fan)
    out["rays"] = [list(fan["rays"][old]) for old in order]
    out["max_cones"] = [sorted(new_index[j] for j in c) for c in fan["max_cones"]]
    return out


def max_ray_norm(fan):
    return max(sum(abs(x) for x in r) for r in fan["rays"])


def write_fans(directory, fans):
    """Validate each fan and write it as <name>.json; return the paths."""
    from toricount.corpus import fan_from_dict
    from toricount.fan import validate_fan

    os.makedirs(directory, exist_ok=True)
    paths = {}
    for name, data in fans.items():
        report = validate_fan(fan_from_dict(data))
        if not report.ok:
            raise ValueError("generated fan %s is invalid:\n%s" % (name, report))
        path = os.path.join(directory, name + ".json")
        with open(path, "w", encoding="utf-8") as f:
            json.dump(data, f)
        paths[name] = path
    return paths
