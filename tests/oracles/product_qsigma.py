"""Q polynomial by multiplying out each invariant cone's term.

The reference for `localdata.qsigma`, which adds the signed monomials of
each term directly.  Here each invariant cone's term
prod_{k in sigma} x_k prod_{k not in sigma} (1 - x_k), with
x_k = u_k^{d_k}, is built by multiplying polynomial dicts one orbit at a
time and then added to the sum.
"""

from __future__ import annotations

from toricount.localdata import QSigmaPolynomial


def _poly_mul(a, b):
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            key = tuple(x + y for x, y in zip(ea, eb))
            out[key] = out.get(key, 0) + ca * cb
            if out[key] == 0:
                del out[key]
    return out


def product_qsigma(fan, decomposition):
    orbit_of = {}
    for k, orb in enumerate(decomposition.orbits):
        for j in orb:
            orbit_of[j] = k
    l = decomposition.r
    lengths = decomposition.lengths

    invariant_cones = []
    for cone in fan.all_cones():
        touched = {orbit_of[j] for j in cone}
        if sum(lengths[k] for k in touched) == len(cone):
            invariant_cones.append(frozenset(touched))

    zero = tuple([0] * l)
    poly = {}
    for touched in invariant_cones:
        term = {zero: 1}
        for k in range(l):
            ek = tuple(lengths[k] if i == k else 0 for i in range(l))
            if k in touched:
                term = _poly_mul(term, {ek: 1})
            else:
                term = _poly_mul(term, {zero: 1, ek: -1})
        for key, c in term.items():
            poly[key] = poly.get(key, 0) + c
            if poly[key] == 0:
                del poly[key]
    return QSigmaPolynomial(l, tuple(lengths), tuple(sorted(poly.items())))
