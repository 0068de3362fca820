"""Piecewise-linear functions, the Picard lattice, and Galois cohomology.

The Picard group over the splitting field is realized as the quotient of
the value lattice Z^n (one coordinate per ray) by the dual lattice M,
embedded via m -> (<m, e_j>)_j.  Smith normal form certifies the quotient
is torsion free; that is asserted, not assumed.  H^1 of any finite Galois
group is the torsion of one Smith form, that of the matrices g - 1 of its
generators stacked; the tests check it against two oracles, the periodic
resolution for cyclic groups and a cocycle route over the whole group.  A
split fan is the case of the trivial group, and takes the same path.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from operator import mul

from .fan import cone_pieces, galois_action, galois_orbits, locate_cone, validate_fan
from .linalg import (
    identity,
    invariant_factors,
    kernel_basis,
    mat_vec,
    quotient_map,
    transpose,
    unimodular_inverse,
)


@dataclass(frozen=True)
class PLFunction:
    """A piecewise linear function given by its values at the rays."""

    values: tuple

    def __init__(self, values):
        object.__setattr__(self, "values", tuple(values))

    def __add__(self, other):
        return PLFunction(tuple(a + b for a, b in zip(self.values, other.values)))

    def integer_values(self):
        """The values as ints; each must be an int or an integral Fraction."""
        if not all(isinstance(v, (int, Fraction)) and v.denominator == 1 for v in self.values):
            raise ValueError("exact sums and heights need integer PL values, got %r" % (self.values,))
        return tuple(map(int, self.values))


def anticanonical(fan):
    """The PL function with value 1 at every ray; its class is -K."""
    return PLFunction((1,) * fan.nrays)


def pl_evaluate(fan, phi, v):
    """phi at v, exactly: <m_sigma, v> on the cone sigma that locate_cone finds.

    v must have int or Fraction entries.  Integer v and integer values give
    an int; Fractions stay exact.
    """
    form = cone_pieces(fan, phi.values)[locate_cone(fan, v)][1]
    return sum(map(mul, form, v))


@dataclass(frozen=True)
class PicardData:
    """Ranks, quotient data and cohomology of the Picard lattice."""

    rank_split: int
    rank_K: int
    t: int
    r: int
    eff_generators: tuple  # classes of the orbit-sum divisors, in Pic over E
    anticanonical_class: tuple
    h1_GM: tuple  # invariant factors of H^1(G, M)
    h1_GPic: tuple  # invariant factors of H^1(G, Pic)
    # the same divisor classes in PL^G / M^G, a lattice of rank rank_K and
    # index h in the Picard lattice over the ground field
    eff_generators_G: tuple
    anticanonical_G: tuple
    # Gale dual of eff_generators_G: one column E_o = (<m_t, e_o>)_t per
    # orbit, for a basis m_t of M^G; its integer relations are the lattice
    # dual to PL^G / M^G (for a split fan the columns are the rays)
    gale_dual: tuple

    @property
    def h(self):
        out = 1
        for f in self.h1_GM:
            out *= f
        return out

    @property
    def beta(self):
        out = 1
        for f in self.h1_GPic:
            out *= f
        return out


def _embedding_columns(fan):
    """Columns spanning the image of M -> Z^n, m -> (<m, e_j>)_j."""
    d = fan.dim
    return [[fan.rays[j][i] for j in range(fan.nrays)] for i in range(d)]


@lru_cache(maxsize=None)
def picard_quotient(fan):
    """(project, lift) for Pic = Z^n / M over the splitting field.

    Smith normal form certifies the quotient is torsion free (true for
    smooth complete fans); a torsion quotient raises.
    """
    project, lift, torsion = quotient_map(_embedding_columns(fan), fan.nrays)
    if torsion:
        raise ValueError("Picard quotient has torsion %r; fan not smooth complete" % torsion)
    return tuple(tuple(row) for row in project), tuple(tuple(row) for row in lift)


def _dual_action(g):
    """Action on M induced by the action g on N (inverse transpose)."""
    return transpose(unimodular_inverse(g))


def _stacked_minus_one(generators):
    """The matrices g - 1 of the generators, stacked into one (|S| m) x m matrix."""
    return [
        [x - (i == j) for j, x in enumerate(row)] for g in generators for i, row in enumerate(g)
    ]


def h1(generators):
    """Invariant factors > 1 of H^1(G, Z^m), G the finite group the m x m
    matrices `generators` generate; no generators is the trivial group.

    A cocycle is fixed by its values on the generators, and the tuples of
    values that obey G's relations form a kernel: a saturated lattice Z^1
    in (Z^m)^S.  The coboundaries B^1, the columns of the stacked g - 1,
    span it over Q, since H^1 of a finite group is finite.  So Z^1 / B^1
    is the torsion of (Z^m)^S / B^1: the invariant factors > 1 of the
    stacked matrix.  The trivial group takes no Smith form.
    """
    if not generators:
        return ()
    return tuple(f for f in invariant_factors(_stacked_minus_one(generators)) if f != 1)


@lru_cache(maxsize=None)
def picard_data(fan):
    """Ranks, effective generators, and H^1 data for the fan's variety, once per fan.

    Any finite Galois group: M^G is the kernel of the stacked g - 1 of the
    dual actions of its generators, and both H^1 come from `h1`.  A split
    fan is the trivial group: M^G is M, PL^G / M^G is Pic itself, the
    Gale dual is the rays, and both H^1 vanish without a Smith form.
    Refuses an invalid fan; the cache spares a warm call the check.
    """
    validate_fan(fan).require()
    orbits = galois_orbits(fan)
    r = orbits.r
    d = fan.dim
    n = fan.nrays

    project, lift = picard_quotient(fan)
    rank_split = n - d
    assert len(project) == rank_split

    eff = []
    for orb in orbits.orbits:
        vec = [1 if j in orb else 0 for j in range(n)]
        eff.append(tuple(mat_vec(project, vec)))
    antican = tuple(mat_vec(project, [1] * n))

    dual = [_dual_action(g) for g in fan.galois]
    mg_basis = kernel_basis(_stacked_minus_one(dual)) if dual else identity(d)
    t = len(mg_basis)
    h1_gpic = h1([_induced_pic_action(fan, project, lift, g) for g in fan.galois])
    eff_g, antican_g, gale = _invariant_effective_cone(fan, orbits, mg_basis)

    return PicardData(
        rank_split=rank_split,
        rank_K=r - t,
        t=t,
        r=r,
        eff_generators=tuple(eff),
        anticanonical_class=antican,
        h1_GM=h1(dual),
        h1_GPic=h1_gpic,
        eff_generators_G=eff_g,
        anticanonical_G=antican_g,
        gale_dual=gale,
    )


def _invariant_effective_cone(fan, orbits, mg_basis):
    """Orbit-sum divisors, -K and the Gale dual in PL^G / M^G, from a basis of M^G.

    PL^G has one coordinate per ray orbit and M^G embeds in it by
    m -> (<m, e_j>)_{one j per orbit}; the quotient is free of rank r - t,
    and its inclusion into Pic over the ground field has index
    h = |H^1(G, M)|.
    """
    r = orbits.r
    cols = []
    for m in mg_basis:
        vec = []
        for orb in orbits.orbits:
            vals = {sum(mi * ei for mi, ei in zip(m, fan.rays[j])) for j in orb}
            if len(vals) != 1:
                raise AssertionError("invariant character not constant on orbit")
            vec.append(vals.pop())
        cols.append(vec)
    project, _, torsion = quotient_map(cols, r)
    if torsion:
        raise AssertionError("PL^G / M^G has torsion %r" % torsion)
    gens = tuple(tuple(row[i] for row in project) for i in range(r))
    antican = tuple(mat_vec(project, [1] * r))
    return gens, antican, tuple(tuple(col[o] for col in cols) for o in range(r))


def _induced_pic_action(fan, project, lift, g):
    """Matrix of the g-action on Pic = Z^n / M in the quotient basis.

    g, an element of the fan's Galois group, permutes the rays; on value
    vectors it acts by (g phi)_j = phi_{pi^{-1}(j)}.  Well-defined on the
    quotient because the embedding of M is equivariant; the stray block
    vanishing is asserted.
    """
    perm = dict(galois_action(fan))[g]
    n = fan.nrays
    k = len(project)
    inv = [0] * n
    for j, pj in enumerate(perm):
        inv[pj] = j
    cols = []
    for b in range(k):
        rep = [lift[i][b] for i in range(n)]
        permuted = [rep[inv[j]] for j in range(n)]
        cols.append(mat_vec(project, permuted))
    # well-definedness: images of the M-embedding must stay in M
    for col in _embedding_columns(fan):
        permuted = [col[inv[j]] for j in range(n)]
        if any(mat_vec(project, permuted)):
            raise AssertionError("permutation action does not descend to Pic")
    return tuple(tuple(cols[b][i] for b in range(k)) for i in range(k))
