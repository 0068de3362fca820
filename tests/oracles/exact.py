"""Exact second routes: rational and lattice solves, characters, H^1, Q coefficients.

Each computes by a different route something the package computes, or a
quantity the tests bound it by; none is on a command's path.
"""

from __future__ import annotations

from fractions import Fraction
from operator import sub

from toricount.linalg import (
    identity,
    invariant_factors,
    kernel_basis,
    mat_mul,
    mat_vec,
    rank,
    smith_normal_form,
    transpose,
)
from toricount.picard import PLFunction


def solve_exact(a, b):
    """Solve a x = b over the rationals (a square nonsingular); Fractions."""
    n = len(a)
    m = [[Fraction(x) for x in row] + [Fraction(b[i])] for i, row in enumerate(a)]
    for k in range(n):
        piv = next((i for i in range(k, n) if m[i][k]), None)
        if piv is None:
            raise ValueError("singular system")
        m[k], m[piv] = m[piv], m[k]
        pk = m[k][k]
        m[k] = [x / pk for x in m[k]]
        for i in range(n):
            if i != k and m[i][k]:
                f = m[i][k]
                m[i] = [x - f * y for x, y in zip(m[i], m[k])]
    return [m[i][n] for i in range(n)]


def from_character(fan, m):
    """The (globally linear) PL function j -> <m, e_j> of a lattice vector m."""
    return PLFunction(tuple(sum(mi * ei for mi, ei in zip(m, r)) for r in fan.rays))


def diagonal_coeffs(monomials):
    """Coefficients of Q(u, ..., u) as a dense list, low degree first."""
    deg = max((sum(e) for e, _ in monomials), default=0)
    out = [0] * (deg + 1)
    for exps, coeff in monomials:
        out[sum(exps)] += coeff
    return out


def abs_coeff_sum_nonconstant(monomials):
    """Sum of |c| over the monomials of Q other than the constant one."""
    return sum(abs(c) for e, c in monomials if any(e))


def solve_in_lattice(basis_cols, target):
    """Integral coordinates of target in the lattice spanned by basis columns.

    With U*A*V = D in Smith form, A x = t reads D y = U t for y = V^-1 x;
    t lies in the lattice exactly when each d_i divides (U t)_i and the
    rows past the rank vanish.
    """
    u, d, v = smith_normal_form(basis_cols)
    s = len(v)
    y = [0] * s
    for i, c in enumerate(mat_vec(u, target)):
        di = d[i][i] if i < s else 0
        if di:
            y[i], c = divmod(c, di)
        if c:
            raise ValueError("vector not in lattice span")
    return mat_vec(v, y)


def h1_cyclic(action, order):
    """Invariant factors of H^1(<g>, Z^m) = ker(Norm)/im(g - 1).

    The 2-periodic resolution of a cyclic group, the oracle for cyclic
    actions.  `action` is the matrix of a generator g, `order` the order
    of the group (which may exceed the order of the matrix when the
    module is not faithful).
    """
    m = len(action)
    a = [list(row) for row in action]
    norm = [[0] * m for _ in range(m)]
    power = identity(m)
    for _ in range(order):
        for i in range(m):
            for j in range(m):
                norm[i][j] += power[i][j]
        power = mat_mul(power, a)
    if power != identity(m):
        raise ValueError("matrix order does not divide the given group order")
    if order == 1:
        # H^1 of the trivial group vanishes
        return ()
    ker = kernel_basis(norm)
    if not ker:
        return ()
    gm1 = [[a[i][j] - (1 if i == j else 0) for j in range(m)] for i in range(m)]
    # coordinates of the (g-1)-image inside the kernel lattice; integral
    # because im(g-1) <= ker(Norm) and the kernel basis is a lattice basis
    basis_cols = transpose(ker)
    mat = transpose([solve_in_lattice(basis_cols, col) for col in transpose(gm1)])
    if rank(mat) != len(ker):
        raise ValueError("H^1 is infinite; the action is not of finite order")
    return tuple(f for f in invariant_factors(mat) if f != 1)


def h1_cocycle(generators):
    """Invariant factors > 1 of H^1(G, Z^m) by crossed homs modulo principal ones.

    G is the finite group the m x m matrices generate, walked whole: a
    cocycle f is fixed by its values x_s = f(s) on the generators, and
    f(gs) = f(g) + g f(s) carries them from 1 along a breadth-first tree
    of the Cayley graph to every element.  Every other edge (g, s) must
    agree with the tree; those linear conditions on the x_s cut out Z^1,
    and by induction on word length they give f(gh) = f(g) + g f(h) for
    all g, h.  The principal cocycles of the unit vectors are solved for
    in a basis of Z^1, whose rank must be theirs.  Independent of the
    stacked Smith form's saturation argument and of the periodic
    resolution, used as their oracle.
    """
    gens = [tuple(map(tuple, s)) for s in generators]
    if not gens:
        return ()
    m = len(gens[0])
    k = len(gens) * m
    ident = tuple(map(tuple, identity(m)))
    # f(g) as an m x k matrix in the unknowns x_s, stacked as in (Z^m)^S
    value = {ident: [[0] * k for _ in range(m)]}
    walk = [ident]
    rows = set()
    for g in walk:
        for si, s in enumerate(gens):
            step = [row[:] for row in value[g]]
            for c in range(m):
                for c2 in range(m):
                    step[c][si * m + c2] += g[c][c2]
            gs = tuple(map(tuple, mat_mul(g, s)))
            if gs not in value:
                value[gs] = step
                walk.append(gs)
            else:
                rows.update(tuple(map(sub, r1, r2)) for r1, r2 in zip(value[gs], step))
    rows.discard((0,) * k)
    z1 = kernel_basis([list(r) for r in sorted(rows)]) if rows else identity(k)
    if not z1:
        return ()
    targets = [[s[c][j] - (c == j) for s in gens for c in range(m)] for j in range(m)]
    mat = transpose([solve_in_lattice(transpose(z1), t) for t in targets])
    if rank(mat) != len(z1):
        raise ValueError("H^1 is infinite")
    return tuple(f for f in invariant_factors(mat) if f != 1)
