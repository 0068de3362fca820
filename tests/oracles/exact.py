"""Exact second routes: rational solves, characters, cocycles, Q coefficients.

Each computes by a different route something the package computes, or a
quantity the tests bound it by; none is on a command's path.
"""

from __future__ import annotations

from fractions import Fraction

from toricount.linalg import (
    identity,
    invariant_factors,
    kernel_basis,
    mat_mul,
    rank,
    transpose,
)
from toricount.picard import PLFunction, _solve_in_lattice


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


def h1_cyclic_cocycle(action, order):
    """|H^1| by the bar-resolution route: crossed homs modulo principal ones.

    Materializes the whole cyclic group and solves the cocycle condition
    f(gh) = f(g) + g f(h) as one integer linear system; independent of the
    periodic-resolution formula, used as its oracle.
    """
    m = len(action)
    a = [list(row) for row in action]
    elements = [identity(m)]
    for _ in range(order - 1):
        elements.append(mat_mul(elements[-1], a))
    if mat_mul(elements[-1], a) != identity(m):
        raise ValueError("matrix order does not divide the given group order")
    index = {tuple(tuple(r) for r in g): i for i, g in enumerate(elements)}

    def elt_index(g):
        return index[tuple(tuple(r) for r in g)]

    # unknowns: f(g) for g != 1, stacked; f(1) = 0 is forced
    nunk = (order - 1) * m

    def unk(gi, coord):
        return (gi - 1) * m + coord  # gi >= 1

    rows = []
    for gi in range(order):
        for hi in range(order):
            prod = mat_mul(elements[gi], elements[hi])
            pi = elt_index(prod)
            for c in range(m):
                row = [0] * nunk
                if pi >= 1:
                    row[unk(pi, c)] += 1
                if gi >= 1:
                    row[unk(gi, c)] -= 1
                if hi >= 1:
                    for c2 in range(m):
                        row[unk(hi, c2)] -= elements[gi][c][c2]
                if any(row):
                    rows.append(row)
    z1 = kernel_basis(rows) if rows else identity(nunk)
    if not z1:
        return 1
    # principal cocycles f_v(g) = g v - v for the unit vectors v = e_j
    targets = [
        [g[c][j] - (1 if c == j else 0) for g in elements[1:] for c in range(m)]
        for j in range(m)
    ]
    basis_cols = transpose(z1)
    mat = transpose([_solve_in_lattice(basis_cols, t) for t in targets])
    if rank(mat) != len(z1):
        raise ValueError("H^1 is infinite")
    out = 1
    for f in invariant_factors(mat):
        out *= f
    return out
