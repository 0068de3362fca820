"""Exact integer linear algebra: Smith normal form, kernels, quotients.

All matrices are lists of lists of Python ints (rows), so everything is
arbitrary precision.  This is the workhorse behind lattice quotients,
regularity checks and group cohomology: H^1 of a finite group is the
torsion of the Smith form of its generators' stacked g - 1, which the
tests check against the periodic resolution and a cocycle route.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd


def identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_mul(a, b):
    rows, inner, cols = len(a), len(b), len(b[0]) if b else 0
    out = [[0] * cols for _ in range(rows)]
    for i in range(rows):
        ai = a[i]
        oi = out[i]
        for t in range(inner):
            ait = ai[t]
            if ait:
                bt = b[t]
                for j in range(cols):
                    oi[j] += ait * bt[j]
    return out


def mat_vec(a, v):
    return [sum(ai[j] * v[j] for j in range(len(v))) for ai in a]


def transpose(a):
    return [list(col) for col in zip(*a)] if a else []


def det(a):
    """Determinant of a square integer matrix (Bareiss fraction-free)."""
    n = len(a)
    m = [row[:] for row in a]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k]:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1] if n else 1


def smith_normal_form(a):
    """Return (U, D, V) with U*a*V = D, U and V unimodular.

    D is diagonal with nonnegative entries and d_i | d_{i+1}.
    """
    rows = len(a)
    cols = len(a[0]) if rows else 0
    d = [list(row) for row in a]
    u = identity(rows)
    v = identity(cols)

    def swap_rows(i, j):
        d[i], d[j] = d[j], d[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in d:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def add_row(src, dst, q):
        d[dst] = [x + q * y for x, y in zip(d[dst], d[src])]
        u[dst] = [x + q * y for x, y in zip(u[dst], u[src])]

    def add_col(src, dst, q):
        for row in d:
            row[dst] += q * row[src]
        for row in v:
            row[dst] += q * row[src]

    def negate_row(i):
        d[i] = [-x for x in d[i]]
        u[i] = [-x for x in u[i]]

    def clear_position(t):
        """Euclidean reduction until row t and column t are zero off the pivot."""
        while True:
            if d[t][t] < 0:
                negate_row(t)
            restart = False
            for i in range(t + 1, rows):
                if d[i][t]:
                    q = d[i][t] // d[t][t]
                    add_row(t, i, -q)
                    if d[i][t]:
                        # remainder is a smaller positive pivot candidate
                        swap_rows(t, i)
                        restart = True
                        break
            if restart:
                continue
            for j in range(t + 1, cols):
                if d[t][j]:
                    q = d[t][j] // d[t][t]
                    add_col(t, j, -q)
                    if d[t][j]:
                        swap_cols(t, j)
                        restart = True
                        break
            if not restart:
                # column ops leave column t alone, so both are clear
                return

    t = 0
    while t < min(rows, cols):
        pivot = None
        for i in range(t, rows):
            for j in range(t, cols):
                if d[i][j]:
                    pivot = (i, j)
                    break
            if pivot:
                break
        if pivot is None:
            break
        if pivot[0] != t:
            swap_rows(t, pivot[0])
        if pivot[1] != t:
            swap_cols(t, pivot[1])
        clear_position(t)
        t += 1

    # enforce divisibility d_i | d_{i+1}; each fix shrinks d_i, so this stops
    n = min(rows, cols)
    i = 0
    while i < n - 1:
        if d[i + 1][i + 1] == 0 or (d[i][i] and d[i + 1][i + 1] % d[i][i] == 0):
            i += 1
            continue
        add_col(i + 1, i, 1)
        clear_position(i)
        i = max(i - 1, 0)
    for i in range(n):
        if d[i][i] < 0:
            negate_row(i)
    return u, d, v


def invariant_factors(a):
    """Nonzero diagonal entries of the Smith form of a."""
    _, d, _ = smith_normal_form(a)
    out = []
    for i in range(min(len(d), len(d[0]) if d else 0)):
        if d[i][i]:
            out.append(d[i][i])
    return out


def rank(a):
    return len(invariant_factors(a))


def kernel_basis(a):
    """Basis of the integer kernel {x : a x = 0}, as a list of vectors.

    The kernel of an integer matrix is a saturated sublattice, so this
    basis generates it over Z.
    """
    if not a:
        return []
    _, d, v = smith_normal_form(a)
    cols = len(a[0])
    r = sum(1 for i in range(min(len(d), cols)) if d[i][i])
    return [[v[row][j] for row in range(cols)] for j in range(r, cols)]


def unimodular_inverse(a):
    """Exact inverse of a unimodular integer matrix (integer entries).

    From U*a*V = I in Smith form, the inverse is V*U.
    """
    n = len(a)
    if any(len(row) != n for row in a):
        raise ValueError("matrix is not square")
    u, d, v = smith_normal_form(a)
    if any(d[i][i] != 1 for i in range(n)):
        raise ValueError("matrix is not unimodular")
    return mat_mul(v, u)


def primitive_vector(v):
    """Scale an integer vector by 1/gcd so its entries are coprime.

    Sign is kept (the vector keeps its direction).
    """
    g = 0
    for x in v:
        g = gcd(g, abs(x))
    if g == 0:
        return list(v)
    return [x // g for x in v]


def quotient_map(columns, ambient_rank):
    """Quotient of Z^ambient_rank by the sublattice spanned by `columns`.

    Returns (project, lift, torsion) where `project` is a matrix sending a
    vector to its class in Z^q (q = ambient_rank - rank of the sublattice),
    `lift` sends class coordinates back to representatives, and `torsion`
    is the list of invariant factors > 1 (empty iff the quotient is free;
    callers that need a lattice quotient must check this).  The Smith form
    is taken once per distinct input; each call gets its own lists.
    """
    project, lift, torsion = _quotient_map(tuple(map(tuple, columns)), ambient_rank)
    return [list(row) for row in project], [list(row) for row in lift], list(torsion)


@lru_cache(maxsize=None)
def _quotient_map(columns, ambient_rank):
    """quotient_map on tuples, with tuples out, so a cached result stays unchanged."""
    if not columns:
        project = lift = identity(ambient_rank)
        torsion = []
    else:
        a = [[col[i] for col in columns] for i in range(ambient_rank)]
        u, d, _ = smith_normal_form(a)
        r = sum(1 for i in range(min(ambient_rank, len(columns))) if d[i][i])
        torsion = [d[i][i] for i in range(r) if d[i][i] > 1]
        project = [u[i] for i in range(r, ambient_rank)]
        uinv = unimodular_inverse(u)
        lift = [[uinv[i][j] for j in range(r, ambient_rank)] for i in range(ambient_rank)]
    return tuple(map(tuple, project)), tuple(map(tuple, lift)), tuple(torsion)
