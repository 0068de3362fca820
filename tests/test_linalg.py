import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles.exact import solve_exact

from toricount.linalg import (
    det,
    invariant_factors,
    kernel_basis,
    mat_mul,
    mat_vec,
    primitive_vector,
    quotient_map,
    smith_normal_form,
    unimodular_inverse,
)

matrices = st.integers(1, 4).flatmap(
    lambda r: st.integers(1, 4).flatmap(
        lambda c: st.lists(
            st.lists(st.integers(-20, 20), min_size=c, max_size=c),
            min_size=r,
            max_size=r,
        )
    )
)


@given(matrices)
@settings(max_examples=200, deadline=None)
def test_snf_factorization(a):
    u, d, v = smith_normal_form(a)
    assert mat_mul(mat_mul(u, a), v) == d
    assert abs(det(u)) == 1
    assert abs(det(v)) == 1
    diag = [d[i][i] for i in range(min(len(a), len(a[0])))]
    for i in range(len(diag) - 1):
        if diag[i]:
            assert diag[i + 1] % diag[i] == 0
        else:
            assert diag[i + 1] == 0
    assert all(x >= 0 for x in diag)
    for i in range(len(d)):
        for j in range(len(d[0])):
            if i != j:
                assert d[i][j] == 0


@given(matrices)
@settings(max_examples=100, deadline=None)
def test_kernel_annihilates(a):
    for k in kernel_basis(a):
        assert all(x == 0 for x in mat_vec(a, k))


def test_kernel_is_saturated_basis():
    # x + y + z = 0 has kernel of rank 2 with primitive basis vectors
    kb = kernel_basis([[1, 1, 1]])
    assert len(kb) == 2
    for k in kb:
        assert primitive_vector(k) in (k, [-x for x in k])


def test_unimodular_inverse_roundtrip():
    rng = random.Random(11)
    for _ in range(50):
        n = rng.randint(1, 20)
        # random unimodular: product of elementary matrices
        m = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
        for _ in range(2 * n + 6):
            i, j = rng.randrange(n), rng.randrange(n)
            if i != j:
                q = rng.randint(-3, 3)
                for t in range(n):
                    m[i][t] += q * m[j][t]
        inv = unimodular_inverse(m)
        ident = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
        assert mat_mul(m, inv) == ident
        assert mat_mul(inv, m) == ident


@pytest.mark.parametrize(
    "m",
    [
        [[2]],
        [[0]],
        [[2, 0], [0, 1]],
        [[1, 2], [2, 4]],
        [[1, 1, 0], [0, 1, 1], [1, 0, 1]],  # det 2
        [[1, 0, 0], [0, 1, 0]],  # not square
    ],
)
def test_unimodular_inverse_rejects_other_matrices(m):
    with pytest.raises(ValueError):
        unimodular_inverse(m)


def test_solve_exact():
    sol = solve_exact([[2, 1], [1, 3]], [5, 10])
    assert [2 * sol[0] + sol[1], sol[0] + 3 * sol[1]] == [5, 10]


def test_invariant_factors_textbook():
    assert invariant_factors([[2, 0], [0, 4]]) == [2, 4]
    assert invariant_factors([[2, 0], [0, 3]]) == [1, 6]
    assert invariant_factors([[0]]) == []


def test_quotient_of_z2_by_antidiagonal():
    project, lift, torsion = quotient_map([[1, -1]], 2)
    assert torsion == []
    assert len(project) == 1
    # class map composed with lift is the identity on the quotient
    for b in range(len(project)):
        rep = [lift[i][b] for i in range(2)]
        cls = mat_vec([list(p) for p in project], rep)
        assert cls == [1 if t == b else 0 for t in range(len(project))]
