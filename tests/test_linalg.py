from fractions import Fraction

import pytest

from dynwg import linalg

F = Fraction


def test_invert_and_solve():
    a = [[F(2), F(1)], [F(1), F(1)]]
    inv = linalg.invert(a)
    assert linalg.mat_mul(a, inv) == linalg.identity(2)
    # a x = (3, 2) is solved by x = a^-1 (3, 2)
    assert linalg.mat_vec(inv, [F(3), F(2)]) == [F(1), F(1)]


def test_invert_singular_raises():
    a = [[F(1), F(2)], [F(2), F(4)]]
    with pytest.raises(ValueError):
        linalg.invert(a)


def test_nullspace_known_kernel():
    # rank-1 matrix; kernel is spanned by (2, -1) up to scaling
    a = [[F(1), F(2)]]
    basis = linalg.nullspace(a, 2)
    assert len(basis) == 1
    v = basis[0]
    assert v[0] + 2 * v[1] == 0 and any(v)


def test_nullspace_full_and_trivial():
    assert linalg.nullspace([], 3) == [
        [F(1), F(0), F(0)],
        [F(0), F(1), F(0)],
        [F(0), F(0), F(1)],
    ]
    assert linalg.nullspace(linalg.identity(2), 2) == []


def test_rank_leaves_its_input_unchanged():
    a = [[1, 2, 3], [2, 4, 6]]
    assert linalg.rank(a, 3) == 1 and a == [[1, 2, 3], [2, 4, 6]]
    assert linalg.rank(a, 1) == 1
    assert linalg.rank([[F(1, 2), 1], [1, F(1, 3)]], 2) == 2
    assert linalg.rank([], 2) == 0


def test_mat_vec_and_arithmetic():
    a = [[F(1), F(2)], [F(3), F(4)]]
    assert linalg.mat_vec(a, [F(1), F(1)]) == [F(3), F(7)]
    assert linalg.transpose(a) == [[F(1), F(3)], [F(2), F(4)]]
