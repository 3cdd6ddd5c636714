import random
from fractions import Fraction

import pytest

from dynwg import linalg

F = Fraction


def test_invert_and_solve():
    a = [[F(2), F(1)], [F(1), F(1)]]
    inv = linalg.invert(a)
    assert linalg.mat_mul(a, inv) == [[1, 0], [0, 1]]
    # a x = (3, 2) is solved by x = a^-1 (3, 2)
    assert linalg.mat_mul(inv, [[F(3)], [F(2)]]) == [[F(1)], [F(1)]]


def test_invert_singular_raises():
    a = [[F(1), F(2)], [F(2), F(4)]]
    with pytest.raises(ValueError):
        linalg.invert(a)


def test_invert_rejects_a_non_square_matrix():
    for a in ([[1, 2]], [[1], [2]], [[F(1), F(2)], [F(3)]]):
        with pytest.raises(ValueError, match="matrix is not square"):
            linalg.invert(a)


def _fraction_reduce(m, cols):
    """Gauss-Jordan over Fractions, the elimination linalg._reduce replaced."""
    pivots = []
    rows = len(m)
    for c in range(cols):
        r = len(pivots)
        if r == rows:
            break
        piv = next((i for i in range(r, rows) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv_p = F(1) / m[r][c]
        m[r] = [x * inv_p for x in m[r]]
        for i in range(rows):
            if i != r and m[i][c]:
                ci = m[i][c]
                m[i] = [x - ci * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
    return pivots


def _oracle_invert(a):
    n = len(a)
    aug = [[F(x) for x in row] + [F(int(i == j)) for j in range(n)] for i, row in enumerate(a)]
    if len(_fraction_reduce(aug, n)) < n:
        raise ValueError("singular matrix")
    return [row[n:] for row in aug]


def _oracle_nullspace(a, cols):
    m = [list(row) for row in a]
    pivots = _fraction_reduce(m, cols)
    basis = []
    for f in (c for c in range(cols) if c not in pivots):
        v = [F(0)] * cols
        v[f] = F(1)
        for i, p in enumerate(pivots):
            v[p] = -m[i][f]
        basis.append(v)
    return basis


def _random_matrix(rng, rows, cols):
    """Small ints or Fractions, some rows and columns zero, some rows
    dependent on others."""
    def entry():
        x = rng.choice([0, 0, 0] + list(range(-4, 5)))
        return F(x, rng.randint(1, 6)) if rng.random() < 0.4 else x
    a = [[entry() for _ in range(cols)] for _ in range(rows)]
    if rows and rng.random() < 0.2:
        a[rng.randrange(rows)] = [0] * cols
    if cols and rng.random() < 0.2:
        z = rng.randrange(cols)
        for row in a:
            row[z] = 0
    if rows > 1 and rng.random() < 0.3:
        i, j = rng.sample(range(rows), 2)
        c = F(rng.randint(-3, 3), rng.randint(1, 3))
        a[i] = [x + c * y for x, y in zip(a[i], a[j])]
    return a


def test_fraction_free_elimination_matches_fraction_gauss_jordan():
    rng = random.Random(20261019)
    singular = 0
    for trial in range(4000):
        n = rng.randint(1, 5)
        rows, cols = (n, n) if trial % 2 else (rng.randint(0, 5), rng.randint(1, 5))
        a = _random_matrix(rng, rows, cols)
        before = [list(row) for row in a]
        if rows == cols:
            try:
                expected = _oracle_invert(a)
            except ValueError as err:
                singular += 1
                with pytest.raises(ValueError, match=str(err)):
                    linalg.invert(a)
            else:
                got = linalg.invert(a)
                assert got == expected and {type(x) for row in got for x in row} == {F}
        got = linalg.nullspace(a, cols)
        assert got == _oracle_nullspace(a, cols)
        assert all(type(x) is F for v in got for x in v)
        assert linalg.rank(a, cols) == len(_fraction_reduce([list(r) for r in a], cols))
        assert a == before
    assert singular > 200


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
    assert linalg.nullspace([[F(1), F(0)], [F(0), F(1)]], 2) == []


def test_rank_leaves_its_input_unchanged():
    a = [[1, 2, 3], [2, 4, 6]]
    assert linalg.rank(a, 3) == 1 and a == [[1, 2, 3], [2, 4, 6]]
    assert linalg.rank(a, 1) == 1
    assert linalg.rank([[F(1, 2), 1], [1, F(1, 3)]], 2) == 2
    assert linalg.rank([], 2) == 0


def test_elimination_makes_only_the_fractions_it_returns(monkeypatch):
    made = []

    class Counted(F):
        def __new__(cls, *args):
            made.append(args)
            return super().__new__(cls, *args)

    monkeypatch.setattr(linalg, "Fraction", Counted)
    a = [[2, 1, 0], [1, 3, 1], [0, 1, 4]]
    assert linalg.rank(a, 3) == 3 and linalg.rank([[F(1, 2), 1], [1, F(1, 3)]], 2) == 2
    assert made == []
    m = [list(row) for row in a]
    assert linalg._reduce(m, 3) == [0, 1, 2] and made == []
    # int pivot rows in row echelon form, with zeros above and below each pivot
    assert {type(x) for row in m for x in row} == {int}
    assert all(m[r][c] == 0 for r in range(3) for c in range(3) if r != c)
    assert all(m[r][r] for r in range(3))
    assert linalg.invert([[2, 1], [1, 1]]) == [[1, -1], [-1, 2]]
    assert len(made) == 4  # the right half of [a | I] only
    made.clear()
    assert linalg.nullspace([[1, 2, 3]], 3) == [[-2, 1, 0], [-3, 0, 1]]
    assert len(made) == 2  # one per pivot and free column


def test_transpose():
    a = [[F(1), F(2)], [F(3), F(4)]]
    assert linalg.transpose(a) == [[F(1), F(3)], [F(2), F(4)]]
