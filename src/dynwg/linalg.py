"""Dense exact linear algebra over the rationals.

Matrices are lists of row lists of Fractions or ints (a Cartan matrix, the
int matrix N of a generator block (N, d)).  Exact results are ints over one
denominator: invert returns a Block (N, d), and nullspace each kernel vector
as (ints, d), both in lowest terms; mat_mul keeps int matrices int.
Everything here is small (weight-space dimensions), so plain Gauss-Jordan is
fine: invert, nullspace and rank share one, _reduce, which eliminates on ints
to row echelon form with zeros above and below each pivot and leaves the
pivots unnormalized.  No Fraction is made.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from math import gcd, lcm

Matrix = list[list[Fraction]]
Block = tuple[Matrix, int]  # (N, d): the matrix N / d, N an int matrix and d > 0 an int


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    """a @ b; also exact on int matrices, whose product is then an int matrix."""
    n, k = len(a), len(b)
    cols = len(b[0]) if b else 0
    out = [[0] * cols for _ in range(n)]
    for i in range(n):
        arow = a[i]
        orow = out[i]
        for t in range(k):
            c = arow[t]
            if c:
                brow = b[t]
                for j in range(cols):
                    if brow[j]:
                        orow[j] += c * brow[j]
    return out


def lowest(n: Matrix, d: int) -> Block:
    """(n, d), an int matrix over an int d > 0, divided by their gcd."""
    g = gcd(d, *chain.from_iterable(n))
    return ([[x // g for x in row] for row in n] if g > 1 else n), d // g


def _reduce(m: Matrix, cols: int) -> list[int]:
    """Gauss-Jordan on the first cols columns of m, in place: m becomes an
    int matrix in row echelon form there, with zeros above and below each
    pivot and its other columns carried along.  Returns the pivot columns;
    pivot row k is row k of m, its pivot not normalized to 1.

    Fraction-free (Bareiss, Math. Comp. 1968): the rows are scaled to ints,
    and a row is cleared by an int combination with the pivot row and
    divided by its gcd.  No Fraction is made."""
    m[:] = [[x.numerator * (d // x.denominator) for x in row]
            for row in m for d in [lcm(*(x.denominator for x in row))]]
    pivots: list[int] = []
    rows = len(m)
    for c in range(cols):
        r = len(pivots)
        if r == rows:
            break
        piv = next((i for i in range(r, rows) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        prow, p = m[r], m[r][c]
        for i in range(rows):
            if i != r and m[i][c]:
                g = gcd(p, m[i][c])
                a, b = p // g, m[i][c] // g
                new = [a * x - b * y for x, y in zip(m[i], prow)]
                g = gcd(*new)
                m[i] = new if g <= 1 else [x // g for x in new]
        pivots.append(c)
    return pivots


def invert(a: Matrix) -> Block:
    """The inverse as a Block in lowest terms, by Gauss-Jordan on [a | I];
    raises ValueError on non-square or singular input."""
    n = len(a)
    if any(len(row) != n for row in a):
        raise ValueError("matrix is not square")
    aug = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(a)]
    if len(_reduce(aug, n)) < n:
        raise ValueError("singular matrix")
    d = lcm(*(row[r] for r, row in enumerate(aug)))  # row r / its pivot is row r of a^-1
    return lowest([[x * (d // row[r]) for x in row[n:]] for r, row in enumerate(aug)], d)


def nullspace(a: Matrix, cols: int) -> list[tuple[list[int], int]]:
    """Deterministic basis of the kernel of the (rows x cols) matrix a: one
    vector ints / d per non-pivot column f, with 1 at f, in lowest terms."""
    m = [list(row) for row in a]
    pivots = _reduce(m, cols)
    d = lcm(*(row[p] for row, p in zip(m, pivots)))
    basis = []
    for f in (c for c in range(cols) if c not in pivots):
        v = [0] * cols
        v[f] = d
        for row, p in zip(m, pivots):
            v[p] = -row[f] * (d // row[p])
        g = gcd(d, *v)
        basis.append(([x // g for x in v], d // g))
    return basis


def rank(a: Matrix, cols: int) -> int:
    """Rank of the (rows x cols) matrix a."""
    return len(_reduce([list(row) for row in a], cols))


def transpose(a: Matrix) -> Matrix:
    return [list(col) for col in zip(*a)] if a else []
