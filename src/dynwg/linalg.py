"""Dense exact linear algebra over the rationals.

Matrices are lists of row lists of Fractions or ints (a Cartan matrix, an
integer weight block).  invert and nullspace return Fractions; mat_mul keeps
int matrices int.  Everything here is small (weight-space dimensions), so
plain Gauss-Jordan is fine: invert, nullspace and rank share one, _reduce.
"""

from __future__ import annotations

from fractions import Fraction

Matrix = list[list[Fraction]]
Vector = list[Fraction]

ZERO = Fraction(0)
ONE = Fraction(1)


def zeros(rows: int, cols: int) -> Matrix:
    return [[ZERO] * cols for _ in range(rows)]


def identity(n: int) -> Matrix:
    m = zeros(n, n)
    for i in range(n):
        m[i][i] = ONE
    return m


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


def mat_vec(a: Matrix, v: Vector) -> Vector:
    return [sum((row[j] * v[j] for j in range(len(v)) if v[j]), ZERO) for row in a]


def _reduce(m: Matrix, cols: int) -> list[int]:
    """Gauss-Jordan on the first cols columns of m, in place: m becomes
    reduced row echelon there, with its other columns carried along.
    Returns the pivot columns; pivot row k is row k of m."""
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
        inv_p = ONE / m[r][c]
        m[r] = [x * inv_p for x in m[r]]
        for i in range(rows):
            if i != r and m[i][c]:
                ci = m[i][c]
                m[i] = [x - ci * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
    return pivots


def invert(a: Matrix) -> Matrix:
    """Inverse by Gauss-Jordan on [a | I]; raises ValueError on singular input."""
    n = len(a)
    aug = [[Fraction(x) for x in row] + identity(n)[i] for i, row in enumerate(a)]
    if len(_reduce(aug, n)) < n:
        raise ValueError("singular matrix")
    return [row[n:] for row in aug]


def nullspace(a: Matrix, cols: int) -> list[Vector]:
    """Deterministic basis of the kernel of the (rows x cols) matrix a: one
    vector per non-pivot column f, with 1 at f."""
    m = [list(row) for row in a]
    pivots = _reduce(m, cols)
    free = [c for c in range(cols) if c not in pivots]
    basis = []
    for f in free:
        v = [ZERO] * cols
        v[f] = ONE
        for i, p in enumerate(pivots):
            v[p] = -m[i][f]
        basis.append(v)
    return basis


def rank(a: Matrix, cols: int) -> int:
    """Rank of the (rows x cols) matrix a."""
    return len(_reduce([list(row) for row in a], cols))


def transpose(a: Matrix) -> Matrix:
    return [list(col) for col in zip(*a)] if a else []
