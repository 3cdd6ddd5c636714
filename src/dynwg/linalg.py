"""Dense exact linear algebra over the rationals.

Matrices are lists of row lists of Fractions or ints (a Cartan matrix, an
integer weight block).  invert and nullspace return Fractions; mat_mul keeps
int matrices int.  Everything here is small (weight-space dimensions), so
plain Gauss-Jordan is fine.
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


def invert(a: Matrix) -> Matrix:
    """Inverse by Gauss-Jordan; raises ValueError on singular input."""
    n = len(a)
    aug = [[Fraction(x) for x in row] + identity(n)[i] for i, row in enumerate(a)]
    for col in range(n):
        piv = next((r for r in range(col, n) if aug[r][col]), None)
        if piv is None:
            raise ValueError("singular matrix")
        aug[col], aug[piv] = aug[piv], aug[col]
        inv_p = ONE / aug[col][col]
        aug[col] = [x * inv_p for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                c = aug[r][col]
                aug[r] = [x - c * y for x, y in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


def nullspace(a: Matrix, cols: int) -> list[Vector]:
    """Deterministic basis of the kernel of the (rows x cols) matrix a."""
    if not a:
        return [[ONE if j == i else ZERO for j in range(cols)] for i in range(cols)]
    m = [list(row) for row in a]
    rows = len(m)
    pivots: list[int] = []
    r = 0
    for c in range(cols):
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
        r += 1
        if r == rows:
            break
    free = [c for c in range(cols) if c not in pivots]
    basis = []
    for f in free:
        v = [ZERO] * cols
        v[f] = ONE
        for i, p in enumerate(pivots):
            v[p] = -m[i][f]
        basis.append(v)
    return basis


def transpose(a: Matrix) -> Matrix:
    return [list(col) for col in zip(*a)] if a else []
