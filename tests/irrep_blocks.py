"""Conversions between an Irrep's generator blocks (N, d), an int matrix N
over an int d > 0 in lowest terms, and dense Fraction matrices, for the
tests' oracles and block editors; linalg.invert returns such a block, and
linalg.nullspace each kernel vector as a pair (ints, d)."""

from fractions import Fraction
from math import lcm


def dense(pair):
    """The Fraction matrix N / d of a block (N, d)."""
    n, d = pair
    return [[Fraction(x, d) for x in row] for row in n]


def dense_vector(pair):
    """The Fraction vector ints / d of a pair (ints, d)."""
    ints, d = pair
    return [Fraction(x, d) for x in ints]


def pair(matrix):
    """The block (N, d) of a matrix of Fractions or ints: d, the lcm of the
    entries' denominators, puts N / d in lowest terms."""
    d = lcm(*(Fraction(x).denominator for row in matrix for x in row))
    return [[int(x * d) for x in row] for row in matrix], d
