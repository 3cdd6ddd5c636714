"""Construction of irreducible highest-weight representations with exact
rational Chevalley generator matrices.

The builder walks weight levels top-down.  Candidate vectors at each level are
f_i applied to the basis of the level above; the contravariant (Shapovalov)
Gram matrix of the candidates is computed from the previous level's data, and
an echelon sweep in a fixed monomial order picks the quotient basis.  The form
is positive definite on the irreducible quotient, so Gram rank equals the
weight-space dimension.

The candidates and the basis are divided-power monomials f_{i1}^(n1) ...
f_{is}^(ns) v, on which the form takes integer values (Kostant's Z-form), so
the Gram entries are ints.  The sweep grows the determinant and the integer
adjugate of the chosen Gram block by bordering (one Schur complement per
pick, with exact integer division as in Bareiss's elimination).  Both
generators are read off one int pairing P = <f_i V_{nu+alpha_i}, V_nu>, a
block of the Gram matrix scaled by run lengths (f_i takes a monomial whose
first run is f_i^(n-1) to n times a monomial): f_i = G^-1 P^T, and e_i is
its contravariant adjoint, G^-1 P one level up (Shapovalov, Funct. Anal.
Appl. 1972).  Each block is reduced once, to the int matrix N over one int
d > 0 in lowest terms that the Irrep keeps, and no rescale follows.

Independent oracles (Weyl dimension formula and Freudenthal recursion) are
implemented without reference to the constructed matrices.  Both run on
ints: an integer root frame (D, adj, L, dl) per type, with D * A^-1 = adj and
L * d = dl, gives root coordinates, the positive-cone test and the invariant
inner product scaled to integers.

The builder, the Freudenthal recursion and the Chevalley-Serre check (one
sparse integer operator per generator, over global basis indices) work on
weights as plain coordinate tuples; Weights are made only for a returned Irrep.
The Chevalley-Serre check computes the rank^2 brackets [e_i, f_j]; when they
all hold, the Serre relations follow by the sl(2) argument (Humphreys,
Introduction to Lie Algebras and Representation Theory, 18.1), and the Serre
brackets are computed only to name the failures of an irrep that fails.
A broken invariant of the oracles or the builder raises RepError.

sl2_strings owns the sl(2)-string data of a weight space, and keeps it on the
irrep once per (i, nu).  Each string's transfer map is rho * f_i^n * Pi
(e_i^-n for n = <nu, coroot_i> < 0), an int product of the generator blocks,
with Pi the projection onto the string.  The primitives are the kernel of e_i
at the string's top w, from linalg.nullspace as int pairs (ints, d), kept per
(i, w) for every weight on the alpha_i-string to share.  Pi is the identity
when V_nu is one string; otherwise a change of basis is inverted, whose
columns are the kernel's int vectors times k of f_i's int matrices N: f_i^k u
up to a scalar per column, which leaves each string's projection as it is.
"""

from __future__ import annotations

import json
import os
import re
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import groupby
from math import factorial, lcm

from . import linalg
from .linalg import Block, Matrix, lowest
from .rootdata import (
    LieType,
    RootDataError,
    Weight,
    cartan_matrix,
    check_rank,
    positive_coroots,
    positive_roots_in_simple_basis,
    simple_root,
)

Word = tuple[int, ...]  # f_{i1} f_{i2} ... f_{ik} v, leftmost applied last
Coords = tuple[int, ...]  # the coordinates of a Weight


class RepError(Exception):
    pass


class DimensionCapError(RepError):
    pass


def weight_add(a: Weight, b: Weight) -> Weight:
    return Weight(tuple(x + y for x, y in zip(a.coords, b.coords)))


def weight_sub(a: Weight, b: Weight) -> Weight:
    return Weight(tuple(x - y for x, y in zip(a.coords, b.coords)))


# ---------------------------------------------------------------------------
# oracles


def _check_highest_weight(t: LieType, lam: Weight):
    check_rank(t, lam)
    if not lam.is_dominant():
        raise RepError(f"highest weight {lam} is not dominant")


def weyl_dimension(t: LieType, lam: Weight) -> int:
    """dim V(lam) by the Weyl dimension formula."""
    _check_highest_weight(t, lam)
    return _weyl_dimension(t, lam)


@lru_cache(maxsize=None)
def _weyl_dimension(t: LieType, lam: Weight) -> int:
    num = den = 1
    for g in positive_coroots(t):
        num *= sum(c * (m + 1) for c, m in zip(g.coords, lam.coords))
        den *= g.height()
    d, r = divmod(num, den)
    if r:
        raise RepError(f"Weyl dimension of V({lam}) is not an integer: {num}/{den}")
    return d


@lru_cache(maxsize=None)
def _simple_roots(t: LieType) -> tuple[Coords, ...]:
    """alpha_1, ..., alpha_r in fundamental coordinates."""
    return tuple(simple_root(t, i).coords for i in range(1, t.rank + 1))


@lru_cache(maxsize=None)
def _symmetrizers(t: LieType) -> tuple[Fraction, ...]:
    """d_i with d_i * A[i][j] symmetric, found by walking the Dynkin graph."""
    a = cartan_matrix(t)
    r = t.rank
    d: list[Fraction | None] = [None] * r
    d[0] = Fraction(1)
    frontier = [0]
    while frontier:
        i = frontier.pop()
        for j in range(r):
            if i != j and a[i][j] and d[j] is None:
                d[j] = d[i] * a[i][j] / a[j][i]
                frontier.append(j)
    if any(x is None for x in d):
        raise RepError(f"the Dynkin graph of {t} is not connected")
    return tuple(d)


@lru_cache(maxsize=None)
def _root_frame(t: LieType) -> tuple[int, tuple[Coords, ...], int, Coords]:
    """(D, adj, L, dl), all integers, with D * A^-1 = adj and L * d = dl.

    adj maps fundamental coordinates to D times simple-root coordinates, and
    the W-invariant inner product is (mu, nu) = sum_j (adj nu)_j dl_j mu_j / (D L).
    """
    adj, D = linalg.invert(cartan_matrix(t))
    d = _symmetrizers(t)
    L = lcm(*(x.denominator for x in d))
    return D, tuple(map(tuple, adj)), L, tuple(int(x * L) for x in d)


def _scaled_root_coords(t: LieType, coords: Coords) -> list[int]:
    """D times the simple-root coordinates of a vector in fundamental coordinates."""
    return [sum(a * c for a, c in zip(row, coords)) for row in _root_frame(t)[1]]


def _scaled_norm(t: LieType, coords: Coords) -> int:
    """D * L * (mu, mu)."""
    dl = _root_frame(t)[3]
    return sum(c * w * m for c, w, m in zip(_scaled_root_coords(t, coords), dl, coords))


@lru_cache(maxsize=None)
def _freudenthal_roots(t: LieType) -> tuple[tuple[Coords, Coords, Coords], ...]:
    """Per positive root alpha: alpha in fundamental coordinates, D * c_alpha,
    and the vector c_alpha * dl, whose dot product with nu is L * (alpha, nu)."""
    a = cartan_matrix(t)
    D, _, _, dl = _root_frame(t)
    r = range(t.rank)
    return tuple(
        (tuple(sum(a[i][j] * c[j] for j in r) for i in r),
         tuple(D * x for x in c),
         tuple(x * w for x, w in zip(c, dl)))
        for c in positive_roots_in_simple_basis(t)
    )


def freudenthal_multiplicity(t: LieType, lam: Weight, mu: Weight) -> int:
    """Weight multiplicity of mu in V(lam) by the Freudenthal recursion."""
    _check_highest_weight(t, lam)
    check_rank(t, mu)
    return _freudenthal(t, lam.coords, _dominant(t, mu.coords))


def _dominant(t: LieType, mu: Coords) -> Coords:
    """The dominant W-conjugate of mu, by reflecting in its first negative coordinate."""
    roots = _simple_roots(t)
    while True:
        for i, c in enumerate(mu):
            if c < 0:
                mu = tuple(m - c * a for m, a in zip(mu, roots[i]))
                break
        else:
            return mu


@lru_cache(maxsize=None)
def _freudenthal(t: LieType, lam: Coords, mu: Coords) -> int:
    """m_mu = 2 sum_{alpha > 0, k >= 1} m_{mu + k alpha} (alpha, mu + k alpha)
    / (|lam + rho|^2 - |mu + rho|^2), on integers: the numerator is scaled by
    L and the denominator by D L."""
    if mu == lam:
        return 1
    D = _root_frame(t)[0]
    gap = _scaled_root_coords(t, tuple(x - y for x, y in zip(lam, mu)))
    if any(x < 0 or x % D for x in gap):
        return 0  # lam - mu is not a sum of positive roots
    total = 0
    for alpha, d_alpha, w in _freudenthal_roots(t):
        nu = mu
        rest = gap
        while True:
            # lam - (mu + k alpha) stays in the root lattice; only its sign can fail
            nu = tuple(x + y for x, y in zip(nu, alpha))
            rest = [x - y for x, y in zip(rest, d_alpha)]
            if any(x < 0 for x in rest):
                break
            m = _freudenthal(t, lam, _dominant(t, nu))
            if m:
                total += m * sum(x * y for x, y in zip(w, nu))
    denom = (_scaled_norm(t, tuple(x + 1 for x in lam))  # |lam + rho|^2, rho = (1, ..., 1)
             - _scaled_norm(t, tuple(x + 1 for x in mu)))
    if denom <= 0:
        # (lam - mu, lam + mu + 2 rho) > 0 for a dominant mu below lam
        raise RepError(f"Freudenthal denominator {denom} at {Weight(mu)} in V({Weight(lam)})")
    mult, rem = divmod(2 * total * D, denom)
    if rem or mult < 0:
        raise RepError(f"Freudenthal multiplicity {Fraction(2 * total * D, denom)} at"
                       f" {Weight(mu)} in V({Weight(lam)}) is not a natural number")
    return mult


def dominant_weights_up_to_dim(t: LieType, dim_cap: int) -> list[Weight]:
    """All dominant highest weights lam with weyl_dimension <= dim_cap, by
    dimension, then coordinates.  Raising a coordinate raises the dimension,
    so the search walks up from 0 one coordinate sum at a time."""
    out: list[tuple[int, Coords]] = []  # (dimension, coords)
    frontier = {(0,) * t.rank}
    while frontier:
        kept = [(d, lam) for lam in frontier if (d := _weyl_dimension(t, Weight(lam))) <= dim_cap]
        out += kept
        frontier = {lam[:i] + (lam[i] + 1,) + lam[i + 1:] for _, lam in kept for i in range(t.rank)}
    return [Weight(lam) for _, lam in sorted(out)]


# ---------------------------------------------------------------------------
# irreducible representation


@dataclass
class Irrep:
    """V(hw) with exact generator matrices, graded by weight.

    Basis vectors are divided-power monomials, labelled by their words
    (basis_labels); per-weight blocks of the generators are kept separately
    (weights never mix under e_i, f_i, h_i).  Each block is a Block (N, d) in
    lowest terms: gcd(d, entries of N) = 1.
    """

    type: LieType
    hw: Weight
    basis: dict[Weight, list[Word]]
    e_blocks: dict[tuple[int, Weight], Block]  # (i, nu): V_nu -> V_{nu+alpha_i}
    f_blocks: dict[tuple[int, Weight], Block]  # (i, nu): V_nu -> V_{nu-alpha_i}
    weight_order: list[Weight] = field(default_factory=list)
    # (i, nu) -> sl2_strings(V, i, nu), which only sl2_strings reads and
    # writes; kept as long as this irrep
    string_parts: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    # (i, w) -> linalg.nullspace of e_i at w, the primitives that sl2_strings
    # reads there for every weight below w on the alpha_i-string
    kernels: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    # mu -> [step products, reduced product] of the last word that
    # dynweyl.word_operator_block composed at mu, for the next word to reuse
    word_steps: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.weight_order:
            self.weight_order = sorted(
                self.basis, key=lambda w: (_level(self.type, self.hw, w), w.coords)
            )

    @property
    def dim(self) -> int:
        return sum(len(b) for b in self.basis.values())

    def weight_dim(self, nu: Weight) -> int:
        return len(self.basis.get(nu, ()))

    def weights(self) -> list[Weight]:
        return list(self.weight_order)

    def basis_labels(self, nu: Weight) -> list[str]:
        """Divided-power monomial labels, e.g. f1^(2)*f2*v."""
        return ["*".join([f"f{i}" if n == 1 else f"f{i}^({n})" for i, n in _runs(word)] + ["v"])
                for word in self.basis.get(nu, [])]

    def e_block(self, i: int, nu: Weight) -> Block:
        return self._block(self.e_blocks, weight_add, i, nu)

    def f_block(self, i: int, nu: Weight) -> Block:
        return self._block(self.f_blocks, weight_sub, i, nu)

    def _block(self, blocks, shift, i: int, nu: Weight) -> Block:
        blk = blocks.get((i, nu))  # else zeros over 1: V_nu -> V_{shift(nu, alpha_i)}
        if blk is None:
            rows = self.weight_dim(shift(nu, simple_root(self.type, i)))
            blk = [[0] * self.weight_dim(nu) for _ in range(rows)], 1
        return blk


def _runs(word: Word) -> list[tuple[int, int]]:
    """(letter, length) for each run of one letter in the word, in order."""
    return [(letter, len(list(run))) for letter, run in groupby(word)]


def _level(t: LieType, hw: Weight, nu: Weight) -> int:
    """The height of hw - nu, which must lie in the root lattice."""
    D = _root_frame(t)[0]
    gap = _scaled_root_coords(t, weight_sub(hw, nu).coords)
    if any(x % D for x in gap):
        raise RepError(f"{nu} is not in the root lattice coset of {hw}")
    return sum(gap) // D


# A generator scaled to integers, over V's global basis indices: column -> {row: entry}.
Operator = dict[int, dict[int, int]]


def _scaled_operators(V: Irrep, blocks, sign: int, offset: dict) -> dict[int, tuple[int, Operator]]:
    """i -> (D, D * g_i) for the e (sign +1) or f (sign -1) generators, D the lcm
    of the denominators d of g_i's blocks (N, d), so that an entry x of N
    becomes x * (D / d); V_nu starts at global index offset[nu]."""
    alphas = _simple_roots(V.type)
    dens = {i: lcm(*(d for (j, _), (_, d) in blocks.items() if j == i))
            for i in range(1, len(alphas) + 1)}
    ops: dict[int, Operator] = {i: {} for i in dens}
    for (i, nu), (n, d) in blocks.items():
        op, scale = ops[i], dens[i] // d
        source = offset[nu.coords]
        target = offset.get(tuple(x + sign * y for x, y in zip(nu.coords, alphas[i - 1])))
        for r, row in enumerate(n):
            for c, x in enumerate(row):
                if x:
                    op.setdefault(source + c, {})[target + r] = x * scale
    return {i: (dens[i], op) for i, op in ops.items()}


def _bracket(a: Operator, b: Operator) -> Operator:
    """[a, b] = ab - ba, nonzero entries only."""
    out: Operator = {}
    for x, y, sign in ((a, b, 1), (b, a, -1)):
        for col, ycol in y.items():
            acc = out.setdefault(col, {})
            for mid, v in ycol.items():
                xcol = x.get(mid)
                if xcol:
                    v *= sign
                    for row, u in xcol.items():
                        acc[row] = acc.get(row, 0) + u * v
    return {col: nz for col, acc in out.items() if (nz := {r: v for r, v in acc.items() if v})}


def _ef_relation_holds(E, F, i: int, j: int, weights: list[Coords]) -> bool:
    """Whether [e_i, f_j] = delta_ij h_i, for the scaled operators E and F."""
    comm = _bracket(E[i][1], F[j][1])
    if i != j:
        return not comm
    # comm is D_e * D_f * [e_i, f_i], and must be D_e * D_f * nu_i on V_nu
    d = E[i][0] * F[i][0]
    return all(comm.get(c, {}) == ({c: d * nu[i - 1]} if nu[i - 1] else {})
               for c, nu in enumerate(weights))


def check_chevalley_serre(V: Irrep) -> list[str]:
    """Verify the defining relations on the generator matrices exactly.

    Returns a list of human-readable failure descriptions (empty = all good).
    Each e_i and f_i is scaled to ints once, over the lcm of its blocks'
    denominators, as one sparse Operator over global basis indices.  h_i acts
    by the weight grading, the scalar nu_i on V_nu, and every block of e_j
    (f_j) is keyed V_nu -> V_{nu + alpha_j} (V_{nu - alpha_j}); so
    [h_i, e_j] = a_ij e_j and [h_i, f_j] = -a_ij f_j hold by how the blocks
    are keyed.

    The rank^2 relations [e_i, f_j] = delta_ij h_i are checked first.  When
    they all hold, so do the Serre relations, and no Serre bracket is
    computed (Humphreys, Introduction to Lie Algebras and Representation
    Theory, 18.1): e_i, h_i, f_i then span a copy of sl(2), which acts by ad
    on the finite-dimensional End(V).  For j != i, ad(f_i) e_j = -[e_j, f_i]
    = 0 and ad(h_i) e_j = a_ij e_j, so e_j is a lowest-weight vector of
    weight a_ij <= 0, and ad(e_i)^(1 - a_ij) e_j = 0; dually f_j is a
    highest-weight vector of weight -a_ij, and ad(f_i)^(1 - a_ij) f_j = 0.
    When some [e_i, f_j] relation fails, the Serre relations are checked as
    well, and the list names every failing relation, ordered by (i, j).
    """
    a = cartan_matrix(V.type)
    offset: dict[Coords, int] = {}
    weights: list[Coords] = []  # the weight of each global basis index
    for nu in V.weight_order:
        offset[nu.coords] = len(weights)
        weights += [nu.coords] * V.weight_dim(nu)
    E = _scaled_operators(V, V.e_blocks, +1, offset)
    F = _scaled_operators(V, V.f_blocks, -1, offset)
    holds = {(i, j): _ef_relation_holds(E, F, i, j, weights) for i in E for j in E}
    if all(holds.values()):
        return []  # the Serre relations follow, as above

    failures = []
    for (i, j), ok in holds.items():
        if not ok:
            failures.append(f"[e_{i}, f_{i}] != h_{i}" if i == j else f"[e_{i}, f_{j}] != 0")
        if i != j:
            n = 1 - a[i - 1][j - 1]
            for kind, gens in (("e", E), ("f", F)):
                cur = gens[j][1]
                for _ in range(n):
                    cur = _bracket(gens[i][1], cur)
                if cur:
                    failures.append(f"Serre relation ad({kind}_{i})^{n}({kind}_{j}) != 0")
    return failures


# ---------------------------------------------------------------------------
# construction


def _solve(adj: Matrix, det: int, m: Matrix) -> Block:
    """(N, d) = G^-1 m in lowest terms, for int matrices m and adj = det * G^-1."""
    return lowest(linalg.mat_mul(adj, m), det)


class _IrrepBuilder:
    """Builds V(hw) on divided-power monomials u_w, where f_i u_b = lead(w) u_w
    for w = (i,) + b, lead(w) the length of w's first run.  Gram entries are
    ints.  At each (i, nu), with sigma = nu + alpha_i, the int pairing
    P[b][v] = <f_i u_b, u_v> of V_sigma with V_nu is the Gram entry at nu of
    the candidate (i,) + b times its lead; f_i is G_nu^-1 P^T, and e_i, its
    contravariant adjoint, is G_sigma^-1 P.  Each is the Irrep's block (N, d),
    reduced once by _solve."""

    def __init__(self, t: LieType, hw: Weight):
        self.t = t
        self.hw = hw
        self.alphas = _simple_roots(t)
        top = hw.coords
        self.up: dict[Coords, tuple[Coords, ...]] = {}  # nu -> (nu + alpha_i for each i)
        self.down: dict[Coords, tuple[Coords, ...]] = {}  # nu -> (nu - alpha_i for each i)
        self._add_shifts(top)
        # every weight with a nonzero weight space, filled level by level,
        # each in coordinate order: Irrep's weight order
        self.basis: dict[Coords, list[Word]] = {top: [()]}
        # per weight of the last two levels: (each candidate's index and lead, the
        # chosen rows of the candidate Gram matrix, adj G, det G) for the chosen block G
        self.gram: dict[Coords, tuple[dict[Word, int], list[int], Matrix, Matrix, int]] = {
            top: ({(): 0}, [1], [[1]], [[1]], 1)}
        # the Irrep's blocks (N, d), keyed by coordinates, where the block's target is a weight
        self.eblocks: dict[tuple[int, Coords], Block] = {}
        self.fblocks: dict[tuple[int, Coords], Block] = {}

    def _add_shifts(self, nu: Coords):
        self.up[nu], self.down[nu] = (
            tuple(tuple(x + s * y for x, y in zip(nu, alpha)) for alpha in self.alphas)
            for s in (1, -1))

    def build(self) -> Irrep:
        weights = [self.hw.coords]
        while weights:
            weights = self._process_level(weights)
        return self._assemble()

    def _process_level(self, prev_weights: list[Coords]) -> list[Coords]:
        # gather candidates grouped by weight, remembering (letter, parent, parent basis idx)
        groups: dict[Coords, list[tuple[Word, int, Coords, int]]] = {}
        for tau in prev_weights:
            for bidx, b in enumerate(self.basis[tau]):
                for j, nu in enumerate(self.down[tau], 1):
                    groups.setdefault(nu, []).append(((j,) + b, j, tau, bidx))
        new_weights = []
        for nu in sorted(groups):
            cands = sorted(groups[nu], key=lambda c: c[0])
            lead = [_runs(c[0])[0][1] for c in cands]
            if self._select(nu, [c[0] for c in cands], lead, self._candidate_gram(cands, lead)):
                new_weights.append(nu)
                self._pair(nu)
        for tau in prev_weights:  # the level below is built
            del self.gram[tau]
        return new_weights

    def _shap(self, c1, c2, leads: int) -> int:
        """<u_w1, u_w2> for candidates f_i u_b1 = lead(w1) u_w1 and f_j u_b2 =
        lead(w2) u_w2, with leads = lead(w1) lead(w2), from <f_i u_b1, f_j u_b2>
        = <u_b1, e_i f_j u_b2> on the previous level's data."""
        _, i, tau1, b1 = c1
        _, j, tau2, b2 = c2
        idx, lead, rows, _, _ = self.gram[tau1]
        row = rows[b1]
        total, d = 0, 1  # <f_i u_b1, f_j u_b2> is total / d
        sigma = self.up[tau2][i - 1]
        if sigma in self.basis:
            eb, d = self.eblocks[(i, tau2)]
            for k, bk in enumerate(self.basis[sigma]):
                gamma = eb[k][b2]
                if gamma:
                    c = idx[(j,) + bk]
                    total += gamma * lead[c] * row[c]  # gamma <u_b1, f_j u_bk>
        if i == j and tau1 == tau2:
            # <wt(b'), coroot_i> S(b, b')
            total += d * tau2[i - 1] * row[idx[self.basis[tau1][b2]]]
        value, rem = divmod(total, d * leads)
        if rem:  # the form is integral on divided-power monomials (Kostant's Z-form)
            raise RepError(f"contravariant form {Fraction(total, d)} on f-monomials"
                           f" is not an integer multiple of {leads}")
        return value

    def _candidate_gram(self, cands, lead: list[int]) -> Matrix:
        n = len(cands)
        g = [[0] * n for _ in range(n)]
        for p in range(n):
            for q in range(p, n):
                g[p][q] = g[q][p] = self._shap(cands[p], cands[q], lead[p] * lead[q])
        return g

    def _select(self, nu: Coords, words: list[Word], lead: list[int], gram: Matrix) -> list[int]:
        """Pick candidates in order while the chosen Gram block G stays
        nonsingular, keeping det G and the integer adjugate adj G = det G * G^-1.
        Bordering G by a column v and a diagonal entry g gives, with w = adj G v,
        det' = det G * (g - v.G^-1 v) = det G * g - v.w, the Schur complement
        scaled by det G > 0, and adj' = [[(det' adj G + w w^T) / det G, -w],
        [-w^T, det G]], where the division is exact."""
        chosen: list[int] = []
        adj: list[list[int]] = []
        det = 1
        for c in range(len(words)):
            v = [gram[k][c] for k in chosen]
            w = [sum(x * y for x, y in zip(row, v)) for row in adj]
            schur_det = det * gram[c][c] - sum(x * y for x, y in zip(v, w))
            if schur_det:
                if schur_det < 0:
                    raise RepError("contravariant form is not positive definite")
                chosen.append(c)
                adj = [[(schur_det * a + x * y) // det for a, y in zip(row, w)] + [-x]
                       for row, x in zip(adj, w)]
                adj.append([-y for y in w] + [det])
                det = schur_det
        if chosen:
            self._add_shifts(nu)
            self.basis[nu] = [words[c] for c in chosen]
            self.gram[nu] = ({w: k for k, w in enumerate(words)}, lead,
                             [gram[c] for c in chosen], adj, det)
        return chosen

    def _pair(self, nu: Coords):
        """f_i on V_sigma and e_i on V_nu, for each weight sigma = nu + alpha_i,
        from P^T[v][b] = <u_v, f_i u_b>, the Gram rows at nu at the candidates
        (i,) + b times their leads."""
        idx, lead, rows, adj, det = self.gram[nu]
        for i, sigma in enumerate(self.up[nu], 1):
            if sigma in self.basis:
                cols = [idx[(i,) + b] for b in self.basis[sigma]]
                pt = [[row[c] * lead[c] for c in cols] for row in rows]
                _, _, _, adj_up, det_up = self.gram[sigma]
                self.fblocks[(i, sigma)] = _solve(adj, det, pt)
                self.eblocks[(i, nu)] = _solve(adj_up, det_up, linalg.transpose(pt))

    def _assemble(self) -> Irrep:
        weight = {nu: Weight(nu) for nu in self.basis}  # the only Weights made
        return Irrep(type=self.t, hw=self.hw,
                     basis={weight[nu]: words for nu, words in self.basis.items()},
                     e_blocks={(i, weight[nu]): blk for (i, nu), blk in self.eblocks.items()},
                     f_blocks={(i, weight[nu]): blk for (i, nu), blk in self.fblocks.items()},
                     weight_order=list(weight.values()))


def check_dim_cap(hw: Weight, dim: int, dim_cap: int):
    """Raise DimensionCapError if V(hw), of dimension dim, exceeds dim_cap."""
    if dim > dim_cap:
        raise DimensionCapError(f"dim V({hw}) = {dim} exceeds the cap {dim_cap}")


def build_irrep(
    t: LieType,
    hw: Weight,
    dim_cap: int = 500,
    cache_dir: str | None = None,
) -> Irrep:
    """Construct (or load from cache) the irreducible representation V(hw)."""
    check_dim_cap(hw, weyl_dimension(t, hw), dim_cap)
    if cache_dir is not None:
        cached = load_cached_irrep(t, hw, cache_dir)
        if cached is not None:
            return cached
    irrep = _IrrepBuilder(t, hw).build()
    if cache_dir is not None:
        save_irrep(irrep, cache_dir)
    return irrep


# ---------------------------------------------------------------------------
# sl(2)-strings


@dataclass
class StringComponent:
    """One irreducible sl(2)_i constituent passing through a weight space.

    m is the highest sl(2)-weight of the string, k the depth (m - 2k is the
    sl(2)-weight at the decomposed space); primitives live at weight
    nu + k*alpha_i and inject via the divided power f_i^(k).  Each primitive
    u is a pair (ints, d) with u = ints / d in lowest terms, as
    linalg.nullspace returns it.  transfer sends each column f_i^(k) u to
    the image f_i^(m-k) u in V_{s_i nu} and every other string's columns to
    0, so that A_{s_i}(xi) on V_nu is the sum of c(m,k,xi) * transfer.  It
    is rho * F * Pi, with n = <nu, coroot_i>: F = f_i^n (n >= 0) or e_i^-n
    (n < 0), Pi the projection onto this string's columns along the other
    strings', and rho = k!/(m-k)! (n >= 0) or (m-k)!/k! (n < 0), by the
    sl(2) relations on plain powers f_i^n f_i^k u = f_i^{m-k} u and
    e_i^-n f_i^k u = (k!/(m-k)!)^2 f_i^{m-k} u.  Its nonzero entries are
    Fractions, and its zero entries int 0.
    """

    m: int
    k: int
    primitives: list[tuple[list[int], int]]
    transfer: Matrix


def sl2_strings(V: Irrep, i: int, nu: Weight) -> list[StringComponent]:
    """Decompose V_nu into sl(2)_i strings: V_nu = (+)_k f_i^(k)(ker e_i at nu+k*alpha_i).

    Walks up the alpha_i-string from k = max(0, -n), n = <nu, coroot_i>,
    until the primitives fill V_nu.  At w = nu + k*alpha_i, e_i is onto
    V_{w+alpha_i}, so the kernel of e_i at w must hold dim V_w -
    dim V_{w+alpha_i} primitives; it is kept on V per (i, w), for every
    weight below w on the alpha_i-string to share.  Each transfer map is
    rho * F * Pi (see StringComponent), formed on ints with one Fraction per
    nonzero entry.  Pi is the identity when V_nu is one string.  Otherwise
    Pi_k = C_k R_k, R = C^-1 the one change of basis inverted: C_k is the
    kernel's int vectors times k int matrices N of f_i's blocks (N, d), so
    each column is f_i^k u up to a scalar, which leaves Pi_k as it is.  None
    of it depends on xi, so the list is kept on V, once per (i, nu), and
    every caller shares it."""
    if (strings := V.string_parts.get((i, nu))) is not None:
        return strings
    alpha = simple_root(V.type, i)  # raises on an index out of range
    if nu not in (basis := V.basis):
        raise RepError(f"{nu} is not a weight of V({V.hw})")
    n, dim = nu[i - 1], len(basis[nu])
    found = []  # (m, k, w, kernel)
    k, filled = max(0, -n), 0
    w = Weight(tuple(c + k * a for c, a in zip(nu.coords, alpha.coords))) if k else nu
    while filled < dim and (here := basis.get(w)) is not None:
        above = weight_add(w, alpha)
        if count := len(here) - len(basis.get(above, ())):
            if (kernel := V.kernels.get((i, w))) is None:
                kernel = V.kernels[i, w] = linalg.nullspace(V.e_block(i, w)[0], len(here))
            if len(kernel) != count:
                break
            filled += count
            found.append((n + 2 * k, k, w, kernel))
        k, w = k + 1, above
    if filled != dim:
        raise RepError("sl(2)-string decomposition does not fill the weight space")
    block, step = (V.f_block, weight_sub) if n >= 0 else (V.e_block, weight_add)
    f, d, w = None, 1, nu  # F = f / d
    for _ in range(abs(n)):
        (blk, e), w = block(i, w), step(w, alpha)
        f, d = blk if f is None else linalg.mat_mul(blk, f), d * e
    if f is None:  # n = 0: F is the identity
        f = [[int(r == c) for c in range(dim)] for r in range(dim)]
    parts = [(f, 1)]  # (t, D) per string, F Pi = t / (d D); Pi = 1 on one string
    if len(found) > 1:
        C = []  # C_k per string
        for _, k, w, kernel in found:
            c = linalg.transpose([u for u, _ in kernel])
            for _ in range(k):
                c, w = linalg.mat_mul(V.f_block(i, w)[0], c), weight_sub(w, alpha)
            C.append(c)
        R, D = linalg.invert([sum(rows, []) for rows in zip(*C)])  # raises if singular
        parts, end = [], 0
        for c in C:  # F Pi_k = (F C_k) R_k / D
            start, end = end, end + len(c[0])
            parts.append((linalg.mat_mul(linalg.mat_mul(f, c), R[start:end]), D))
    components = []
    for (m, k, _, kernel), (t, D) in zip(found, parts):
        den = d * D * factorial(max(k, m - k)) // factorial(min(k, m - k))  # rho F Pi = t / den
        components.append(StringComponent(m, k, kernel, [[Fraction(x, den) if x else 0
                                                          for x in row] for row in t]))
    V.string_parts[(i, nu)] = components
    return components


# ---------------------------------------------------------------------------
# cache

CACHE_VERSION = 1
_ENTRY = re.compile(r"(-?[0-9]+)(?:/([1-9][0-9]*))?")  # p or p/q, as irrep_to_json writes it


def cache_filename(t: LieType, hw: Weight) -> str:
    return f"{t}__{'_'.join(str(c) for c in hw.coords)}.v{CACHE_VERSION}.json"


def _matrix_to_triplets(n: Matrix, d: int):
    return [[r, c, str(Fraction(x, d))] for r, row in enumerate(n) for c, x in enumerate(row) if x]


def _triplets_to_matrix(tr, rows: int, cols: int) -> Block:
    """The block (N, d) in lowest terms, read from entries p or p/q with no Fraction."""
    entries = []
    for r, c, v in tr:
        if not (0 <= r < rows and 0 <= c < cols):
            raise RepError(f"corrupt cache entry: index ({r}, {c}) outside a {rows}x{cols} block")
        m = _ENTRY.fullmatch(v) if isinstance(v, str) else None  # not a float, nor "1e99999"
        if m is None:
            raise RepError(f"corrupt cache entry: {v!r} is not a string p or p/q with q > 0")
        entries.append((r, c, int(m[1]), int(m[2] or 1)))
    d = lcm(*(q for _, _, _, q in entries))
    n = [[0] * cols for _ in range(rows)]
    for r, c, p, q in entries:
        n[r][c] = p * (d // q)
    return lowest(n, d)


def irrep_to_json(V: Irrep) -> dict:
    weights = [{"coords": list(nu.coords), "words": [list(w) for w in V.basis[nu]]}
               for nu in V.weight_order]
    gens = {}
    for kind, blocks in (("e", V.e_blocks), ("f", V.f_blocks)):
        gens[kind] = [{"i": i, "weight": list(nu.coords), "entries": _matrix_to_triplets(*blk)}
                      for (i, nu), blk in sorted(blocks.items(),
                                                 key=lambda kv: (kv[0][0], kv[0][1].coords))]
    return {
        "version": CACHE_VERSION,
        "type": str(V.type),
        "hw": list(V.hw.coords),
        "dim": V.dim,
        "weights": weights,
        "generators": gens,
    }


def irrep_from_json(obj: dict) -> Irrep:
    t = LieType.parse(obj["type"])
    hw = Weight.make(obj["hw"])
    basis = {
        Weight.make(w["coords"]): [tuple(word) for word in w["words"]] for w in obj["weights"]
    }
    e_blocks: dict[tuple[int, Weight], Block] = {}
    f_blocks: dict[tuple[int, Weight], Block] = {}
    for kind, store in (("e", e_blocks), ("f", f_blocks)):
        for item in obj["generators"][kind]:
            i = int(item["i"])
            nu = Weight.make(item["weight"])
            alpha = simple_root(t, i)
            target = weight_add(nu, alpha) if kind == "e" else weight_sub(nu, alpha)
            rows = len(basis.get(target, ()))
            store[(i, nu)] = _triplets_to_matrix(item["entries"], rows, len(basis[nu]))
    V = Irrep(type=t, hw=hw, basis=basis, e_blocks=e_blocks, f_blocks=f_blocks)
    if V.dim != obj["dim"]:
        raise RepError("corrupt cache entry: dimension mismatch")
    return V


def save_irrep(V: Irrep, cache_dir: str):
    """Write V's cache entry, replacing any entry already there.  The JSON goes
    to a temporary file of this writer's own, which is then renamed over the
    entry: a reader sees the old entry or the new one, never part of either.
    Two writers of one entry write the same bytes, and the last rename stays.
    A cache that cannot be written raises RepError."""
    path = os.path.join(cache_dir, cache_filename(V.type, V.hw))
    try:
        os.makedirs(cache_dir, exist_ok=True)
        # a name of this writer's own; unlike tempfile.mkstemp's 0o600, mode
        # 0o666 leaves the entry as readable as the umask allows
        tmp = f"{path}.{os.urandom(8).hex()}.tmp"
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        try:
            with os.fdopen(fd, "w") as fh:
                # json.dumps runs the C encoder; json.dump to a file does not
                fh.write(json.dumps(irrep_to_json(V), sort_keys=True))
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise
    except OSError as exc:
        raise RepError(f"cannot write the irrep cache entry {path}: {exc.strerror}") from exc


def load_cached_irrep(t: LieType, hw: Weight, cache_dir: str) -> Irrep | None:
    """The cached V(hw), or None if there is none.  Entries are published by an atomic
    rename (save_irrep), so the entry is read as it stands.  An entry that cannot be
    read, is not JSON (or nests past the decoder's limit), does not decode (an entry
    not a string p or p/q with q > 0 included), or holds another type, highest weight
    or format version counts as missing, so that build_irrep rebuilds and replaces it."""
    path = os.path.join(cache_dir, cache_filename(t, hw))
    try:
        with open(path) as fh:
            obj = json.load(fh)
        want = {"version": CACHE_VERSION, "type": str(t), "hw": list(hw.coords)}
        if not isinstance(obj, dict) or any(obj.get(k) != v for k, v in want.items()):
            return None
        return irrep_from_json(obj)
    except (OSError, ValueError, KeyError, TypeError, IndexError, ZeroDivisionError,
            RecursionError, RepError, RootDataError):
        return None
