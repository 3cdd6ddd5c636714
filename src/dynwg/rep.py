"""Construction of irreducible highest-weight representations with exact
rational Chevalley generator matrices.

The builder walks weight levels top-down.  Candidate vectors at each level are
f_i applied to the basis of the level above; the contravariant (Shapovalov)
Gram matrix of the candidates is computed from the previous level's data, and
an echelon sweep in a fixed monomial order picks the quotient basis.  The form
is positive definite on the irreducible quotient, so Gram rank equals the
weight-space dimension.

On raw f-monomials the form takes integer values (Kostant's Z-form), so the
Gram entries are ints.  The sweep grows the determinant and the integer
adjugate of the chosen Gram block by bordering (one Schur complement per
pick, with exact integer division as in Bareiss's elimination).  Both
generators are read off one int pairing P = <f_i V_{nu+alpha_i}, V_nu>, a
block of the Gram matrix: f_i = G^-1 P^T, and e_i is its contravariant
adjoint, G^-1 P one level up (Shapovalov, Funct. Anal. Appl. 1972).  Raw
blocks are ints when integral, Fractions otherwise; the final rescale to
divided powers makes one Fraction per nonzero stored generator entry.

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
irrep once per (i, nu).  It reads each primitive's column and image from the
primitive's int f_i-walk, which the irrep keeps per (i, w) for every weight
on the alpha_i-string to share.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import groupby
from math import factorial, lcm, prod
from operator import mul

from . import linalg
from .linalg import Matrix, Vector
from .rootdata import (
    LieType,
    RootDataError,
    Weight,
    cartan_matrix,
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


def _check_rank(t: LieType, w: Weight):
    if len(w.coords) != t.rank:
        raise RepError(f"weight ({w}) has {len(w.coords)} coordinates, but {t} has rank {t.rank}")


def _check_highest_weight(t: LieType, lam: Weight):
    _check_rank(t, lam)
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
    inv = linalg.invert(cartan_matrix(t))
    D = lcm(*(x.denominator for row in inv for x in row))
    d = _symmetrizers(t)
    L = lcm(*(x.denominator for x in d))
    return (D, tuple(tuple(int(x * D) for x in row) for row in inv),
            L, tuple(int(x * L) for x in d))


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
    _check_rank(t, mu)
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

    Basis vectors are labelled by f-monomial words; per-weight blocks of the
    generators are kept separately (weights never mix under e_i, f_i, h_i).
    """

    type: LieType
    hw: Weight
    basis: dict[Weight, list[Word]]
    e_blocks: dict[tuple[int, Weight], Matrix]  # (i, nu): V_nu -> V_{nu+alpha_i}
    f_blocks: dict[tuple[int, Weight], Matrix]  # (i, nu): V_nu -> V_{nu-alpha_i}
    weight_order: list[Weight] = field(default_factory=list)
    # (i, nu) -> sl2_strings(V, i, nu), which only sl2_strings reads and
    # writes; kept as long as this irrep
    string_parts: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    # (i, w) -> the kernel of e_i at w and each primitive's f_i-walk, and
    # (i, w) -> f_i on V_w scaled to ints, for sl2_strings (_primitive_walks)
    string_walks: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    f_ints: dict = field(default_factory=dict, init=False, repr=False, compare=False)
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

    def e_block(self, i: int, nu: Weight) -> Matrix:
        return self._block(self.e_blocks, weight_add, i, nu)

    def f_block(self, i: int, nu: Weight) -> Matrix:
        return self._block(self.f_blocks, weight_sub, i, nu)

    def _block(self, blocks, shift, i: int, nu: Weight) -> Matrix:
        blk = blocks.get((i, nu))  # else zeros: V_nu -> V_{shift(nu, alpha_i)}
        if blk is None:
            target = shift(nu, simple_root(self.type, i))
            blk = linalg.zeros(self.weight_dim(target), self.weight_dim(nu))
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
    of the denominators of g_i's nonzero entries; V_nu starts at global index
    offset[nu].  One pass over the blocks gathers the entries and their
    denominators, and a second over the entries scales them."""
    alphas = _simple_roots(V.type)
    ops: dict[int, Operator] = {i: {} for i in range(1, len(alphas) + 1)}
    dens: dict[int, set[int]] = {i: set() for i in ops}
    for (i, nu), blk in blocks.items():
        op, den = ops[i], dens[i]
        source = offset[nu.coords]
        target = offset.get(tuple(x + sign * y for x, y in zip(nu.coords, alphas[i - 1])))
        for r, row in enumerate(blk):
            for c, x in enumerate(row):
                if x:
                    op.setdefault(source + c, {})[target + r] = x
                    den.add(x.denominator)
    out = {}
    for i, op in ops.items():
        d = lcm(*dens[i])
        for col in op.values():
            for r, x in col.items():
                col[r] = x.numerator * (d // x.denominator)
        out[i] = (d, op)
    return out


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
    Each e_i and f_i is scaled to integers once, as one sparse Operator over
    global basis indices.  h_i acts by the weight grading, the scalar nu_i on
    V_nu, and every block of e_j (f_j) is keyed V_nu -> V_{nu + alpha_j}
    (V_{nu - alpha_j}); so [h_i, e_j] = a_ij e_j and [h_i, f_j] = -a_ij f_j
    hold by how the blocks are keyed.

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


def _quotient(x: int, d: int):
    """x / d, as an int when d divides x, else as a Fraction."""
    return Fraction(x, d) if x % d else x // d


def _solve(adj: Matrix, det: int, m: Matrix) -> Matrix:
    """G^-1 m for int matrices m and adj = det * G^-1."""
    return [[_quotient(x, det) for x in row] for row in linalg.mat_mul(adj, m)]


class _IrrepBuilder:
    """Builds V(hw) on raw f-monomials.  Gram entries are ints.  At each
    (i, nu), with sigma = nu + alpha_i, the int pairing P[b][v] = <f_i b, v>
    of V_sigma with V_nu is a block of the Gram matrix at nu; f_i is
    G_nu^-1 P^T, and e_i, its contravariant adjoint, is G_sigma^-1 P.  Raw
    blocks are ints when integral, Fractions otherwise."""

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
        # per weight of the last two levels: (each candidate's index, the chosen
        # rows of the candidate Gram matrix, adj G, det G) for the chosen block G
        self.gram: dict[Coords, tuple[dict[Word, int], Matrix, Matrix, int]] = {
            top: ({(): 0}, [[1]], [[1]], 1)}
        # raw blocks keyed as in Irrep, kept where the block's target is a weight
        self.eblocks: dict[tuple[int, Coords], Matrix] = {}
        self.fblocks: dict[tuple[int, Coords], Matrix] = {}

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
            if self._select(nu, [c[0] for c in cands], self._candidate_gram(cands)):
                new_weights.append(nu)
                self._pair(nu)
        for tau in prev_weights:  # the level below is built
            del self.gram[tau]
        return new_weights

    def _shap(self, c1, c2) -> int:
        """Contravariant form of two candidates via the previous level's data."""
        _, i, tau1, b1 = c1
        _, j, tau2, b2 = c2
        idx, rows, _, _ = self.gram[tau1]
        row = rows[b1]
        total = 0
        if i == j and tau1 == tau2:
            # <wt(b'), coroot_i> S(b, b')
            total += tau2[i - 1] * row[idx[self.basis[tau1][b2]]]
        sigma = self.up[tau2][i - 1]
        if sigma in self.basis:
            eb = self.eblocks[(i, tau2)]
            for k, bk in enumerate(self.basis[sigma]):
                gamma = eb[k][b2]
                if gamma:
                    total += gamma * row[idx[(j,) + bk]]
        if total.denominator != 1:  # the form is integral on f-monomials
            raise RepError(f"contravariant form {total} on f-monomials is not an integer")
        return total.numerator

    def _candidate_gram(self, cands) -> Matrix:
        n = len(cands)
        g = [[0] * n for _ in range(n)]
        for p in range(n):
            for q in range(p, n):
                g[p][q] = g[q][p] = self._shap(cands[p], cands[q])
        return g

    def _select(self, nu: Coords, words: list[Word], gram: Matrix) -> list[int]:
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
            self.gram[nu] = ({w: k for k, w in enumerate(words)}, [gram[c] for c in chosen],
                             adj, det)
        return chosen

    def _pair(self, nu: Coords):
        """f_i on V_sigma and e_i on V_nu, for each weight sigma = nu + alpha_i,
        from P^T[v][b] = <v, f_i b>, the Gram rows at nu at the candidates f_i b."""
        idx, rows, adj, det = self.gram[nu]
        for i, sigma in enumerate(self.up[nu], 1):
            if sigma in self.basis:
                pt = [[row[idx[(i,) + b]] for b in self.basis[sigma]] for row in rows]
                _, _, adj_up, det_up = self.gram[sigma]
                self.fblocks[(i, sigma)] = _solve(adj, det, pt)
                self.eblocks[(i, nu)] = _solve(adj_up, det_up, linalg.transpose(pt))

    def _assemble(self) -> Irrep:
        # The echelon pivoting picks raw f-monomials; rescale each basis word
        # by its run-length factorials so that repeated letters act as divided
        # powers (f_i^k v becomes f_i^k/k! v).  This is the normalization in
        # which the rank-1 reflection coefficients appear verbatim as matrix
        # entries.  An entry x of a block V_nu -> V_target becomes
        # x * ft / fs, where fs and ft are the run-length factorial products of
        # the source and target words: one Fraction per nonzero stored entry,
        # reduced only where ft != fs.
        fact = {nu: [prod(factorial(n) for _, n in _runs(w)) for w in words]
                for nu, words in self.basis.items()}
        weight = {nu: Weight(nu) for nu in self.basis}  # the only Weights made

        def rescale(raw, shifts):  # the blocks (i, nu) whose target shifts[nu][i - 1] is a weight
            return {(i, weight[nu]): [[(Fraction(x) if ft == fs else
                                        Fraction(x.numerator * ft, x.denominator * fs))
                                       if x else linalg.ZERO for x, fs in zip(row, fact[nu])]
                                      for row, ft in zip(raw[(i, nu)], fact[target])]
                    for nu in self.basis for i, target in enumerate(shifts[nu], 1)
                    if target in self.basis}

        return Irrep(type=self.t, hw=self.hw,
                     basis={weight[nu]: words for nu, words in self.basis.items()},
                     e_blocks=rescale(self.eblocks, self.up),
                     f_blocks=rescale(self.fblocks, self.down),
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
    nu + k*alpha_i and inject via the divided power f_i^(k).  transfer sends
    each column f_i^(k) u to the image f_i^(m-k) u in V_{s_i nu} and every
    other string's columns to 0, so that A_{s_i}(xi) on V_nu is the sum of
    c(m,k,xi) * transfer.
    """

    m: int
    k: int
    primitives: list[Vector]
    transfer: Matrix


def _primitive_walks(V: Irrep, i: int, w: Weight, depth: int) -> tuple[list[Vector], list]:
    """The kernel of e_i at w, and each primitive u's f_i-walk: walk[j] is
    (ints, d) with f_i^j u == ints / d, for j <= depth.  Kept on V and
    extended on demand, so every weight on the alpha_i-string shares it;
    each f_i block is scaled to ints once."""
    data = V.string_walks.get((i, w))
    if data is None:
        kernel = linalg.nullspace(V.e_block(i, w), V.weight_dim(w))
        data = V.string_walks[(i, w)] = kernel, [[linalg.int_vector(u)] for u in kernel]
    alpha = simple_root(V.type, i).coords
    for walk in data[1]:
        while len(walk) <= depth:
            j = len(walk) - 1
            key = (i, Weight(tuple(c - j * a for c, a in zip(w.coords, alpha))))
            if key not in V.f_ints:
                blk = V.f_block(*key)
                d = lcm(*(x.denominator for row in blk for x in row))
                V.f_ints[key] = [[x.numerator * (d // x.denominator) for x in r] for r in blk], d
            (f, d), (v, den) = V.f_ints[key], walk[-1]
            walk.append(([sum(map(mul, row, v)) for row in f], den * d))
    return data


def sl2_strings(V: Irrep, i: int, nu: Weight) -> list[StringComponent]:
    """Decompose V_nu into sl(2)_i strings: V_nu = (+)_k f_i^(k)(ker e_i at nu+k*alpha_i).

    The column f_i^(k) u of the change of basis and the image f_i^(m-k) u
    of each primitive u are read from its int walk, so the change of basis
    is inverted on ints.  None of it depends on xi, so the list is kept on
    V, once per (i, nu), and every caller shares it."""
    if (strings := V.string_parts.get((i, nu))) is not None:
        return strings
    if nu not in V.basis:
        raise RepError(f"{nu} is not a weight of V({V.hw})")
    alpha = simple_root(V.type, i)
    found = []  # (m, k, primitives, walks)
    k, w = 0, nu
    while w in V.basis:
        m = nu[i - 1] + 2 * k
        if k <= m and (data := _primitive_walks(V, i, w, max(k, m - k)))[0]:
            found.append((m, k, *data))
        k += 1
        w = weight_add(w, alpha)
    cols = [walk[k][0] for _, k, _, walks in found for walk in walks]
    if len(cols) != V.weight_dim(nu):
        raise RepError("sl(2)-string decomposition does not fill the weight space")
    rows = iter(linalg.invert(linalg.transpose(cols)))  # raises if singular
    components = []
    for m, k, kernel, walks in found:
        # column walk[k] / (d_k k!), image walk[m-k] / (d_(m-k) (m-k)!)
        scaled = [[Fraction(walk[k][1] * factorial(k), walk[m - k][1] * factorial(m - k)) * x
                   for x in next(rows)] for walk in walks]
        images = linalg.transpose([walk[m - k][0] for walk in walks])
        components.append(StringComponent(m, k, kernel, linalg.mat_mul(images, scaled)))
    V.string_parts[(i, nu)] = components
    return components


# ---------------------------------------------------------------------------
# cache

CACHE_VERSION = 1


def cache_filename(t: LieType, hw: Weight) -> str:
    return f"{t}__{'_'.join(str(c) for c in hw.coords)}.v{CACHE_VERSION}.json"


def _matrix_to_triplets(m: Matrix):
    return [[r, c, str(v)] for r, row in enumerate(m) for c, v in enumerate(row) if v]


def _triplets_to_matrix(tr, rows: int, cols: int) -> Matrix:
    m = linalg.zeros(rows, cols)
    for r, c, v in tr:
        if not (0 <= r < rows and 0 <= c < cols):
            raise RepError(f"corrupt cache entry: index ({r}, {c}) outside a {rows}x{cols} block")
        m[r][c] = Fraction(v)
    return m


def irrep_to_json(V: Irrep) -> dict:
    weights = [{"coords": list(nu.coords), "words": [list(w) for w in V.basis[nu]]}
               for nu in V.weight_order]
    gens = {}
    for kind, blocks in (("e", V.e_blocks), ("f", V.f_blocks)):
        gens[kind] = [{"i": i, "weight": list(nu.coords), "entries": _matrix_to_triplets(blk)}
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
    e_blocks: dict[tuple[int, Weight], Matrix] = {}
    f_blocks: dict[tuple[int, Weight], Matrix] = {}
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
    read, is not JSON (or nests past the decoder's limit), does not decode (a zero
    denominator included), or holds another type, highest weight or format version
    counts as missing, so that build_irrep rebuilds and replaces it."""
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
