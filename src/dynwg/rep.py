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
pick, with exact integer division as in Bareiss's elimination).  Candidate
coordinates and raw e-blocks are kept as ints when integral, as Fractions
otherwise.  The final rescale to divided powers makes one Fraction per stored
generator entry.

Independent oracles (Weyl dimension formula and Freudenthal recursion) are
implemented without reference to the constructed matrices.  Both run on
ints: an integer root frame (D, adj, L, dl) per type, with D * A^-1 = adj and
L * d = dl, gives root coordinates, the positive-cone test and the invariant
inner product scaled to integers.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import factorial, lcm

from . import linalg
from .linalg import Matrix, Vector
from .rootdata import (
    LieType,
    RootDataError,
    Weight,
    cartan_matrix,
    dominant_representative,
    positive_coroots,
    positive_roots_in_simple_basis,
    rho,
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


def weyl_dimension(t: LieType, lam: Weight) -> int:
    """dim V(lam) by the Weyl dimension formula."""
    if not lam.is_dominant():
        raise RepError(f"highest weight {lam} is not dominant")
    return _weyl_dimension(t, lam)


@lru_cache(maxsize=None)
def _weyl_dimension(t: LieType, lam: Weight) -> int:
    num = den = 1
    for g in positive_coroots(t):
        num *= sum(int(c) * (m + 1) for c, m in zip(g.coords, lam.coords))
        den *= sum(int(c) for c in g.coords)
    d, r = divmod(num, den)
    assert not r
    return d


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
    assert all(x is not None for x in d)
    return tuple(d)


@lru_cache(maxsize=None)
def _cartan_inverse(t: LieType) -> Matrix:
    return linalg.invert(cartan_matrix(t))


@lru_cache(maxsize=None)
def _root_frame(t: LieType) -> tuple[int, tuple[Coords, ...], int, Coords]:
    """(D, adj, L, dl), all integers, with D * A^-1 = adj and L * d = dl.

    adj maps fundamental coordinates to D times simple-root coordinates, and
    the W-invariant inner product is (mu, nu) = sum_j (adj nu)_j dl_j mu_j / (D L).
    """
    inv = _cartan_inverse(t)
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
    if not lam.is_dominant():
        raise RepError(f"highest weight {lam} is not dominant")
    return _freudenthal(t, lam, dominant_representative(t, mu))


@lru_cache(maxsize=None)
def _freudenthal(t: LieType, lam: Weight, mu: Weight) -> int:
    """m_mu = 2 sum_{alpha > 0, k >= 1} m_{mu + k alpha} (alpha, mu + k alpha)
    / (|lam + rho|^2 - |mu + rho|^2), on integers: the numerator is scaled by
    L and the denominator by D L."""
    if mu == lam:
        return 1
    D = _root_frame(t)[0]
    gap = _scaled_root_coords(t, weight_sub(lam, mu).coords)
    if any(x < 0 or x % D for x in gap):
        return 0  # lam - mu is not a sum of positive roots
    total = 0
    for alpha, d_alpha, w in _freudenthal_roots(t):
        nu = mu.coords
        rest = gap
        while True:
            # lam - (mu + k alpha) stays in the root lattice; only its sign can fail
            nu = tuple(x + y for x, y in zip(nu, alpha))
            rest = [x - y for x, y in zip(rest, d_alpha)]
            if any(x < 0 for x in rest):
                break
            m = _freudenthal(t, lam, dominant_representative(t, Weight(nu)))
            if m:
                total += m * sum(x * y for x, y in zip(w, nu))
    denom = (_scaled_norm(t, weight_add(lam, rho(t)).coords)
             - _scaled_norm(t, weight_add(mu, rho(t)).coords))
    if denom <= 0:
        # (lam - mu, lam + mu + 2 rho) > 0 for a dominant mu below lam
        raise RepError(f"Freudenthal denominator {denom} at {mu} in V({lam})")
    mult, rem = divmod(2 * total * D, denom)
    assert not rem and mult >= 0
    return mult


def dominant_weights_up_to_dim(t: LieType, dim_cap: int) -> list[Weight]:
    """All dominant highest weights lam with weyl_dimension <= dim_cap."""
    zero = Weight((0,) * t.rank)
    seen = {zero}
    out = []  # (dimension, coords, weight)
    frontier = [zero]
    while frontier:
        nxt = []
        for lam in frontier:
            dim = weyl_dimension(t, lam)
            if dim > dim_cap:
                continue
            out.append((dim, lam.coords, lam))
            for i in range(t.rank):
                up = list(lam.coords)
                up[i] += 1
                w = Weight(tuple(up))
                if w not in seen:
                    seen.add(w)
                    nxt.append(w)
        frontier = nxt
    return [lam for _, _, lam in sorted(out)]


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
    # (i, nu) -> dynweyl.string_data: the sl(2)-string decomposition and its
    # xi-free parts, kept as long as this irrep
    string_parts: dict = field(default_factory=dict, init=False, repr=False, compare=False)

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
        labels = []
        for word in self.basis.get(nu, []):
            parts = []
            for letter in word:
                if parts and parts[-1][0] == letter:
                    parts[-1][1] += 1
                else:
                    parts.append([letter, 1])
            text = "*".join(f"f{i}" if n == 1 else f"f{i}^({n})" for i, n in parts)
            labels.append(f"{text}*v" if text else "v")
        return labels

    def e_block(self, i: int, nu: Weight) -> Matrix:
        target = weight_add(nu, simple_root(self.type, i))
        blk = self.e_blocks.get((i, nu))
        if blk is None:
            blk = linalg.zeros(self.weight_dim(target), self.weight_dim(nu))
        return blk

    def f_block(self, i: int, nu: Weight) -> Matrix:
        target = weight_sub(nu, simple_root(self.type, i))
        blk = self.f_blocks.get((i, nu))
        if blk is None:
            blk = linalg.zeros(self.weight_dim(target), self.weight_dim(nu))
        return blk


def _run_factorials(word: Word) -> int:
    """Product of the factorials of the run lengths of the word."""
    out = 1
    run = 0
    prev = None
    for letter in word:
        run = run + 1 if letter == prev else 1
        prev = letter
        out *= run
    return out


def _level(t: LieType, hw: Weight, nu: Weight) -> int:
    lv, rem = divmod(sum(_scaled_root_coords(t, weight_sub(hw, nu).coords)), _root_frame(t)[0])
    assert not rem
    return lv


# A weight-homogeneous operator as its nonzero blocks, nu -> (target, M), where
# nu and target are weight coordinates and M is an integer matrix V_nu -> V_target.
SparseMap = dict[Coords, tuple[Coords, list[list[int]]]]


def _int_generators(V: Irrep, blocks, sign: int) -> dict[int, tuple[int, SparseMap]]:
    """i -> (D, D * g_i) for the e (sign +1) or f (sign -1) generators, where
    D is the lcm of the denominators of g_i's entries."""
    out = {}
    for i in range(1, V.type.rank + 1):
        shift = [sign * c for c in simple_root(V.type, i).coords]
        mats = {nu.coords: b for (j, nu), b in blocks.items() if j == i and any(any(r) for r in b)}
        d = lcm(*(x.denominator for blk in mats.values() for row in blk for x in row))
        out[i] = (d, {
            nu: (tuple(x + y for x, y in zip(nu, shift)),
                 [[x.numerator * (d // x.denominator) for x in row] for row in blk])
            for nu, blk in mats.items()
        })
    return out


def _compose(a: SparseMap, b: SparseMap) -> SparseMap:
    """a after b."""
    out = {}
    for nu, (mid, mb) in b.items():
        hit = a.get(mid)
        if hit is not None:
            out[nu] = (hit[0], linalg.mat_mul(hit[1], mb))
    return out


def _commutator(a: SparseMap, b: SparseMap) -> SparseMap:
    """[a, b] = ab - ba, nonzero blocks only."""
    out = _compose(a, b)
    for nu, (target, m) in _compose(b, a).items():
        left = out[nu][1] if nu in out else [[0] * len(row) for row in m]
        out[nu] = (target, [[x - y for x, y in zip(rl, rm)] for rl, rm in zip(left, m)])
    return {nu: blk for nu, blk in out.items() if any(any(row) for row in blk[1])}


def _is_scalar(m: list[list[int]], s: int) -> bool:
    return all(x == (s if r == c else 0) for r, row in enumerate(m) for c, x in enumerate(row))


def check_chevalley_serre(V: Irrep) -> list[str]:
    """Verify the defining relations on the generator matrices exactly.

    Returns a list of human-readable failure descriptions (empty = all good).
    Each e_i and f_i is scaled to an integer operator and kept as its nonzero
    weight blocks.  h_i acts by the weight grading, the scalar nu_i on V_nu,
    and every block of e_j (f_j) is keyed V_nu -> V_{nu + alpha_j}
    (V_{nu - alpha_j}); so [h_i, e_j] = a_ij e_j and [h_i, f_j] = -a_ij f_j
    hold by how the blocks are keyed, and only [e_i, f_j] and the Serre
    relations are checked.
    """
    t = V.type
    a = cartan_matrix(t)
    failures = []
    E = _int_generators(V, V.e_blocks, +1)
    F = _int_generators(V, V.f_blocks, -1)

    for i in E:
        for j in E:
            comm = _commutator(E[i][1], F[j][1])
            if i == j:
                # comm is D_e * D_f * [e_i, f_i], and must be D_e * D_f * nu_i on V_nu
                d = E[i][0] * F[i][0]
                if not all(
                    _is_scalar(comm[nu][1], d * nu[i - 1]) if nu in comm else nu[i - 1] == 0
                    for nu in (w.coords for w in V.basis)
                ):
                    failures.append(f"[e_{i}, f_{i}] != h_{i}")
            elif comm:
                failures.append(f"[e_{i}, f_{j}] != 0")
            if i != j:
                n = 1 - a[i - 1][j - 1]
                for kind, gens in (("e", E), ("f", F)):
                    cur = gens[j][1]
                    for _ in range(n):
                        cur = _commutator(gens[i][1], cur)
                    if cur:
                        failures.append(f"Serre relation ad({kind}_{i})^{n}({kind}_{j}) != 0")
    return failures


# ---------------------------------------------------------------------------
# construction


def _exact(x):
    """x as an int when it is integral, else as a Fraction."""
    return x.numerator if x.denominator == 1 else x


class _IrrepBuilder:
    """Builds V(hw) on raw f-monomials.  Gram entries are ints; candidate
    coordinates and raw e-blocks are ints when integral, Fractions otherwise."""

    def __init__(self, t: LieType, hw: Weight):
        self.t = t
        self.hw = hw
        self.alphas = [simple_root(t, i) for i in range(1, t.rank + 1)]
        # per-weight state, kept for the weights with a nonzero weight space
        self.basis: dict[Weight, list[Word]] = {hw: [()]}
        self.cand_index: dict[Weight, dict[Word, int]] = {hw: {(): 0}}
        self.cand_gram: dict[Weight, Matrix] = {hw: [[1]]}
        self.cand_coords: dict[Weight, list[Vector]] = {hw: [[1]]}
        self.eblocks: dict[tuple[int, Weight], Matrix] = {(i, hw): [] for i in range(1, t.rank + 1)}

    def build(self) -> Irrep:
        weights = [self.hw]
        while weights:
            weights = self._process_level(weights)
        return self._assemble()

    def _process_level(self, prev_weights: list[Weight]) -> list[Weight]:
        # gather candidates grouped by weight, remembering (letter, parent, parent basis idx)
        groups: dict[Weight, list[tuple[Word, int, Weight, int]]] = {}
        for tau in prev_weights:
            for bidx, b in enumerate(self.basis[tau]):
                for j, alpha in enumerate(self.alphas, 1):
                    groups.setdefault(weight_sub(tau, alpha), []).append(((j,) + b, j, tau, bidx))
        new_weights = []
        for nu in sorted(groups, key=lambda w: w.coords):
            cands = sorted(groups[nu], key=lambda c: c[0])
            if self._select(nu, [c[0] for c in cands], self._candidate_gram(cands)):
                new_weights.append(nu)
        # e-blocks of the new basis vectors
        for nu in new_weights:
            self._compute_eblocks(nu)
        return new_weights

    def _shap(self, c1, c2) -> int:
        """Contravariant form of two candidates via the previous level's data."""
        w1, i, tau1, b1 = c1
        w2, j, tau2, b2 = c2
        total = 0
        if i == j and tau1 == tau2:
            # <wt(b'), coroot_i> S(b, b')
            gram_prev = self.cand_gram[tau1]
            idx = self.cand_index[tau1]
            bw1, bw2 = self.basis[tau1][b1], self.basis[tau1][b2]
            total += tau2[i - 1] * gram_prev[idx[bw1]][idx[bw2]]
        sigma = weight_add(tau2, self.alphas[i - 1])
        eb = self.eblocks.get((i, tau2))
        if eb and sigma in self.basis:
            prev_cands = self.cand_index[tau1]
            gram_prev = self.cand_gram[tau1]
            b_word = self.basis[tau1][b1]
            row = prev_cands[b_word]
            for k, bk in enumerate(self.basis[sigma]):
                gamma = eb[k][b2]
                if gamma:
                    total += gamma * gram_prev[row][prev_cands[(j,) + bk]]
        assert total.denominator == 1  # the form is integral on f-monomials
        return total.numerator

    def _candidate_gram(self, cands) -> Matrix:
        n = len(cands)
        g = [[0] * n for _ in range(n)]
        for p in range(n):
            for q in range(p, n):
                v = self._shap(cands[p], cands[q])
                g[p][q] = v
                g[q][p] = v
        return g

    def _select(self, nu: Weight, words: list[Word], gram: Matrix) -> list[int]:
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
            self.basis[nu] = [words[c] for c in chosen]
            self.cand_index[nu] = {w: k for k, w in enumerate(words)}
            self.cand_gram[nu] = gram
            # candidate coordinates in the chosen basis (needed one level down)
            self.cand_coords[nu] = [
                [_exact(Fraction(sum(x * gram[k][c] for x, k in zip(row, chosen)), det))
                 for row in adj]
                for c in range(len(words))
            ]
        return chosen

    def _compute_eblocks(self, nu: Weight):
        for i, alpha in enumerate(self.alphas, 1):
            sigma = weight_add(nu, alpha)
            rows = len(self.basis.get(sigma, ()))
            cols = len(self.basis[nu])
            blk = [[0] * cols for _ in range(rows)]
            if rows:
                sig_basis_pos = {w: k for k, w in enumerate(self.basis[sigma])}
                for col, word in enumerate(self.basis[nu]):
                    j, bprime = word[0], word[1:]
                    tau2 = weight_add(nu, self.alphas[j - 1])  # weight of b'
                    if i == j:
                        # delta term: sigma == tau2, b' is a basis word there
                        blk[sig_basis_pos[bprime]][col] += tau2[i - 1]
                    upper = weight_add(tau2, alpha)
                    eb = self.eblocks.get((i, tau2))
                    if eb and upper in self.basis:
                        bidx = self.basis[tau2].index(bprime)
                        cidx = self.cand_index[sigma]
                        ccoords = self.cand_coords[sigma]
                        for k, bk in enumerate(self.basis[upper]):
                            gamma = eb[k][bidx]
                            if gamma:
                                vec = ccoords[cidx[(j,) + bk]]
                                for r in range(rows):
                                    blk[r][col] += gamma * vec[r]
            self.eblocks[(i, nu)] = [[_exact(x) for x in row] for row in blk]

    def _assemble(self) -> Irrep:
        # The echelon pivoting picks raw f-monomials; rescale each basis word
        # by its run-length factorials so that repeated letters act as divided
        # powers (f_i^k v becomes f_i^k/k! v).  This is the normalization in
        # which the rank-1 reflection coefficients appear verbatim as matrix
        # entries.  An entry x of a block V_nu -> V_target becomes
        # x * ft / fs, where fs and ft are the run-length factorial products of
        # the source and target words: one Fraction per stored entry.
        fact = {nu: [_run_factorials(w) for w in words] for nu, words in self.basis.items()}

        def rescale(blk, nu, target):
            return [[Fraction(x.numerator * ft, x.denominator * fs) for x, fs in zip(row, fact[nu])]
                    for row, ft in zip(blk, fact[target])]

        e_blocks = {(i, nu): rescale(blk, nu, weight_add(nu, self.alphas[i - 1]))
                    for (i, nu), blk in self.eblocks.items() if blk}
        f_blocks = {}
        for nu, words in self.basis.items():
            for i, alpha in enumerate(self.alphas, 1):
                target = weight_sub(nu, alpha)
                if target in self.basis:
                    cidx, ccoords = self.cand_index[target], self.cand_coords[target]
                    cols = [ccoords[cidx[(i,) + b]] for b in words]
                    f_blocks[(i, nu)] = rescale(linalg.transpose(cols), nu, target)
        return Irrep(type=self.t, hw=self.hw, basis=self.basis, e_blocks=e_blocks,
                     f_blocks=f_blocks)


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
    if not hw.is_dominant():
        raise RepError(f"highest weight {hw} is not dominant")
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
    nu + k*alpha_i and inject via the divided power f_i^(k).
    """

    m: int
    k: int
    primitives: list[Vector]


@dataclass
class StringDecomposition:
    index: int
    weight: Weight
    components: list[StringComponent]
    change_of_basis: Matrix  # columns f_i^(k) u of every primitive u, invertible on V_nu
    inverse: Matrix  # of change_of_basis


def divided_f_power(V: Irrep, i: int, nu: Weight, k: int, vec: Vector) -> Vector:
    """f_i^k / k! applied to a vector in the V_nu block."""
    alpha = simple_root(V.type, i)
    cur = vec
    w = nu
    for _ in range(k):
        cur = linalg.mat_vec(V.f_block(i, w), cur)
        w = weight_sub(w, alpha)
    return [c / factorial(k) for c in cur]


def sl2_strings(V: Irrep, i: int, nu: Weight) -> StringDecomposition:
    """Decompose V_nu into sl(2)_i strings: V_nu = (+)_k f_i^(k)(ker e_i at nu+k*alpha_i)."""
    if nu not in V.basis:
        raise RepError(f"{nu} is not a weight of V({V.hw})")
    alpha = simple_root(V.type, i)
    dim_nu = V.weight_dim(nu)
    components = []
    cols: list[Vector] = []
    k = 0
    w = nu
    while w in V.basis:
        m = nu[i - 1] + 2 * k
        kernel = linalg.nullspace(V.e_block(i, w), V.weight_dim(w))
        if kernel and k <= m:
            components.append(StringComponent(m=m, k=k, primitives=kernel))
            cols.extend(divided_f_power(V, i, w, k, u) for u in kernel)
        k += 1
        w = weight_add(w, alpha)
    if len(cols) != dim_nu:
        raise RepError("sl(2)-string decomposition does not fill the weight space")
    change = linalg.transpose(cols)
    return StringDecomposition(index=i, weight=nu, components=components, change_of_basis=change,
                               inverse=linalg.invert(change))  # raises if singular


# ---------------------------------------------------------------------------
# cache

CACHE_VERSION = 1


def default_cache_dir() -> str:
    env = os.environ.get("DYNWG_CACHE")
    if env:
        return env
    return os.path.join(os.path.expanduser("~"), ".cache", "dynwg")


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
    weights = []
    for nu in V.weight_order:
        weights.append({"coords": list(nu.coords), "words": [list(w) for w in V.basis[nu]]})
    gens = {"e": [], "f": []}
    for (i, nu), blk in sorted(V.e_blocks.items(), key=lambda kv: (kv[0][0], kv[0][1].coords)):
        gens["e"].append({"i": i, "weight": list(nu.coords), "entries": _matrix_to_triplets(blk)})
    for (i, nu), blk in sorted(V.f_blocks.items(), key=lambda kv: (kv[0][0], kv[0][1].coords)):
        gens["f"].append({"i": i, "weight": list(nu.coords), "entries": _matrix_to_triplets(blk)})
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


# A lock without a readable pid (its writer has not written it yet, or the
# lock predates pids in locks) is trusted while it is younger than this.
LOCK_GRACE_S = 5.0


def _pid_alive(pid: int) -> bool:
    if os.name != "posix":
        return True  # no safe probe: os.kill(pid, 0) would end the process
    if pid <= 0:
        return False
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        pass  # alive, owned by another user
    return True


def _lock_free(lock: str) -> bool:
    """True once no live writer holds `lock`.  A lock whose writer has died
    (its pid is gone, or it holds no pid and is older than LOCK_GRACE_S) is
    broken here, so a killed writer cannot block its entry for good."""
    try:
        with open(lock) as fh:
            text = fh.read()
        try:
            alive = _pid_alive(int(text))
        except ValueError:
            alive = time.time() - os.path.getmtime(lock) < LOCK_GRACE_S
        if not alive:
            os.unlink(lock)
    except FileNotFoundError:
        return True
    except OSError:
        return False  # a lock this process cannot read or remove stays in force
    return not alive


def _take_lock(lock: str) -> int | None:
    """Create `lock` holding this process's pid and return its descriptor,
    or None while a live writer holds it."""
    for _ in range(2):  # the second try follows the breaking of a dead writer's lock
        try:
            fd = os.open(lock, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            if not _lock_free(lock):
                return None
            continue
        os.write(fd, str(os.getpid()).encode())
        return fd
    return None


def save_irrep(V: Irrep, cache_dir: str):
    """Write V's cache entry, atomically replacing any entry already there."""
    os.makedirs(cache_dir, exist_ok=True)
    path = os.path.join(cache_dir, cache_filename(V.type, V.hw))
    lock = path + ".lock"
    fd = _take_lock(lock)
    if fd is None:
        return  # another writer is at work; readers keep using fresh builds
    try:
        tmp = path + ".tmp"
        with open(tmp, "w") as fh:
            json.dump(irrep_to_json(V), fh, sort_keys=True)
        os.replace(tmp, path)
    finally:
        os.close(fd)
        os.unlink(lock)


def load_cached_irrep(t: LieType, hw: Weight, cache_dir: str) -> Irrep | None:
    """The cached V(hw), or None if there is none.  An entry that is not JSON,
    does not decode, or holds another type, highest weight or format version
    counts as missing, so that build_irrep rebuilds and replaces it."""
    path = os.path.join(cache_dir, cache_filename(t, hw))
    if not os.path.exists(path):
        return None
    # wait out an in-flight writer's rename
    lock = path + ".lock"
    for _ in range(50):
        if _lock_free(lock):
            break
        time.sleep(0.1)
    try:
        with open(path) as fh:
            obj = json.load(fh)
        want = {"version": CACHE_VERSION, "type": str(t), "hw": list(hw.coords)}
        if not isinstance(obj, dict) or any(obj.get(k) != v for k, v in want.items()):
            return None
        return irrep_from_json(obj)
    except (ValueError, KeyError, TypeError, IndexError, RepError, RootDataError):
        return None


def list_cached_irreps(cache_dir: str) -> list[str]:
    if not os.path.isdir(cache_dir):
        return []
    return sorted(f for f in os.listdir(cache_dir) if f.endswith(".json"))
