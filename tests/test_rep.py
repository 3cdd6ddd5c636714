import dataclasses
import functools
import hashlib
import json
import math
import os
import random
import re
import subprocess
import sys
import time
from fractions import Fraction
from types import SimpleNamespace

import pytest

from dynwg import linalg, rep
from dynwg.rep import (
    DimensionCapError,
    RepError,
    build_irrep,
    cache_filename,
    check_chevalley_serre,
    dominant_weights_up_to_dim,
    freudenthal_multiplicity,
    irrep_from_json,
    irrep_to_json,
    load_cached_irrep,
    sl2_strings,
    weight_add,
    weight_sub,
    weyl_dimension,
)
from dynwg.rootdata import (
    LieType,
    Weight,
    cartan_matrix,
    pairing,
    positive_coroots,
    positive_roots_in_simple_basis,
    rho,
    simple_root,
)
from irrep_blocks import dense, dense_vector, pair
from test_rootdata import dominant_representative, weyl_orbit

A1 = LieType.parse("A1")
A2 = LieType.parse("A2")
A3 = LieType.parse("A3")
B2 = LieType.parse("B2")
B3 = LieType.parse("B3")
C3 = LieType.parse("C3")
D4 = LieType.parse("D4")
G2 = LieType.parse("G2")

F = Fraction


# ---------------------------------------------------------------------------
# oracles


def test_weyl_dimension_sl2():
    for n in range(9):
        assert weyl_dimension(A1, Weight((n,))) == n + 1


def test_weyl_dimension_known_values():
    assert weyl_dimension(B2, Weight((1, 0))) == 5
    assert weyl_dimension(B2, Weight((0, 1))) == 4
    assert weyl_dimension(G2, Weight((0, 1))) == 7  # pins the Bourbaki labeling
    assert weyl_dimension(G2, Weight((1, 0))) == 14
    assert weyl_dimension(A2, Weight((1, 1))) == 8
    with pytest.raises(RepError):
        weyl_dimension(A2, Weight((-1, 0)))


def test_freudenthal_known_values():
    assert freudenthal_multiplicity(A2, Weight((1, 1)), Weight((0, 0))) == 2
    assert freudenthal_multiplicity(A2, Weight((1, 1)), Weight((1, 1))) == 1
    assert freudenthal_multiplicity(A2, Weight((1, 1)), Weight((5, 5))) == 0
    # sl2: V(4) has each of 4,2,0,-2,-4 once
    for mu in (-4, -2, 0, 2, 4):
        assert freudenthal_multiplicity(A1, Weight((4,)), Weight((mu,))) == 1
    assert freudenthal_multiplicity(A1, Weight((4,)), Weight((3,))) == 0
    # G2 adjoint: zero weight has multiplicity 2
    assert freudenthal_multiplicity(G2, Weight((1, 0)), Weight((0, 0))) == 2


def test_freudenthal_sums_to_dimension():
    for t, hw in ((A2, Weight((2, 1))), (B2, Weight((1, 1))), (G2, Weight((0, 2)))):
        total = 0
        seen = set()
        # sum multiplicities over the full weight system by walking orbits
        V = build_irrep(t, hw)
        for nu in V.weights():
            if nu in seen:
                continue
            orbit = weyl_orbit(t, nu)
            seen |= orbit
            total += len(orbit) * freudenthal_multiplicity(t, hw, nu)
        assert total == weyl_dimension(t, hw)


def test_weyl_dimension_memo_keeps_rejecting_non_dominant():
    assert weyl_dimension(A2, Weight((2, 1))) == 15
    for _ in range(2):  # a cached dominant weight of the type lets nothing through
        with pytest.raises(RepError):
            weyl_dimension(A2, Weight((2, -1)))
    assert type(weyl_dimension(A2, Weight((2, 1)))) is int


def _fraction_weyl_dimension(t, lam):
    lam_rho = weight_add(lam, rho(t))
    num = den = F(1)
    for g in positive_coroots(t):
        num *= pairing(lam_rho, g)
        den *= pairing(rho(t), g)
    return num / den


@pytest.mark.parametrize("name", ["B3", "C3", "D4", "G2"])
def test_weyl_dimension_matches_fraction_product(name):
    t = LieType.parse(name)
    for coords in ((0,) * t.rank, (2,) + (0,) * (t.rank - 1), (1,) * t.rank,
                   (0,) * (t.rank - 1) + (3,)):
        assert weyl_dimension(t, Weight(coords)) == _fraction_weyl_dimension(t, Weight(coords))


# Reference for rep's integer Freudenthal recursion: the same recursion on
# Fractions, with root coordinates from the inverse Cartan matrix.


def _oracle_symmetrizers(t):
    a = cartan_matrix(t)
    d = [None] * t.rank
    d[0] = F(1)
    frontier = [0]
    while frontier:
        i = frontier.pop()
        for j in range(t.rank):
            if i != j and a[i][j] and d[j] is None:
                d[j] = d[i] * a[i][j] / a[j][i]
                frontier.append(j)
    return d


def _mat_vec(a, v):
    return [sum(x * y for x, y in zip(row, v, strict=True)) for row in a]


def _oracle_root_coords(t, mu):
    inv = dense(linalg.invert([[F(x) for x in row] for row in cartan_matrix(t)]))
    return _mat_vec(inv, [F(c) for c in mu.coords])


def _oracle_ip(t, mu, nu):
    d = _oracle_symmetrizers(t)
    c = _oracle_root_coords(t, nu)
    return sum((c[j] * d[j] * mu.coords[j] for j in range(t.rank)), F(0))


def _oracle_in_positive_root_cone(t, mu):
    return all(x >= 0 and x.denominator == 1 for x in _oracle_root_coords(t, mu))


def _oracle_freudenthal(t, lam, mu, memo):
    if mu == lam:
        return 1
    if (lam, mu) in memo:
        return memo[(lam, mu)]
    if not _oracle_in_positive_root_cone(t, weight_sub(lam, mu)):
        return 0
    d = _oracle_symmetrizers(t)
    a = cartan_matrix(t)
    total = F(0)
    for c_alpha in positive_roots_in_simple_basis(t):
        alpha = Weight(
            tuple(sum(a[i][j] * c_alpha[j] for j in range(t.rank)) for i in range(t.rank))
        )
        k = 1
        while True:
            nu = weight_add(mu, Weight(tuple(k * x for x in alpha.coords)))
            if not _oracle_in_positive_root_cone(t, weight_sub(lam, nu)):
                break
            m = _oracle_freudenthal(t, lam, dominant_representative(t, nu), memo)
            if m:
                ip = sum((F(c_alpha[j]) * d[j] * nu.coords[j] for j in range(t.rank)), F(0))
                total += 2 * m * ip
            k += 1
    lam_rho = weight_add(lam, rho(t))
    mu_rho = weight_add(mu, rho(t))
    mult = total / (_oracle_ip(t, lam_rho, lam_rho) - _oracle_ip(t, mu_rho, mu_rho))
    assert mult.denominator == 1 and mult >= 0
    memo[(lam, mu)] = int(mult)
    return int(mult)


# The rep-integrity pool (A2, A3, B2, G2 up to dim 100), and rank 3 and 4 types
# whose symmetrizers are fractional.
FREUDENTHAL_POOLS = (("A2", 100), ("A3", 100), ("B2", 100), ("G2", 100),
                     ("B3", 40), ("C3", 40), ("D4", 40))


@pytest.mark.parametrize("name,cap", FREUDENTHAL_POOLS, ids=str)
def test_freudenthal_matches_fraction_oracle(name, cap):
    t = LieType.parse(name)
    for lam in dominant_weights_up_to_dim(t, cap):
        memo = {}
        for nu in build_irrep(t, lam).weights():
            expected = _oracle_freudenthal(t, lam, dominant_representative(t, nu), memo)
            assert freudenthal_multiplicity(t, lam, nu) == expected, (name, lam, nu)


def test_freudenthal_zero_denominator_raises():
    # lam = 0, mu = -2 = -alpha in A1: |lam + rho|^2 = |mu + rho|^2
    with pytest.raises(RepError):
        rep._freudenthal(A1, (0,), (-2,))


def test_freudenthal_is_zero_off_the_root_lattice():
    # lam - mu is a nonnegative but not an integral combination of simple roots
    assert rep._freudenthal(A1, (0,), (-3,)) == 0
    assert freudenthal_multiplicity(A2, Weight((1, 1)), Weight((1, 0))) == 0
    assert freudenthal_multiplicity(B2, Weight((2, 0)), Weight((0, 1))) == 0


# ---------------------------------------------------------------------------
# construction


def test_sl2_adjoint():
    V = build_irrep(A1, Weight((2,)))
    assert V.dim == 3
    assert sorted(w.coords for w in V.weights()) == [(-2,), (0,), (2,)]
    assert all(V.weight_dim(w) == 1 for w in V.weights())


def test_a2_adjoint_and_standard():
    V = build_irrep(A2, Weight((1, 1)))
    assert V.dim == 8
    assert V.weight_dim(Weight((0, 0))) == 2
    V3 = build_irrep(A2, Weight((1, 0)))
    assert [w.coords for w in V3.weights()] == [(1, 0), (-1, 1), (0, -1)]


def test_multiplicities_match_oracle():
    for t, hw in ((B2, Weight((1, 1))), (G2, Weight((0, 1)))):
        V = build_irrep(t, hw)
        assert V.dim == weyl_dimension(t, hw)
        for nu in V.weights():
            assert V.weight_dim(nu) == freudenthal_multiplicity(t, hw, nu)


# sha256 over the canonical irrep_to_json and the Freudenthal multiplicities
# of GOLDEN_IRREPS, pinned from a build whose arithmetic ran on Fractions
# throughout: the integer builder and oracle must reproduce it byte for byte.
GOLDEN_IRREPS = (("A2", (1, 1)), ("A2", (2, 1)), ("A3", (1, 0, 1)), ("A3", (1, 1, 0)),
                 ("B2", (1, 1)), ("B2", (2, 1)), ("G2", (1, 0)), ("G2", (0, 2)),
                 ("B3", (1, 0, 0)), ("B3", (0, 0, 1)), ("B3", (0, 1, 0)))
GOLDEN_SHA256 = "92536c4be08ad4e509c9ef618029f16b182c59f3f37824cb8ec39424a98ec351"


def _int_pairs(blocks) -> tuple[int, int]:
    """(nonzero entries, entries that their block's d does not divide) of the
    blocks (N, d), after asserting that each is an int matrix N over an int
    d > 0, in lowest terms."""
    nonzero = nonintegral = 0
    for n, d in blocks:
        entries = [x for row in n for x in row]
        assert type(d) is int and d > 0 and {type(x) for x in entries} == {int}
        assert math.gcd(d, *entries) == 1
        nonzero += sum(1 for x in entries if x)
        nonintegral += sum(1 for x in entries if x % d)
    return nonzero, nonintegral


def test_golden_output_and_fraction_entries():
    digest = hashlib.sha256()
    for name, hw in GOLDEN_IRREPS:
        t, lam = LieType.parse(name), Weight(hw)
        V = build_irrep(t, lam)
        obj = irrep_to_json(V)
        digest.update(json.dumps(obj, sort_keys=True).encode())
        digest.update(json.dumps([freudenthal_multiplicity(t, lam, nu)
                                  for nu in V.weight_order]).encode())
        # fresh and cache-loaded irreps hold the same values of the same type:
        # every stored block is an int matrix N over an int d > 0
        W = irrep_from_json(obj)
        assert W.e_blocks == V.e_blocks and W.f_blocks == V.f_blocks
        for U in (V, W):
            _int_pairs([*U.e_blocks.values(), *U.f_blocks.values()])
    assert digest.hexdigest() == GOLDEN_SHA256


@pytest.mark.parametrize("t,hw,counts", ((B2, (2, 2), (459, 61)), (G2, (1, 1), (284, 58))),
                         ids=str)
def test_raw_blocks_are_int_matrices_over_one_denominator(t, hw, counts, monkeypatch):
    # every raw e/f block, and every block of the assembled Irrep, is (N, d):
    # N an int matrix, d > 0 an int, and N / d in lowest terms; counts is
    # _int_pairs' count of the raw blocks
    builder = rep._IrrepBuilder(t, Weight(hw))
    assemble = rep._IrrepBuilder._assemble
    monkeypatch.setattr(rep._IrrepBuilder, "_assemble", lambda self: None)
    builder.build()  # every level, and no rescale
    assert _int_pairs([*builder.eblocks.values(), *builder.fblocks.values()]) == counts
    V = assemble(builder)  # the rescale to divided powers keeps the nonzero entries
    assert _int_pairs([*V.e_blocks.values(), *V.f_blocks.values()]) == (counts[0],
                                                                       {B2: 26, G2: 27}[t])
    W = irrep_from_json(irrep_to_json(V))
    assert W.e_blocks == V.e_blocks and W.f_blocks == V.f_blocks


def test_weight_multiset_weyl_invariant():
    V = build_irrep(B2, Weight((1, 1)))
    for nu in V.weights():
        for img in weyl_orbit(B2, nu):
            assert V.weight_dim(img) == V.weight_dim(nu)


def test_chevalley_serre_relations():
    for t, hw in ((A2, Weight((1, 1))), (B2, Weight((0, 1))), (G2, Weight((0, 1))),
                  (G2, Weight((1, 0))), (B2, Weight((1, 1)))):
        assert check_chevalley_serre(build_irrep(t, hw)) == []


def _global_index(V) -> dict:
    """(weight, k) -> position of the k-th basis vector of V_weight in the
    whole of V, the weights taken in V.weight_order."""
    pairs = [(nu, k) for nu in V.weight_order for k in range(V.weight_dim(nu))]
    return {pair: n for n, pair in enumerate(pairs)}


def _dense_generator(V, kind: str, i: int):
    """The full dim x dim matrix of e_i, f_i or h_i in the basis of _global_index."""
    idx = _global_index(V)
    m = [[F(0)] * V.dim for _ in range(V.dim)]
    alpha = simple_root(V.type, i)
    for nu in V.weight_order:
        if kind == "h":
            for k in range(V.weight_dim(nu)):
                m[idx[(nu, k)]][idx[(nu, k)]] = F(nu[i - 1])
            continue
        target = weight_add(nu, alpha) if kind == "e" else weight_sub(nu, alpha)
        if target not in V.basis:
            continue
        blk = dense(V.e_block(i, nu) if kind == "e" else V.f_block(i, nu))
        for r, row in enumerate(blk):
            for c, x in enumerate(row):
                m[idx[(target, r)]][idx[(nu, c)]] = x
    return m


def _dense_chevalley_serre(V) -> list[str]:
    """Reference for check_chevalley_serre: the same relations, in the same
    order, on dense matrices of the whole representation."""
    a = cartan_matrix(V.type)
    gens = range(1, V.type.rank + 1)
    E = {i: _dense_generator(V, "e", i) for i in gens}
    Fm = {i: _dense_generator(V, "f", i) for i in gens}
    H = {i: _dense_generator(V, "h", i) for i in gens}
    zero = [[F(0)] * V.dim for _ in range(V.dim)]

    def bracket(x, y):
        xy, yx = linalg.mat_mul(x, y), linalg.mat_mul(y, x)
        return [[p - q if q else p for p, q in zip(r, s)] for r, s in zip(xy, yx)]

    def times(c, x):
        return [[c * v if v else v for v in row] for row in x]

    failures = []
    for i in gens:
        for j in gens:
            comm = bracket(E[i], Fm[j])
            if i == j:
                if comm != H[i]:
                    failures.append(f"[e_{i}, f_{i}] != h_{i}")
            elif comm != zero:
                failures.append(f"[e_{i}, f_{j}] != 0")
            aij = a[i - 1][j - 1]
            if bracket(H[i], E[j]) != times(aij, E[j]):
                failures.append(f"[h_{i}, e_{j}] != <alpha_{j},coroot_{i}> e_{j}")
            if bracket(H[i], Fm[j]) != times(-aij, Fm[j]):
                failures.append(f"[h_{i}, f_{j}] != -<alpha_{j},coroot_{i}> f_{j}")
            if i != j:
                n = 1 - aij
                for kind, gen in (("e", E), ("f", Fm)):
                    cur = gen[j]
                    for _ in range(n):
                        cur = bracket(gen[i], cur)
                    if cur != zero:
                        failures.append(f"Serre relation ad({kind}_{i})^{n}({kind}_{j}) != 0")
    return failures


def _corrupted_copies(V, rng):
    """Copies of V with one entry of an e- or f-block changed by +1, by +1/3,
    or set to 0 (a nonzero entry)."""
    for kind in ("e_blocks", "f_blocks"):
        blocks = {key: dense(blk) for key, blk in getattr(V, kind).items()}
        cells = [(key, r, c) for key in sorted(blocks, key=lambda k: (k[0], k[1].coords))
                 for r, row in enumerate(blocks[key]) for c in range(len(row))]
        nonzero = [(key, r, c) for key, r, c in cells if blocks[key][r][c]]
        for change, pool in ((lambda x: x + 1, cells), (lambda x: x + F(1, 3), cells),
                             (lambda x: F(0), nonzero)):
            key, r, c = rng.choice(pool)
            copy = {k: [list(row) for row in blk] for k, blk in blocks.items()}
            copy[key][r][c] = change(copy[key][r][c])
            yield dataclasses.replace(V, **{kind: {k: pair(blk) for k, blk in copy.items()}})


DIFFERENTIAL_IRREPS = (
    (A1, (3,)), (A2, (1, 1)), (A2, (2, 1)), (A3, (1, 0, 1)), (A3, (3, 1, 0)),
    (B2, (0, 1)), (B2, (1, 1)), (B2, (2, 0)), (G2, (0, 1)), (G2, (1, 0)),
    (B3, (1, 0, 1)), (C3, (0, 1, 0)), (D4, (0, 1, 0, 0)),
)


@pytest.mark.parametrize("t,hw", DIFFERENTIAL_IRREPS, ids=str)
def test_chevalley_serre_matches_dense_oracle(t, hw):
    V = build_irrep(t, Weight(hw))
    assert check_chevalley_serre(V) == _dense_chevalley_serre(V) == []
    rng = random.Random(f"{t}:{hw}")
    for bad in _corrupted_copies(V, rng):
        expected = _dense_chevalley_serre(bad)
        assert expected
        assert check_chevalley_serre(bad) == expected


def _edited_copy(V, rng):
    """A copy of V with one to three random edits of its e- and f-blocks:
    shift one entry by a small Fraction, scale a whole block, zero a whole
    block, or swap two rows of a block."""
    copies = {kind: {k: dense(blk) for k, blk in getattr(V, kind).items()}
              for kind in ("e_blocks", "f_blocks")}
    for _ in range(rng.randint(1, 3)):
        blocks = copies[rng.choice(sorted(copies))]
        key = rng.choice([k for k, blk in blocks.items() if blk and blk[0]])
        blk = blocks[key]
        edit = rng.choice(("shift", "scale", "zero", "swap") if len(blk) > 1 else
                          ("shift", "scale", "zero"))
        if edit == "shift":
            row = rng.choice(blk)
            c = rng.randrange(len(row))
            row[c] += rng.choice((F(1), F(-1), F(1, 2), F(-1, 3), F(2, 3)))
        elif edit == "scale":
            factor = rng.choice((F(-1), F(2), F(1, 2), F(-3, 2)))
            blocks[key] = [[factor * x for x in row] for row in blk]
        elif edit == "zero":
            blocks[key] = [[F(0)] * len(row) for row in blk]
        else:
            p, q = rng.sample(range(len(blk)), 2)
            blk[p], blk[q] = blk[q], blk[p]
    return dataclasses.replace(V, **{kind: {k: pair(blk) for k, blk in blocks.items()}
                                     for kind, blocks in copies.items()})


SWEEP_IRREPS = ((A2, (1, 1)), (B2, (1, 1)), (G2, (1, 0)), (A3, (1, 0, 1)), (B3, (0, 0, 1)),
                (C3, (0, 1, 0)))


def _corruption_sweep(copies_per_irrep: int) -> tuple[int, int]:
    """Compare check_chevalley_serre with the dense oracle, list and order,
    on edited copies of SWEEP_IRREPS; returns (copies, copies that fail)."""
    failing = 0
    for t, hw in SWEEP_IRREPS:
        V = build_irrep(t, Weight(hw))
        rng = random.Random(f"sweep:{t}:{hw}")
        for _ in range(copies_per_irrep):
            bad = _edited_copy(V, rng)
            expected = _dense_chevalley_serre(bad)
            assert check_chevalley_serre(bad) == expected
            # the sl(2) argument: a Serre relation fails only with some [e_i, f_j]
            if any(x.startswith("Serre") for x in expected):
                assert any(x.startswith("[e_") for x in expected)
            failing += bool(expected)
    return copies_per_irrep * len(SWEEP_IRREPS), failing


def test_chevalley_serre_matches_dense_oracle_on_edited_copies():
    copies, failing = _corruption_sweep(8)
    assert copies == 48 and failing > copies // 2


@pytest.mark.slow
def test_chevalley_serre_matches_dense_oracle_on_edited_copies_sweep():
    copies, failing = _corruption_sweep(90)
    assert copies == 540 and failing > copies // 2


@pytest.mark.parametrize("t,hw", ((A2, (1, 1)), (G2, (1, 0)), (A3, (1, 0, 1))), ids=str)
def test_serre_brackets_run_only_when_an_ef_relation_fails(t, hw, monkeypatch):
    calls = []
    bracket = rep._bracket
    monkeypatch.setattr(rep, "_bracket", lambda x, y: calls.append(1) or bracket(x, y))
    V = build_irrep(t, Weight(hw))
    assert check_chevalley_serre(V) == []
    assert len(calls) == t.rank ** 2  # the [e_i, f_j], and no Serre bracket
    calls.clear()
    key = (1, V.hw)  # f_1 on the highest weight space, where hw_1 > 0
    n, d = V.f_blocks[key]
    bad = dataclasses.replace(V, f_blocks={**V.f_blocks, key: ([[2 * x for x in row] for row in n],
                                                               d)})
    assert "[e_1, f_1] != h_1" in check_chevalley_serre(bad)
    a = cartan_matrix(t)
    serre = sum(2 * (1 - a[i][j]) for i in range(t.rank) for j in range(t.rank) if i != j)
    assert len(calls) == t.rank ** 2 + serre


def _break_invariant(name: str, patch):
    """The call that reaches one invariant check of dynwg.rep, after patch(attr,
    value) has replaced the dynwg.rep attributes that its input needs."""
    if name == "weyl_dimension":
        # a coroot of height 3 makes the Weyl product 2/3
        patch("positive_coroots", lambda t: [SimpleNamespace(coords=(1,), height=lambda: 3)])
        return lambda: rep._weyl_dimension.__wrapped__(A1, Weight((1,)))
    if name == "symmetrizers":
        patch("cartan_matrix", lambda t: [[2, 0], [0, 2]])  # A1 x A1, not connected
        return lambda: rep._symmetrizers.__wrapped__(A2)
    if name == "freudenthal":
        # a norm three times too large makes m_0 of V(2) equal to 1/3; a fresh
        # memo keeps the value out of the shared one
        patch("_freudenthal", functools.lru_cache(maxsize=None)(rep._freudenthal.__wrapped__))
        patch("_scaled_norm", lambda t, c: 3 * c[0] ** 2)
        return lambda: freudenthal_multiplicity(A1, Weight((2,)), Weight((0,)))
    if name == "level":
        # (0, 0) lies outside the root lattice coset of (1, 0): their gap is
        # (2/3) alpha_1 + (1/3) alpha_2
        return lambda: rep.Irrep(A2, Weight((1, 0)), {Weight((1, 0)): [()], Weight((0, 0)): []},
                                 {}, {})
    if name in ("shap", "positive_definite"):
        # generator entries divided by 3 (a denominator 3 times too large), or
        # negated (negated numerators)
        scale, sign = (3, 1) if name == "shap" else (1, -1)
        solve = rep._solve

        def broken_solve(adj, det, m):
            n, d = solve(adj, det, m)
            return [[sign * x for x in row] for row in n], scale * d

        patch("_solve", broken_solve)
        return lambda: build_irrep(A1, Weight((2,)))
    if name in ("string_fill", "string_surplus"):
        # V_0 of the adjoint representation of A2 holds two sl(2)_1-strings,
        # with one primitive at 0 and one at alpha_1: a kernel that misses its
        # first vector (string_fill) or holds it twice (string_surplus) is not
        # the size of the drop in multiplicity
        V = build_irrep(A2, Weight((1, 1)))
        edit = (lambda b: b[1:]) if name == "string_fill" else (lambda b: b + b[:1])
        patch("linalg", SimpleNamespace(**dict(
            vars(linalg), nullspace=lambda a, cols: edit(linalg.nullspace(a, cols)))))
        return lambda: sl2_strings(V, 1, Weight((0, 0)))
    raise KeyError(name)


INVARIANT_CHECKS = {
    "weyl_dimension": r"Weyl dimension of V\(1\) is not an integer",
    "symmetrizers": "Dynkin graph of A2 is not connected",
    "freudenthal": r"Freudenthal multiplicity 1/3 at 0 in V\(2\) is not a natural number",
    "level": "0,0 is not in the root lattice coset of 1,0",
    "shap": "contravariant form 4/3 on f-monomials is not an integer",
    "positive_definite": "^contravariant form is not positive definite$",
    "string_fill": r"^sl\(2\)-string decomposition does not fill the weight space$",
    "string_surplus": r"^sl\(2\)-string decomposition does not fill the weight space$",
}

_BREAK_INVARIANT = """
import sys
sys.path.insert(0, sys.argv[1])
import test_rep
from dynwg import rep
call = test_rep._break_invariant(sys.argv[2], lambda attr, value: setattr(rep, attr, value))
try:
    call()
except rep.RepError as exc:
    print(sys.flags.optimize, exc)
"""


@pytest.mark.parametrize("name", sorted(INVARIANT_CHECKS))
def test_invariant_checks_raise(name, monkeypatch):
    call = _break_invariant(name, lambda attr, value: monkeypatch.setattr(rep, attr, value))
    with pytest.raises(RepError, match=INVARIANT_CHECKS[name]):
        call()


@pytest.mark.parametrize("name", sorted(INVARIANT_CHECKS))
def test_invariant_checks_raise_under_python_O(name):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.dirname(os.path.dirname(rep.__file__)), os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-O", "-c", _BREAK_INVARIANT,
                          os.path.dirname(__file__), name],
                         capture_output=True, text=True, env=env, timeout=120)
    assert out.returncode == 0, out.stderr
    optimize, message = out.stdout.strip().split(" ", 1)
    assert optimize == "1" and re.search(INVARIANT_CHECKS[name], message)


def test_errors():
    with pytest.raises(RepError):
        build_irrep(A2, Weight((-1, 0)))
    with pytest.raises(DimensionCapError):
        build_irrep(A2, Weight((9, 9)), dim_cap=100)


WRONG_RANK_CALLS = {
    "weyl_dimension": lambda w: weyl_dimension(A2, w),
    "build_irrep": lambda w: build_irrep(A2, w),
    "freudenthal_lam": lambda w: freudenthal_multiplicity(A2, w, Weight((0, 0))),
    "freudenthal_mu": lambda w: freudenthal_multiplicity(A2, Weight((1, 1)), w),
}


@pytest.mark.parametrize("call", sorted(WRONG_RANK_CALLS))
@pytest.mark.parametrize("coords", [(1,), (1, 0, 0), (0,), (1, 1, 0)], ids=str)
def test_wrong_rank_weight_is_rejected(call, coords):
    w = Weight(coords)
    with pytest.raises(RepError, match=rf"weight \({w}\) has {len(coords)} coordinates, "
                                       r"but A2 has rank 2"):
        WRONG_RANK_CALLS[call](w)


def test_irrep_is_keyed_by_weights(tmp_path):
    V = build_irrep(B2, Weight((1, 1)), cache_dir=str(tmp_path))
    W = rep.load_cached_irrep(B2, Weight((1, 1)), str(tmp_path))
    for U in (V, W):
        assert {type(nu) for nu in U.basis} == {type(nu) for nu in U.weight_order} == {Weight}
        assert {type(nu) for blocks in (U.e_blocks, U.f_blocks) for _, nu in blocks} == {Weight}
        assert U.weight_order == sorted(U.basis, key=lambda w: (rep._level(B2, U.hw, w), w.coords))
    assert W.weight_order == V.weight_order and W.basis == V.basis


# ---------------------------------------------------------------------------
# sl(2)-strings


def test_strings_sl2_adjoint():
    V = build_irrep(A1, Weight((2,)))
    assert [(c.m, c.k) for c in sl2_strings(V, 1, Weight((0,)))] == [(2, 1)]


def test_strings_a2():
    V = build_irrep(A2, Weight((1, 1)))
    assert sorted((c.m, c.k) for c in sl2_strings(V, 1, Weight((0, 0)))) == [(0, 0), (2, 1)]
    V3 = build_irrep(A2, Weight((1, 0)))
    assert [(c.m, c.k) for c in sl2_strings(V3, 1, Weight((1, 0)))] == [(1, 0)]
    with pytest.raises(RepError):
        sl2_strings(V3, 1, Weight((5, 5)))


def test_sl2_strings_keeps_each_decomposition_on_the_irrep(monkeypatch):
    V = build_irrep(A2, Weight((1, 1)))
    nu = Weight((0, 0))
    first = sl2_strings(V, 1, nu)
    assert V.string_parts == {(1, nu): first}
    calls = []
    for name in ("invert", "nullspace"):
        monkeypatch.setattr(linalg, name, lambda *a, _f=getattr(linalg, name):
                            calls.append(a) or _f(*a))
    assert sl2_strings(V, 1, nu) is first and calls == []  # no second decomposition
    with pytest.raises(RepError, match="is not a weight"):
        sl2_strings(V, 1, Weight((5, 5)))
    assert V.string_parts == {(1, nu): first} and calls == []
    sl2_strings(V, 2, nu)  # another (i, nu) is decomposed, and kept beside it
    assert calls and list(V.string_parts) == [(1, nu), (2, nu)]


def test_string_data_is_pinned_bit_for_bit():
    # (m, k, primitives, transfer) at every (i, nu) of the 62 irreps of A2,
    # B2, G2 and A3 of dim <= 48, hashed by value (each entry as a Fraction,
    # so an int 0 and Fraction(0) hash alike); the change of basis inverted
    # at every (i, nu), which rho * F * Pi replaced, gives the same digest
    digest, components, kinds = hashlib.sha256(), 0, set()
    for algebra in ("A2", "B2", "G2", "A3"):
        t = LieType.parse(algebra)
        for hw in dominant_weights_up_to_dim(t, 48):
            V = build_irrep(t, hw)
            for i in range(1, t.rank + 1):
                for nu in V.weights():
                    for c in sl2_strings(V, i, nu):
                        digest.update(repr((algebra, hw.coords, i, nu.coords, c.m, c.k,
                                            [dense_vector(u) for u in c.primitives],
                                            [[Fraction(x) for x in row] for row in c.transfer])
                                           ).encode())
                        components += 1
                        kinds |= {(type(x), bool(x)) for row in c.transfer for x in row}
    assert components == 2942
    assert digest.hexdigest() == "d119936809f4e3432ad4a4590808045c280674bd9f234839d6a146ed1cf53b6b"
    # a nonzero transfer entry is a Fraction, and a zero one an int 0
    assert kinds == {(Fraction, True), (int, False)}


def test_strings_fill_weight_space():
    V = build_irrep(G2, Weight((0, 1)))
    for i in (1, 2):
        for nu in V.weights():
            strings = sl2_strings(V, i, nu)
            assert sum(len(c.primitives) for c in strings) == V.weight_dim(nu)


def test_string_primitives_killed_by_e():
    from dynwg import linalg
    from dynwg.rep import weight_add
    from dynwg.rootdata import simple_root

    V = build_irrep(B2, Weight((1, 1)))
    nu = Weight((-1, 1))
    for i in (1, 2):
        w = nu
        alpha = simple_root(B2, i)
        by_k = {c.k: c for c in sl2_strings(V, i, nu)}
        for k in range(max(by_k) + 1):
            if k in by_k:
                blk = dense(V.e_block(i, w))
                for u in by_k[k].primitives:
                    assert not any(_mat_vec(blk, dense_vector(u)))
            w = weight_add(w, alpha)


# ---------------------------------------------------------------------------
# cache


def test_cache_round_trip(tmp_path):
    cache = str(tmp_path)
    V = build_irrep(A2, Weight((1, 1)), cache_dir=cache)
    W = build_irrep(A2, Weight((1, 1)), cache_dir=cache)  # loads from disk
    assert W.dim == V.dim and W.basis == V.basis
    assert W.e_blocks == V.e_blocks and W.f_blocks == V.f_blocks
    files = list(tmp_path.glob("*.json"))
    assert len(files) == 1


def test_cache_json_schema():
    V = build_irrep(A2, Weight((1, 0)))
    obj = irrep_to_json(V)
    assert obj["type"] == "A2" and obj["dim"] == 3
    assert set(obj["generators"]) == {"e", "f"}
    W = irrep_from_json(obj)
    assert W.basis == V.basis


def test_cache_rejects_corrupt_entry():
    V = build_irrep(A2, Weight((1, 0)))
    obj = irrep_to_json(V)
    obj["dim"] = 99
    with pytest.raises(RepError):
        irrep_from_json(obj)


def test_dominant_weight_enumeration():
    hws = dominant_weights_up_to_dim(A2, 10)
    assert Weight((1, 1)) in hws and Weight((0, 0)) in hws
    assert all(weyl_dimension(A2, h) <= 10 for h in hws)
    assert Weight((2, 1)) not in hws  # dim 15


def _fault_other_irrep(text):
    obj = json.loads(text)
    other = irrep_to_json(build_irrep(A2, Weight((0, 1))))
    assert other["dim"] == obj["dim"]  # V(0,1) would pass the dimension check
    return json.dumps(other)


def _fault_other_version(text):
    return json.dumps(dict(json.loads(text), version=0))


def _fault_negative_index(text):
    # a row index of -1 would wrap around to the block's last row
    obj = json.loads(text)
    obj["generators"]["e"][0]["entries"][0][0] = -1
    return json.dumps(obj)


def _fault_non_integer_weight(text):
    # a loader that truncated coordinates would read (-1, 1) back
    obj = json.loads(text)
    (entry,) = [w for w in obj["weights"] if w["coords"] == [-1, 1]]
    entry["coords"] = [-1.5, 1.2]
    return json.dumps(obj)


def _fault_weight_off_the_lattice(text):
    # an empty weight space whose gap to the highest weight (1, 0) is
    # (2/3) alpha_1 + (1/3) alpha_2
    obj = json.loads(text)
    obj["weights"].append({"coords": [0, 0], "words": []})
    return json.dumps(obj)


def _fault_zero_denominator(text):
    obj = json.loads(text)
    obj["generators"]["e"][0]["entries"][0][2] = "1/0"
    return json.dumps(obj)


def _fault_entry(value):
    def fault(text):
        obj = json.loads(text)
        obj["generators"]["e"][0]["entries"][0][2] = value
        return json.dumps(obj)
    return fault


def _fault_nested_past_the_decoder(text):
    # json raises RecursionError, not ValueError, on nesting this deep
    return text[:-1] + ', "extra": ' + "[" * 100_000 + "]" * 100_000 + "}"


CACHE_FAULTS = {
    # a JSON number, which Fraction would read as the float's binary value,
    # and a string that irrep_to_json never writes, which Fraction would read
    # as 1000 (and, with a long exponent, take unbounded time and memory)
    "float-entry": _fault_entry(0.1),
    "exponent-entry": _fault_entry("1e3"),
    "nested-past-the-decoder": _fault_nested_past_the_decoder,
    "negative-index": _fault_negative_index,
    "non-integer-weight": _fault_non_integer_weight,
    "off-lattice-weight": _fault_weight_off_the_lattice,
    "other-irrep": _fault_other_irrep,
    "other-version": _fault_other_version,
    "truncated": lambda text: text[: len(text) // 2],
    "undecodable": lambda text: "\udcff" + text,
    "zero-denominator": _fault_zero_denominator,
}


@pytest.mark.parametrize("fault", sorted(CACHE_FAULTS))
def test_invalid_cache_entry_is_rebuilt_and_replaced(tmp_path, fault):
    hw = Weight((1, 0))
    good = build_irrep(A2, hw)
    path = tmp_path / cache_filename(A2, hw)
    text = json.dumps(irrep_to_json(good), sort_keys=True)
    bad = CACHE_FAULTS[fault](text)
    path.write_bytes(bad.encode("utf-8", "surrogateescape"))
    V = build_irrep(A2, hw, cache_dir=str(tmp_path))
    assert V.hw == hw and V.basis == good.basis
    assert V.e_blocks == good.e_blocks and V.f_blocks == good.f_blocks
    assert path.read_text() == text  # the entry was replaced by the rebuilt irrep
    assert sorted(p.name for p in tmp_path.iterdir()) == [path.name]


# Rewrites (write) or loads (read) the A3 (1,1,1) entry n times; a reader
# prints the sha256 of each load's JSON ("none" for a missing entry).
_CACHE_RACER = """
import hashlib, json, sys
from dynwg import rep
from dynwg.rootdata import LieType, Weight
role, cache_dir, n = sys.argv[1], sys.argv[2], int(sys.argv[3])
t, hw = LieType.parse("A3"), Weight((1, 1, 1))
V = rep.load_cached_irrep(t, hw, cache_dir)
for _ in range(n):
    if role == "write":
        rep.save_irrep(V, cache_dir)
    else:
        W = rep.load_cached_irrep(t, hw, cache_dir)
        text = "none" if W is None else json.dumps(rep.irrep_to_json(W), sort_keys=True)
        print(hashlib.sha256(text.encode()).hexdigest())
"""


def test_concurrent_writers_and_readers_see_whole_entries(tmp_path):
    A3 = LieType.parse("A3")
    V = build_irrep(A3, Weight((1, 1, 1)), cache_dir=str(tmp_path))
    entry = tmp_path / cache_filename(A3, V.hw)
    text = json.dumps(irrep_to_json(V), sort_keys=True)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.dirname(os.path.dirname(rep.__file__)), os.environ.get("PYTHONPATH", "")]))
    racers = [subprocess.Popen([sys.executable, "-c", _CACHE_RACER, role, str(tmp_path), n],
                               stdout=subprocess.PIPE, text=True, env=env)
              for role, n in (("write", "40"), ("read", "80"), ("write", "40"), ("read", "80"))]
    outputs = [racer.communicate(timeout=120)[0].split() for racer in racers]
    assert [racer.returncode for racer in racers] == [0] * 4
    loads = outputs[1] + outputs[3]
    # the entry exists throughout, so no load may find it missing or torn
    assert loads == [hashlib.sha256(text.encode()).hexdigest()] * 160
    assert entry.read_text() == text
    assert sorted(p.name for p in tmp_path.iterdir()) == [entry.name]


def test_lock_of_an_older_version_is_ignored(tmp_path):
    # older versions guarded an entry with a .lock holding its writer's pid;
    # one left behind, even holding a live pid, neither delays nor blocks
    hw = Weight((1, 1))
    path = tmp_path / cache_filename(A2, hw)
    lock = tmp_path / (path.name + ".lock")
    V = build_irrep(A2, hw, cache_dir=str(tmp_path))
    lock.write_text(str(os.getpid()))
    start = time.perf_counter()
    W = load_cached_irrep(A2, hw, str(tmp_path))
    assert time.perf_counter() - start < 1.0
    assert W is not None and W.e_blocks == V.e_blocks
    path.unlink()
    build_irrep(A2, hw, cache_dir=str(tmp_path))
    assert path.read_text() == json.dumps(irrep_to_json(V), sort_keys=True)
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted([path.name, lock.name])


def test_failed_cache_write_leaves_no_temporary_file(tmp_path, monkeypatch):
    hw = Weight((1, 0))
    V = build_irrep(A2, hw, cache_dir=str(tmp_path))
    path = tmp_path / cache_filename(A2, hw)
    text = path.read_text()

    real_fdopen = os.fdopen

    def disk_full(fd, *args, **kwargs):
        # a file whose write gets one character out and then finds the disk full
        fh = real_fdopen(fd, *args, **kwargs)

        def write(text):
            type(fh).write(fh, text[:1])
            raise OSError(28, "No space left on device")

        fh.write = write
        return fh

    monkeypatch.setattr(rep.os, "fdopen", disk_full)
    with pytest.raises(RepError, match="cannot write the irrep cache entry .*: No space left"):
        rep.save_irrep(V, str(tmp_path))
    assert path.read_text() == text  # the old entry stands
    assert sorted(p.name for p in tmp_path.iterdir()) == [path.name]


@pytest.mark.skipif(os.name != "posix", reason="file modes are POSIX")
def test_cache_entry_mode_follows_the_umask(tmp_path):
    old = os.umask(0o027)
    try:
        build_irrep(A2, Weight((1, 0)), cache_dir=str(tmp_path))
    finally:
        os.umask(old)
    entry = tmp_path / cache_filename(A2, Weight((1, 0)))
    assert entry.stat().st_mode & 0o777 == 0o640
