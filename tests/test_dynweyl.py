import dataclasses
import os
import random
import re
import subprocess
import sys
from fractions import Fraction
from math import comb, factorial, gcd

import pytest

from dynwg import dynweyl, linalg
from dynwg.dynweyl import (
    DynWeylError,
    OperatorBlock,
    classical_limit,
    denominators_are_local,
    rank1_coefficient,
    rho_shift_images,
    simple_reflection_block,
    word_operator_block,
)
from dynwg.geomsatake import levi_restriction_check
from dynwg.ratfun import DegreeOneForm, PoleError, Polynomial, RatFun
from dynwg.rep import (
    RepError,
    build_irrep,
    freudenthal_multiplicity,
    sl2_strings,
    weight_add,
    weight_sub,
)
from dynwg.rootdata import (
    LieType,
    RootDataError,
    Weight,
    act,
    all_reduced_words,
    cartan_matrix,
    crossing_coroots,
    longest_element,
    simple_reflection,
    pairing,
    simple_root,
)
from irrep_blocks import dense, dense_vector
from ratfun_text import parse_ratfun, var

A1 = LieType.parse("A1")
A2 = LieType.parse("A2")
B2 = LieType.parse("B2")

X1 = DegreeOneForm.make([1], 0)
F = Fraction


def rf1(text):
    return parse_ratfun(text, 1)


def rf2(text):
    return parse_ratfun(text, 2)


# ---------------------------------------------------------------------------
# rank-1 coefficient


def test_rank1_coefficient_known_values():
    assert rank1_coefficient(2, 0, X1) == rf1("1")
    assert rank1_coefficient(2, 1, X1) == rf1("-(x1+2*h)/x1")
    assert rank1_coefficient(3, 1, X1) == rf1("-(x1+2*h)/(x1-h)")
    assert rank1_coefficient(4, 1, X1) == rf1("-(x1+2*h)/(x1-2*h)")


def test_rank1_coefficient_domain():
    # one formula on the whole string 0 <= k <= m, past its middle too
    assert rank1_coefficient(2, 2, X1) == rf1("(x1+3*h)/(x1+h)")
    assert rank1_coefficient(3, 2, X1) == rf1("(x1+2*h)*(x1+3*h)/(x1*(x1+h))")
    for m, k in ((1, -1), (2, 3), (0, 1)):
        with pytest.raises(DynWeylError) as err:
            rank1_coefficient(m, k, X1)
        assert str(err.value) == f"string component (m={m}, k={k}) needs 0 <= k <= m"


def test_rank1_coefficient_general_form():
    # direct product construction as an independent cross-check
    for m in range(9):
        for k in range(m + 1):
            expected = RatFun.const((-1) ** k, 1)
            for j in range(1, k + 1):
                expected = expected * RatFun(DegreeOneForm.make([1], j + 1).to_polynomial(), ())
                expected = expected / RatFun(DegreeOneForm.make([1], j - m + k).to_polynomial(), ())
            assert rank1_coefficient(m, k, X1) == expected


def _closed_form(m, k, xi):
    """RatFun.from_factors of the closed form, every factor kept."""
    return RatFun.from_factors((-1) ** k, [xi.shift_h(j + 1) for j in range(1, k + 1)],
                               [xi.shift_h(j - m + k) for j in range(1, k + 1)], xi.nx)


def test_rank1_coefficient_is_the_closed_form_at_every_xi():
    # with an x-part, equal shifts cancel and the rest is built unreduced
    for xi in (DegreeOneForm.make([1, 0], 0), DegreeOneForm.make([1, 1], -3),
               DegreeOneForm.make([2, 1], 1)):
        for m in range(13):
            for k in range(m + 1):
                assert rank1_coefficient(m, k, xi) == _closed_form(m, k, xi), (m, k, xi)
    # an h-only xi = c*h gives the constant value of the reduced closed form
    # in x1 at (x1, h) = (c, 1): 0 at a zero, and a DynWeylError at a pole
    poles = zeros = 0
    for c in (3, 0, -3, 1, -2):
        xi = DegreeOneForm.make([0], c)
        at = re.escape(str(xi))  # "3*h"
        for m in range(13):
            for k in range(m + 1):
                try:
                    expected = RatFun.const(_closed_form(m, k, X1).evaluate([c, 1]), 1)
                except PoleError:
                    poles += 1
                    with pytest.raises(DynWeylError, match=rf"^string component \(m={m}, k={k}\)"
                                                           rf" has a pole at xi = {at}$"):
                        rank1_coefficient(m, k, xi)
                else:
                    zeros += expected.is_zero()
                    assert rank1_coefficient(m, k, xi) == expected, (m, k, xi)
    assert (poles, zeros) == (86, 78)
    assert rank1_coefficient(2, 1, DegreeOneForm.make([0], 3)) == RatFun.const(F(-5, 3), 1)


def test_rank1_coefficient_at_an_h_only_xi():
    # c(2, 1, xi) = -(xi + 2h)/xi has a pole at xi = 0, and c(2, 1), c(4, 2)
    # and c(1, 1) vanish at xi = -2h, -3h and -2h; c(4, 3, -2h) = -1, where
    # the unreduced closed form is 0/0
    with pytest.raises(DynWeylError, match=r"^string component \(m=2, k=1\) has a pole at xi = 0$"):
        rank1_coefficient(2, 1, DegreeOneForm.make([0], 0))
    for m, k, c in ((2, 1, -2), (4, 2, -3), (1, 1, -2)):
        assert rank1_coefficient(m, k, DegreeOneForm.make([0, 0], c)) == RatFun.zero(2)
    assert rank1_coefficient(4, 3, DegreeOneForm.make([0], -2)) == RatFun.const(-1, 1)


def _divided_power_coefficient(n, j, xi):
    """a_j = (-1)^j (xi - (n-1)h)/(xi - (n+j-1)h), the coefficient of
    f_i^(n+j) e_i^(j) in A_{s_i}(xi) on a weight space with <nu, coroot_i> = n."""
    return RatFun.from_factors((-1) ** j, [xi.shift_h(1 - n)], [xi.shift_h(1 - n - j)], xi.nx)


def test_rank1_coefficient_triangular_identity():
    # f_i^(n+j) e_i^(j) sends f_i^(k) u, u primitive of sl(2)-weight m and
    # n = m - 2k, to C(m-k+j, j) C(m-k, n+j) f_i^(m-k) u; f_i^(n+j) exists
    # from j = max(0, -n) on
    pairs = 0
    for m in range(11):
        for k in range(m + 1):
            n, expected = m - 2 * k, RatFun.zero(1)
            for j in range(max(0, -n), k + 1):
                a = _divided_power_coefficient(n, j, X1)
                expected = expected + a.scale(comb(m - k + j, j) * comb(m - k, n + j))
            assert rank1_coefficient(m, k, X1) == expected, (m, k)
            pairs += 1
    assert pairs == 66


# ---------------------------------------------------------------------------
# simple reflection blocks


def test_a1_block_reproduces_scalar():
    # the string machinery on A1 must reproduce the closed form verbatim
    for lam in range(9):
        V = build_irrep(A1, Weight((lam,)))
        for mu in range(lam % 2, lam + 1, 2):
            blk = simple_reflection_block(V, 1, Weight((mu,)), X1)
            k = (lam - mu) // 2
            assert blk.matrix == [[rank1_coefficient(lam, k, X1)]]
            assert blk.target == Weight((-mu,))


def test_a2_single_string_block():
    V = build_irrep(A2, Weight((1, 1)))
    xi = DegreeOneForm.make([1, 0], 0)
    blk = simple_reflection_block(V, 1, Weight((1, 1)), xi)
    assert blk.target == Weight((-1, 2))
    assert blk.matrix == [[RatFun.one(2)]]


def test_a2_zero_weight_block_string_diagonal():
    # in the string-adapted basis the block is diag(c(2,1), c(0,0)) = diag(-(x1+2h)/x1, 1)
    V = build_irrep(A2, Weight((1, 1)))
    xi = DegreeOneForm.make([1, 0], 0)
    nu = Weight((0, 0))
    blk = simple_reflection_block(V, 1, nu, xi)
    for comp, columns, images in _dense_string_walks(V, 1, nu):
        c = rank1_coefficient(comp.m, comp.k, xi)
        for column, image in zip(columns, images, strict=True):
            # A_s (f^(k) u) must equal c * f^(m-k) u
            assert _rmat_vec(blk.matrix, column, 2) == [c.scale(x) for x in image]


def _divided_power(V, i, nu, k, raising):
    """e_i^k / k! (raising) or f_i^k / k! on V_nu, from the irrep's weight blocks."""
    n = V.weight_dim(nu)
    alpha, out = simple_root(V.type, i), [[int(r == c) for c in range(n)] for r in range(n)]
    for _ in range(k):
        if raising:
            out, nu = linalg.mat_mul(dense(V.e_block(i, nu)), out), weight_add(nu, alpha)
        else:
            out, nu = linalg.mat_mul(dense(V.f_block(i, nu)), out), weight_sub(nu, alpha)
    return [[Fraction(c, factorial(k)) for c in row] for row in out]


def _mat_vec(a, v):
    return [sum(x * y for x, y in zip(row, v, strict=True)) for row in a]


def _dense_f_power(V, i, nu, k, vec):
    """f_i^(k) vec for vec in the V_nu block, as the dense matrix f_i^k / k!."""
    return _mat_vec(_divided_power(V, i, nu, k, raising=False), vec)


def _dense_string_walks(V, i, nu):
    """(component, columns f_i^(k) u, images f_i^(m-k) u) for each string of
    sl2_strings(V, i, nu), with u its primitives, from the dense f_i^j / j!."""
    alpha, walks = simple_root(V.type, i), []
    for comp in sl2_strings(V, i, nu):
        w = Weight(tuple(c + comp.k * a for c, a in zip(nu.coords, alpha.coords)))
        primitives = [dense_vector(u) for u in comp.primitives]
        walks.append((comp, [_dense_f_power(V, i, w, comp.k, u) for u in primitives],
                      [_dense_f_power(V, i, w, comp.m - comp.k, u) for u in primitives]))
    return walks


def _rmat_vec(matrix, vec, nx):
    """A RatFun matrix times a vector of Fractions."""
    out = []
    for row in matrix:
        acc = RatFun.zero(nx)
        for e, x in zip(row, vec, strict=True):
            if x:
                acc = acc + e.scale(x)
        out.append(acc)
    return out


def _divided_power_block(V, i, nu, xi):
    """A_{s_i}(xi) on V_nu as sum_j a_j f_i^(n+j) e_i^(j), n = <nu, coroot_i>,
    with no sl(2)-strings: the sum runs from j = max(0, -n), where f_i^(n+j)
    starts to exist, while nu + j*alpha_i is a weight."""
    n, alpha = nu[i - 1], simple_root(V.type, i)
    rows = V.weight_dim(simple_reflection(V.type, i, nu))
    matrix = [[RatFun.zero(V.type.rank)] * V.weight_dim(nu) for _ in range(rows)]
    j = max(0, -n)
    top = Weight(tuple(c + j * a for c, a in zip(nu.coords, alpha.coords)))
    while top in V.basis:
        a = _divided_power_coefficient(n, j, xi)
        op = linalg.mat_mul(_divided_power(V, i, top, n + j, raising=False),
                            _divided_power(V, i, nu, j, raising=True))
        for row, op_row in zip(matrix, op):
            for col, s in enumerate(op_row):
                if s:
                    row[col] = row[col] + a.scale(s)
        j, top = j + 1, weight_add(top, alpha)
    return matrix


DIVIDED_POWER_IRREPS = [
    ("A2", (1, 1)), ("A2", (2, 1)), ("B2", (1, 1)), ("B2", (2, 1)), ("G2", (1, 0)),
    ("G2", (1, 1)), ("A3", (1, 0, 1)), ("A3", (1, 1, 0)), ("B3", (1, 0, 1)), ("C3", (0, 1, 0)),
    ("A4", (1, 0, 0, 1)), ("D4", (0, 1, 0, 0)), ("B4", (1, 0, 0, 0)),
]


def _divided_power_sweep():
    """(compared, failures) of simple_reflection_block against the e/f
    formula at every (i, nu) of DIVIDED_POWER_IRREPS."""
    compared = failures = 0
    for algebra, hw in DIVIDED_POWER_IRREPS:
        t = LieType.parse(algebra)
        V = build_irrep(t, Weight(hw))
        for i in range(1, t.rank + 1):
            xi = DegreeOneForm.make([int(a == i) for a in range(1, t.rank + 1)], 0)
            for nu in V.weights():
                block = simple_reflection_block(V, i, nu, xi)
                failures += block.matrix != _divided_power_block(V, i, nu, xi)
                compared += 1
    return compared, failures


def test_simple_reflection_block_matches_divided_power_oracle():
    # 396 of the 640 (i, nu) have <nu, coroot_i> >= 0
    assert _divided_power_sweep() == (640, 0)


def _contravariant_forms(V):
    """nu -> G_nu, the contravariant form on V_nu in V's basis, read off the
    public e- and f-blocks alone (Shapovalov, Funct. Anal. Appl. 1972).

    G_hw = [[1]].  Below it, <f_i u, v> = <u, e_i v> for u in V_sigma,
    sigma = nu + alpha_i, says F_i^T G_nu = G_sigma E_i.  Stacked over the
    sigma that are weights, F^T G_nu = H E, with H the block diagonal of the
    G_sigma.  The f_i V_sigma span V_nu, so F F^T is invertible and the least
    squares solution G_nu = (F F^T)^-1 F H E is the only candidate; asserts
    that it solves the system, is symmetric and has positive leading minors."""
    forms = {V.hw: [[F(1)]]}
    for nu in V.weights()[1:]:
        ft, he = [], []  # F^T and H E, one block row per sigma
        for i in range(1, V.type.rank + 1):
            sigma = weight_add(nu, simple_root(V.type, i))
            if sigma in forms:
                ft += linalg.transpose(dense(V.f_block(i, sigma)))
                he += linalg.mat_mul(forms[sigma], dense(V.e_block(i, nu)))
        f = linalg.transpose(ft)
        g = linalg.mat_mul(dense(linalg.invert(linalg.mat_mul(f, ft))), linalg.mat_mul(f, he))
        assert linalg.mat_mul(ft, g) == he, f"no form at {nu} makes e adjoint to f"
        assert g == linalg.transpose(g), f"the form at {nu} is not symmetric"
        pivots = [list(row) for row in g]  # Gaussian elimination without swaps
        for k, prow in enumerate(pivots):
            assert prow[k] > 0, f"a leading minor of the form at {nu} is not positive"
            for row in pivots[k + 1:]:
                c = row[k] / prow[k]
                row[:] = [x - c * y for x, y in zip(row, prow)]
        forms[nu] = g
    return forms


def test_e_blocks_are_contravariant_adjoints_of_f_blocks():
    for algebra, hw in DIVIDED_POWER_IRREPS:
        V = build_irrep(LieType.parse(algebra), Weight(hw))
        assert set(_contravariant_forms(V)) == set(V.weights())


@pytest.mark.parametrize("nu,scale,message", [
    ((0, 0), 2, "not symmetric"),  # two sigma of dimension 1 above V_0 of dimension 2
    ((-1, -1), 2, "makes e adjoint to f"),  # two sigma above a V_nu of dimension 1
    ((-1, 2), -1, "leading minor"),  # one sigma, the highest weight
], ids=str)
def test_contravariant_oracle_fails_on_a_scaled_e_block(nu, scale, message):
    V = build_irrep(A2, Weight((1, 1)))
    key = (1, Weight(nu))
    n, d = V.e_blocks[key]
    bad = dataclasses.replace(V, e_blocks={**V.e_blocks, key: ([[scale * x for x in row]
                                                                for row in n], d)})
    with pytest.raises(AssertionError, match=message):
        _contravariant_forms(bad)


STRING_IRREPS = [
    ("A2", (2, 1)), ("B2", (1, 1)), ("G2", (1, 1)), ("A3", (1, 0, 1)), ("B3", (1, 0, 1)),
    ("C3", (0, 1, 0)), ("A4", (1, 0, 0, 1)),
]


def test_string_data_matches_dense_divided_powers():
    """Each transfer map against the one assembled from the dense f_i^j / j!
    columns f_i^(k) u and images f_i^(m-k) u, sum c(m,k,xi) * transfer
    against simple_reflection_block and the divided-power oracle at a
    generic xi, and, at each dominant nu, word_operator_block(V, (i,), nu)
    against c(m,k,x_i) f_i^(m-k) u on each column f_i^(k) u."""
    compared = one_letter = 0
    for algebra, hw in STRING_IRREPS:
        t = LieType.parse(algebra)
        V = build_irrep(t, Weight(hw))
        xi = DegreeOneForm.make([3, -2, 5, 7][: t.rank], F(1, 3))
        for i in range(1, t.rank + 1):
            x_i = DegreeOneForm.make([int(a == i) for a in range(1, t.rank + 1)], 0)
            for nu in [nu for nu in V.weights() if nu[i - 1] >= 0]:
                walks = _dense_string_walks(V, i, nu)
                change = linalg.transpose([col for _, columns, _ in walks for col in columns])
                rows = iter(dense(linalg.invert(change)))
                expected = [[RatFun.zero(t.rank)] * V.weight_dim(nu)
                            for _ in range(V.weight_dim(nu))]
                for comp, _, images in walks:
                    inverse_rows = [next(rows) for _ in images]
                    transfer = linalg.mat_mul(linalg.transpose(images), inverse_rows)
                    assert comp.transfer == transfer, (algebra, hw, i, nu, comp.m, comp.k)
                    c = rank1_coefficient(comp.m, comp.k, xi)
                    for row, t_row in zip(expected, transfer):
                        row[:] = [e + c.scale(s) if s else e for e, s in zip(row, t_row)]
                block = simple_reflection_block(V, i, nu, xi).matrix
                assert block == expected == _divided_power_block(V, i, nu, xi), (algebra, hw, i, nu)
                compared += 1
                if nu.is_dominant():
                    letter_block = word_operator_block(V, (i,), nu).matrix
                    for comp, columns, images in walks:
                        c = rank1_coefficient(comp.m, comp.k, x_i)
                        for column, image in zip(columns, images):
                            scaled = [c.scale(x) for x in image]
                            assert _rmat_vec(letter_block, column, t.rank) == scaled, (
                                algebra, hw, i, nu, comp.m, comp.k)
                    one_letter += 1
    assert (compared, one_letter) == (223, 46)


def test_each_kernel_is_computed_once_and_shared_along_the_string(monkeypatch):
    # the kernel of e_i at a string's top w is kept on V per (i, w), and every
    # weight on the string, w - j alpha_i for j = 0 .. <w, coroot_i>, reads
    # that one list as the string's primitives
    calls, nullspace = [], linalg.nullspace
    monkeypatch.setattr(linalg, "nullspace",
                        lambda a, cols: calls.append(cols) or nullspace(a, cols))
    # V(2) of A1: v spans the kernel of e at the top weight 2, and the weights
    # 2, 0 and -2 all lie on its one string
    V = build_irrep(A1, Weight((2,)))
    for nu in V.weights():
        (comp,) = sl2_strings(V, 1, nu)
        assert comp.primitives is V.kernels[(1, Weight((2,)))]
    assert V.kernels == {(1, Weight((2,))): [([1], 1)]} and calls == [1]
    # G2 (1,1), every (i, nu): a kernel at each (i, w) where the multiplicity
    # drops, computed once, killed by e_i, and read by each weight of its string
    G2 = LieType.parse("G2")
    V, calls[:] = build_irrep(G2, Weight((1, 1))), []
    readers = {}
    for i in (1, 2):
        alpha = simple_root(G2, i)
        for nu in V.weights():
            for comp in sl2_strings(V, i, nu):
                w = Weight(tuple(c + comp.k * a for c, a in zip(nu.coords, alpha.coords)))
                assert comp.primitives is V.kernels[(i, w)]
                readers[(i, w)] = readers.get((i, w), 0) + 1
    tops = {(i, w) for i in (1, 2) for w in V.weights()
            if V.weight_dim(w) > V.weight_dim(weight_add(w, simple_root(G2, i)))}
    assert set(V.kernels) == set(readers) == tops and len(calls) == len(tops) == 32
    assert all(n == w[i - 1] + 1 for (i, w), n in readers.items())
    for (i, w), kernel in V.kernels.items():
        e = dense(V.e_block(i, w))
        for ints, d in kernel:
            assert d > 0 and gcd(d, *ints) == 1 and not any(_mat_vec(e, dense_vector((ints, d))))


def test_simple_reflection_block_checks_the_index_first():
    V = build_irrep(A2, Weight((1, 1)))
    xi = DegreeOneForm.make([1, 0], 0)
    for i in (0, 3):
        for nu in (Weight((2, -1)), Weight((1, 1)), Weight((-1, 2))):
            with pytest.raises(RootDataError):
                simple_reflection_block(V, i, nu, xi)
            with pytest.raises(RootDataError):
                sl2_strings(V, i, nu)
        for mu in (Weight((1, 1)), Weight((0, 0))):  # dominant, as levi_restriction_check needs
            with pytest.raises(RootDataError):
                levi_restriction_check(V, i, mu)


def test_wrong_rank_weight_or_form_is_rejected():
    # a third coordinate was dropped (s_1 gave -1,1), a short weight was
    # indexed past its end, and a xi in 3 or 1 variables gave a block whose
    # entries mixed variable counts
    with pytest.raises(RootDataError, match=r"^weight \(1,0,0\) has 3 coordinates, but A2"):
        act(A2, (1,), Weight((1, 0, 0)))
    with pytest.raises(RootDataError, match=r"^weight \(1\) has 1 coordinates, but A2"):
        act(A2, (2,), Weight((1,)))
    V = build_irrep(A2, Weight((1, 1)))
    for xcoeffs in ([1, 0, 0], [1]):
        with pytest.raises(DynWeylError, match=rf"^xi has {len(xcoeffs)} variables, but A2 has"
                                               r" rank 2$"):
            simple_reflection_block(V, 1, Weight((0, 0)), DegreeOneForm.make(xcoeffs, 0))


def test_block_preconditions():
    # any weight of V is a source, <nu, coroot_i> < 0 included; a weight
    # outside V is not
    V = build_irrep(A2, Weight((1, 1)))
    xi = DegreeOneForm.make([1, 0], 0)
    nu = Weight((-2, 1))
    block = simple_reflection_block(V, 1, nu, xi)
    assert block.target == Weight((2, -1))
    assert block.matrix == _divided_power_block(V, 1, nu, xi) == [[rf2("(x1+3*h)/(x1+h)")]]
    with pytest.raises(RepError) as err:
        simple_reflection_block(V, 1, Weight((0, -1)), xi)
    assert str(err.value) == "0,-1 is not a weight of V(1,1)"


# ---------------------------------------------------------------------------
# word operators


def test_empty_word_is_identity():
    V = build_irrep(A2, Weight((1, 1)))
    blk = word_operator_block(V, (), Weight((0, 0)))
    assert blk.matrix == [
        [RatFun.one(2), RatFun.zero(2)],
        [RatFun.zero(2), RatFun.one(2)],
    ]


def test_minuscule_longest_word():
    V = build_irrep(A2, Weight((1, 0)))
    blk = word_operator_block(V, (1, 2, 1), Weight((1, 0)))
    assert blk.target == Weight((0, -1))
    assert blk.matrix == [[RatFun.one(2)]]


def test_single_letter_matches_simple_block():
    V = build_irrep(A2, Weight((1, 1)))
    xi = DegreeOneForm.make([1, 0], 0)
    a = word_operator_block(V, (1,), Weight((0, 0)))
    b = simple_reflection_block(V, 1, Weight((0, 0)), xi)
    assert a.equals(b)


def test_blocks_between_other_spaces_are_not_equal():
    # the empty word's identity blocks: equal entries, other source and target
    V = build_irrep(A2, Weight((1, 1)))
    a = word_operator_block(V, (), Weight((1, 1)))
    b = word_operator_block(V, (), Weight((-1, 2)))
    assert a.matrix == b.matrix and a.equals(a)
    assert not a.equals(b)
    assert not a.equals(dataclasses.replace(a, target=b.target))


def test_a1_v4_block():
    V = build_irrep(A1, Weight((4,)))
    blk = word_operator_block(V, (1,), Weight((2,)))
    assert blk.matrix == [[rf1("-(x1+2*h)/(x1-2*h)")]]


def test_reduced_word_independence():
    for t, hw in ((A2, Weight((1, 1))), (B2, Weight((0, 1)))):
        V = build_irrep(t, hw)
        w0 = longest_element(t)
        words = all_reduced_words(t, w0)
        for mu in V.weights():
            blocks = [word_operator_block(V, w, mu) for w in words]
            assert all(blocks[0].equals(b) for b in blocks[1:])


def test_block_shape_and_denominators():
    V = build_irrep(B2, Weight((1, 0)))
    for mu in V.weights():
        blk = word_operator_block(V, longest_element(B2), mu)
        assert blk.target == act(B2, blk.word, mu)
        assert denominators_are_local(blk)


def test_word_operator_errors():
    V = build_irrep(A2, Weight((1, 1)))
    with pytest.raises(RootDataError) as err:
        word_operator_block(V, (1, 1), Weight((0, 0)))  # non-reduced
    assert str(err.value) == "word [1, 1] is not reduced"
    with pytest.raises(DynWeylError) as err:
        word_operator_block(V, (1,), Weight((0, -1)))
    assert str(err.value) == "0,-1 is not a weight of V(1,1)"
    # a negative pairing is no error: (1,) at (-1, 2) pairs with coroot 1 to -1
    x1 = DegreeOneForm.make([1, 0], 0)
    single = word_operator_block(V, (1,), Weight((-1, 2)))
    assert single.equals(simple_reflection_block(V, 1, Weight((-1, 2)), x1))
    assert single.target == Weight((1, 1)) and single.matrix == [[rf2("-(x1+2*h)/(x1+h)")]]


def test_source_condition_is_the_step_pairing():
    # the only source condition is the loop's check that each step's weight
    # pairs with its letter as mu pairs with gamma_t; (1, 2) at (2, -1)
    # crosses coroot 2 first, to which (2, -1) pairs to -1, and its block is
    # the product of its two steps
    V = build_irrep(A2, Weight((1, 1)))
    mu = Weight((2, -1))
    first = simple_reflection_block(V, 2, mu, DegreeOneForm.make([0, 1], 0))
    second = simple_reflection_block(V, 1, first.target, DegreeOneForm.make([1, 1], 1))
    block = word_operator_block(V, (1, 2), mu)
    assert first.target == Weight((1, 1))
    assert block.target == second.target == Weight((-1, 2))
    assert block.matrix == _rmat_mul(second.matrix, first.matrix, 2)
    assert block.matrix == [[rf2("-(x2+2*h)/(x2+h)")]]
    empty = word_operator_block(V, (), Weight((-1, 2)))
    assert empty.target == Weight((-1, 2)) and empty.matrix == [[RatFun.one(2)]]


# With the crossing coroots reversed, the first step of (1, 2, 1) at (2, 1)
# pairs with coroot 1, to 2, where its crossing coroot, coroot 2, pairs to 1.
_WRONG_PAIRING = ("A_w on V_(2,1): step 1 of 3 has <(2,1), coroot 1> = 2,"
                  " not <(2,1), (0,1)> = 1")
# (1, 2) at (2, -1) and (1,) at (-1, 2) have negative pairings, and are the
# blocks to (-1, 2) and (1, 1)
_WRONG_PAIRING_PROBE = """
from dynwg import dynweyl, rep, rootdata
A2 = rootdata.LieType.parse("A2")

def probe(hw, word, mu):
    V = rep.build_irrep(A2, rootdata.Weight(hw))
    try:
        print(dynweyl.word_operator_block(V, word, rootdata.Weight(mu)).target)
    except dynweyl.DynWeylError as exc:
        print(exc)

probe((1, 1), (1, 2), (2, -1))
probe((1, 1), (1,), (-1, 2))
crossing = dynweyl.crossing_coroots
dynweyl.crossing_coroots = lambda t, word: crossing(t, word)[::-1]
probe((2, 1), (1, 2, 1), (2, 1))
"""


def test_word_loop_check_raises_on_a_wrong_pairing(monkeypatch):
    crossing = crossing_coroots
    monkeypatch.setattr(dynweyl, "crossing_coroots", lambda t, word: crossing(t, word)[::-1])
    V = build_irrep(A2, Weight((2, 1)))
    with pytest.raises(DynWeylError) as err:
        word_operator_block(V, (1, 2, 1), Weight((2, 1)))
    assert str(err.value) == _WRONG_PAIRING


def test_word_loop_check_survives_python_optimize():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.dirname(os.path.dirname(dynweyl.__file__)), os.environ.get("PYTHONPATH", "")]))
    probe = subprocess.run([sys.executable, "-O", "-c", _WRONG_PAIRING_PROBE],
                           capture_output=True, text=True, env=env, timeout=120)
    assert probe.returncode == 0, probe.stderr
    assert probe.stdout == "".join(line + "\n" for line in ("-1,2", "1,1", _WRONG_PAIRING))


# ---------------------------------------------------------------------------
# differential oracle for the composition: every entry reduced after every
# product, from blocks assembled one primitive at a time


def _rmat_mul(a, b, nx):
    rows = len(a)
    inner = len(b)
    cols = len(b[0]) if b else 0
    out = [[RatFun.zero(nx) for _ in range(cols)] for _ in range(rows)]
    for r in range(rows):
        for t in range(inner):
            e = a[r][t]
            if e.is_zero():
                continue
            for c in range(cols):
                if not b[t][c].is_zero():
                    out[r][c] = out[r][c] + e * b[t][c]
    return out


def _oracle_simple_block(V, i, nu, xi):
    """sum over primitives u of c(m,k,xi) f_i^(m-k) u (x) (row u of the
    inverse), with no string data kept between calls."""
    nx = V.type.rank
    walks = _dense_string_walks(V, i, nu)
    rows, dim = V.weight_dim(simple_reflection(V.type, i, nu)), V.weight_dim(nu)
    matrix = [[RatFun.zero(nx) for _ in range(dim)] for _ in range(rows)]
    change = linalg.transpose([col for _, cols, _ in walks for col in cols])
    p_rows = iter(dense(linalg.invert(change)))
    for comp, _, images in walks:
        c = rank1_coefficient(comp.m, comp.k, xi)
        for image in images:
            p_row = next(p_rows)
            for r in range(rows):
                for col in range(dim):
                    s = image[r] * p_row[col]
                    if s:
                        matrix[r][col] = matrix[r][col] + c.scale(s)
    return matrix


def _oracle_word_block(V, word, mu):
    nx = V.type.rank
    matrix = [[RatFun.one(nx) if r == c else RatFun.zero(nx) for c in range(V.weight_dim(mu))]
              for r in range(V.weight_dim(mu))]
    cur = mu
    for gamma, letter in zip(crossing_coroots(V.type, word), reversed(word)):
        xi = DegreeOneForm.make(gamma.coords, gamma.height() - 1)
        matrix = _rmat_mul(_oracle_simple_block(V, letter, cur, xi), matrix, nx)
        cur = simple_reflection(V.type, letter, cur)
    return cur, matrix


ORACLE_IRREPS = [
    ("A2", (1, 1)), ("A2", (2, 1)), ("A2", (1, 2)), ("A3", (1, 0, 1)), ("A3", (0, 1, 1)),
    ("B2", (2, 2)), ("B2", (1, 1)), ("G2", (1, 1)), ("G2", (2, 0)), ("B3", (1, 0, 1)),
    ("C3", (0, 1, 0)), ("D4", (0, 1, 0, 0)),
]


def test_word_block_matches_reduce_every_step_oracle():
    # several irreps of one type share weights (i, nu): a string memo that
    # outlived or crossed its irrep would give another irrep's block
    compared = 0
    for algebra, hw in ORACLE_IRREPS:
        t = LieType.parse(algebra)
        V = build_irrep(t, Weight(hw))
        words = all_reduced_words(t, longest_element(t), cap=4)
        words += [(i,) for i in range(1, t.rank + 1)] + [words[0][-2:]]
        for mu in [w for w in V.weights() if w.is_dominant()]:
            for word in words:
                blk = word_operator_block(V, word, mu)
                target, matrix = _oracle_word_block(V, word, mu)
                oracle = OperatorBlock(V=V, word=word, source=mu, target=target, matrix=matrix)
                assert blk.equals(oracle), (algebra, hw, mu, word)
                assert blk.to_json() == oracle.to_json(), (algebra, hw, mu, word)
                compared += 1
    assert compared == 232


# ---------------------------------------------------------------------------
# the cocycle factorization A_{uv}(x) = A_u(v*x) A_v(x), v*x = v(x + h rho) - h rho


FACTORIZATION_IRREPS = [("A2", (1, 1)), ("B2", (1, 1)), ("G2", (1, 0)), ("A3", (1, 0, 1)),
                        ("B2", (2, 1))]


def _shifted_variables(t, v):
    """The images <x, g> + (ht(g) - 1) h of x_i under v*, g = v^-1 coroot_i:
    coroot_i reflected by s_{a_1} first and s_{a_p} last for v = (a_1, ..., a_p),
    with s_j acting as g -> g - <alpha_j, g> coroot_j."""
    a = cartan_matrix(t)
    images = []
    for i in range(t.rank):
        g = [int(k == i) for k in range(t.rank)]
        for j in v:
            g[j - 1] -= sum(c * a[k][j - 1] for k, c in enumerate(g))
        images.append(DegreeOneForm.make(g, sum(g) - 1))
    return images


def _factorization_sweep(every_weight=True):
    """(checks, failures) over every split w = u v, u and v not empty, of the
    first 4 reduced words of w0, at every weight, or only at the dominant
    ones."""
    checks = failures = 0
    for name, hw in FACTORIZATION_IRREPS:
        t = LieType.parse(name)
        V = build_irrep(t, Weight(hw))
        for w in all_reduced_words(t, longest_element(t), cap=4):
            for c in range(1, len(w)):
                u, v = w[:c], w[c:]
                images = _shifted_variables(t, v)
                for mu in [nu for nu in V.weights() if every_weight or nu.is_dominant()]:
                    a_v = word_operator_block(V, v, mu).matrix
                    a_u = [[e.substitute(images) for e in row]
                           for row in word_operator_block(V, u, act(t, v, mu)).matrix]
                    product = _rmat_mul(a_u, a_v, t.rank)
                    checks += 1
                    failures += product != word_operator_block(V, w, mu).matrix
    return checks, failures


def test_cocycle_factorization_at_every_split():
    # 114 of the 634 checks are at a dominant mu
    assert _factorization_sweep() == (634, 0)


def test_cocycle_factorization_needs_the_rho_shift(monkeypatch):
    monkeypatch.setattr(dynweyl, "_step_variable",
                        lambda gamma: DegreeOneForm.make(gamma.coords, 0))
    checks, failures = _factorization_sweep(every_weight=False)
    assert checks == 114 and failures > 0


# ---------------------------------------------------------------------------
# identities on every weight space of V


EVERY_WEIGHT_IRREPS = [
    ("A2", (1, 1)), ("A2", (2, 1)), ("B2", (1, 1)), ("B2", (2, 1)), ("G2", (1, 0)),
    ("G2", (1, 1)), ("A3", (1, 0, 1)), ("B3", (1, 0, 0)), ("C3", (0, 1, 0)),
]


def _inversion_sweep():
    """(checks, failures) of the inversion identity
    A_{s_i}(s_i*x) A_{s_i}(x) = (-1)^n (x_i - (n-1)h)/(x_i + h) Id on V_nu,
    n = <nu, coroot_i>, at every (i, nu) of EVERY_WEIGHT_IRREPS.  A_{s_i}(x)
    is the block at xi = x_i, and <s_i*x, coroot_i> = -x_i - 2h."""
    checks = failures = 0
    for name, hw in EVERY_WEIGHT_IRREPS:
        t = LieType.parse(name)
        V, nx = build_irrep(t, Weight(hw)), t.rank
        for i in range(1, nx + 1):
            x_i = DegreeOneForm.make([int(a == i) for a in range(1, nx + 1)], 0)
            back = DegreeOneForm.make([-int(a == i) for a in range(1, nx + 1)], -2)
            for nu in V.weights():
                n, there = nu[i - 1], simple_reflection_block(V, i, nu, x_i)
                product = _rmat_mul(simple_reflection_block(V, i, there.target, back).matrix,
                                    there.matrix, nx)
                scalar = RatFun.from_factors((-1) ** n, [x_i.shift_h(1 - n)], [x_i.shift_h(1)], nx)
                checks += 1
                failures += product != [[scalar if r == c else RatFun.zero(nx) for c in range(
                    V.weight_dim(nu))] for r in range(V.weight_dim(nu))]
    return checks, failures


def test_inversion_identity_at_every_weight():
    assert _inversion_sweep() == (297, 0)


def test_word_blocks_at_every_weight():
    # the first 4 reduced words of w0 agree at every weight, and each block
    # has a classical limit and meets the locality rule, whose bound M =
    # max(0, 1 + <mu, gamma>) a form of most blocks attains
    blocks = attained = 0
    for name, hw in EVERY_WEIGHT_IRREPS:
        t = LieType.parse(name)
        V = build_irrep(t, Weight(hw))
        words = all_reduced_words(t, longest_element(t), cap=4)
        for mu in V.weights():
            reference = word_operator_block(V, words[0], mu)
            assert denominators_are_local(reference), (name, hw, mu)
            classical_limit(reference)
            assert all(word_operator_block(V, w, mu).equals(reference) for w in words[1:])
            tops = {g.coords: g.height() - max(0, 1 + pairing(mu, g))
                    for g in crossing_coroots(t, words[0])}
            attained += any(form.hcoeff == tops[form.xcoeffs]
                            for row in reference.matrix for e in row for form, _ in e.den)
            blocks += 1
    assert (blocks, attained) == (132, 123)


def _mirror_coefficient(m, k, xi):
    """The wrong continuation past the middle of a string: c(m, m - k, xi)."""
    return rank1_coefficient(m, m - k if 2 * k > m else k, xi)


def test_every_weight_checks_reject_the_mirror_continuation(monkeypatch):
    monkeypatch.setattr(dynweyl, "rank1_coefficient", _mirror_coefficient)
    for sweep, checks in ((_divided_power_sweep, 640), (_inversion_sweep, 297)):
        done, failures = sweep()
        assert done == checks and failures > 0, sweep.__name__


# ---------------------------------------------------------------------------
# the contravariant-form identity A_w(x)^T G_{w mu} A_w(x'') = G_mu, with
# x''_j = -x_j - 2h + mu_j h: each rank-1 step preserves the form under the
# twist xi -> -xi - (2 - n) h, and the (ht - 1) h shift of the step variables
# makes one x'' twist every step


CONTRAVARIANT_IRREPS = [
    ("A1", (4,)), ("A2", (1, 1)), ("A2", (2, 1)), ("B2", (1, 1)), ("G2", (1, 0)),
    ("G2", (1, 1)), ("A3", (1, 0, 1)), ("B3", (1, 0, 0)), ("C3", (0, 1, 0)),
]


def _contravariant_sweep(irreps, every_weight=True):
    """(checks, failures) of the identity for the first 3 reduced words of
    w0 at every weight mu (or every dominant one), with G from
    _contravariant_forms."""
    checks = failures = 0
    for name, hw in irreps:
        t = LieType.parse(name)
        V, nx = build_irrep(t, Weight(hw)), t.rank
        forms = {nu: [[RatFun.const(c, nx) for c in row] for row in g]
                 for nu, g in _contravariant_forms(V).items()}
        for mu in [nu for nu in V.weights() if every_weight or nu.is_dominant()]:
            twist = [DegreeOneForm.make([-int(a == j) for a in range(nx)], mu[j] - 2)
                     for j in range(nx)]
            for w in all_reduced_words(t, longest_element(t), cap=3):
                blk = word_operator_block(V, w, mu)
                twisted = [[e.substitute(twist) for e in row] for row in blk.matrix]
                lhs = _rmat_mul(_rmat_mul(linalg.transpose(blk.matrix), forms[blk.target], nx),
                                twisted, nx)
                checks += 1
                failures += lhs != forms[mu]
    return checks, failures


def test_contravariant_form_identity():
    # 51 of the 254 checks are at a dominant mu
    assert _contravariant_sweep(CONTRAVARIANT_IRREPS) == (254, 0)


def test_contravariant_form_identity_needs_the_rho_shift(monkeypatch):
    monkeypatch.setattr(dynweyl, "_step_variable",
                        lambda gamma: DegreeOneForm.make(gamma.coords, 0))
    for irrep, checks in ((("A2", (1, 1)), 4), (("B2", (1, 1)), 4), (("G2", (1, 0)), 6)):
        # each on a fresh irrep
        done, failures = _contravariant_sweep([irrep], every_weight=False)
        assert done == checks and failures > 0, irrep


def test_contravariant_form_identity_rejects_the_mirror_continuation(monkeypatch):
    monkeypatch.setattr(dynweyl, "rank1_coefficient", _mirror_coefficient)
    for irrep, checks in ((("A2", (2, 1)), 24), (("B2", (1, 1)), 24), (("G2", (1, 0)), 26)):
        done, failures = _contravariant_sweep([irrep])  # each on a fresh irrep
        assert done == checks and failures > 0, irrep


# ---------------------------------------------------------------------------
# the closed form at the extremal weights mu in W(lambda): each weight space
# along the word is V_{w' mu} for a prefix w', of dimension one on a single
# alpha_i-string, where k = 0 or k = m; c(m, 0, xi) = 1 and c(m, m, xi) =
# (-1)^m (xi + (m + 1) h) / (xi + h), so at xi = <x, g> + (ht(g) - 1) h
#
#   A_w(x) on V_mu = eps * prod over g in N(w) with <mu, g> < 0 of
#                    (<x, g> + (ht(g) - <mu, g>) h) / (<x, g> + ht(g) h),
#
# eps = classical_limit of the block.  The right side reads only the
# crossing coroots N(w), so it checks L3 and L4 against the root data, in
# every rank: w0 up to rank 5, and a reduced word of length 6 on each of the
# E6, E7 and E8 adjoints


E6_WORD = (1, 3, 4, 2, 5, 4)
E7_WORD = (1, 3, 4, 5, 4, 3)
E8_WORD = (8, 7, 6, 7, 8, 5)
EXTREMAL_CASES = [("A2", (2, 1), None), ("B2", (2, 2), None), ("G2", (1, 1), None),
                  ("A3", (2, 0, 2), None), ("E6", (0, 1, 0, 0, 0, 0), E6_WORD),
                  ("D4", (0, 1, 0, 0), None), ("F4", (0, 0, 0, 1), None),
                  ("A5", (1, 0, 0, 0, 1), None), ("E7", (1, 0, 0, 0, 0, 0, 0), E7_WORD),
                  ("E8", (0, 0, 0, 0, 0, 0, 0, 1), E8_WORD)]


def _weyl_orbit(t, lam):
    orbit, todo = {lam}, [lam]
    while todo:
        mu = todo.pop()
        for i in range(1, t.rank + 1):
            if (nu := simple_reflection(t, i, mu)) not in orbit:
                orbit.add(nu)
                todo.append(nu)
    return sorted(orbit, key=lambda w: w.coords)


def _extremal_sweep(cases):
    """(blocks, failures) of the closed form at every extremal weight of
    each (algebra, highest weight, word), the word None meaning w0."""
    blocks = failures = 0
    for name, hw, word in cases:
        t = LieType.parse(name)
        V = build_irrep(t, Weight(hw))
        word = longest_element(t) if word is None else word
        for mu in _weyl_orbit(t, V.hw):
            blk = word_operator_block(V, word, mu)
            crossed = [(g, pairing(mu, g)) for g in crossing_coroots(t, word) if pairing(mu, g) < 0]
            closed = RatFun.from_factors(classical_limit(blk)[0][0],
                                         [DegreeOneForm.make(g.coords, g.height() - p)
                                          for g, p in crossed],
                                         [DegreeOneForm.make(g.coords, g.height())
                                          for g, _ in crossed], t.rank)
            blocks += 1
            failures += blk.matrix != [[closed]]
    return blocks, failures


def test_extremal_weight_closed_form():
    assert _extremal_sweep(EXTREMAL_CASES) == (6 + 8 + 12 + 12 + 72 + 24 + 24 + 30 + 126 + 240, 0)


@pytest.mark.parametrize("mutant", ["no-rho-shift", "mirror"])
@pytest.mark.parametrize("case", EXTREMAL_CASES[:1] + EXTREMAL_CASES[4:], ids=lambda c: c[0])
def test_extremal_weight_closed_form_rejects_a_mutant(monkeypatch, mutant, case):
    if mutant == "no-rho-shift":  # xi = <x, gamma>, the (ht(gamma) - 1) h shift dropped
        monkeypatch.setattr(dynweyl, "_step_variable",
                            lambda gamma: DegreeOneForm.make(gamma.coords, 0))
    else:
        monkeypatch.setattr(dynweyl, "rank1_coefficient", _mirror_coefficient)
    blocks, failures = _extremal_sweep([case])  # on a fresh irrep
    assert failures > 0, (blocks, failures)


# ---------------------------------------------------------------------------
# the determinant of A_w at every weight, read off weight multiplicities: if
# the t-th step acts with letter i on V_nu, n = <nu, coroot_i>, at the step
# variable xi_t, its block is block-diagonal in the string bases, one c(m, k,
# xi_t) per string, and d(nu + j alpha_i) - d(nu + (j+1) alpha_i) strings
# have their top at nu + j alpha_i, with (m, k) = (n + 2j, j); so
#
#   det A_w(x) on V_mu = eps * prod over t, j >= max(0, -n) of
#                        ct(n + 2j, j, xi_t)^(d(nu + j alpha_i) - d(nu + (j+1) alpha_i)),
#
# ct(m, k, xi) = prod_{j=1..k} (xi + (j+1)h) / (xi + (j-m+k)h), c without its
# sign, and eps = det classical_limit of the block, which takes every sign
# and every transfer map's determinant.  The right side reads only the
# Freudenthal multiplicities and the root data, not the builder's basis.


DETERMINANT_CASES = [
    ("A2", (2, 2)), ("A2", (3, 2)), ("B2", (2, 1)), ("B2", (0, 5)), ("G2", (0, 2)),
    ("A3", (1, 0, 1)), ("A3", (0, 1, 2)), ("B3", (0, 0, 2)), ("C3", (2, 0, 0)),
    ("F4", (0, 0, 0, 1)),
]
# irreps with a weight space of dim 4, under -m slow
SLOW_DETERMINANT_CASES = [("G2", (1, 1)), ("B2", (1, 3)), ("A3", (1, 1, 1)), ("D4", (0, 1, 0, 0))]


def _det(a):
    """The determinant of a square matrix by expansion along its first row."""
    if len(a) == 1:
        return a[0][0]
    total = None
    for c, x in enumerate(a[0]):
        term = x * _det([row[:c] + row[c + 1:] for row in a[1:]])
        total = term if total is None else total - term if c % 2 else total + term
    return total


def _determinant_sweep(cases):
    """(blocks, blocks of dim >= 2, failures) of the determinant formula for
    w0 at every weight of each (algebra, highest weight)."""
    blocks = multi = failures = 0
    for name, hw in cases:
        t, lam = LieType.parse(name), Weight(hw)
        V, word = build_irrep(t, lam), longest_element(t)
        for mu in V.weights():
            blk = word_operator_block(V, word, mu)
            expected, nu = RatFun.const(_det(classical_limit(blk)), t.rank), mu
            for g, i in zip(crossing_coroots(t, word), reversed(word)):
                xi = DegreeOneForm.make(g.coords, g.height() - 1)
                alpha, n = simple_root(t, i), nu[i - 1]
                j = max(0, -n)
                top = Weight(tuple(c + j * a for c, a in zip(nu.coords, alpha.coords)))
                d = freudenthal_multiplicity(t, lam, top)
                while d:
                    top = weight_add(top, alpha)
                    above = freudenthal_multiplicity(t, lam, top)
                    for _ in range(d - above):  # ct(m, k) = (-1)^k c(m, k)
                        expected = expected * _closed_form(n + 2 * j, j, xi).scale((-1) ** j)
                    j, d = j + 1, above
                nu = simple_reflection(t, i, nu)
            blocks += 1
            multi += len(blk.matrix) > 1
            failures += _det(blk.matrix) != expected
    return blocks, multi, failures


def test_determinant_at_every_weight():
    assert _determinant_sweep(DETERMINANT_CASES) == (240, 77, 0)


@pytest.mark.slow
def test_determinant_at_every_weight_of_dim_4():
    assert _determinant_sweep(SLOW_DETERMINANT_CASES) == (126, 50, 0)


@pytest.mark.parametrize("mutant", ["no-rho-shift", "mirror"])
@pytest.mark.parametrize("case", [
    *DETERMINANT_CASES, *(pytest.param(c, marks=pytest.mark.slow) for c in SLOW_DETERMINANT_CASES)],
    ids=lambda c: f"{c[0]}({','.join(map(str, c[1]))})")
def test_determinant_rejects_a_mutant(monkeypatch, mutant, case):
    if mutant == "no-rho-shift":  # xi = <x, gamma>, the (ht(gamma) - 1) h shift dropped
        monkeypatch.setattr(dynweyl, "_step_variable",
                            lambda gamma: DegreeOneForm.make(gamma.coords, 0))
    else:
        monkeypatch.setattr(dynweyl, "rank1_coefficient", _mirror_coefficient)
    blocks, multi, failures = _determinant_sweep([case])  # on a fresh irrep
    assert failures > 0, (blocks, multi, failures)


# ---------------------------------------------------------------------------
# oracle for the integer composition: Polynomial matrices over one common
# denominator, multiplied with Polynomial arithmetic, with no product kept
# between words


def _over_common_denominator(matrix):
    """(P, D) with matrix == P / prod(f^D[f]): D is the lcm of the entries'
    denominators and P a Polynomial matrix."""
    den = {}
    for row in matrix:
        for e in row:
            for f, m in e.den:
                den[f] = max(den.get(f, 0), m)
    num = [[e.num for e in row] for row in matrix]
    for num_row, row in zip(num, matrix):
        for c, e in enumerate(row):
            own = dict(e.den)
            for f, m in den.items():
                if m > own.get(f, 0):
                    num_row[c] *= f.to_polynomial() ** (m - own.get(f, 0))
    return num, den


def _pmat_mul(a, b, nx):
    zero = Polynomial.zero(nx)
    return [[sum((e * g for e, g in zip(a_row, col)), zero) for col in zip(*b)] for a_row in a]


def _polynomial_word_block(V, word, mu):
    """A_w on V_mu for a word of two or more letters, reduced once at the end."""
    nx = V.type.rank
    cur, num, den = mu, None, {}
    for gamma, letter in zip(crossing_coroots(V.type, word), reversed(word)):
        xi = DegreeOneForm.make(gamma.coords, gamma.height() - 1)
        blk = simple_reflection_block(V, letter, cur, xi)
        cur = blk.target
        blk_num, blk_den = _over_common_denominator(blk.matrix)
        num = blk_num if num is None else _pmat_mul(blk_num, num, nx)
        for f, m in blk_den.items():
            den[f] = den.get(f, 0) + m
    over_d = RatFun.from_factors(1, [], [f for f, m in den.items() for _ in range(m)], nx)
    matrix = [[RatFun(p, ()) * over_d for p in row] for row in num]
    return OperatorBlock(V=V, word=tuple(word), source=mu, target=cur, matrix=matrix)


def _same_block(a, b):
    return a.equals(b) and a.word == b.word and a.to_json() == b.to_json()


POLYNOMIAL_ORACLE_IRREPS = [
    ("G2", (1, 1)), ("B2", (2, 2)), ("A3", (2, 0, 2)), ("B3", (1, 0, 1)), ("D4", (0, 1, 0, 0)),
]


def test_word_block_matches_polynomial_oracle():
    compared = 0
    for algebra, hw in POLYNOMIAL_ORACLE_IRREPS:
        t = LieType.parse(algebra)
        V = build_irrep(t, Weight(hw))
        words = all_reduced_words(t, longest_element(t), cap=4)
        for mu in [w for w in V.weights() if w.is_dominant()]:
            for word in words:
                oracle = _polynomial_word_block(V, word, mu)
                assert _same_block(word_operator_block(V, word, mu), oracle), (algebra, mu, word)
                compared += 1
    assert compared == 66


@pytest.mark.parametrize("algebra, hw, mu1, mu2", [
    ("B2", (2, 2), (0, 0), (1, 0)),
    ("A3", (1, 0, 1), (0, 0, 0), (1, 0, 1)),
])
def test_word_blocks_do_not_depend_on_the_words_composed_before(algebra, hw, mu1, mu2):
    # mu1, then mu2, then mu1 again, each in its own shuffled word order;
    # the oracle runs on a freshly built irrep that no other word touched
    t = LieType.parse(algebra)
    V, fresh = build_irrep(t, Weight(hw)), build_irrep(t, Weight(hw))
    words = all_reduced_words(t, longest_element(t), cap=8)
    rng = random.Random(13)
    for mu in (Weight(mu1), Weight(mu2), Weight(mu1)):
        order = list(words)
        rng.shuffle(order)
        for word in order:
            oracle = _polynomial_word_block(fresh, word, mu)
            assert _same_block(word_operator_block(V, word, mu), oracle), (mu, word)


# ---------------------------------------------------------------------------
# shift and limit


def rho_shift(matrix, nx):
    """Substitute x_i -> -x_i - h in every entry."""
    return [[e.substitute(rho_shift_images(nx)) for e in row] for row in matrix]


def test_rho_shift_known_value():
    V = build_irrep(A1, Weight((2,)))
    blk = word_operator_block(V, (1,), Weight((0,)))
    assert rho_shift(blk.matrix, 1) == [[rf1("(x1-h)/(-x1-h)")]]


def test_rho_shift_involution():
    V = build_irrep(A2, Weight((1, 1)))
    blk = word_operator_block(V, (1, 2, 1), Weight((0, 0)))
    assert rho_shift(rho_shift(blk.matrix, 2), 2) == blk.matrix


def test_classical_limit_signs():
    for lam in range(1, 7):
        V = build_irrep(A1, Weight((lam,)))
        for mu in range(lam % 2, lam + 1, 2):
            blk = word_operator_block(V, (1,), Weight((mu,)))
            assert classical_limit(blk) == [[F((-1) ** ((lam - mu) // 2))]]


def test_classical_limit_identity():
    V = build_irrep(A2, Weight((1, 1)))
    blk = word_operator_block(V, (), Weight((0, 0)))
    assert classical_limit(blk) == [[F(1), F(0)], [F(0), F(1)]]


def test_classical_limit_detects_x_dependence():
    V = build_irrep(A1, Weight((0,)))
    bad = OperatorBlock(
        V=V,
        word=(),
        source=Weight((0,)),
        target=Weight((0,)),
        matrix=[[var(0, 1)]],
    )
    with pytest.raises(DynWeylError):
        classical_limit(bad)


def _hand_block(rows):
    """An A2 block with entries parsed from text; only its matrix matters."""
    V = build_irrep(A2, Weight((0, 0)))
    matrix = [[parse_ratfun(text, 2) for text in row] for row in rows]
    return OperatorBlock(V=V, word=(), source=Weight((0, 0)), target=Weight((0, 0)),
                         matrix=matrix)


@pytest.mark.parametrize("rows, value", [
    ([["h/(x1-h)", "h*x2/((x1-h)*(x2-2*h))"]], [[F(0), F(0)]]),  # no h-free terms
    ([["x1^2/((x1-h)*(x1-2*h))"]], [[F(1)]]),  # two forms that meet at h = 0
    ([["(3*x1+x2+h)/(6*x1+2*x2-5*h)", "-7/2"]], [[F(1, 2), F(-7, 2)]]),
])
def test_classical_limit_exact_values(rows, value):
    assert classical_limit(_hand_block(rows)) == value


@pytest.mark.parametrize("rows, message", [
    ([["x1/(x2-h)"]], "depends on x"),  # the division fails
    ([["x1^2/(x1-h)"]], "depends on x"),  # the quotient is not constant
    ([["(x1+h)/(x2+h)"]], "depends on x"),
    ([["1/h"]], "pole identically at h=0"),
    ([["x1/(x1+h)^2", "1/(x1*h)"]], "pole identically at h=0"),
    ([["x1", "1"], ["0", "(x1+x2)/h^2"]], "pole identically at h=0"),  # pole scanned first
])
def test_classical_limit_errors(rows, message):
    with pytest.raises(DynWeylError, match=message):
        classical_limit(_hand_block(rows))


def _two_point_limit(b, rng):
    """The block at h = 0 by evaluation at two distinct random rational
    points, redrawn on accidental poles; the oracle of classical_limit."""

    def sample():
        return [F(rng.randint(10**3, 10**6)) for _ in range(b.V.type.rank)] + [F(0)]

    results, points, attempts = [], [], 0
    while len(results) < 2:
        attempts += 1
        if attempts > 16:
            raise DynWeylError("entry has a pole identically at h=0")
        point = sample()
        if point in points:
            continue
        try:
            results.append([[e.evaluate(point) for e in row] for row in b.matrix])
        except PoleError:
            continue
        points.append(point)
    if results[0] != results[1]:
        raise DynWeylError("h=0 specialization depends on x")
    return results[0]


LIMIT_IRREPS = [
    ("G2", (1, 1)), ("B2", (2, 2)), ("A2", (2, 1)), ("A3", (2, 0, 2)), ("B3", (1, 0, 1)),
    ("C3", (0, 1, 0)), ("D4", (0, 1, 0, 0)),
]


def test_classical_limit_matches_two_point_oracle():
    rng = random.Random(5)
    compared = 0
    for algebra, hw in LIMIT_IRREPS:
        t = LieType.parse(algebra)
        V = build_irrep(t, Weight(hw))
        words = all_reduced_words(t, longest_element(t), cap=4)
        words += [(i,) for i in range(1, t.rank + 1)]
        for mu in [w for w in V.weights() if w.is_dominant()]:
            for word in words:
                blk = word_operator_block(V, word, mu)
                assert classical_limit(blk) == _two_point_limit(blk, rng), (algebra, hw, mu, word)
                compared += 1
    assert compared == 150


# ---------------------------------------------------------------------------
# locality of denominators


def test_locality_depends_on_the_word():
    # 2*x1 + x2 + 2h = <x, gamma> + 2h for gamma = 2*coroot_1 + coroot_2, a
    # positive coroot of B2 of height 3 that w0 crosses, but that s_1 does
    # not cross, and no coroot of A2
    def block(t, word):
        zero = Weight((0, 0))
        return OperatorBlock(V=build_irrep(t, zero), word=word, source=zero, target=zero,
                             matrix=[[rf2("1/(2*x1+x2+2*h)")]])

    assert denominators_are_local(block(B2, (1, 2, 1, 2)))
    assert not denominators_are_local(block(B2, (1,)))
    assert not denominators_are_local(block(A2, (1, 2, 1)))
    # x1 + 2h: c = 2 is not below ht(coroot_1) = 1, for either type
    for t, word in ((A2, (1, 2, 1)), (B2, (1, 2, 1, 2)), (B2, (1,))):
        blk = block(t, word)
        blk.matrix = [[rf2("1"), rf2("x2/(x1+2*h)")]]
        assert not denominators_are_local(blk)


def test_locality_bound_depends_on_the_source():
    # <x + h rho, gamma> - M*h needs M >= max(0, 1 + <source, gamma>): so
    # <x, gamma> + c*h needs c <= ht(gamma) - max(0, 1 + <source, gamma>)
    V, form = build_irrep(A2, Weight((1, 1))), DegreeOneForm.make

    def local(source, word, den):
        mu = Weight(source)
        entry = RatFun(Polynomial.const(1, 2), ((den, 1),))  # den as given, not canonical
        return denominators_are_local(OperatorBlock(V=V, word=word, source=mu,
                                                    target=act(A2, word, mu), matrix=[[entry]]))

    # (1, 1) pairs to 1 with coroot_1: M >= 2
    assert local((1, 1), (1,), form([1, 0], -1))
    assert not local((1, 1), (1,), form([1, 0], 0))  # M = 1, the bound less one
    # (0, 0) pairs to 0 with coroot_1: M >= 1
    assert local((0, 0), (1,), form([1, 0], 0))
    assert not local((0, 0), (1,), form([1, 0], 1))  # M = 0
    # (-1, -1) pairs to -2 with coroot_1 + coroot_2, of height 2, and to -1
    # with coroot_1: M >= 0 for both
    assert local((-1, -1), (1, 2, 1), form([1, 1], 2))
    assert local((-1, -1), (1, 2, 1), form([1, 0], 1))
    assert not local((-1, -1), (1, 2, 1), form([1, 1], 3))  # M = -1
    assert not local((-1, -1), (1,), form([1, 0], F(1, 2)))  # M = 1/2
    assert not local((-1, -1), (1,), form([0, 1], -5))  # (1,) does not cross coroot_2


def test_json_and_text_rendering():
    V = build_irrep(A2, Weight((1, 1)))
    blk = word_operator_block(V, (1,), Weight((0, 0)))
    obj = blk.to_json()
    assert obj["algebra"] == "A2" and obj["word"] == [1]
    assert len(obj["matrix"]) == 2 and len(obj["basis_labels"]["source"]) == 2
    # the text rendering round-trips through the parser
    for row in blk.matrix:
        for e in row:
            assert parse_ratfun(e.format(), 2) == e
    assert "V_(0,0)" in blk.format()
