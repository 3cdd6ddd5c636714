import random
from fractions import Fraction
from math import comb, factorial

import pytest

from dynwg import linalg
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
from dynwg.ratfun import DegreeOneForm, PoleError, Polynomial, RatFun
from dynwg.rep import build_irrep, divided_f_power, sl2_strings, weight_add, weight_sub
from dynwg.rootdata import (
    LieType,
    Weight,
    act,
    all_reduced_words,
    crossing_coroots,
    longest_element,
    simple_reflection,
    simple_root,
)
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
    with pytest.raises(DynWeylError):
        rank1_coefficient(2, 2, X1)
    with pytest.raises(DynWeylError):
        rank1_coefficient(1, -1, X1)


def test_rank1_coefficient_general_form():
    # direct product construction as an independent cross-check
    for m in range(9):
        for k in range(m // 2 + 1):
            expected = RatFun.const((-1) ** k, 1)
            for j in range(1, k + 1):
                expected = expected * RatFun(DegreeOneForm.make([1], j + 1).to_polynomial(), ())
                expected = expected / RatFun(DegreeOneForm.make([1], j - m + k).to_polynomial(), ())
            assert rank1_coefficient(m, k, X1) == expected


def _divided_power_coefficient(n, j, xi):
    """a_j = (-1)^j (xi - (n-1)h)/(xi - (n+j-1)h), the coefficient of
    f_i^(n+j) e_i^(j) in A_{s_i}(xi) on a weight space with <nu, coroot_i> = n."""
    return RatFun.from_factors((-1) ** j, [xi.shift_h(1 - n)], [xi.shift_h(1 - n - j)], xi.nx)


def test_rank1_coefficient_triangular_identity():
    # f_i^(n+j) e_i^(j) sends f_i^(k) u, u primitive of sl(2)-weight m and
    # n = m - 2k, to C(m-k+j, j) C(m-k, n+j) f_i^(m-k) u
    for m in range(11):
        for k in range(m // 2 + 1):
            expected = RatFun.zero(1)
            for j in range(k + 1):
                a = _divided_power_coefficient(m - 2 * k, j, X1)
                expected = expected + a.scale(comb(m - k + j, j) * comb(m - k, m - 2 * k + j))
            assert rank1_coefficient(m, k, X1) == expected, (m, k)


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
    dec = sl2_strings(V, 1, nu)
    from dynwg.rep import divided_f_power, weight_add
    from dynwg.rootdata import simple_root

    col = 0
    for comp in dec.components:
        c = rank1_coefficient(comp.m, comp.k, xi)
        w = nu
        for _ in range(comp.k):
            w = weight_add(w, simple_root(A2, 1))
        for u in comp.primitives:
            # A_s (f^(k) u) must equal c * f^(m-k) u
            invec = [dec.change_of_basis[r][col] for r in range(len(dec.change_of_basis))]
            out = divided_f_power(V, 1, w, comp.m - comp.k, u)
            for r, row in enumerate(blk.matrix):
                lhs = RatFun.zero(2)
                for cidx, e in enumerate(row):
                    lhs = lhs + e.scale(invec[cidx])
                assert lhs == c.scale(out[r])
            col += 1


def _divided_power(V, i, nu, k, raising):
    """e_i^k / k! (raising) or f_i^k / k! on V_nu, from the irrep's weight blocks."""
    alpha, out = simple_root(V.type, i), linalg.identity(V.weight_dim(nu))
    for _ in range(k):
        if raising:
            out, nu = linalg.mat_mul(V.e_block(i, nu), out), weight_add(nu, alpha)
        else:
            out, nu = linalg.mat_mul(V.f_block(i, nu), out), weight_sub(nu, alpha)
    return [[c / factorial(k) for c in row] for row in out]


def _divided_power_block(V, i, nu, xi):
    """A_{s_i}(xi) on V_nu as sum_j a_j f_i^(n+j) e_i^(j), n = <nu, coroot_i>,
    with no sl(2)-strings: the sum runs while nu + j*alpha_i is a weight."""
    n, alpha = nu[i - 1], simple_root(V.type, i)
    rows = V.weight_dim(simple_reflection(V.type, i, nu))
    matrix = [[RatFun.zero(V.type.rank)] * V.weight_dim(nu) for _ in range(rows)]
    j, top = 0, nu
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


def test_simple_reflection_block_matches_divided_power_oracle():
    compared = 0
    for algebra, hw in DIVIDED_POWER_IRREPS:
        t = LieType.parse(algebra)
        V = build_irrep(t, Weight(hw))
        for i in range(1, t.rank + 1):
            xi = DegreeOneForm.make([int(a == i) for a in range(1, t.rank + 1)], 0)
            for nu in V.weights():
                if nu[i - 1] >= 0:
                    block = simple_reflection_block(V, i, nu, xi)
                    assert block.matrix == _divided_power_block(V, i, nu, xi), (algebra, hw, i, nu)
                    compared += 1
    assert compared == 396


def test_block_preconditions():
    V = build_irrep(A2, Weight((1, 1)))
    xi = DegreeOneForm.make([1, 0], 0)
    with pytest.raises(DynWeylError):
        simple_reflection_block(V, 1, Weight((-2, 1)), xi)


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


def test_a1_v4_block():
    V = build_irrep(A1, Weight((4,)))
    blk = word_operator_block(V, (1,), Weight((2,)))
    assert blk.matrix == [[rf1("-(x1+2*h)/(x1-2*h)")]]


def test_reduced_word_independence():
    for t, hw in ((A2, Weight((1, 1))), (B2, Weight((0, 1)))):
        V = build_irrep(t, hw)
        w0 = longest_element(t)
        words = all_reduced_words(t, w0)
        for mu in [w for w in V.weights() if w.is_dominant()]:
            blocks = [word_operator_block(V, w, mu) for w in words]
            assert all(blocks[0].equals(b) for b in blocks[1:])


def test_block_shape_and_denominators():
    V = build_irrep(B2, Weight((1, 0)))
    for mu in [w for w in V.weights() if w.is_dominant()]:
        blk = word_operator_block(V, longest_element(B2), mu)
        assert blk.target == act(B2, blk.word, mu)
        assert denominators_are_local(blk)


def test_word_operator_errors():
    V = build_irrep(A2, Weight((1, 1)))
    with pytest.raises(Exception):
        word_operator_block(V, (1, 1), Weight((0, 0)))  # non-reduced
    with pytest.raises(DynWeylError):
        word_operator_block(V, (1,), Weight((2, -1)))  # non-dominant


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
    dec = sl2_strings(V, i, nu)
    rows, dim = V.weight_dim(simple_reflection(V.type, i, nu)), V.weight_dim(nu)
    matrix = [[RatFun.zero(nx) for _ in range(dim)] for _ in range(rows)]
    p_rows = iter(dec.inverse)
    for comp in dec.components:
        c = rank1_coefficient(comp.m, comp.k, xi)
        w = nu
        for _ in range(comp.k):
            w = weight_add(w, simple_root(V.type, i))
        for u in comp.primitives:
            image, p_row = divided_f_power(V, i, w, comp.m - comp.k, u), next(p_rows)
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
        return [F(rng.randint(10**3, 10**6)) for _ in range(b.nx)] + [F(0)]

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
