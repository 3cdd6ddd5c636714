import dataclasses

import pytest

from dynwg import dynweyl
from dynwg.dynweyl import classical_limit, rho_shift_images, word_operator_block
from dynwg.geomsatake import (
    GeomSatakeError,
    costalk_weights,
    hyperbolic_transition,
    levi_restriction_check,
    rank1_pairs,
    verify_main_theorem_rank1,
)
from dynwg.ratfun import DegreeOneForm, RatFun
from dynwg.rep import build_irrep
from dynwg.rootdata import (
    LieType,
    Weight,
    crossing_coroots,
    longest_element,
    simple_reflection,
    simple_root,
)
from ratfun_text import parse_ratfun
from test_dynweyl import E6_WORD, E7_WORD, E8_WORD

A2 = LieType.parse("A2")
B2 = LieType.parse("B2")


def rf1(text):
    return parse_ratfun(text, 1)


def test_costalk_weights_known():
    assert costalk_weights(2, 0, "e") == [DegreeOneForm.make([-1], -1)]
    assert costalk_weights(2, 0, "s") == [DegreeOneForm.make([1], -1)]
    assert costalk_weights(3, 3, "e") == []
    assert costalk_weights(3, 3, "s") == []
    # slice dimension (lam - mu)/2 on both sides
    for lam in range(7):
        for mu in range(lam % 2, lam + 1, 2):
            for ch in ("e", "s"):
                assert len(costalk_weights(lam, mu, ch)) == (lam - mu) // 2


def test_costalk_weights_lists_match_products():
    # lam=4, mu=0: e-side product (-x-2h)(-x-h), s-side (x-h)(x-2h)
    e = RatFun.from_factors(1, costalk_weights(4, 0, "e"), [], 1)
    s = RatFun.from_factors(1, costalk_weights(4, 0, "s"), [], 1)
    assert e == rf1("(-x1-2*h)*(-x1-h)")
    assert s == rf1("(x1-h)*(x1-2*h)")


def test_costalk_weights_errors():
    with pytest.raises(GeomSatakeError):
        costalk_weights(2, 1, "e")  # parity
    with pytest.raises(GeomSatakeError):
        costalk_weights(2, 4, "e")  # range
    with pytest.raises(GeomSatakeError):
        costalk_weights(2, 0, "w")


def test_hyperbolic_transition_known():
    assert hyperbolic_transition(2, 0) == rf1("(x1-h)/(-x1-h)")
    assert hyperbolic_transition(4, 2) == rf1("(x1-h)/(-x1-3*h)")
    assert hyperbolic_transition(5, 5) == rf1("1")


# x1, then forms of ranks 2 and 3 with and without an h part
XI_SWEEP = [DegreeOneForm.make([1], 0), DegreeOneForm.make([0, 1], 0),
            DegreeOneForm.make([1, 1, 0], 2), DegreeOneForm.make([2, -1], -3),
            DegreeOneForm.make([1, 2, 1], 1)]


@pytest.mark.parametrize("xi", XI_SWEEP, ids=str)
def test_transition_built_at_xi_is_the_substituted_transition(xi):
    for lam, mu in rank1_pairs(8):
        at_xi = hyperbolic_transition(lam, mu, xi)
        substituted = hyperbolic_transition(lam, mu).substitute([xi])
        assert at_xi == substituted and at_xi.format() == substituted.format(), (lam, mu)


def test_transition_through_costalk_weights_and_from_factors():
    e, s = costalk_weights(2, 0, "e"), costalk_weights(2, 0, "s")
    assert RatFun.from_factors(1, e, e, 1) == rf1("1")
    assert RatFun.from_factors(1, s, e, 1) == rf1("(x1-h)/(-x1-h)")
    # the empty chamber of lam = mu, against one weight x
    x = [DegreeOneForm.make([1], 0)]
    assert RatFun.from_factors(1, x, costalk_weights(3, 3, "e"), 1) == rf1("x1")
    # the two-chamber cocycle
    assert RatFun.from_factors(1, s, e, 1) * RatFun.from_factors(1, e, s, 1) == rf1("1")
    # at xi = h the first s-weight xi - h is zero
    with pytest.raises(GeomSatakeError, match="zero torus weight"):
        costalk_weights(2, 0, "s", DegreeOneForm.make([0], 1))
    assert costalk_weights(2, 0, "e", DegreeOneForm.make([0], 1)) == [DegreeOneForm.make([0], -2)]


def test_main_theorem_examples():
    r = verify_main_theorem_rank1(2, 0)
    assert r.equal
    assert r.geometric == rf1("(x1-h)/(-x1-h)")
    assert r.dynamical_shifted == rf1("(x1-h)/(-x1-h)")
    for lam in (0, 3, 6):
        r = verify_main_theorem_rank1(lam, lam)
        assert r.equal and r.geometric == rf1("1")


def test_rank1_sweep():
    reports = [verify_main_theorem_rank1(lam, mu) for lam, mu in rank1_pairs(8)]
    assert len(reports) == 25
    assert all(r.equal for r in reports)
    assert [(r.m, r.m - 2 * r.k) for r in reports] == rank1_pairs(8)
    assert rank1_pairs(2) == [(0, 0), (1, 1), (2, 0), (2, 2)]


def test_report_json_schema():
    # the report carries the fields that the CLI's satake-rank1 JSON is built from
    r = verify_main_theorem_rank1(4, 2)
    assert [f.name for f in dataclasses.fields(r)] == [
        "m", "k", "geometric", "dynamical_shifted", "equal"]
    assert (r.m, r.k) == (4, 1) and r.equal is True


def test_levi_restriction_a2_adjoint():
    V = build_irrep(A2, Weight((1, 1)))
    cases = levi_restriction_check(V, 1, Weight((0, 0)))
    assert all(c.equal for c in cases)
    assert sorted((c.m, c.k) for c in cases) == [(0, 0), (2, 1)]
    geo = {(c.m, c.k): c.geometric for c in cases}
    assert geo[(0, 0)] == parse_ratfun("1", 2)
    assert geo[(2, 1)] == parse_ratfun("(x1-h)/(-x1-h)", 2)


def test_levi_restriction_standard_and_b2():
    V3 = build_irrep(A2, Weight((1, 0)))
    cases = levi_restriction_check(V3, 1, Weight((1, 0)))
    assert all(c.equal for c in cases) and [(c.m, c.k) for c in cases] == [(1, 0)]
    W = build_irrep(B2, Weight((0, 1)))
    for i in (1, 2):
        for mu in [w for w in W.weights() if w.is_dominant()]:
            assert all(c.equal for c in levi_restriction_check(W, i, mu))


def test_levi_errors_and_json():
    V = build_irrep(A2, Weight((1, 1)))
    with pytest.raises(GeomSatakeError):
        levi_restriction_check(V, 1, Weight((-1, 2)))
    cases = levi_restriction_check(V, 2, Weight((1, 1)))
    assert cases and all(c.equal is True for c in cases)


def test_levi_compares_at_x_i():
    # for i = 2 both sides are built at xi = x_2, never at x_1
    V = build_irrep(A2, Weight((1, 1)))
    x2 = DegreeOneForm.make([0, 1], 0)
    cases = [c for mu in (Weight((1, 1)), Weight((0, 0))) for c in levi_restriction_check(V, 2, mu)]
    assert sorted((c.m, c.k) for c in cases) == [(0, 0), (1, 0), (2, 1)]
    for c in cases:
        assert c.geometric == hyperbolic_transition(c.m, c.m - 2 * c.k, x2), (c.m, c.k)
    forms = {f.xcoeffs for c in cases for e in (c.geometric, c.dynamical_shifted) for f, _ in e.den}
    assert forms == {(0, 1)}


def test_levi_rejects_non_dominant_mu():
    # <mu, coroot_2> = 2 >= 0, but mu = alpha_2 is not dominant
    V = build_irrep(A2, Weight((1, 1)))
    with pytest.raises(GeomSatakeError, match="not dominant"):
        levi_restriction_check(V, 2, Weight((-1, 2)))


def test_levi_cases_are_shared_and_frozen():
    V = build_irrep(A2, Weight((1, 1)))
    first = levi_restriction_check(V, 1, Weight((0, 0)))
    second = levi_restriction_check(V, 1, Weight((0, 0)))
    assert all(a is b for a, b in zip(first, second, strict=True))
    with pytest.raises(dataclasses.FrozenInstanceError):
        first[0].equal = False


# ---------------------------------------------------------------------------
# the identification beyond rank one, at every weight mu of multiplicity one:
# each weight space along the word is V_{nu_t}, nu_t = s_{i_{t-1}} ... s_{i_1}
# mu, of dimension one on the whole alpha_{i_t}-string through nu_t, which
# is one string (m_t, k_t), with m_t = p_t + q_t and k_t = p_t for p_t and q_t
# the steps up and down that weight string.  With T(m, m - 2k, xi) the ratio
# of costalk products that hyperbolic_transition forms,
#
#   A_w(sigma x) on V_mu = eps * (-1)^(sum_t k_t) * prod_t T(m_t, m_t - 2k_t, <x, gamma_t>),
#
# sigma the rho-shift and eps the block's classical limit.  The steps take
# the equivariant variable <x, gamma_t>, with no height shift.


def _costalk_ratio(m, k, xi):
    """T(m, m - 2k, xi) by the costalk formula itself, which holds on the
    whole string, m - 2k < 0 included, where costalk_weights rejects it."""
    s = [xi.shift_h(-j) for j in range(1, k + 1)]
    e = [DegreeOneForm.make([-c for c in xi.xcoeffs], -xi.hcoeff + j - 1 - m + k)
         for j in range(1, k + 1)]
    return RatFun.from_factors(1, s, e, xi.nx)


def test_costalk_ratio_is_the_hyperbolic_transition():
    for xi in XI_SWEEP:
        for lam, mu in rank1_pairs(8):
            assert _costalk_ratio(lam, (lam - mu) // 2, xi) == hyperbolic_transition(lam, mu, xi)


def _string_through(V, i, nu):
    """(m, k) of the alpha_i-string of weights of V through nu."""
    alpha = simple_root(V.type, i).coords
    steps = [0, 0]
    for side, sign in enumerate((1, -1)):
        while Weight(tuple(c + sign * (steps[side] + 1) * a
                           for c, a in zip(nu.coords, alpha))) in V.basis:
            steps[side] += 1
    return steps[0] + steps[1], steps[0]


def _multiplicity_one_sweep(name, hw, word, stop_at_failure=False):
    """(blocks, failures) of the identity at every multiplicity-one weight of
    V(hw), on a fresh irrep, for the word (None meaning w0)."""
    t = LieType.parse(name)
    V = build_irrep(t, Weight(hw))
    word = longest_element(t) if word is None else word
    gammas = crossing_coroots(t, word)
    blocks = failures = 0
    for mu in V.weights():
        if V.weight_dim(mu) != 1:
            continue
        blk = word_operator_block(V, word, mu)
        geometric, nu, ksum = RatFun.from_factors(classical_limit(blk)[0][0], [], [], t.rank), mu, 0
        for letter, gamma in zip(reversed(word), gammas):
            m, k = _string_through(V, letter, nu)
            xi = DegreeOneForm.make(gamma.coords, 0)
            geometric = geometric * (hyperbolic_transition(m, m - 2 * k, xi) if m >= 2 * k
                                     else _costalk_ratio(m, k, xi))
            nu, ksum = simple_reflection(t, letter, nu), ksum + k
        if ksum % 2:
            geometric = -geometric
        blocks += 1
        failures += blk.matrix[0][0].substitute(rho_shift_images(t.rank)) != geometric
        if failures and stop_at_failure:
            break
    return blocks, failures


# (algebra, highest weight, word, blocks): w0 on every row but the E-rows,
# which take the words of tests/test_dynweyl.py's extremal sweep
MULTIPLICITY_ONE_ROWS = [pytest.param(*row, id=row[0]) for row in [
    ("A2", (2, 1), None, 9), ("B2", (2, 2), None, 16), ("G2", (1, 0), None, 12),
    ("A3", (2, 0, 2), None, 42), ("D4", (0, 1, 0, 0), None, 24),
    ("A5", (1, 0, 0, 0, 1), None, 30), ("E6", (0, 1, 0, 0, 0, 0), E6_WORD, 72),
    ("E7", (1, 0, 0, 0, 0, 0, 0), E7_WORD, 126), ("E8", (0, 0, 0, 0, 0, 0, 0, 1), E8_WORD, 240),
]]


@pytest.mark.parametrize("name, hw, word, blocks", MULTIPLICITY_ONE_ROWS + [
    pytest.param("F4", (0, 0, 0, 1), None, 24, marks=pytest.mark.slow, id="F4")])
def test_identification_at_multiplicity_one_weights(name, hw, word, blocks):
    assert _multiplicity_one_sweep(name, hw, word) == (blocks, 0)


@pytest.mark.parametrize("name, hw, word, blocks", MULTIPLICITY_ONE_ROWS)
def test_identification_rejects_the_dropped_shift(monkeypatch, name, hw, word, blocks):
    # xi = <x, gamma>: the kernel's (ht(gamma) - 1) h shift dropped
    monkeypatch.setattr(dynweyl, "_step_variable", lambda gamma: DegreeOneForm.make(gamma.coords, 0))
    assert _multiplicity_one_sweep(name, hw, word, stop_at_failure=True)[1] == 1
