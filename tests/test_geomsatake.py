import dataclasses

import pytest

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
from dynwg.rootdata import LieType, Weight
from ratfun_text import parse_ratfun

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
