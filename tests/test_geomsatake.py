import dataclasses

import pytest

from dynwg import geomsatake
from dynwg.geomsatake import (
    GeomSatakeError,
    TorusWeightMultiset,
    costalk_weights,
    generic_transition,
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
    assert costalk_weights(2, 0, "e").weights == [DegreeOneForm.make([-1], -1)]
    assert costalk_weights(2, 0, "s").weights == [DegreeOneForm.make([1], -1)]
    assert costalk_weights(3, 3, "e").weights == []
    assert costalk_weights(3, 3, "s").weights == []
    # slice dimension (lam - mu)/2 on both sides
    for lam in range(7):
        for mu in range(lam % 2, lam + 1, 2):
            for ch in ("e", "s"):
                assert len(costalk_weights(lam, mu, ch).weights) == (lam - mu) // 2


def test_costalk_weights_lists_match_products():
    # lam=4, mu=0: e-side product (-x-2h)(-x-h), s-side (x-h)(x-2h)
    e = costalk_weights(4, 0, "e").product()
    s = costalk_weights(4, 0, "s").product()
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


def test_generic_transition():
    a = TorusWeightMultiset(1, [DegreeOneForm.make([-1], -1)])
    b = TorusWeightMultiset(1, [DegreeOneForm.make([1], -1)])
    assert generic_transition(a, a) == rf1("1")
    assert generic_transition(a, b) == rf1("(x1-h)/(-x1-h)")
    empty = TorusWeightMultiset(1, [])
    x = TorusWeightMultiset(1, [DegreeOneForm.make([1], 0)])
    assert generic_transition(empty, x) == rf1("x1")
    # the two-chamber cocycle
    assert generic_transition(a, b) * generic_transition(b, a) == rf1("1")
    with pytest.raises(GeomSatakeError):
        TorusWeightMultiset(1, [DegreeOneForm.make([0], 0)])


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
    assert [(r.lam, r.mu) for r in reports] == rank1_pairs(8)
    assert rank1_pairs(2) == [(0, 0), (1, 1), (2, 0), (2, 2)]


def test_report_json_schema():
    # the report carries the fields that the CLI's satake-rank1 JSON is built from
    r = verify_main_theorem_rank1(4, 2)
    assert [f.name for f in dataclasses.fields(r)] == [
        "lam", "mu", "geometric", "dynamical_shifted", "equal"]
    assert (r.lam, r.mu) == (4, 2) and r.equal is True


def test_levi_restriction_a2_adjoint():
    V = build_irrep(A2, Weight((1, 1)))
    r = levi_restriction_check(V, 1, Weight((0, 0)))
    assert r.ok and r.block_consistent
    assert sorted((c.m, c.k) for c in r.cases) == [(0, 0), (2, 1)]
    geo = {(c.m, c.k): c.geometric for c in r.cases}
    assert geo[(0, 0)] == parse_ratfun("1", 2)
    assert geo[(2, 1)] == parse_ratfun("(x1-h)/(-x1-h)", 2)


def test_levi_restriction_standard_and_b2():
    V3 = build_irrep(A2, Weight((1, 0)))
    r = levi_restriction_check(V3, 1, Weight((1, 0)))
    assert r.ok and [(c.m, c.k) for c in r.cases] == [(1, 0)]
    W = build_irrep(B2, Weight((0, 1)))
    for i in (1, 2):
        for mu in [w for w in W.weights() if w.is_dominant()]:
            assert levi_restriction_check(W, i, mu).ok


def test_levi_errors_and_json():
    V = build_irrep(A2, Weight((1, 1)))
    with pytest.raises(GeomSatakeError):
        levi_restriction_check(V, 1, Weight((-1, 2)))
    r = levi_restriction_check(V, 2, Weight((1, 1)))
    assert r.ok is True and r.algebra == "A2"


def test_levi_rejects_non_dominant_mu():
    # <mu, coroot_2> = 2 >= 0, but mu = alpha_2 is not dominant
    V = build_irrep(A2, Weight((1, 1)))
    with pytest.raises(GeomSatakeError, match="not dominant"):
        levi_restriction_check(V, 2, Weight((-1, 2)))


def test_levi_report_carries_the_single_letter_block():
    V = build_irrep(B2, Weight((1, 1)))
    r = levi_restriction_check(V, 2, Weight((1, 1)))
    assert r.block.word == (2,) and r.block.source == Weight((1, 1))
    assert r.block.equals(geomsatake.word_operator_block(V, (2,), Weight((1, 1))))


def test_levi_cases_are_shared_and_frozen():
    V = build_irrep(A2, Weight((1, 1)))
    first = levi_restriction_check(V, 1, Weight((0, 0))).cases
    second = levi_restriction_check(V, 1, Weight((0, 0))).cases
    assert all(a is b for a, b in zip(first, second, strict=True))
    with pytest.raises(dataclasses.FrozenInstanceError):
        first[0].equal = False


def test_levi_corrupted_block_is_inconsistent(monkeypatch):
    original = geomsatake.word_operator_block

    def corrupted(V, word, mu):
        block = original(V, word, mu)
        block.matrix[0][0] = block.matrix[0][0] + RatFun.one(block.nx)
        return block

    monkeypatch.setattr(geomsatake, "word_operator_block", corrupted)
    V = build_irrep(A2, Weight((1, 1)))
    r = levi_restriction_check(V, 1, Weight((0, 0)))
    assert all(c.equal for c in r.cases)
    assert r.block_consistent is False and r.ok is False
