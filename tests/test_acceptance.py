"""Acceptance gate: the seven headline checks, each with its runtime budget.

Every check is an exact symbolic identity (no numeric tolerances anywhere);
each test prints a single PASS/FAIL line for the report.
"""

import random
import time
from fractions import Fraction

import pytest

from dynwg.dynweyl import (
    classical_limit,
    denominators_are_local,
    rank1_coefficient,
    word_operator_block,
)
from dynwg.geomsatake import (
    costalk_weights,
    levi_restriction_check,
    rank1_pairs,
    verify_main_theorem_rank1,
)
from dynwg.ratfun import DegreeOneForm, RatFun, eq_by_evaluation
from dynwg.rep import (
    build_irrep,
    check_chevalley_serre,
    dominant_weights_up_to_dim,
    freudenthal_multiplicity,
    weyl_dimension,
)
from dynwg.rootdata import LieType, Weight, act, all_reduced_words, longest_element
from ratfun_text import parse_ratfun

SEED = 20250826


@pytest.fixture(scope="module")
def warm_cache(tmp_path_factory):
    """Warm irrep cache shared by the operator-level criteria."""
    cache = str(tmp_path_factory.mktemp("irrep-cache"))
    for name, hw in (("A2", (1, 1)), ("A2", (1, 0)), ("B2", (1, 0)),
                     ("B2", (0, 1)), ("G2", (0, 1))):
        build_irrep(LieType.parse(name), Weight(hw), cache_dir=cache)
    return cache


def report(n, label, ok):
    print(f"ACCEPTANCE {n} [{label}]: {'PASS' if ok else 'FAIL'}")
    assert ok


def test_acceptance_1_rank1_main_theorem_sweep():
    start = time.monotonic()
    reports = [verify_main_theorem_rank1(lam, mu) for lam, mu in rank1_pairs(8)]
    elapsed = time.monotonic() - start
    ok = all(r.equal for r in reports) and len(reports) == 25 and elapsed < 1.0
    report(1, f"rank-1 main theorem sweep, lambda<=8, {elapsed:.2f}s", ok)


def test_acceptance_2_printed_formula_spot_checks():
    x = DegreeOneForm.make([1], 0)
    c = rank1_coefficient(2, 1, x)
    ok = c == parse_ratfun("-(x1+2*h)/x1", 1)
    shifted = c.substitute([DegreeOneForm.make([-1], -1)])
    ok = ok and shifted == parse_ratfun("(x1-h)/(-x1-h)", 1)
    ok = ok and costalk_weights(2, 0, "e") == [DegreeOneForm.make([-1], -1)]
    ok = ok and costalk_weights(2, 0, "s") == [DegreeOneForm.make([1], -1)]
    report(2, "printed-formula spot checks (lambda=2, mu=0)", ok)


def _cocycle_grid(warm_cache):
    for name, hw in (("A2", (1, 1)), ("A2", (1, 0)), ("B2", (1, 0)),
                     ("B2", (0, 1)), ("G2", (0, 1))):
        t = LieType.parse(name)
        V = build_irrep(t, Weight(hw), cache_dir=warm_cache)
        words = all_reduced_words(t, longest_element(t), cap=32)
        for mu in [w for w in V.weights() if w.is_dominant()]:
            yield t, V, words, mu


def test_acceptance_3_cocycle_word_independence(warm_cache):
    # sanity-check the labeling convention first, as the grid depends on it
    assert weyl_dimension(LieType.parse("G2"), Weight((0, 1))) == 7
    start = time.monotonic()
    ok = True
    cases = 0
    for t, V, words, mu in _cocycle_grid(warm_cache):
        blocks = [word_operator_block(V, w, mu) for w in words]
        ok = ok and all(blocks[0].equals(b) for b in blocks[1:])
        cases += 1
    elapsed = time.monotonic() - start
    ok = ok and cases == 8 and elapsed < 60.0
    report(3, f"cocycle independence, {cases} weight spaces, {elapsed:.2f}s", ok)


def test_acceptance_4_levi_restriction(warm_cache):
    start = time.monotonic()
    ok = True
    for name, hw in (("A2", (1, 1)), ("B2", (0, 1))):
        t = LieType.parse(name)
        V = build_irrep(t, Weight(hw), cache_dir=warm_cache)
        for i in range(1, t.rank + 1):
            for mu in [w for w in V.weights() if w.is_dominant()]:
                ok = ok and all(c.equal for c in levi_restriction_check(V, i, mu))
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 10.0
    report(4, f"Levi restriction identity, {elapsed:.2f}s", ok)


def test_acceptance_5_representation_integrity():
    start = time.monotonic()
    ok = True
    count = 0
    cpu = {"build": 0.0, "Freudenthal": 0.0, "Serre": 0.0}  # CPU seconds per phase
    for name in ("A1", "A2", "A3", "B2", "G2"):
        t = LieType.parse(name)
        for hw in dominant_weights_up_to_dim(t, 200):
            c0 = time.process_time()
            V = build_irrep(t, hw)  # cold: no cache directory
            c1 = time.process_time()
            ok = ok and V.dim == weyl_dimension(t, hw)
            ok = ok and all(
                V.weight_dim(nu) == freudenthal_multiplicity(t, hw, nu)
                for nu in V.weights()
            )
            c2 = time.process_time()
            ok = ok and not check_chevalley_serre(V)
            c3 = time.process_time()
            for phase, dt in zip(cpu, (c1 - c0, c2 - c1, c3 - c2)):
                cpu[phase] += dt
            count += 1
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 120.0
    phases = ", ".join(f"{phase} {dt:.1f}s" for phase, dt in cpu.items())
    report(5, f"representation integrity, {count} irreps dim<=200, {elapsed:.2f}s "
              f"(CPU by phase: {phases})", ok)


def test_acceptance_6_structural_invariants(warm_cache):
    ok = True
    for t, V, words, mu in _cocycle_grid(warm_cache):
        for w in words:
            blk = word_operator_block(V, w, mu)
            ok = ok and blk.target == act(t, w, mu)
            ok = ok and denominators_are_local(blk)
            classical_limit(blk)  # raises on x-dependence at h=0
    for name, hw in (("A2", (1, 1)), ("B2", (0, 1))):
        t = LieType.parse(name)
        V = build_irrep(t, Weight(hw), cache_dir=warm_cache)
        for i in range(1, t.rank + 1):
            for mu in [w for w in V.weights() if w.is_dominant()]:
                blk = word_operator_block(V, (i,), mu)
                ok = ok and blk.target == act(t, (i,), mu)
                ok = ok and denominators_are_local(blk)
                classical_limit(blk)
    report(6, "structural invariants on all criterion-3/4 blocks", ok)


def _random_factored(rng, nx):
    def form():
        while True:
            coeffs = [rng.randint(-3, 3) for _ in range(nx)]
            h = rng.randint(-3, 3)
            if any(coeffs) or h:
                return DegreeOneForm.make(coeffs, h)

    const = Fraction(rng.randint(1, 9) * rng.choice((1, -1)), rng.randint(1, 4))
    num = [form() for _ in range(rng.randint(0, 2))]
    den = [form() for _ in range(rng.randint(0, 2))]
    return RatFun.from_factors(const, num, den, nx)


def test_acceptance_7_arithmetic_kernel():
    start = time.monotonic()
    rng = random.Random(SEED)
    nx = 2
    inputs = [_random_factored(rng, nx) for _ in range(10**4)]
    ok = True
    shift = [DegreeOneForm.make([-1 if j == i else 0 for j in range(nx)], -1)
             for i in range(nx)]
    eq_rng = random.Random(SEED + 1)
    for idx in range(0, len(inputs) - 2, 3):
        a, b, c = inputs[idx], inputs[idx + 1], inputs[idx + 2]
        ok = ok and (a + b) + c == a + (b + c)
        ok = ok and a * (b + c) == a * b + a * c
        ok = ok and a - a == RatFun.zero(nx)
        if not b.is_zero():
            ok = ok and (a / b) * b == a
        # canonical equality agrees with 3-point evaluation equality
        ok = ok and eq_by_evaluation(a, a + RatFun.zero(nx), eq_rng)
        ok = ok and (a == b) == eq_by_evaluation(a, b, eq_rng)
        # substitution is a ring homomorphism
        ok = ok and (a * b).substitute(shift) == a.substitute(shift) * b.substitute(shift)
        ok = ok and (a + b).substitute(shift) == a.substitute(shift) + b.substitute(shift)
        if not ok:
            break
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 30.0
    report(7, f"arithmetic kernel, 10^4 factored inputs, {elapsed:.2f}s", ok)
