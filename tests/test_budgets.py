"""Exact work budgets for `dynwg verify cocycle --jobs 1` and
`dynwg verify rep --jobs 1`.

A count of work is the same on every host, in every order of runs and under
every hash seed, so it shows a change of cost that a timing on a shared host
cannot resolve.  Each budget is the count at the time it was set: a change
that lowers a count lowers its budget in the same diff, and a budget is never
raised to let a slower change pass.

L3 work is counted three times: the string decompositions, one per
(i, weight) that a run decomposes; the linalg.invert calls among them; and
the kernels, the linalg.nullspace calls.  Only a weight space that holds two
strings or more inverts a change of basis, so invert is well below
decompositions.  A kernel of e_i is computed once per string top and kept on
the irrep for every weight of its string.
"""

import collections

import pytest

from dynwg import cli, dynweyl, linalg, ratfun, rep

# (algebra, highest weight): budget for each count of _count_work
BUDGETS = {
    ("G2", "1,1"): {"imat_mul": 50, "term_products": 39_254,
                    "divide_out": 402, "value_at_h0": 254,
                    "invert": 17, "decompositions": 35, "kernels": 32},
    ("B2", "2,2"): {"imat_mul": 48, "term_products": 63_022,
                    "divide_out": 1_025, "value_at_h0": 447,
                    "invert": 23, "decompositions": 43, "kernels": 37},
    ("A3", "2,0,2"): {"imat_mul": 378, "term_products": 1_961_148,
                      "divide_out": 1_208, "value_at_h0": 335,
                      "invert": 24, "decompositions": 99, "kernels": 81},
    ("D4", "0,1,0,0"): {"imat_mul": 540, "term_products": 2_625_885,
                        "divide_out": 204, "value_at_h0": 102,
                        "invert": 4, "decompositions": 38, "kernels": 39},
    ("F4", "0,0,0,1"): {"imat_mul": 1_072, "term_products": 2_663_164,
                        "divide_out": 60, "value_at_h0": 40,
                        "invert": 2, "decompositions": 40, "kernels": 40},
    ("A5", "1,0,0,0,1"): {"imat_mul": 702, "term_products": 16_462_122,
                          "divide_out": 390, "value_at_h0": 145,
                          "invert": 5, "decompositions": 39, "kernels": 42},
}
SLOW_BUDGETS = {("A5", "1,0,0,0,1")}  # about 5 s of CPU, so under -m slow

# (algebra, highest weight): budget for _IrrepBuilder._shap calls, the Gram
# entries of the L2 build.  linalg.nullspace is not called by `verify rep`,
# and check_chevalley_serre's _bracket makes exactly rank^2 calls on every
# passing irrep, so neither measures L2 work.
REP_BUDGETS = {("A2", "2,1"): 44, ("B2", "2,2"): 456, ("G2", "1,1"): 298,
               ("A3", "1,1,1"): 480, ("B3", "1,0,1"): 275, ("D4", "0,1,0,0"): 160}


def _count(monkeypatch, owner, name, tally):
    """Call tally with the arguments of each call of owner.name."""
    original = getattr(owner, name)

    def wrapped(*args):
        tally(*args)
        return original(*args)

    monkeypatch.setattr(owner, name, wrapped)


def _count_work(monkeypatch, capsys, algebra, hw):
    """The work of one `verify cocycle` run on fresh memos:
    - imat_mul: calls of dynweyl._imat_mul (L4 products);
    - term_products: the sum of |x| * |y| over the entry pairs it multiplies;
    - divide_out, value_at_h0: Polynomial.divide_by_form calls (L1 trial
      divisions) made within ratfun._divide_out (reductions) and within
      dynweyl._value_at_h0 (the h = 0 limit), the only two callers;
    - invert: linalg.invert calls (one per L3 string decomposition of a
      weight space that holds two strings or more);
    - decompositions: the L3 string decompositions, the entries that the
      irrep keeps in string_parts after the run;
    - kernels: linalg.nullspace calls (one per kernel of e_i at a string
      top that a decomposition reads, kept in the irrep's kernels)."""
    counts = collections.Counter()
    within = [None]  # the innermost running caller of divide_by_form

    def track(owner, name):
        original = getattr(owner, name)

        def wrapped(*args):
            within.append(name.lstrip("_"))
            try:
                return original(*args)
            finally:
                within.pop()

        monkeypatch.setattr(owner, name, wrapped)

    def products(a, b):
        counts["imat_mul"] += 1
        cols = list(zip(*b))
        counts["term_products"] += sum(len(x) * len(y)
                                       for row in a for col in cols for x, y in zip(row, col))

    track(ratfun, "_divide_out")
    track(dynweyl, "_value_at_h0")
    _count(monkeypatch, ratfun.Polynomial, "divide_by_form",
           lambda p, form: counts.update([within[-1]]))
    _count(monkeypatch, dynweyl, "_imat_mul", products)
    _count(monkeypatch, linalg, "invert", lambda a: counts.update(["invert"]))
    _count(monkeypatch, linalg, "nullspace", lambda a, cols: counts.update(["kernels"]))
    monkeypatch.setattr(cli, "_irrep_memo", None)
    dynweyl.rank1_coefficient.cache_clear()
    try:
        code = cli.main(["verify", "cocycle", "--algebra", algebra, "--hw", hw, "--jobs", "1"])
    finally:
        dynweyl.rank1_coefficient.cache_clear()
    out, _ = capsys.readouterr()
    assert code == 0 and "cases pass" in out
    counts["decompositions"] = len(cli._irrep_memo[1].string_parts)
    return counts


@pytest.mark.parametrize("algebra,hw", [
    pytest.param(a, h, id=f"{a}({h})", marks=[pytest.mark.slow] if (a, h) in SLOW_BUDGETS else [])
    for a, h in BUDGETS])
def test_cocycle_work_within_budget(monkeypatch, capsys, algebra, hw):
    counts = _count_work(monkeypatch, capsys, algebra, hw)
    budget = BUDGETS[algebra, hw]
    assert set(counts) <= set(budget), f"divide_by_form from another caller: {counts}"
    assert {k: counts[k] for k in budget if counts[k] > budget[k]} == {}, dict(counts)


# word_operator_block's memo (V.word_steps[mu]) with one of its two reuses
# switched off before each call, or sl2_strings' kernel memo (V.kernels)
# cleared before each call, and a count of _count_work that the mutant takes
# over its budget, per (algebra, highest weight)
MEMO_MUTANTS = {
    "no-suffix-sharing": ("imat_mul", [("A3", "2,0,2"), ("D4", "0,1,0,0"), ("F4", "0,0,0,1")]),
    "no-product-reuse": ("divide_out", [("B2", "2,2"), ("G2", "1,1")]),
    "no-kernel-memo": ("kernels", [("B2", "2,2"), ("G2", "1,1")]),
}
FAST_MUTANTS = {("no-suffix-sharing", "A3"), ("no-product-reuse", "B2"),
                ("no-kernel-memo", "B2"), ("no-kernel-memo", "G2")}  # the rest: -m slow


@pytest.mark.parametrize("mutant,algebra,hw", [
    pytest.param(m, a, h, id=f"{m}-{a}({h})",
                 marks=[] if (m, a) in FAST_MUTANTS else [pytest.mark.slow])
    for m, (_, irreps) in MEMO_MUTANTS.items() for a, h in irreps])
def test_cocycle_budget_catches_a_memo_mutant(monkeypatch, capsys, mutant, algebra, hw):
    if mutant == "no-kernel-memo":
        strings = dynweyl.sl2_strings

        def mutated(V, i, nu):
            V.kernels.clear()  # every decomposition computes its kernels anew
            return strings(V, i, nu)

        monkeypatch.setattr(dynweyl, "sl2_strings", mutated)
    else:
        original = dynweyl.word_operator_block

        def mutated(V, word, mu):
            if (memo := V.word_steps.get(mu)) is not None:
                if mutant == "no-suffix-sharing":
                    memo[0].clear()  # every word composes from its first letter
                else:
                    memo[1] = None  # no word gets the last word's entries
            return original(V, word, mu)

        monkeypatch.setattr(dynweyl, "word_operator_block", mutated)
    count = MEMO_MUTANTS[mutant][0]
    counts = _count_work(monkeypatch, capsys, algebra, hw)
    assert counts[count] > BUDGETS[algebra, hw][count], dict(counts)


@pytest.mark.parametrize("algebra,hw", list(REP_BUDGETS),
                         ids=[f"{a}({h})" for a, h in REP_BUDGETS])
def test_rep_work_within_budget(monkeypatch, capsys, algebra, hw):
    counts = collections.Counter()
    _count(monkeypatch, rep._IrrepBuilder, "_shap", lambda *args: counts.update(["shap"]))
    code = cli.main(["verify", "rep", "--algebra", algebra, "--hw", hw, "--jobs", "1"])
    out, _ = capsys.readouterr()
    assert code == 0 and "cases pass" in out
    assert counts["shap"] <= REP_BUDGETS[algebra, hw]
