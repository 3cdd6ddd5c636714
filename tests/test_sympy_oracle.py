"""A sympy oracle for the composed operator block (L1 and L4 together).

Each step block is read into sympy from its text rendering, and the steps
are multiplied in sympy's field Q(x_1, ..., x_r, h), which keeps each entry
in lowest terms by its own polynomial gcd; neither the product nor the
reduction goes through RatFun.  The longer sweep is marked slow: run it with
python -m pytest -m slow.
"""

import pytest

from dynwg.dynweyl import simple_reflection_block, word_operator_block
from dynwg.ratfun import DegreeOneForm
from dynwg.rep import build_irrep
from dynwg.rootdata import LieType, Weight, all_reduced_words, crossing_coroots, longest_element

sp = pytest.importorskip("sympy")
DomainMatrix = pytest.importorskip("sympy.polys.matrices").DomainMatrix


def _sympy_matrix(matrix, field, symbols):
    rows = [[field.from_sympy(sp.parse_expr(e.format().replace("^", "**"), local_dict=symbols))
             for e in row] for row in matrix]
    return DomainMatrix(rows, (len(rows), len(rows[0])), field)


def _sympy_mismatches(V, word, mu):
    """The entries where word_operator_block differs from the sympy product."""
    gens = [sp.Symbol(f"x{i + 1}") for i in range(V.type.rank)] + [sp.Symbol("h")]
    symbols = {str(g): g for g in gens}
    field = sp.QQ.frac_field(*gens)
    product, cur = DomainMatrix.eye(V.weight_dim(mu), field), mu
    for gamma, letter in zip(crossing_coroots(V.type, word), reversed(word)):
        xi = DegreeOneForm.make(gamma.coords, gamma.height() - 1)
        step = simple_reflection_block(V, letter, cur, xi)
        product = _sympy_matrix(step.matrix, field, symbols) * product
        cur = step.target
    blk = word_operator_block(V, word, mu)
    assert blk.target == cur
    diff = (_sympy_matrix(blk.matrix, field, symbols) - product).to_Matrix()
    return [(r, c) for r in range(diff.rows) for c in range(diff.cols) if diff[r, c] != 0]


def _sympy_sweep(algebra, hw, cap, subwords=False):
    """Compare the first cap reduced words of w0 at every dominant weight,
    and with subwords also each single letter and each proper suffix of the
    first word."""
    t = LieType.parse(algebra)
    V = build_irrep(t, Weight(hw))
    words = all_reduced_words(t, longest_element(t), cap=cap)
    if subwords:
        words += [(i,) for i in range(1, t.rank + 1)]
        words += [words[0][-k:] for k in range(2, len(words[0]))]
    compared = 0
    for mu in [w for w in V.weights() if w.is_dominant()]:
        for word in words:
            assert _sympy_mismatches(V, word, mu) == [], (algebra, hw, mu, word)
            compared += 1
    return compared


@pytest.mark.parametrize("algebra, hw, compared", [
    ("A2", (1, 1), 4), ("B2", (1, 1), 4), ("B2", (2, 1), 8), ("A3", (1, 0, 1), 8),
])
def test_word_block_matches_sympy_oracle(algebra, hw, compared):
    assert _sympy_sweep(algebra, hw, cap=4) == compared


@pytest.mark.slow
@pytest.mark.parametrize("algebra, hw, compared", [
    ("A2", (1, 1), 10), ("A2", (2, 1), 15), ("B2", (1, 1), 12), ("B2", (2, 1), 24),
    ("B2", (2, 2), 48), ("G2", (1, 0), 24), ("G2", (1, 1), 40), ("A3", (1, 0, 1), 30),
    ("B3", (1, 0, 1), 36), ("C3", (0, 1, 0), 36),
])
def test_word_block_matches_sympy_oracle_sweep(algebra, hw, compared):
    assert _sympy_sweep(algebra, hw, cap=8, subwords=True) == compared
