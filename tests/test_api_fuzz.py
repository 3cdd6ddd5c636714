"""The public API on malformed input.  Hypothesis drives every function of
dynwg.__all__ on a few irreps with out-of-range indices, wrong-length
weights, forms in the wrong number of variables and non-reduced words.  Each
call either returns a result that an oracle accepts, or raises one of the
package's named errors: never IndexError, KeyError, TypeError or ValueError,
never a truncated weight, and never a block whose entries mix variable
counts.  Skipped without hypothesis."""

import functools
from collections import Counter
from fractions import Fraction
from math import prod

import pytest

import dynwg
from dynwg.dynweyl import DynWeylError
from dynwg.geomsatake import GeomSatakeError
from dynwg.ratfun import DegreeOneForm, RatFun, RatFunError
from dynwg.rep import RepError, build_irrep
from dynwg.rootdata import (
    LieType,
    RootDataError,
    Weight,
    all_reduced_words,
    cartan_matrix,
    longest_element,
    pairing,
    positive_coroots,
)

NAMED = (RootDataError, RepError, DynWeylError, GeomSatakeError, RatFunError)
IRREPS = [("A1", (2,)), ("A2", (1, 1)), ("B2", (0, 1)), ("G2", (1, 0))]
FUNCTIONS = sorted(name for name in dynwg.__all__ if not isinstance(getattr(dynwg, name), type))


@functools.lru_cache(maxsize=None)
def _irrep(name, hw):
    return build_irrep(LieType.parse(name), Weight(hw))


def _call(f, *args, **kwargs):
    """f's result, or the named error that it raised; any other error propagates."""
    try:
        return f(*args, **kwargs)
    except NAMED as exc:
        return exc


def _outcome(got, valid: bool, errors=NAMED) -> bool:
    """Whether got is a result: a valid call returns one, and an invalid one
    raises one of errors."""
    if valid:
        assert not isinstance(got, Exception), got
    else:
        assert isinstance(got, errors), got
    return valid


def _reflect(t, word, coords):
    """The word applied to a weight, rightmost letter first, from the Cartan matrix."""
    a, mu = cartan_matrix(t), list(coords)
    for i in reversed(word):
        c = mu[i - 1]
        mu = [m - c * a[j][i - 1] for j, m in enumerate(mu)]
    return Weight(tuple(mu))


def _length(t, word):
    """l(w): the positive coroots gamma with <w(rho), gamma> < 0."""
    w_rho = _reflect(t, word, (1,) * t.rank)
    return sum(pairing(w_rho, g) < 0 for g in positive_coroots(t))


def _in_variables(e: RatFun, nx: int) -> bool:
    return e.num.nx == nx and all(f.nx == nx for f, _ in e.den)


def _h_only_coefficient(m, k, xi):
    """c(m, k, xi) at an h-only xi = c*h, 0 <= k <= m: the shifts of the
    closed form, with those common to its numerator and denominator cancelled
    as multisets, at c; a Fraction, or None at a pole."""
    num, den = Counter(j + 1 for j in range(1, k + 1)), Counter(j - m + k for j in range(1, k + 1))
    num, den, c = num - den, den - num, xi.hcoeff
    if any(c + s == 0 for s in den):
        return None
    return Fraction((-1) ** k * prod(c + s for s in num.elements()),
                    prod(c + s for s in den.elements()))


def _block_ok(blk, V, source, target):
    assert (blk.source, blk.target) == (source, target)
    assert len(blk.matrix) == V.weight_dim(target)
    assert all(len(row) == V.weight_dim(source) for row in blk.matrix)
    assert all(_in_variables(e, V.type.rank) for row in blk.matrix for e in row)


class Inputs:
    """Draws a call's arguments for the irrep V, valid and malformed alike."""

    def __init__(self, st, data, V):
        self.st, self.data, self.V, self.t = st, data, V, V.type

    def draw(self, strategy):
        return self.data.draw(strategy)

    def index(self) -> int:
        return self.draw(self.st.integers(-1, self.t.rank + 1))

    def indices_ok(self, word) -> bool:
        return all(1 <= i <= self.t.rank for i in word)

    def weight(self) -> Weight:
        r, st = self.t.rank, self.st
        coords = st.lists(st.integers(-2, 2), min_size=r - 1, max_size=r + 1).map(tuple)
        return self.draw(st.one_of(st.sampled_from(self.V.weights()), coords.map(Weight)))

    def word(self) -> tuple:
        st = self.st
        reduced = all_reduced_words(self.t, longest_element(self.t), cap=4)
        suffixes = [w[s:] for w in reduced for s in range(len(w) + 1)]
        letters = st.lists(st.integers(0, self.t.rank + 1), max_size=5).map(tuple)
        return self.draw(st.one_of(st.sampled_from(suffixes), letters))

    def form(self) -> DegreeOneForm:
        r, st = self.t.rank, self.st
        xcoeffs = st.lists(st.integers(-2, 2), min_size=max(1, r - 1), max_size=r + 1)
        return self.draw(st.builds(DegreeOneForm.make, xcoeffs, st.integers(-3, 3)))

    def small(self) -> int:
        return self.draw(self.st.integers(-2, 6))


def drive_act(d):
    word, mu = d.word(), d.weight()
    got = _call(dynwg.act, d.t, word, mu)
    if _outcome(got, len(mu.coords) == d.t.rank and d.indices_ok(word), RootDataError):
        assert got == _reflect(d.t, word, mu.coords)


def drive_is_reduced(d):
    word = d.word()
    got = _call(dynwg.is_reduced, d.t, word)
    if _outcome(got, d.indices_ok(word), RootDataError):
        assert got is (_length(d.t, word) == len(word))


def drive_crossing_coroots(d):
    word = d.word()
    got = _call(dynwg.crossing_coroots, d.t, word)
    if _outcome(got, d.indices_ok(word) and _length(d.t, word) == len(word), RootDataError):
        # the positive coroots that w = s_{i_l} ... s_{i_1} makes negative
        inv_rho = _reflect(d.t, word[::-1], (1,) * d.t.rank)
        assert len(got) == len(word)
        assert set(got) == {g for g in positive_coroots(d.t) if pairing(inv_rho, g) < 0}


def drive_weyl_dimension(d):
    lam = d.weight()
    got = _call(dynwg.weyl_dimension, d.t, lam)
    if _outcome(got, len(lam.coords) == d.t.rank and lam.is_dominant(),
                RootDataError if len(lam.coords) != d.t.rank else RepError):
        plus_rho = Weight(tuple(c + 1 for c in lam.coords))
        assert got == prod(Fraction(pairing(plus_rho, g), g.height())
                           for g in positive_coroots(d.t))
        assert lam != d.V.hw or got == d.V.dim


def drive_freudenthal_multiplicity(d):
    lam = d.draw(d.st.sampled_from([d.V.hw, d.weight()]))
    mu = d.weight()
    got = _call(dynwg.freudenthal_multiplicity, d.t, lam, mu)
    # lam is checked first, then mu
    lam_ok = len(lam.coords) == d.t.rank and lam.is_dominant()
    error = RepError if len(lam.coords) == d.t.rank and not lam_ok else RootDataError
    if _outcome(got, lam_ok and len(mu.coords) == d.t.rank, error):
        assert isinstance(got, int) and got >= 0
        assert lam != d.V.hw or got == (d.V.weight_dim(mu) if mu in d.V.basis else 0)


def drive_build_irrep(d):
    hw = d.weight()
    got = _call(dynwg.build_irrep, d.t, hw, dim_cap=20)
    ok = len(hw.coords) == d.t.rank and hw.is_dominant()
    if _outcome(got, ok and dynwg.weyl_dimension(d.t, hw) <= 20,
                RootDataError if len(hw.coords) != d.t.rank else RepError):
        assert got.hw == hw and got.dim == dynwg.weyl_dimension(d.t, hw)
        assert sum(got.weight_dim(nu) for nu in got.weights()) == got.dim


def drive_sl2_strings(d):
    i, nu = d.index(), d.weight()
    got = _call(dynwg.sl2_strings, d.V, i, nu)
    if _outcome(got, 1 <= i <= d.t.rank and nu in d.V.basis):
        assert len(got) == d.V.weight_dim(nu)
        assert all(0 <= c.k <= c.m and c.m - 2 * c.k == nu[i - 1] for c in got)


def drive_simple_reflection_block(d):
    i, nu, xi = d.index(), d.weight(), d.form()
    got = _call(dynwg.simple_reflection_block, d.V, i, nu, xi)
    if xi.nx != d.t.rank:
        _outcome(got, False, DynWeylError)
    # an h-only xi may meet a pole of a string's rank-one coefficient
    elif _outcome(got, (1 <= i <= d.t.rank and nu in d.V.basis
                        and (any(xi.xcoeffs) or all(_h_only_coefficient(c.m, c.k, xi) is not None
                                                    for c in dynwg.sl2_strings(d.V, i, nu))))):
        _block_ok(got, d.V, nu, _reflect(d.t, (i,), nu.coords))
        assert got.word == (i,)


def drive_word_operator_block(d):
    word, mu = d.word(), d.weight()
    got = _call(dynwg.word_operator_block, d.V, word, mu)
    valid = mu in d.V.basis and d.indices_ok(word) and _length(d.t, word) == len(word)
    if _outcome(got, valid):
        _block_ok(got, d.V, mu, _reflect(d.t, word, mu.coords))
        assert got.word == word


def drive_classical_limit(d):
    word, mu = d.word(), d.draw(d.st.sampled_from(d.V.weights()))
    reduced = d.indices_ok(word) and _length(d.t, word) == len(word)
    if reduced:
        blk = dynwg.word_operator_block(d.V, word, mu)
    else:  # a single letter at a random xi, which may depend on x at h = 0
        xcoeffs = d.st.lists(d.st.integers(-2, 2), min_size=d.t.rank, max_size=d.t.rank)
        xi = DegreeOneForm.make(d.draw(xcoeffs.filter(any)), 1)
        blk = dynwg.simple_reflection_block(d.V, d.draw(d.st.integers(1, d.t.rank)), mu, xi)
    got = _call(dynwg.classical_limit, blk)
    # A_w at h = 0 is a constant matrix
    if _outcome(got, reduced or not isinstance(got, DynWeylError), DynWeylError):
        assert [len(row) for row in got] == [len(row) for row in blk.matrix]
        assert all(isinstance(e, Fraction) for row in got for e in row)


def drive_rank1_coefficient(d):
    m, k, xi = d.small(), d.small(), d.form()
    got = _call(dynwg.rank1_coefficient, m, k, xi)
    if not 0 <= k <= m:
        _outcome(got, False, DynWeylError)
    elif any(xi.xcoeffs):
        assert _outcome(got, True) and _in_variables(got, xi.nx)
        assert got == RatFun.from_factors((-1) ** k, [xi.shift_h(j + 1) for j in range(1, k + 1)],
                                          [xi.shift_h(j - m + k) for j in range(1, k + 1)], xi.nx)
    elif _outcome(got, (value := _h_only_coefficient(m, k, xi)) is not None, DynWeylError):
        assert got == RatFun.const(value, xi.nx)  # 0 at a zero


def _pair_ok(lam, mu) -> bool:
    return 0 <= mu <= lam and (lam - mu) % 2 == 0


def drive_costalk_weights(d):
    lam, mu, xi = d.small(), d.small(), d.form()
    chamber = d.draw(d.st.sampled_from(["e", "s", "w"]))
    got = _call(dynwg.costalk_weights, lam, mu, chamber, xi)
    if _outcome(got, _pair_ok(lam, mu) and chamber != "w"
                and not isinstance(got, GeomSatakeError), GeomSatakeError):
        assert len(got) == (lam - mu) // 2 and all(f.nx == xi.nx for f in got)
        assert chamber == "e" or got == [xi.shift_h(-j) for j in range(1, len(got) + 1)]


def drive_hyperbolic_transition(d):
    lam, mu, xi = d.small(), d.small(), d.form()
    got = _call(dynwg.hyperbolic_transition, lam, mu, xi)
    if _outcome(got, _pair_ok(lam, mu) and not isinstance(got, GeomSatakeError), GeomSatakeError):
        assert _in_variables(got, xi.nx)


def drive_verify_main_theorem_rank1(d):
    lam, mu = d.small(), d.small()
    got = _call(dynwg.verify_main_theorem_rank1, lam, mu)
    if _outcome(got, _pair_ok(lam, mu), GeomSatakeError):
        assert got.equal and (got.m, got.k) == (lam, (lam - mu) // 2)


def drive_levi_restriction_check(d):
    i, mu = d.index(), d.weight()
    got = _call(dynwg.levi_restriction_check, d.V, i, mu)
    if _outcome(got, 1 <= i <= d.t.rank and mu in d.V.basis and mu.is_dominant()):
        assert len(got) == d.V.weight_dim(mu) and all(c.equal for c in got)


DRIVERS = {name[len("drive_"):]: f for name, f in globals().items() if name.startswith("drive_")}


def test_every_public_function_is_driven():
    assert sorted(DRIVERS) == FUNCTIONS


@pytest.mark.parametrize("name", FUNCTIONS)
def test_public_function_on_malformed_input(name):
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=40, deadline=None, database=None)
    @hypothesis.given(st.sampled_from(IRREPS), st.data())
    def check(irrep, data):
        DRIVERS[name](Inputs(st, data, _irrep(*irrep)))

    check()
