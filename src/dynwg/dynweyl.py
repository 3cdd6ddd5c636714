"""Dynamical Weyl group operators as exact rational-function matrices.

Higher-rank operators are assembled from the rank-1 closed form: along a
reduced word, the t-th simple reflection acts on the current weight space as
the sum of c(m, k, xi) times the transfer maps of its sl(2)-strings
(rep.sl2_strings, kept on the irrep once per (i, weight)), with the dynamical
variable xi twisted to the pairing of x against the t-th crossing coroot.
The blocks are multiplied fraction-free, as matrices of packed integer
polynomials over one integer and one product D of degree-one forms, and each
entry is reduced once, at the end.  A word reuses the step products of its
longest common suffix with the last word composed at the same weight, and
that word's reduced entries when its product is the same; a product of more
than TERM_CAP terms stops the composition (see word_operator_block).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm, prod

from . import linalg
from .ratfun import MAX_DEGREE, DegreeOneForm, Polynomial, RatFun
from .rep import Irrep, sl2_strings
from .rootdata import (
    CorootVector,
    Weight,
    WeylWord,
    crossing_coroots,
    pairing,
    simple_reflection,
)


class DynWeylError(Exception):
    pass


RatMatrix = list[list[RatFun]]
IntMatrix = list[list[dict[int, int]]]

# The most numerator terms a product in word_operator_block may hold; above
# it, composition stops with a DynWeylError.  The largest product of the test
# suite, the benchmark workloads and A5 adjoint w0 holds 48,221 terms.
# Expanded products of longer words grow until memory runs out: E6 adjoint w0
# on V_0 holds 521,644 terms after 13 of 36 letters, and so stops there.
TERM_CAP = 500_000


def _rmat_identity(n: int, nx: int) -> RatMatrix:
    return [[RatFun.one(nx) if r == c else RatFun.zero(nx) for c in range(n)] for r in range(n)]


@dataclass
class OperatorBlock:
    """One weight block of a dynamical operator: V_source -> V_target."""

    V: Irrep
    word: WeylWord
    source: Weight
    target: Weight
    matrix: RatMatrix

    def equals(self, other: "OperatorBlock") -> bool:
        if (self.source, self.target) != (other.source, other.target):
            return False
        return all(
            a == b for ra, rb in zip(self.matrix, other.matrix) for a, b in zip(ra, rb)
        )

    def to_json(self) -> dict:
        return {
            "algebra": str(self.V.type),
            "hw": list(self.V.hw.coords),
            "mu": list(self.source.coords),
            "word": list(self.word),
            "target": list(self.target.coords),
            "basis_labels": {
                "source": self.V.basis_labels(self.source),
                "target": self.V.basis_labels(self.target),
            },
            "matrix": [[e.to_json() for e in row] for row in self.matrix],
        }

    def format(self) -> str:
        lines = [
            f"{self.V.type} V({self.V.hw})  word {list(self.word)}:"
            f" V_({self.source}) -> V_({self.target})"
        ]
        for row in self.matrix:
            lines.append("  [" + ",  ".join(e.format() for e in row) + "]")
        return "\n".join(lines)


@lru_cache(maxsize=4096)
def rank1_coefficient(m: int, k: int, xi: DegreeOneForm) -> RatFun:
    """The closed-form sl(2) coefficient on the string component (m, k),
    0 <= k <= m, on either half of the string:

        (-1)^k * prod_{j=1..k} (xi + (j+1)h) / (xi + (j-m+k)h)

    The numerator shifts 2..k+1 and the denominator shifts k-m+1..2k-m share
    2..2k-m, so in lowest terms its denominator forms are xi + s*h,
    s <= min(1, 2k - m).  Distinct shifts of an xi with an x-part are coprime,
    so the rest is built with no trial division.  At an h-only xi = c*h, it is
    the constant (-1)^k prod (c + s) / prod (c + s') over the kept shifts: 0 at
    a zero, and a DynWeylError at a pole.  Kept for the last 4096 (m, k, xi)
    (about 2 KB each); callers share the result.
    """
    if k < 0 or k > m:
        raise DynWeylError(f"string component (m={m}, k={k}) needs 0 <= k <= m")
    nums, dens = range(max(2, 2 * k - m + 1), k + 2), range(k - m + 1, min(1, 2 * k - m) + 1)
    if not any(xi.xcoeffs):
        c = xi.hcoeff
        if -c in dens:
            raise DynWeylError(f"string component (m={m}, k={k}) has a pole at xi = {xi}")
        return RatFun.const(Fraction((-1) ** k * prod(c + s for s in nums),
                                     prod(c + s for s in dens)), xi.nx)
    num = Polynomial.const((-1) ** k, xi.nx)
    for s in nums:
        num = num * xi.shift_h(s).to_polynomial()
    return RatFun._over_forms(num, [(xi.shift_h(s), 1) for s in dens], ())


def simple_reflection_block(V: Irrep, i: int, nu: Weight, xi: DegreeOneForm) -> OperatorBlock:
    """Block of A_{s_i}: V_nu -> V_{s_i nu}, nu any weight, at variable xi.

    The sum over the string components (m, k) of V_nu of c(m,k,xi) times the
    component's transfer map: the column f_i^(k) u of the change of basis
    goes to c(m,k,xi) f_i^(m-k) u.
    """
    if xi.nx != V.type.rank:
        raise DynWeylError(f"xi has {xi.nx} variables, but {V.type} has rank {V.type.rank}")
    target = simple_reflection(V.type, i, nu)  # raises on an index or a weight of the wrong rank
    matrix = [[None] * V.weight_dim(nu) for _ in range(V.weight_dim(target))]
    for comp in sl2_strings(V, i, nu):
        c = rank1_coefficient(comp.m, comp.k, xi)
        for row, transfer_row in zip(matrix, comp.transfer):
            for col, s in enumerate(transfer_row):
                if s:  # the first string's term, or a sum where strings meet
                    row[col] = c.scale(s) if row[col] is None else row[col] + c.scale(s)
    zero = RatFun.zero(V.type.rank)
    return OperatorBlock(V=V, word=(i,), source=nu, target=target,
                         matrix=[[zero if e is None else e for e in row] for row in matrix])


def _integer_block(matrix: RatMatrix) -> tuple[IntMatrix, int, dict]:
    """(N, L, D) with matrix == N / (L * prod(f^D[f])): D is the lcm of the
    entries' denominators, L a positive int and N a matrix of packed integer
    coefficient dicts (as in Polynomial.coeffs)."""
    den: dict[DegreeOneForm, int] = {}
    for row in matrix:
        for e in row:
            for f, m in e.den:
                if m > den.get(f, 0):
                    den[f] = m
    nums = []
    for row in matrix:
        num_row = []
        for e in row:
            p = e.num
            if p.coeffs:
                own = dict(e.den)
                for f, m in den.items():
                    if m > own.get(f, 0):
                        p = p * f.to_polynomial() ** (m - own.get(f, 0))
            num_row.append(p)
        nums.append(num_row)
    scale = lcm(*(p.content.denominator for row in nums for p in row if p.coeffs))
    out = []
    for num_row in nums:
        out_row = []
        for p in num_row:
            k = p.content.numerator * (scale // p.content.denominator) if p.coeffs else 1
            out_row.append(p.coeffs if k == 1 else {e: k * c for e, c in p.coeffs.items()})
        out.append(out_row)
    return out, scale, den


def _imat_mul(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    """a @ b, each output entry summed in one dict."""
    cols = list(zip(*b))
    out = []
    for a_row in a:
        out_row = []
        for col in cols:
            terms: dict[int, int] = {}
            get = terms.get
            for x, y in zip(a_row, col):
                if x and y:
                    for e1, c1 in x.items():
                        for e2, c2 in y.items():
                            e = e1 + e2
                            terms[e] = get(e, 0) + c1 * c2
            if 0 in terms.values():
                terms = {e: c for e, c in terms.items() if c}
            out_row.append(terms)
        out.append(out_row)
    return out


@lru_cache(maxsize=None)
def _step_variable(gamma: CorootVector) -> DegreeOneForm:
    """xi = <x, gamma> + (ht(gamma) - 1) h for a crossing coroot gamma, one
    instance each, so the rank-1 memo's keys compare by identity."""
    return DegreeOneForm.make(gamma.coords, gamma.height() - 1)


def word_operator_block(V: Irrep, word: WeylWord, mu: Weight) -> OperatorBlock:
    """A_w on V_mu for a reduced word and any weight mu of V, composed
    right-to-left: the rightmost stored letter acts first.  The empty word
    is the identity.

    Each step checks that its current weight pairs with its letter's coroot
    as mu pairs with gamma_t, and raises DynWeylError if not; so a wrong
    crossing coroot is caught, also under python -O.

    The Weyl group acts on the dynamical parameter through the shifted action
    w*x = w(x + h rho) - h rho, so the t-th step uses the variable
    xi_t = <x, gamma_t> + (ht(gamma_t) - 1) h with gamma_t the t-th crossing
    coroot.  For a single letter the shift vanishes and xi is just x_i; for
    longer words the shift is what makes the composition independent of the
    choice of reduced word (the sl(2) adjoint block already distinguishes the
    shifted action from the naive one).

    Longer words multiply each block, written as N_t / (L_t D_t) with N_t a
    matrix of packed integer polynomials, L_t an int and D_t the lcm of its
    entries' denominators, with no division.  Each entry of the product
    P / (L D), L = prod L_t and D = prod D_t, is reduced once, by trial
    division by the forms of D.  D is squarefree in practice: the forms of
    D_t are xi_t + c*h, and the gamma_t are distinct.

    The products after each step depend only on V, mu and the letters so far,
    so the step products of the last word composed at mu are kept on V
    (V.word_steps), and a word reuses those of its longest common suffix with
    that word; a word whose product, with P / L in lowest terms, and target
    equal that word's gets its reduced entries, in fresh row lists.  A
    product whose numerators hold more than TERM_CAP terms raises
    DynWeylError.
    """
    word = tuple(word)
    t = V.type
    if mu not in V.basis:
        raise DynWeylError(f"{mu} is not a weight of V({V.hw})")
    gammas = crossing_coroots(t, word)  # raises on a non-reduced word
    nx = t.rank
    if not word:
        return OperatorBlock(V=V, word=word, source=mu, target=mu,
                             matrix=_rmat_identity(V.weight_dim(mu), nx))
    if len(word) == 1:
        return simple_reflection_block(V, word[0], mu, _step_variable(gammas[0]))
    letters = word[::-1]
    memo = V.word_steps.get(mu)
    if memo is None:
        V.word_steps.clear()  # products at another mu are never reused
        memo = V.word_steps[mu] = [[], None]
    steps = memo[0]
    # steps[s] = (letter, N, L, D, weight) after the first s + 1 letters
    shared = 0
    while shared < min(len(steps), len(word)) and steps[shared][0] == letters[shared]:
        shared += 1
    del steps[shared:]
    _, num, scale, den, cur = steps[-1] if steps else (None, None, 1, {}, mu)
    for step in range(shared, len(word)):
        letter, gamma = letters[step], gammas[step]
        expected = pairing(mu, gamma)
        if cur[letter - 1] != expected:
            raise DynWeylError(f"A_w on V_({mu}): step {step + 1} of {len(word)} has"
                               f" <({cur}), coroot {letter}> = {cur[letter - 1]},"
                               f" not <({mu}), ({gamma})> = {expected}")
        blk = simple_reflection_block(V, letter, cur, _step_variable(gamma))
        cur = blk.target
        blk_num, blk_scale, blk_den = _integer_block(blk.matrix)
        num = blk_num if num is None else _imat_mul(blk_num, num)
        scale *= blk_scale
        den = dict(den)
        for f, m in blk_den.items():
            den[f] = den.get(f, 0) + m
        terms, degree = sum(len(e) for row in num for e in row), sum(den.values())
        if terms > TERM_CAP:
            raise DynWeylError(f"A_w on V_({mu}): {terms} numerator terms after step"
                               f" {step + 1} of {len(word)}, over the cap of {TERM_CAP}")
        if degree > MAX_DEGREE:  # packed keys would carry between fields
            raise DynWeylError(f"A_w on V_({mu}): numerator degree {degree} after step"
                               f" {step + 1} of {len(word)}, over {MAX_DEGREE}")
        # two distinct reduced words of one element share at most len(word) - 2 letters
        if step < len(word) - 2:
            steps.append((letter, num, scale, den, cur))
    # P / L in lowest terms: equal as rational matrices means equal term by term
    if (g := gcd(scale, *(c for row in num for e in row for c in e.values()))) > 1:
        num, scale = [[{m: c // g for m, c in e.items()} for e in row] for row in num], scale // g
    if memo[1] is not None and memo[1][:4] == (cur, scale, den, num):
        matrix = memo[1][4]  # the same product as the last word: the same entries
    else:
        # RatFun.__mul__ trial-divides the numerator by exactly the forms of D
        over_d = RatFun.from_factors(1, [], [f for f, m in den.items() for _ in range(m)], nx)
        matrix = [[RatFun(Polynomial.from_ints(nx, e, scale), ()) * over_d for e in row]
                  for row in num]
        memo[1] = (cur, scale, den, num, matrix)
    return OperatorBlock(V=V, word=word, source=mu, target=cur,
                         matrix=[list(row) for row in matrix])


def rho_shift_images(nx: int) -> list[DegreeOneForm]:
    """The images of the rho-shift x_i -> -x_i - h, for RatFun.substitute."""
    return [DegreeOneForm.make([-1 if j == i else 0 for j in range(nx)], -1) for i in range(nx)]


def classical_limit(b: OperatorBlock) -> linalg.Matrix:
    """The block at h = 0, exactly.  An entry P / prod(f^m) in lowest terms
    specializes to P0 / prod(f0^m), with P0 and f0 the h-free parts; it is
    independent of x iff P0 / prod(f0^m) is a constant, which is its value.

    Raises DynWeylError if some f0 is zero (a pole at h = 0, reported before
    any x-dependence) or if some entry depends on x at h = 0."""
    if any(f.at_h0().is_zero() for row in b.matrix for e in row for f, _ in e.den):
        raise DynWeylError("entry has a pole identically at h=0")
    return [[_value_at_h0(e) for e in row] for row in b.matrix]


def _value_at_h0(e: RatFun) -> Fraction:
    """P0 divided by each f0, m times: the value if the quotient is constant."""
    p = e.num.at_h0()
    for f, m in e.den:
        for _ in range(m):
            p = p.divide_by_form(f.at_h0())
            if p is None:
                raise DynWeylError("h=0 specialization depends on x")
    if not p.is_constant():
        raise DynWeylError("h=0 specialization depends on x")
    return p.constant_value()


def denominators_are_local(b: OperatorBlock) -> bool:
    """Every denominator factor must be <x + h rho, gamma> - M*h with gamma a
    coroot that the block's word crosses and M an integer with
    M >= max(0, 1 + <source, gamma>), the bound of rank1_coefficient at the
    step variable of gamma; that is, <x, gamma> + c*h with c an integer,
    c <= ht(gamma) - max(0, 1 + <source, gamma>).

    Denominator forms are canonical (primitive integer, first coefficient
    positive), and so is a positive coroot, so a local form's x-part is
    gamma itself: one lookup per form."""
    top = {g.coords: g.height() - max(0, 1 + pairing(b.source, g))
           for g in crossing_coroots(b.V.type, b.word)}
    return all((c := top.get(form.xcoeffs)) is not None
               and form.hcoeff.denominator == 1 and form.hcoeff <= c
               for row in b.matrix for e in row for form, _ in e.den)
