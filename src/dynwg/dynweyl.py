"""Dynamical Weyl group operators as exact rational-function matrices.

Higher-rank operators are assembled from the rank-1 closed form: along a
reduced word, the t-th simple reflection acts through the sl(2)-string
decomposition of the current weight space, with the dynamical variable twisted
to the pairing of x against the t-th crossing coroot.  The blocks are
multiplied fraction-free, as Polynomial matrices over one common denominator
D, and each entry is reduced once, at the end (see word_operator_block).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from . import linalg
from .ratfun import DegreeOneForm, PoleError, Polynomial, RatFun
from .rep import Irrep, StringDecomposition, divided_f_power, sl2_strings
from .rootdata import (
    Weight,
    WeylWord,
    crossing_coroots,
    pairing,
    positive_coroots,
    simple_reflection,
    simple_root,
)


class DynWeylError(Exception):
    pass


RatMatrix = list[list[RatFun]]
PolyMatrix = list[list[Polynomial]]


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

    @property
    def nx(self) -> int:
        return self.V.type.rank

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


@lru_cache(maxsize=None)
def rank1_coefficient(m: int, k: int, xi: DegreeOneForm) -> RatFun:
    """The closed-form sl(2) coefficient on the string component (m, k):

        (-1)^k * prod_{j=1..k} (xi + (j+1)h) / (xi + (j-m+k)h)

    Computed once per (m, k, xi) per process; RatFun is immutable, so the
    callers share the result.
    """
    if k < 0 or m - 2 * k < 0:
        raise DynWeylError(f"string component (m={m}, k={k}) outside the dominant regime")
    num_forms = [xi.shift_h(j + 1) for j in range(1, k + 1)]
    den_forms = [xi.shift_h(j - m + k) for j in range(1, k + 1)]
    return RatFun.from_factors((-1) ** k, num_forms, den_forms, xi.nx)


def string_data(V: Irrep, i: int, nu: Weight) -> tuple[StringDecomposition, list[tuple]]:
    """(dec, parts) for (i, nu): dec = sl2_strings(V, i, nu), and per string
    component (m, k) of V_nu the tuple (m, k, images, M): images are the
    f_i^(m-k) u of its primitives u, and M = sum_u image_u (x) (row u of
    dec.inverse), so that A_{s_i} = sum c(m,k,xi) M.  None of it depends on
    xi, so it is kept on V, once per (i, nu)."""
    entry = V.string_parts.get((i, nu))
    if entry is None:
        dec = sl2_strings(V, i, nu)
        alpha, inverse, parts = simple_root(V.type, i), iter(dec.inverse), []
        for comp in dec.components:
            w = Weight(tuple(c + comp.k * a for c, a in zip(nu.coords, alpha.coords)))
            images = [divided_f_power(V, i, w, comp.m - comp.k, u) for u in comp.primitives]
            rows = [next(inverse) for _ in images]
            parts.append((comp.m, comp.k, images, linalg.mat_mul(linalg.transpose(images), rows)))
        entry = V.string_parts[(i, nu)] = (dec, parts)
    return entry


def string_images(
    V: Irrep, dec: StringDecomposition, xi: DegreeOneForm
) -> list[tuple[RatFun, linalg.Vector]]:
    """Where A_{s_i} sends each column of dec.change_of_basis, in order.

    The column f_i^(k) u of a string component (m, k) goes to
    c(m,k,xi) f_i^(m-k) u; each pair is (c(m,k,xi), f_i^(m-k) u), the vector
    in the basis of V_{s_i nu}, read from the string data kept on V.
    """
    out = []
    for m, k, images, _ in string_data(V, dec.index, dec.weight)[1]:
        c = rank1_coefficient(m, k, xi)
        out.extend((c, image) for image in images)
    return out


def simple_reflection_block(V: Irrep, i: int, nu: Weight, xi: DegreeOneForm) -> OperatorBlock:
    """Block of A_{s_i}: V_nu -> V_{s_i nu} with dynamical variable xi.

    The string images of the columns of the change of basis, brought back to
    the standard basis of V_nu by its inverse.
    """
    if nu[i - 1] < 0:
        raise DynWeylError(f"<{nu}, coroot {i}> < 0: outside the dominant regime")
    nx = V.type.rank
    target = simple_reflection(V.type, i, nu)
    matrix = [[RatFun.zero(nx) for _ in range(V.weight_dim(nu))]
              for _ in range(V.weight_dim(target))]
    for m, k, _, part in string_data(V, i, nu)[1]:
        c = rank1_coefficient(m, k, xi)
        for row, part_row in zip(matrix, part):
            for col, s in enumerate(part_row):
                if s:
                    row[col] = row[col] + c.scale(s)
    return OperatorBlock(V=V, word=(i,), source=nu, target=target, matrix=matrix)


def _over_common_denominator(matrix: RatMatrix) -> tuple[PolyMatrix, dict]:
    """(P, D) with matrix == P / prod(f^D[f]): D is the lcm of the entries'
    denominators and P a Polynomial matrix."""
    den: dict[DegreeOneForm, int] = {}
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


def _pmat_mul(a: PolyMatrix, b: PolyMatrix, nx: int) -> PolyMatrix:
    zero = Polynomial.zero(nx)
    return [[sum((e * g for e, g in zip(a_row, col)), zero) for col in zip(*b)] for a_row in a]


def word_operator_block(V: Irrep, word: WeylWord, mu: Weight) -> OperatorBlock:
    """A_w on V_mu for a reduced word, composed right-to-left: the rightmost
    stored letter acts first.

    The Weyl group acts on the dynamical parameter through the shifted action
    w*x = w(x + h rho) - h rho, so the t-th step uses the variable
    xi_t = <x, gamma_t> + (ht(gamma_t) - 1) h with gamma_t the t-th crossing
    coroot.  For a single letter the shift vanishes and xi is just x_i; for
    longer words the shift is what makes the composition independent of the
    choice of reduced word (the sl(2) adjoint block already distinguishes the
    shifted action from the naive one).

    Longer words multiply each block's Polynomial matrix over its common
    denominator D_t with no division, and reduce each entry P/D, D = prod D_t,
    once, by trial division by the forms of D.  D is squarefree in practice:
    the forms of D_t are xi_t + c*h, and the gamma_t are distinct.
    """
    word = tuple(word)
    t = V.type
    if not mu.is_dominant():
        raise DynWeylError(f"source weight {mu} is not dominant")
    if mu not in V.basis:
        raise DynWeylError(f"{mu} is not a weight of V({V.hw})")
    gammas = crossing_coroots(t, word)  # raises on a non-reduced word
    nx = t.rank
    cur, num, den = mu, None, {}
    for step, letter in enumerate(reversed(word)):
        gamma = gammas[step]
        p = Fraction(cur[letter - 1])
        assert p == pairing(mu, gamma) and p >= 0, "negative intermediate pairing"
        xi = DegreeOneForm.make(gamma.coords, gamma.height() - 1)
        blk = simple_reflection_block(V, letter, cur, xi)
        cur = simple_reflection(t, letter, cur)
        if len(word) == 1:
            return blk
        blk_num, blk_den = _over_common_denominator(blk.matrix)
        num = blk_num if num is None else _pmat_mul(blk_num, num, nx)
        for f, m in blk_den.items():
            den[f] = den.get(f, 0) + m
    if num is None:
        return OperatorBlock(V=V, word=word, source=mu, target=mu,
                             matrix=_rmat_identity(V.weight_dim(mu), nx))
    # RatFun.__mul__ trial-divides the numerator by exactly the forms of D
    over_d = RatFun.from_factors(1, [], [f for f, m in den.items() for _ in range(m)], nx)
    matrix = [[RatFun(p, ()) * over_d for p in row] for row in num]
    return OperatorBlock(V=V, word=word, source=mu, target=cur, matrix=matrix)


def rho_shift_images(nx: int) -> list[DegreeOneForm]:
    """The images of the rho-shift x_i -> -x_i - h, for RatFun.substitute."""
    return [DegreeOneForm.make([-1 if j == i else 0 for j in range(nx)], -1) for i in range(nx)]


def classical_limit(b: OperatorBlock, rng) -> linalg.Matrix:
    """Evaluate at h = 0.  The result must not depend on x; this is checked at
    two distinct random rational points (re-drawn on accidental poles)."""
    nx = b.nx

    def sample() -> list[Fraction]:
        return [Fraction(rng.randint(10**3, 10**6)) for _ in range(nx)] + [Fraction(0)]

    def eval_at(point):
        return [[e.evaluate(point) for e in row] for row in b.matrix]

    results = []
    points = []
    attempts = 0
    while len(results) < 2:
        attempts += 1
        if attempts > 16:
            raise DynWeylError("entry has a pole identically at h=0")
        point = sample()
        if point in points:
            continue
        try:
            results.append(eval_at(point))
        except PoleError:
            continue
        points.append(point)
    if results[0] != results[1]:
        raise DynWeylError("h=0 specialization depends on x")
    return results[0]


def denominators_are_local(b: OperatorBlock) -> bool:
    """Every denominator factor must be (a scalar multiple of)
    <x + h rho, gamma> - m*h with gamma a positive coroot and m a positive
    integer; equivalently <x, gamma> + c*h with c an integer < ht(gamma).
    For gamma simple this is the familiar x_i - m*h, m >= 0."""
    pos = positive_coroots(b.V.type)
    for row in b.matrix:
        for e in row:
            for form, _mult in e.den:
                if not _is_local_form(form, pos):
                    return False
    return True


def _is_local_form(form: DegreeOneForm, pos) -> bool:
    for gamma in pos:
        scale = None
        ok = True
        for fc, gc in zip(form.xcoeffs, gamma.coords):
            if gc == 0:
                if fc != 0:
                    ok = False
                    break
                continue
            r = fc / gc
            if scale is None:
                scale = r
            elif r != scale:
                ok = False
                break
        if not ok or scale is None or scale <= 0:
            continue
        c = form.hcoeff / scale
        if c.denominator == 1 and c < gamma.height():
            return True
    return False
