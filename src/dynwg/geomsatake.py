"""Geometric transition operators on rank-1 slices and the theorem verifiers.

The geometric side enters purely through the linear torus weights at the fixed
point of a rank-1 transversal slice.  The attracting/repelling costalk maps
act by the product of those weights, so the transition operator between the
two chambers is the ratio of the two products; the main identity says this
ratio equals the dynamical reflection coefficient after the shift x -> -x - h.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .dynweyl import (
    OperatorBlock,
    rank1_coefficient,
    rho_shift_images,
    string_data,
    string_images,
    word_operator_block,
)
from .ratfun import DegreeOneForm, RatFun
from .rep import Irrep
from .rep import sl2_strings  # noqa: F401  kept bound: perfbench/test_perfbench.py patches it here
from .rootdata import Weight


class GeomSatakeError(Exception):
    pass


@dataclass
class TorusWeightMultiset:
    """Multiset of degree-one torus weights (single x variable in rank 1)."""

    nx: int
    weights: list[DegreeOneForm]

    def __post_init__(self):
        for w in self.weights:
            if w.is_zero():
                raise GeomSatakeError("zero torus weight")

    def product(self) -> RatFun:
        return RatFun.from_factors(1, self.weights, [], self.nx)


def _check_rank1_pair(lam: int, mu: int):
    if not (0 <= mu <= lam):
        raise GeomSatakeError(f"need 0 <= mu <= lambda, got lambda={lam}, mu={mu}")
    if (lam - mu) % 2:
        raise GeomSatakeError(f"parity violation: lambda={lam}, mu={mu}")


def costalk_weights(lam: int, mu: int, chamber: str) -> TorusWeightMultiset:
    """Torus weights of the slice cell in the given chamber.

    chamber "e": {-x + (j-1)h - ((lam+mu)/2)h : j = 1..(lam-mu)/2}
    chamber "s": {x - j*h : j = 1..(lam-mu)/2}
    """
    _check_rank1_pair(lam, mu)
    n = (lam - mu) // 2
    if chamber == "e":
        shift = Fraction(lam + mu, 2)
        forms = [DegreeOneForm.make([-1], (j - 1) - shift) for j in range(1, n + 1)]
    elif chamber == "s":
        forms = [DegreeOneForm.make([1], -j) for j in range(1, n + 1)]
    else:
        raise GeomSatakeError(f"unknown chamber {chamber!r}")
    return TorusWeightMultiset(nx=1, weights=forms)


def generic_transition(a: TorusWeightMultiset, b: TorusWeightMultiset) -> RatFun:
    """prod(b) / prod(a)."""
    if a.nx != b.nx:
        raise GeomSatakeError("mixed variable counts")
    return RatFun.from_factors(1, b.weights, a.weights, a.nx)


def hyperbolic_transition(lam: int, mu: int) -> RatFun:
    """The e-to-s chamber transition scalar on the rank-1 slice."""
    e_side = costalk_weights(lam, mu, "e")
    s_side = costalk_weights(lam, mu, "s")
    return generic_transition(e_side, s_side)


@dataclass
class MainTheoremReport:
    lam: int
    mu: int
    geometric: RatFun
    dynamical_shifted: RatFun
    equal: bool


def verify_main_theorem_rank1(lam: int, mu: int) -> MainTheoremReport:
    """Compare the geometric transition with the shifted dynamical coefficient.

    Both sides are computed independently; a mismatch is reported, not raised.
    """
    geometric = hyperbolic_transition(lam, mu)
    xi = DegreeOneForm.make([1], 0)
    dyn = rank1_coefficient(lam, (lam - mu) // 2, xi)
    shifted = dyn.substitute(rho_shift_images(1))
    return MainTheoremReport(
        lam=lam, mu=mu, geometric=geometric, dynamical_shifted=shifted, equal=geometric == shifted
    )


def rank1_pairs(lambda_max: int) -> list[tuple[int, int]]:
    """All valid (lambda, mu) pairs up to lambda_max, by lambda, then mu."""
    return [(lam, mu) for lam in range(lambda_max + 1) for mu in range(lam % 2, lam + 1, 2)]


@dataclass(frozen=True)
class LeviCase:
    m: int
    k: int
    geometric: RatFun
    dynamical_shifted: RatFun
    equal: bool


@lru_cache(maxsize=None)
def _string_comparison(m: int, k: int, xi: DegreeOneForm) -> LeviCase:
    """The rank-1 geometric transition at (m, m-2k), with x replaced by xi,
    against the rho-shifted dynamical coefficient c(m, k, xi).  It depends
    only on (m, k, xi), so it is computed once per process and the frozen
    LeviCase is shared between reports."""
    geo = hyperbolic_transition(m, m - 2 * k).substitute([xi])
    dyn = rank1_coefficient(m, k, xi).substitute(rho_shift_images(xi.nx))
    return LeviCase(m=m, k=k, geometric=geo, dynamical_shifted=dyn, equal=geo == dyn)


@dataclass
class LeviReport:
    algebra: str
    hw: Weight
    index: int
    mu: Weight
    cases: list[LeviCase]
    block: OperatorBlock  # A_{s_i} on V_mu, as word_operator_block(V, (i,), mu)
    block_consistent: bool
    ok: bool


def levi_restriction_check(V: Irrep, i: int, mu: Weight) -> LeviReport:
    """String-wise rank-1 comparison of the simple-reflection operator.

    mu must be dominant.  For each sl(2)-string (m, k) through V_mu, the
    rank-1 geometric transition at (m, m-2k), with x replaced by
    <x, coroot_i>, must agree with the rho-shifted dynamical coefficient; the
    block of A_{s_i} must likewise send each column f_i^(k) u of the change
    of basis to its string image c(m,k,x_i) f_i^(m-k) u.
    """
    if not mu.is_dominant():
        raise GeomSatakeError(f"source weight {mu} is not dominant")
    t = V.type
    xi = DegreeOneForm.make([1 if j == i - 1 else 0 for j in range(t.rank)], 0)
    dec, _ = string_data(V, i, mu)
    cases = [_string_comparison(comp.m, comp.k, xi) for comp in dec.components]
    # for one letter the crossing coroot is coroot_i, so the block's variable is xi
    block = word_operator_block(V, (i,), mu)
    cob = dec.change_of_basis
    block_consistent = all(
        _apply(block, [row[col] for row in cob]) == [c.scale(x) for x in image]
        for col, (c, image) in enumerate(string_images(V, dec, xi))
    )
    ok = block_consistent and all(c.equal for c in cases)
    return LeviReport(
        algebra=str(t),
        hw=V.hw,
        index=i,
        mu=mu,
        cases=cases,
        block=block,
        block_consistent=block_consistent,
        ok=ok,
    )


def _apply(block: OperatorBlock, vector) -> list[RatFun]:
    """block.matrix times a vector of Fractions."""
    out = []
    for row in block.matrix:
        acc = RatFun.zero(block.nx)
        for e, x in zip(row, vector):
            if x:
                acc = acc + e.scale(x)
        out.append(acc)
    return out
