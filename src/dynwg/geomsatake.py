"""The rank-1 identification of dynamical and equivariant parameters.

The geometric side enters purely through the linear torus weights at the fixed
point of a rank-1 transversal slice, built at an equivariant parameter xi.
The attracting/repelling costalk maps act by the product of those weights, so
the transition operator between the two chambers is the ratio of the two
products; the main identity says this ratio at xi equals the dynamical
reflection coefficient c(m, k, xi) after the shift x -> -x - h.

That identity has one implementation, _string_comparison(m, k, xi), which
builds both sides at xi and returns one RankOneComparison.  It is read at
xi = x by verify_main_theorem_rank1, and at xi = x_i for each sl(2)_i-string
through a weight by levi_restriction_check, which returns the list of them.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .dynweyl import rank1_coefficient, rho_shift_images, string_data
from .ratfun import DegreeOneForm, RatFun
from .rep import Irrep
from .rep import sl2_strings  # noqa: F401  kept bound: perfbench/test_perfbench.py patches it here
from .rootdata import Weight


class GeomSatakeError(Exception):
    pass


def _check_rank1_pair(lam: int, mu: int):
    if not (0 <= mu <= lam):
        raise GeomSatakeError(f"need 0 <= mu <= lambda, got lambda={lam}, mu={mu}")
    if (lam - mu) % 2:
        raise GeomSatakeError(f"parity violation: lambda={lam}, mu={mu}")


# the rank-1 equivariant parameter x
_X = DegreeOneForm.make([1], 0)


def costalk_weights(lam: int, mu: int, chamber: str, xi: DegreeOneForm = _X) -> list[DegreeOneForm]:
    """Torus weights of the slice cell in the given chamber, at x = xi.

    chamber "e": {-xi + (j-1)h - ((lam+mu)/2)h : j = 1..(lam-mu)/2}
    chamber "s": {xi - j*h : j = 1..(lam-mu)/2}
    A zero weight, which only a xi with no x part gives, raises.
    """
    _check_rank1_pair(lam, mu)
    n = (lam - mu) // 2
    if chamber == "e":
        first = DegreeOneForm.make([-c for c in xi.xcoeffs], -xi.hcoeff - Fraction(lam + mu, 2))
        forms = [first.shift_h(j - 1) for j in range(1, n + 1)]
    elif chamber == "s":
        forms = [xi.shift_h(-j) for j in range(1, n + 1)]
    else:
        raise GeomSatakeError(f"unknown chamber {chamber!r}")
    if any(f.is_zero() for f in forms):
        raise GeomSatakeError("zero torus weight")
    return forms


def hyperbolic_transition(lam: int, mu: int, xi: DegreeOneForm = _X) -> RatFun:
    """The e-to-s transition scalar on the rank-1 slice at x = xi: prod(s) / prod(e)."""
    return RatFun.from_factors(1, costalk_weights(lam, mu, "s", xi),
                               costalk_weights(lam, mu, "e", xi), xi.nx)


def rank1_pairs(lambda_max: int) -> list[tuple[int, int]]:
    """All valid (lambda, mu) pairs up to lambda_max, by lambda, then mu."""
    return [(lam, mu) for lam in range(lambda_max + 1) for mu in range(lam % 2, lam + 1, 2)]


@dataclass(frozen=True)
class RankOneComparison:
    """The string (m, k) at xi: the geometric transition at (m, m-2k) against
    the rho-shifted dynamical coefficient, and whether they are equal."""

    m: int
    k: int
    geometric: RatFun
    dynamical_shifted: RatFun
    equal: bool


@lru_cache(maxsize=4096)
def _string_comparison(m: int, k: int, xi: DegreeOneForm) -> RankOneComparison:
    """The rank-1 geometric transition at (m, m-2k), built at xi, against
    the rho-shifted dynamical coefficient c(m, k, xi).  Both sides are
    computed independently; a mismatch is reported, not raised.  It depends
    only on (m, k, xi), so it is kept for the last 4096 (m, k, xi) and the
    frozen RankOneComparison is shared between callers."""
    geo = hyperbolic_transition(m, m - 2 * k, xi)
    dyn = rank1_coefficient(m, k, xi).substitute(rho_shift_images(xi.nx))
    return RankOneComparison(m=m, k=k, geometric=geo, dynamical_shifted=dyn, equal=geo == dyn)


def verify_main_theorem_rank1(lam: int, mu: int) -> RankOneComparison:
    """The string comparison at (lam, (lam - mu)/2, x)."""
    _check_rank1_pair(lam, mu)
    return _string_comparison(lam, (lam - mu) // 2, _X)


def levi_restriction_check(V: Irrep, i: int, mu: Weight) -> list[RankOneComparison]:
    """String-wise rank-1 comparison of the simple-reflection operator.

    mu must be dominant.  For each sl(2)-string (m, k) through V_mu, the
    rank-1 geometric transition at (m, m-2k), built at x_i = <x, coroot_i>,
    compared with the rho-shifted dynamical coefficient; all must be equal.
    """
    if not mu.is_dominant():
        raise GeomSatakeError(f"source weight {mu} is not dominant")
    xi = DegreeOneForm.make([1 if j == i - 1 else 0 for j in range(V.type.rank)], 0)
    return [_string_comparison(comp.m, comp.k, xi) for comp in string_data(V, i, mu)]
