"""Exact rational-function arithmetic in x1..xr and h over the rationals.

A RatFun keeps its numerator as a sparse polynomial and its denominator as a
multiset of degree-one forms.  Every denominator that the engine produces is a
product of such forms, so cancellation never needs a multivariate gcd: it is
trial division of the numerator by each candidate linear factor.

A Polynomial is stored as one positive rational content times a primitive
integer polynomial, whose exponent vectors are packed into single ints, so
that products, sums and trial divisions run on ints rather than Fractions
(packed monomials as in Monagan & Pearce, "Sparse polynomial division using
a heap", J. Symbolic Comput. 2011).  Formatting and evaluation run on those
integer coefficients too: text is rendered from the content's numerator and
denominator times each integer coefficient, and a denominator form is
evaluated from its integer coefficients.  A substitution x_i -> images[i],
h -> h is one memoized object per images tuple: a polynomial is substituted
in one pass over its terms, reading each x-monomial's image from a table.

Variables: x1..xr are coordinates on the Cartan subalgebra (pairings with
simple coroots), h is the loop-rotation equivariant parameter.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from math import gcd, lcm
from operator import mul

from . import linalg


class RatFunError(Exception):
    """Base class for rational-function errors."""


class PoleError(RatFunError):
    """Evaluation point lies on a pole."""


class PoleCollapseError(RatFunError):
    """A substitution annihilated a denominator factor."""


class NotInvertibleError(RatFunError):
    """Numerator is not a constant times a product of degree-one forms."""


def _frac(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


_ZERO = Fraction(0)
_ONE = Fraction(1)


# ---------------------------------------------------------------------------
# packed exponent vectors
#
# The exponent vector (e_1, ..., e_r, e_h) of total degree d is the int
#     d << W(r+1) | e_1 << W r | ... | e_r << W | e_h
# with W bits per field.  Every e_i is at most d, so while d < 2^W no field
# carries into the next: adding two keys multiplies the monomials, and adding
# a unit key multiplies by one variable.  The degree field is the most
# significant one, so the largest key has the largest total degree.

_W = 16
_MASK = (1 << _W) - 1
MAX_DEGREE = _MASK  # the largest total degree a packed key holds


def _unit_key(nx: int, i: int) -> int:
    """Key of the variable with index i (i == nx is h)."""
    return (1 << _W * (nx + 1)) | (1 << _W * (nx - i))


def _pack(e) -> int:
    deg = sum(e)
    if deg > _MASK or min(e) < 0:
        raise RatFunError(f"exponent vector {tuple(e)} out of range")
    key = deg
    for k in e:
        key = (key << _W) | k
    return key


def _unpack(key: int, nx: int) -> tuple[int, ...]:
    out = [0] * (nx + 1)
    for i in range(nx, -1, -1):
        out[i] = key & _MASK
        key >>= _W
    return tuple(out)


# ---------------------------------------------------------------------------
# degree-one forms


@dataclass(frozen=True)
class DegreeOneForm:
    """A linear form a1*x1 + ... + ar*xr + b*h (no constant term).

    Forms are immutable; their hash, canonical form, polynomial, division
    data and restriction to h = 0 are computed once and kept on the instance."""

    xcoeffs: tuple[Fraction, ...]
    hcoeff: Fraction

    @staticmethod
    def make(xcoeffs, hcoeff=0) -> "DegreeOneForm":
        return DegreeOneForm(tuple(_frac(c) for c in xcoeffs), _frac(hcoeff))

    def __hash__(self) -> int:
        return self._hash

    @cached_property
    def _hash(self) -> int:
        return hash((self.xcoeffs, self.hcoeff))

    @property
    def nx(self) -> int:
        return len(self.xcoeffs)

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        return self.xcoeffs + (self.hcoeff,)

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def shift_h(self, c) -> "DegreeOneForm":
        return DegreeOneForm(self.xcoeffs, self.hcoeff + _frac(c))

    @cached_property
    def _scaled(self) -> tuple[int, tuple[int, ...]]:
        """(d, ints) with coeffs[i] == ints[i] / d, d the lcm of their denominators."""
        d = lcm(*(c.denominator for c in self.coeffs))
        return d, tuple(c.numerator * (d // c.denominator) for c in self.coeffs)

    def substitute(self, images: "list[DegreeOneForm]") -> "DegreeOneForm":
        """Apply x_i -> images[i]; h maps to itself.  The result is kept in
        the images' substitution memo (`_Substitution`), so a repeated
        substitution returns the same instance, with its cached data."""
        return _substitutions(tuple(images), self.nx).form(self)

    def canonical(self) -> "tuple[Fraction, DegreeOneForm]":
        """Return (s, f) with self == s*f, f primitive-integer with positive
        leading coefficient."""
        found = self._canonical
        return (_ONE, self) if found is None else found

    @cached_property
    def _canonical(self) -> "tuple[Fraction, DegreeOneForm] | None":
        """canonical(), or None when self is canonical (a cached (1, self)
        would be a reference cycle, which only the cyclic collector frees)."""
        den_lcm, ints = self._scaled
        if not any(ints):
            raise ValueError("zero form has no canonical representative")
        num_gcd = gcd(*ints)
        if next(c for c in ints if c) < 0:
            num_gcd = -num_gcd
        if num_gcd == den_lcm:
            return None
        canon = DegreeOneForm(tuple(Fraction(c // num_gcd) for c in ints[:-1]),
                              Fraction(ints[-1] // num_gcd))
        canon.__dict__["_canonical"] = None
        return Fraction(num_gcd, den_lcm), canon

    @cached_property
    def _division(self) -> tuple[Fraction, int, int, int, tuple[tuple[int, int], ...]]:
        """(s, pivot key, pivot shift, pivot coefficient, other (key, coefficient)
        pairs) of the canonical form f with self == s*f; all coefficients are
        ints and the pivot is the first nonzero one."""
        if self.is_zero():
            raise ValueError("division by zero form")
        s, canon = self.canonical()
        nx = self.nx
        entries = [(i, c) for i, c in enumerate(canon._scaled[1]) if c]
        pivot, cp = entries[0]
        others = tuple((_unit_key(nx, i), c) for i, c in entries[1:])
        return s, _unit_key(nx, pivot), _W * (nx - pivot), cp, others

    def at_h0(self) -> "DegreeOneForm":
        """The form with h set to 0."""
        return self._at_h0

    @cached_property
    def _at_h0(self) -> "DegreeOneForm":
        return DegreeOneForm(self.xcoeffs, _ZERO)

    def to_polynomial(self) -> "Polynomial":
        return self._polynomial

    @cached_property
    def _polynomial(self) -> "Polynomial":
        nx = self.nx
        if self.is_zero():
            return _poly(nx, {}, _ZERO)
        s, canon = self.canonical()
        sign = 1 if s > 0 else -1
        return _poly(nx, {_unit_key(nx, i): sign * c.numerator
                          for i, c in enumerate(canon.coeffs) if c}, abs(s))

    def to_json(self):
        return {"x": [str(c) for c in self.xcoeffs], "h": str(self.hcoeff)}

    def __str__(self) -> str:
        return _format_poly(self.to_polynomial())


# ---------------------------------------------------------------------------
# sparse polynomials


def _poly(nx: int, coeffs: dict[int, int], content: Fraction) -> "Polynomial":
    p = object.__new__(Polynomial)
    p.nx = nx
    p.coeffs = coeffs
    p.content = content
    return p


def _normalized(nx: int, coeffs: dict[int, int], num: int, den: int) -> "Polynomial":
    """The polynomial (num/den) * coeffs, for nonzero integer coeffs and
    num, den > 0; the gcd of coeffs moves into the content."""
    if not coeffs:
        return _poly(nx, {}, _ZERO)
    g = gcd(*coeffs.values())
    if g != 1:
        coeffs = {e: c // g for e, c in coeffs.items()}
    return _poly(nx, coeffs, Fraction(num * g, den))


def _mul_coeffs(a: dict[int, int], b: dict[int, int]) -> dict[int, int]:
    """Product of two packed integer polynomials (no degree check)."""
    if len(a) < len(b):
        a, b = b, a
    if len(b) == 1:
        (e2, c2), = b.items()
        return {e1 + e2: c1 * c2 for e1, c1 in a.items()}
    terms: dict[int, int] = {}
    get = terms.get
    for e2, c2 in b.items():
        for e1, c1 in a.items():
            e = e1 + e2
            terms[e] = get(e, 0) + c1 * c2
    if 0 in terms.values():
        terms = {e: c for e, c in terms.items() if c}
    return terms


class Polynomial:
    """Sparse polynomial in x1..xr, h with rational coefficients.

    It is `content * sum(c * monomial(e) for e, c in coeffs.items())`: the
    content is a positive Fraction (0 for the zero polynomial), the integer
    coefficients have gcd 1, and each exponent vector is a packed int (see
    `_pack`).  This form is unique, so equality compares it directly.
    `terms` gives the exponent-tuple view, whose last slot is the h power.
    """

    __slots__ = ("nx", "coeffs", "content")

    def __init__(self, nx: int, terms: dict[tuple[int, ...], Fraction]):
        fr = {}
        for e, c in terms.items():
            if len(e) != nx + 1:
                raise ValueError("exponent vector has wrong length")
            c = _frac(c)
            if c:
                fr[_pack(e)] = c
        den = lcm(*(c.denominator for c in fr.values()))
        p = _normalized(nx, {e: c.numerator * (den // c.denominator) for e, c in fr.items()},
                        1, den)
        self.nx, self.coeffs, self.content = nx, p.coeffs, p.content

    @property
    def terms(self) -> dict[tuple[int, ...], Fraction]:
        """Exponent tuple -> rational coefficient (built on each access)."""
        content, nx = self.content, self.nx
        return {_unpack(e, nx): content * c for e, c in self.coeffs.items()}

    # -- constructors

    @staticmethod
    def zero(nx: int) -> "Polynomial":
        return _poly(nx, {}, _ZERO)

    @staticmethod
    def from_ints(nx: int, coeffs: dict[int, int], den: int) -> "Polynomial":
        """sum(c * monomial(e) for e, c in coeffs.items()) / den, for packed
        keys e, nonzero int coefficients c and an int den > 0."""
        return _normalized(nx, coeffs, 1, den)

    @staticmethod
    def const(c, nx: int) -> "Polynomial":
        c = _frac(c)
        if not c:
            return _poly(nx, {}, _ZERO)
        return _poly(nx, {0: 1 if c > 0 else -1}, abs(c))

    # -- predicates

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_constant(self) -> bool:
        return not any(self.coeffs)

    def constant_value(self) -> Fraction:
        return self.content * self.coeffs.get(0, 0)

    def total_degree(self) -> int:
        return max(self.coeffs, default=0) >> _W * (self.nx + 1)

    def at_h0(self) -> "Polynomial":
        """The terms with no h, i.e. the polynomial at h = 0."""
        content = self.content
        return _normalized(self.nx, {e: c for e, c in self.coeffs.items() if not e & _MASK},
                           content.numerator, content.denominator)

    def is_homogeneous(self) -> bool:
        shift = _W * (self.nx + 1)
        return len({e >> shift for e in self.coeffs}) <= 1

    # -- arithmetic

    def _check(self, other: "Polynomial"):
        if self.nx != other.nx:
            raise ValueError("mixed variable counts")

    def __add__(self, other: "Polynomial") -> "Polynomial":
        self._check(other)
        a, b = self.coeffs, other.coeffs
        if not b:
            return self
        if not a:
            return other
        ca, cb = self.content, other.content
        if ca == cb:
            ka = kb = 1
            num, den = ca.numerator, ca.denominator
        else:
            # ca*A + cb*B == (num/den) * (ka*A + kb*B)
            da, db = ca.denominator, cb.denominator
            den = da // gcd(da, db) * db
            ka, kb = ca.numerator * (den // da), cb.numerator * (den // db)
            num = gcd(ka, kb)
            ka, kb = ka // num, kb // num
        terms = dict(a) if ka == 1 else {e: ka * c for e, c in a.items()}
        get = terms.get
        for e, c in b.items():
            s = get(e, 0) + kb * c
            if s:
                terms[e] = s
            else:
                del terms[e]
        return _normalized(self.nx, terms, num, den)

    def __neg__(self) -> "Polynomial":
        return _poly(self.nx, {e: -c for e, c in self.coeffs.items()}, self.content)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        self._check(other)
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return _poly(self.nx, {}, _ZERO)
        shift = _W * (self.nx + 1)
        if (max(a) >> shift) + (max(b) >> shift) > _MASK:
            raise RatFunError(f"product degree exceeds {_MASK}")
        # Gauss's lemma: a product of primitive polynomials is primitive.
        return _poly(self.nx, _mul_coeffs(a, b), self.content * other.content)

    def scale(self, c) -> "Polynomial":
        c = _frac(c)
        if not c or not self.coeffs:
            return _poly(self.nx, {}, _ZERO)
        if c > 0:
            return _poly(self.nx, self.coeffs, self.content * c)
        return _poly(self.nx, {e: -v for e, v in self.coeffs.items()}, self.content * -c)

    def __pow__(self, n: int) -> "Polynomial":
        if n < 0:
            raise ValueError("negative power")
        if n == 1:
            return self  # polynomials are never changed in place
        out = Polynomial.const(1, self.nx)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base if n > 1 else base
            n >>= 1
        return out

    def __eq__(self, other) -> bool:
        return (isinstance(other, Polynomial) and self.nx == other.nx
                and self.coeffs == other.coeffs and self.content == other.content)

    __hash__ = None  # mutable dict inside

    # -- evaluation / substitution

    def _value(self, pt: list[Fraction]) -> tuple[int, int]:
        """(num, den) ints with value num/den, den > 0, at a point of Fractions."""
        if not self.coeffs:
            return 0, 1
        exps = [(_unpack(e, self.nx), c) for e, c in self.coeffs.items()]
        # clear the denominators of the point: multiply by prod(d_i^top_i)
        tops = [max(e[i] for e, _ in exps) for i in range(self.nx + 1)]
        num_pows = [[p.numerator ** k for k in range(top + 1)] for p, top in zip(pt, tops)]
        den_pows = [[p.denominator ** k for k in range(top + 1)] for p, top in zip(pt, tops)]
        total = 0
        for e, c in exps:
            for i, k in enumerate(e):
                c *= num_pows[i][k] * den_pows[i][tops[i] - k]
            total += c
        den = self.content.denominator
        for i, top in enumerate(tops):
            den *= den_pows[i][top]
        return self.content.numerator * total, den

    def substitute(self, images: list[DegreeOneForm]) -> "Polynomial":
        """Ring homomorphism x_i -> images[i], h -> h: one pass over the
        terms, with each x-monomial's image read from the images'
        substitution memo (`_Substitution`)."""
        return _substitutions(tuple(images), self.nx).polynomial(self)

    def divide_by_form(self, form: DegreeOneForm) -> "Polynomial | None":
        """Exact quotient self/form, or None if form does not divide self.

        The division runs on the integer part and the canonical (primitive
        integer) form.  By Gauss's lemma an exact quotient of a primitive
        integer polynomial by a primitive form is a primitive integer
        polynomial, so the first quotient coefficient that is not an integer
        proves that the form does not divide."""
        if form.nx != self.nx:
            raise ValueError("mixed variable counts")
        s, pivot_key, pivot_shift, cp, others = form._division
        if not self.coeffs:
            return _poly(self.nx, {}, _ZERO)
        rem = dict(self.coeffs)
        # terms by the exponent of the pivot variable, eliminated from the top
        levels: dict[int, list[int]] = {}
        for e in rem:
            levels.setdefault((e >> pivot_shift) & _MASK, []).append(e)
        quo: dict[int, int] = {}
        for d in range(max(levels), 0, -1):
            bucket = levels.get(d)
            if not bucket:
                continue
            below = levels.setdefault(d - 1, [])
            for e in bucket:
                c = rem.pop(e, 0)
                if not c:
                    continue
                q, r = divmod(c, cp)
                if r:
                    return None
                qe = e - pivot_key
                quo[qe] = q
                for u, fc in others:
                    m = qe + u
                    old = rem.get(m)
                    if old is None:
                        rem[m] = -q * fc
                        below.append(m)
                    else:
                        v = old - q * fc
                        if v:
                            rem[m] = v
                        else:
                            del rem[m]
        if rem:
            return None
        if s == 1:
            return _poly(self.nx, quo, self.content)
        if s < 0:
            quo = {e: -c for e, c in quo.items()}
        return _poly(self.nx, quo, self.content / abs(s))

    def to_json(self):
        names = _var_names(self.nx)
        return [
            {"coeff": f"-{coeff}" if neg else coeff,
             "powers": {names[i]: k for i, k in enumerate(e) if k}}
            for neg, coeff, e in _text_terms(self)
        ]

    def __str__(self) -> str:
        return _format_poly(self)


# ---------------------------------------------------------------------------
# substitutions

_MEMO_SIZE = 4096  # entries a _Substitution's monomial table or form map holds


class _Substitution:
    """The homomorphism x_i -> images[i], h -> h for one tuple of degree-one
    images in one variable count: each image as an integer row and dict over
    the common denominator den; whether it is an automorphism (the rows'
    x-coefficients form a square matrix of full rank, by `linalg.rank`); and
    two tables filled on demand and cleared once they hold _MEMO_SIZE
    entries: the image of each x-monomial (by packed key, an integer dict
    over den^degree) and each substituted form."""

    def __init__(self, images: tuple[DegreeOneForm, ...], nx_in: int):
        if len(images) != nx_in:
            raise ValueError("need one image per x variable")
        nx = self.nx = images[0].nx if images else 0
        if any(img.nx != nx for img in images):
            raise ValueError("images have mixed variable counts")
        den = self.den = lcm(*(img._scaled[0] for img in images))
        self.rows = [[c * (den // d) for c in ints] for d, ints in (img._scaled for img in images)]
        self.ints = [{_unit_key(nx, j): c for j, c in enumerate(row) if c} for row in self.rows]
        self.monomials: dict[int, dict[int, int]] = {}
        self.forms: dict[DegreeOneForm, DegreeOneForm] = {}
        self.automorphism = nx == nx_in and linalg.rank([row[:-1] for row in self.rows], nx) == nx

    def form(self, f: DegreeOneForm) -> DegreeOneForm:
        found = self.forms.get(f)
        if found is None:
            d, own = f._scaled
            out = [sum(c * row[j] for c, row in zip(own, self.rows)) for j in range(self.nx + 1)]
            out[-1] += own[-1] * self.den
            d *= self.den
            found = DegreeOneForm(tuple(Fraction(c, d) for c in out[:-1]), Fraction(out[-1], d))
            if len(self.forms) >= _MEMO_SIZE:
                self.forms.clear()
            self.forms[f] = found
        return found

    def monomial(self, key: int) -> dict[int, int]:
        """The image of the x-monomial with this packed key: the image of the
        monomial one variable lower times that variable's image."""
        table = self.monomials
        found = table.get(key)
        if found is None:
            nx_in, chain = len(self.ints), []
            while key and key not in table:
                i = next(i for i in range(nx_in) if key >> _W * (nx_in - i) & _MASK)
                chain.append((key, i))
                key -= _unit_key(nx_in, i)
            found = table[key] if key else {0: 1}
            for key, i in reversed(chain):
                found = _mul_coeffs(found, self.ints[i])
                if len(table) >= _MEMO_SIZE:
                    table.clear()
                table[key] = found
        return found

    def polynomial(self, p: Polynomial) -> Polynomial:
        shift = _W * (p.nx + 1)
        h_in, h_out = _unit_key(p.nx, p.nx), _unit_key(self.nx, self.nx)
        # each term over den^top, top the largest x-degree
        top = max(((e >> shift) - (e & _MASK) for e in p.coeffs), default=0) if self.den != 1 else 0
        pows = [self.den**k for k in range(top, -1, -1)]
        out: dict[int, int] = {}
        get = out.get
        for e, c in p.coeffs.items():
            k = e & _MASK
            x = e - k * h_in
            if top:
                c *= pows[x >> shift]
            k *= h_out
            for m, v in self.monomial(x).items():
                m += k
                s = get(m, 0) + c * v
                if s:
                    out[m] = s
                else:
                    del out[m]
        return _normalized(self.nx, out, p.content.numerator, p.content.denominator * pows[0])


# the last 16 (images tuple, number of x variables)
_substitutions = lru_cache(maxsize=16)(_Substitution)


# ---------------------------------------------------------------------------
# linear-factor extraction (for reciprocals)


def _int_divisors(n: int) -> list[int]:
    n = abs(n)
    out = set()
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.add(d)
            out.add(n // d)
        d += 1
    return sorted(out)


def _rational_roots(coeffs: list[Fraction]) -> set[Fraction]:
    """All rational roots of sum(coeffs[k] * v^k)."""
    den = lcm(*(c.denominator for c in coeffs if c))
    ic = [int(c * den) for c in coeffs]
    roots: set[Fraction] = set()
    while ic and ic[0] == 0:
        roots.add(Fraction(0))
        ic = ic[1:]
    if len(ic) <= 1:
        return roots
    lead = ic[-1]
    const = ic[0]
    n = len(ic) - 1
    for p in _int_divisors(const):
        for q in _int_divisors(lead):
            if gcd(p, q) != 1:
                continue
            for sp in (p, -p):
                # ic(sp/q) * q^n, in integers
                if sum(c * sp**k * q ** (n - k) for k, c in enumerate(ic)) == 0:
                    roots.add(Fraction(sp, q))
    return roots


_CANDIDATE_CAP = 4096


def _find_linear_factor(p: Polynomial) -> tuple[DegreeOneForm, Polynomial]:
    """(f, p / f) for one linear factor f of a homogeneous p (degree >= 1),
    else raise."""
    nx = p.nx
    nvars = nx + 1
    terms = p.terms
    degree = p.total_degree()
    if degree == 1:
        coeffs = [Fraction(0)] * nvars
        for e, c in terms.items():
            coeffs[e.index(1)] = c
        return DegreeOneForm(tuple(coeffs[:nx]), coeffs[nx]), Polynomial.const(1, nx)
    present = sorted({i for e in terms for i, k in enumerate(e) if k})
    v = present[0]
    k = max(e[v] for e in terms)
    lead = {e[:v] + (0,) + e[v + 1:]: c for e, c in terms.items() if e[v] == k}
    lead_poly = Polynomial(nx, lead)
    if not lead_poly.is_constant():
        # factors not involving the pivot variable live in the leading coefficient
        f, _ = _find_linear_factor(lead_poly)
        q = p.divide_by_form(f)
        if q is None:
            raise NotInvertibleError("numerator is not a product of degree-one forms")
        return f, q
    # every factor involves the pivot; harvest slope candidates per variable
    slope_sets: list[list[Fraction]] = []
    others = [j for j in range(nvars) if j != v]
    for j in others:
        restricted = [Fraction(0)] * (k + 1)
        ok = True
        for e, c in terms.items():
            if any(e[t] for t in range(nvars) if t not in (v, j)):
                continue
            restricted[e[v]] += c if e[j] + e[v] == degree else 0
        # roots of the bivariate restriction in v (y_j set to 1)
        if not restricted[k]:
            ok = False
        slopes = sorted(-r for r in _rational_roots(restricted)) if ok else []
        if not slopes:
            slopes = [Fraction(0)]
        slope_sets.append(slopes)
    count = 1
    for s in slope_sets:
        count *= len(s)
        if count > _CANDIDATE_CAP:
            raise NotInvertibleError("too many linear-factor candidates")
    from itertools import product

    for combo in product(*slope_sets):
        coeffs = [Fraction(0)] * nvars
        coeffs[v] = Fraction(1)
        for j, s in zip(others, combo):
            coeffs[j] = s
        f = DegreeOneForm(tuple(coeffs[:nx]), coeffs[nx])
        q = p.divide_by_form(f)
        if q is not None:
            return f, q
    raise NotInvertibleError("numerator is not a product of degree-one forms")


def factor_into_forms(p: Polynomial) -> tuple[Fraction, list[DegreeOneForm]]:
    """Write p = const * product(forms) with canonical forms, or raise."""
    if p.is_zero():
        raise NotInvertibleError("zero has no reciprocal")
    if not p.is_homogeneous():
        raise NotInvertibleError("numerator is not a product of degree-one forms")
    forms: list[DegreeOneForm] = []
    const, cur = _ONE, p
    while cur.total_degree() > 0:
        f, cur = _find_linear_factor(cur)
        s, canon = f.canonical()
        forms.append(canon)
        const *= s
    return const * cur.constant_value(), forms


# ---------------------------------------------------------------------------
# rational functions


def _divide_out(num: Polynomial, form: DegreeOneForm, mult: int) -> tuple[Polynomial, int]:
    """(q, k) with num == q * form^k, k <= mult as large as possible."""
    k = 0
    while k < mult:
        q = num.divide_by_form(form)
        if q is None:
            break
        num = q
        k += 1
    return num, k


def _sorted_den(den: dict[DegreeOneForm, int]) -> tuple[tuple[DegreeOneForm, int], ...]:
    """Forms in increasing lexicographic order of their coefficient tuples
    (x1..xr, then h).  Canonical forms have integral coefficients, so their
    _scaled ints, which are faster to compare, give that order."""
    if len(den) <= 1:
        return tuple(den.items())
    return tuple(sorted(den.items(), key=lambda fm: fm[0]._scaled[1]))


@dataclass(frozen=True, eq=False)
class RatFun:
    """num / prod(form^mult); den forms are canonical, sorted, and coprime to num.

    A canonical degree-one form is prime in Q[x1..xr, h], so it divides a
    product only if it divides one of the factors.  `__add__` and `__mul__`
    use this to trial-divide only by the forms that can cancel; every other
    constructor trial-divides by every denominator form (`_make`)."""

    num: Polynomial
    den: tuple[tuple[DegreeOneForm, int], ...]

    # -- constructors

    @staticmethod
    def _make(num: Polynomial, den: dict[DegreeOneForm, int], candidates=None) -> "RatFun":
        """num / prod(form^mult) in lowest terms.  Each form in candidates
        (default: every form of den) is divided out of num as often as it
        divides, up to its multiplicity; the caller vouches that no other
        form of den divides num."""
        if num.is_zero():
            return RatFun(num, ())
        den = dict(den)
        for form in list(den) if candidates is None else candidates:
            num, k = _divide_out(num, form, den[form])
            if k == den[form]:
                del den[form]
            else:
                den[form] -= k
        return RatFun(num, _sorted_den(den))

    @staticmethod
    def from_factors(const, num_forms, den_forms, nx: int) -> "RatFun":
        """const * prod(num_forms) / prod(den_forms)."""
        num = Polynomial.const(const, nx)
        for f in num_forms:
            if f.is_zero():
                raise ValueError("zero form in numerator factors")
            num = num * f.to_polynomial()
        if any(f.is_zero() for f in den_forms):
            raise ValueError("zero form in denominator factors")
        return RatFun._over_forms(num, [(f, 1) for f in den_forms])

    @staticmethod
    def _over_forms(num: Polynomial, pairs, candidates=None) -> "RatFun":
        """num / prod(f^m for (f, m) in pairs), for nonzero forms f in any
        scaling, reduced by trial division as in `_make`.  num is divided by
        the product of the forms' canonical scales once."""
        den: dict[DegreeOneForm, int] = {}
        scale = _ONE
        for f, m in pairs:
            s, canon = f.canonical()
            scale *= s**m
            den[canon] = den.get(canon, 0) + m
        return RatFun._make(num if scale == 1 else num.scale(1 / scale), den, candidates)

    @staticmethod
    def zero(nx: int) -> "RatFun":
        return RatFun(Polynomial.zero(nx), ())

    @staticmethod
    def const(c, nx: int) -> "RatFun":
        return RatFun(Polynomial.const(c, nx), ())

    @staticmethod
    def one(nx: int) -> "RatFun":
        return RatFun.const(1, nx)

    # -- basics

    @property
    def nx(self) -> int:
        return self.num.nx

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def _den_dict(self) -> dict[DegreeOneForm, int]:
        return dict(self.den)

    def _check(self, other: "RatFun"):
        if self.nx != other.nx:
            raise ValueError("mixed variable counts")

    # -- field operations

    def __add__(self, other: "RatFun") -> "RatFun":
        """Sum over the lcm of the denominators.

        Let f have multiplicity ma in self's denominator and mb in other's.
        If ma > mb, the new numerator is self.num + other.num * f^(ma-mb)
        (times forms other than f); f does not divide self.num, and f is
        prime, so f does not divide the sum.  The same holds for ma < mb.
        Only a form with ma == mb can cancel, so only those are tried."""
        self._check(other)
        if self.num.is_zero():
            return other
        if other.num.is_zero():
            return self
        da, db = self._den_dict(), other._den_dict()
        num_a, num_b = self.num, other.num
        den, shared = {}, []
        for f in da.keys() | db.keys():
            ma, mb = da.get(f, 0), db.get(f, 0)
            den[f] = max(ma, mb)
            if ma < mb:
                num_a = num_a * f.to_polynomial() ** (mb - ma)
            elif mb < ma:
                num_b = num_b * f.to_polynomial() ** (ma - mb)
            else:
                shared.append(f)
        return RatFun._make(num_a + num_b, den, shared)

    def __neg__(self) -> "RatFun":
        return RatFun(-self.num, self.den)

    def __sub__(self, other: "RatFun") -> "RatFun":
        return self + (-other)

    def __mul__(self, other: "RatFun") -> "RatFun":
        """Product with the denominators' multiplicities added.

        A form in both denominators divides neither numerator, and so, being
        prime, not their product.  A form in only one denominator does not
        divide that operand's numerator, so it can cancel only against the
        other operand's numerator, which is trial-divided before the product
        is formed."""
        self._check(other)
        num_a, num_b = self.num, other.num
        if num_a.is_zero() or num_b.is_zero():
            return RatFun.zero(self.nx)
        da, db = self._den_dict(), other._den_dict()
        den: dict[DegreeOneForm, int] = {}
        for f, ma in da.items():
            mb = db.get(f)
            if mb is not None:
                den[f] = ma + mb
                continue
            num_b, k = _divide_out(num_b, f, ma)
            if ma > k:
                den[f] = ma - k
        for f, mb in db.items():
            if f not in da:
                num_a, k = _divide_out(num_a, f, mb)
                if mb > k:
                    den[f] = mb - k
        return RatFun(num_a * num_b, _sorted_den(den))

    def scale(self, c) -> "RatFun":
        c = _frac(c)
        if not c:
            return RatFun.zero(self.nx)
        return RatFun(self.num.scale(c), self.den)

    def inv(self) -> "RatFun":
        """Reciprocal; defined only when num = const * product of forms."""
        const, forms = factor_into_forms(self.num)
        num = Polynomial.const(1 / const, self.nx)
        for f, m in self.den:
            for _ in range(m):
                num = num * f.to_polynomial()
        return RatFun._make(num, {f: forms.count(f) for f in set(forms)})

    def __truediv__(self, other: "RatFun") -> "RatFun":
        return self * other.inv()

    def __pow__(self, n: int) -> "RatFun":
        if n < 0:
            return self.inv() ** (-n)
        out = RatFun.one(self.nx)
        for _ in range(n):
            out = out * self
        return out

    # -- equality

    def __eq__(self, other) -> bool:
        if not isinstance(other, RatFun):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    __hash__ = None

    # -- evaluation / substitution

    def evaluate(self, point) -> Fraction:
        if len(point) != self.nx + 1:
            raise ValueError("point has wrong length")
        pt = [_frac(p) for p in point]
        num, den = self.num._value(pt)
        q = lcm(*(p.denominator for p in pt))  # the point is ints / q
        ints = [p.numerator * (q // p.denominator) for p in pt]
        for f, m in self.den:
            d, coeffs = f._scaled
            fn = sum(map(mul, coeffs, ints))  # f(point) == fn / (d * q)
            if not fn:
                raise PoleError(f"denominator factor {f} vanishes at {point}")
            num *= (d * q) ** m
            den *= fn**m
        return Fraction(num, den)

    def substitute(self, images: list[DegreeOneForm]) -> "RatFun":
        """Apply x_i -> images[i] (degree-one images); h maps to itself.

        An invertible substitution is a ring automorphism, which keeps num
        coprime to every denominator form: then no trial division is needed.
        The numerator and the forms go through one memoized `_Substitution`."""
        sub = _substitutions(tuple(images), self.nx)
        pairs = []
        for f, m in self.den:
            g = sub.form(f)
            if g.is_zero():
                raise PoleCollapseError(f"substitution annihilates denominator factor {f}")
            pairs.append((g, m))
        return RatFun._over_forms(sub.polynomial(self.num), pairs,
                                  () if sub.automorphism else None)

    # -- io

    def to_json(self):
        return {
            "num": self.num.to_json(),
            "den": [{"form": f.to_json(), "mult": m} for f, m in self.den],
        }

    def format(self) -> str:
        return format_ratfun(self)

    def __str__(self) -> str:
        return self.format()

    def __repr__(self) -> str:
        return f"RatFun({self.format()!r})"


EVAL_TRIALS = 3  # sample points per comparison
EVAL_BOUND = 10**6  # bound on the numerators of their coordinates


def eq_by_evaluation(a: RatFun, b: RatFun, rng) -> bool:
    """Probabilistic equality: compare values at random non-pole rational points."""
    a._check(b)
    done = 0
    attempts = 0
    while done < EVAL_TRIALS:
        attempts += 1
        if attempts > 100 * EVAL_TRIALS:
            raise RatFunError("could not find enough non-pole sample points")
        point = [Fraction(rng.randint(-EVAL_BOUND, EVAL_BOUND), rng.randint(1, 997))
                 for _ in range(a.nx + 1)]
        try:
            va, vb = a.evaluate(point), b.evaluate(point)
        except PoleError:
            continue
        if va != vb:
            return False
        done += 1
    return True


# ---------------------------------------------------------------------------
# text format


@lru_cache(maxsize=None)
def _var_names(nx: int) -> tuple[str, ...]:
    return tuple(f"x{i + 1}" for i in range(nx)) + ("h",)


def _text_terms(p: Polynomial):
    """(negative, |coefficient| as text, exponent vector) for each term of p,
    by decreasing exponent vector: the fields of a packed key below its degree
    field compare as the vectors do."""
    num, den = p.content.numerator, p.content.denominator
    for e in sorted(p.coeffs, key=((1 << _W * (p.nx + 1)) - 1).__and__, reverse=True):
        c = p.coeffs[e]
        g = gcd(c, den)  # num and den are coprime
        n, d = num * abs(c) // g, den // g
        yield c < 0, f"{n}/{d}" if d > 1 else str(n), _unpack(e, p.nx)


def _format_poly(p: Polynomial) -> str:
    if p.is_zero():
        return "0"
    names = _var_names(p.nx)
    parts = []
    for neg, coeff, e in _text_terms(p):
        vars_part = "*".join(f"{names[i]}^{k}" if k > 1 else names[i] for i, k in enumerate(e) if k)
        mono = f"{coeff}*{vars_part}" if vars_part and coeff != "1" else vars_part or coeff
        parts.append(("-" if neg else "+" if parts else "") + mono)
    return "".join(parts)


def format_ratfun(a: RatFun) -> str:
    """Render as text: rationals, x1..xr, h, + - * / ^ and parentheses.
    The test helper tests/ratfun_text.py reads it back to a."""
    num = _format_poly(a.num)
    if not a.den:
        return num
    factors = []
    for f, m in a.den:
        fs = f"({_format_poly(f.to_polynomial())})"
        factors.append(f"{fs}^{m}" if m > 1 else fs)
    return f"({num})/({'*'.join(factors)})"
