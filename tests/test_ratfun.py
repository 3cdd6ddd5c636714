import itertools
import random
from fractions import Fraction

import pytest

from dynwg import ratfun
from dynwg.ratfun import (
    DegreeOneForm,
    NotInvertibleError,
    PoleCollapseError,
    PoleError,
    Polynomial,
    RatFun,
    RatFunError,
    eq_by_evaluation,
    factor_into_forms,
)
from ratfun_text import parse_ratfun

F = Fraction
NOT_FORMS = "numerator is not a product of degree-one forms"


def rf(text, nx=2):
    return parse_ratfun(text, nx)


def substitute_form(f, images):
    """f with x_i -> images[i], read from the images' substitution memo."""
    return ratfun._substitutions(tuple(images), f.nx).form(f)


# ---------------------------------------------------------------------------
# forms and polynomials


def test_form_canonical():
    s, c = DegreeOneForm.make([F(-2), F(4)], F(-6)).canonical()
    assert s == F(-2)
    assert c == DegreeOneForm.make([1, -2], 3)
    s, c = DegreeOneForm.make([F(1, 2)], 0).canonical()
    assert s == F(1, 2) and c == DegreeOneForm.make([1], 0)


def test_polynomial_divide_by_form():
    # (x1 + h)(x1 - 2h) divided by (x1 + h)
    f = DegreeOneForm.make([1, 0], 1)
    g = DegreeOneForm.make([1, 0], -2)
    p = f.to_polynomial() * g.to_polynomial()
    assert p.divide_by_form(f) == g.to_polynomial()
    assert p.divide_by_form(DegreeOneForm.make([0, 1], 0)) is None


def test_polynomial_degree_limit():
    # exponent vectors are packed with 16 bits per variable; a product that
    # would overflow a field raises instead of aliasing another monomial
    x1 = Polynomial(2, {(1, 0, 0): 1})
    assert (x1 ** 65535).total_degree() == 65535
    with pytest.raises(RatFunError):
        x1 ** 65536


def test_exponent_vectors_out_of_range_are_rejected():
    for e in ((-1, 0), (65536, 0)):
        with pytest.raises(RatFunError, match=rf"^exponent vector \({e[0]}, 0\) out of range$"):
            Polynomial(1, {e: 1})


def test_mixed_variable_counts_are_rejected():
    one, two = Polynomial.const(1, 1), Polynomial.const(1, 2)
    for call in (lambda: one + two, lambda: one.divide_by_form(DegreeOneForm.make([1, 0])),
                 lambda: RatFun.one(1) + RatFun.one(2)):
        with pytest.raises(ValueError, match="^mixed variable counts$"):
            call()


def test_polynomial_powers_match_repeated_products():
    p = Polynomial(2, {(1, 0, 0): F(1, 2), (0, 1, 1): -3, (0, 0, 0): 2})
    expected = Polynomial.const(1, 2)
    for n in range(6):
        if n in (0, 1, 2, 5):
            assert p ** n == expected
        expected = expected * p
    assert p ** 1 is p
    with pytest.raises(ValueError, match="negative power"):
        p ** -1


def test_form_substitution_rejects_mixed_variable_counts():
    f = DegreeOneForm.make([1, 2], 3)
    short, long = DegreeOneForm.make([1, 0]), DegreeOneForm.make([0, 1, 5])
    for images in ([short, long], [long, short]):
        for _ in range(2):  # the error is raised again, not remembered
            with pytest.raises(ValueError, match="images have mixed variable counts"):
                substitute_form(f, images)
    with pytest.raises(ValueError, match="one image per x variable"):
        substitute_form(f, [short])


def test_substitution_memos_are_bounded():
    assert ratfun._substitutions.cache_info().maxsize == 16
    assert ratfun._MEMO_SIZE == 4096
    # x_i -> 2*x_i on the 5456 monomials of degree <= 30 in x1..x3: more
    # x-monomials than a table holds, each image a single term
    images = [DegreeOneForm.make([2 * (j == i) for j in range(3)]) for i in range(3)]
    sub = ratfun._substitutions(tuple(images), 3)
    sub.monomials.clear()
    exps = [(i, j, k, 0) for i in range(31) for j in range(31 - i) for k in range(31 - i - j)]
    assert RatFun(Polynomial(3, dict.fromkeys(exps, 1)), ()).substitute(images).num == \
        Polynomial(3, {e: 2 ** sum(e) for e in exps})
    assert 0 < len(sub.monomials) <= ratfun._MEMO_SIZE < len(exps)
    for n in range(5000):
        substitute_form(DegreeOneForm.make([1, 0, -1], n), images)
    assert 0 < len(sub.forms) <= ratfun._MEMO_SIZE


def test_memoized_substitution_equals_a_fresh_one():
    ratfun._substitutions.cache_clear()
    images = [DegreeOneForm.make([F(1, 2), -1], 1), DegreeOneForm.make([0, 3], F(-2, 3))]
    f = DegreeOneForm.make([2, F(-1, 3)], 5)
    first = substitute_form(f, images)
    again = substitute_form(DegreeOneForm.make([2, F(-1, 3)], 5), list(images))
    assert again is first
    assert first == ratfun._Substitution(tuple(images), 2).form(f)
    assert first == DegreeOneForm.make([1, -3], F(65, 9))
    a = rf("(x1 - 2*h)/((x2 + h)*(x1 + x2)^2)")
    memoized = a.substitute(images)
    assert ratfun._substitutions.cache_info().hits > 0
    ratfun._substitutions.cache_clear()
    assert a.substitute(images) == memoized
    # a pole collapse is raised on every call, though the substituted form is kept
    collapse = [DegreeOneForm.make([0, 0], 1), DegreeOneForm.make([0, 0], -1)]
    for _ in range(2):
        with pytest.raises(PoleCollapseError):
            a.substitute(collapse)


def test_substitution_matches_evaluation():
    """a.substitute(images) at p is a at the images' values at p: evaluate
    never substitutes, so it is an independent oracle.  One images tuple in
    one variable, with denominators 2 and 3, is reused for every input in 3
    variables, whose x-monomials overflow its monomial table mid-sample;
    every fifth step also sends a small input through new images in 2 or 4
    variables."""
    rng = random.Random(25)

    def fraction():
        return F(rng.randint(-4, 4), rng.randint(1, 3))

    def form(nx):
        while True:
            f = DegreeOneForm.make([fraction() for _ in range(nx)], fraction())
            if not f.is_zero():
                return f

    def value(f, point):
        return sum(c * v for c, v in zip(f.coeffs, point))

    def check(a, images):
        p = [F(rng.randint(-50, 50), rng.randint(1, 7)) for _ in range(images[0].nx + 1)]
        expected = a.evaluate([value(img, p) for img in images] + [p[-1]])
        assert a.substitute(images).evaluate(p) == expected

    shared = [DegreeOneForm.make([F(1, 2)], -1), DegreeOneForm.make([-1], F(2, 3)),
              DegreeOneForm.make([F(-3, 2)], F(1, 3))]
    sub = ratfun._substitutions(tuple(shared), 3)
    sub.monomials.clear()
    sizes = []
    for n in range(40):
        num = Polynomial(3, {tuple(rng.randint(0, 24) for _ in range(4)): fraction()
                             for _ in range(12)})
        den = RatFun.from_factors(1, [], [form(3) for _ in range(rng.randint(0, 2))], 3)
        check(RatFun(num, ()) * den, shared)
        sizes.append(len(sub.monomials))
        if n % 5 == 0:
            small = Polynomial(3, {tuple(rng.randint(0, 3) for _ in range(4)): fraction()
                                   for _ in range(6)})
            nx = rng.choice((2, 4))
            check(RatFun(small, ()) * den, [form(nx) for _ in range(3)])
    assert ratfun._substitutions(tuple(shared), 3) is sub
    assert max(sizes) <= ratfun._MEMO_SIZE
    assert any(later < earlier for earlier, later in zip(sizes, sizes[1:]))  # cleared


def test_factor_into_forms():
    f1 = DegreeOneForm.make([1, 1], 0)
    f2 = DegreeOneForm.make([1, 0], -1)
    p = f1.to_polynomial() * f2.to_polynomial() * f2.to_polynomial()
    p = p.scale(F(3, 2))
    const, forms = factor_into_forms(p)
    rebuilt = Polynomial.const(const, 2)
    for f in forms:
        rebuilt = rebuilt * f.to_polynomial()
    assert rebuilt == p
    with pytest.raises(NotInvertibleError, match=f"^{NOT_FORMS}$"):
        # x1^2 + h^2 is irreducible over the rationals
        factor_into_forms(rf("x1^2 + h^2").num)


# ---------------------------------------------------------------------------
# rational functions


def test_parse_and_format_round_trip():
    cases = [
        "-(x1+2*h)/x1",
        "(x1-h)/(-x1-h)",
        "(x1*x2+2*h^2)/((x1)*(x1+x2-h))",
        "0",
        "5/3",
        "x2^3",
    ]
    for text in cases:
        a = rf(text)
        assert rf(a.format()) == a


def test_cancellation():
    # (x1^2 - h^2)/(x1 - h) reduces to x1 + h
    a = rf("(x1^2 - h^2)/(x1 - h)")
    assert a == rf("x1 + h")
    assert a.den == ()


def test_denominators_stay_factored():
    a = rf("1/((x1)*(x1-h)^2)")
    forms = dict(a.den)
    assert forms[DegreeOneForm.make([1, 0], 0)] == 1
    assert forms[DegreeOneForm.make([1, 0], -1)] == 2


def test_add_uses_lcm_denominator():
    a = rf("1/(x1*(x1-h))") + rf("2/(x1^1*(x1+h))")
    # common denominator x1 (x1-h)(x1+h), not x1^2 (...)
    assert dict(a.den)[DegreeOneForm.make([1, 0], 0)] == 1
    assert a == rf("(3*x1-h)/(x1*(x1-h)*(x1+h))")


def test_inverse_and_division():
    a = rf("-(x1+2*h)/x1")
    assert a * a.inv() == rf("1")
    assert rf("(x1-h)") / rf("(x1-h)") == rf("1")
    with pytest.raises(NotInvertibleError, match=f"^{NOT_FORMS}$"):
        rf("(x1^2+h^2)/x2").inv()
    with pytest.raises(NotInvertibleError, match="^zero has no reciprocal$"):
        RatFun.zero(2).inv()
    with pytest.raises(NotInvertibleError, match=f"^{NOT_FORMS}$"):
        rf("x1 + 1").inv()  # not homogeneous


def test_evaluate_and_pole():
    a = rf("-(x1+2*h)/x1")
    assert a.evaluate([F(1), F(0), F(1)]) == F(-3)
    with pytest.raises(PoleError):
        a.evaluate([F(0), F(5), F(1)])
    b = rf("1/((2*x1 - h)*(x2 + 3*h)^2)")
    for point in ([F(1, 4), F(7), F(1, 2)], [F(1), F(-3, 5), F(1, 5)]):
        with pytest.raises(PoleError):
            b.evaluate(point)
    assert b.evaluate([F(1), F(0), F(1)]) == F(1, 9)


def test_from_factors_rejects_zero_forms():
    zero, x1 = DegreeOneForm.make([0], 0), DegreeOneForm.make([1], 0)
    with pytest.raises(ValueError, match="^zero form in numerator factors$"):
        RatFun.from_factors(1, [x1, zero], [], 1)
    with pytest.raises(ValueError, match="^zero form in denominator factors$"):
        RatFun.from_factors(1, [x1], [x1, zero], 1)


class _Draws:
    """A stand-in rng for eq_by_evaluation: randint returns the next
    numerator, and 1 for each denominator (drawn from 1..997)."""

    def __init__(self, numerators):
        self.numerators = iter(numerators)

    def randint(self, lo, hi):
        return 1 if lo == 1 else next(self.numerators)


def test_eq_by_evaluation_skips_poles_and_gives_up():
    a = rf("1/x1", 1)
    # the first point (0, 5) is a pole of a; the next three are compared
    draws = _Draws([0, 5, 1, 2, 3, 4, 5, 6, 7])
    assert eq_by_evaluation(a, a, draws)
    assert next(draws.numerators) == 7
    assert not eq_by_evaluation(a, rf("1/x1 + h", 1), _Draws([0, 5, 1, 2]))
    with pytest.raises(RatFunError, match="^could not find enough non-pole sample points$"):
        eq_by_evaluation(a, a, _Draws(itertools.repeat(0)))


def test_evaluate_matches_fraction_arithmetic():
    rng = random.Random(5)
    for _ in range(200):
        a = random_ratfun(rng, max_forms=3)
        point = [F(rng.randint(-30, 30), rng.randint(1, 9)) for _ in range(3)]
        num = sum((c * point[0] ** e[0] * point[1] ** e[1] * point[2] ** e[2]
                   for e, c in a.num.terms.items()), F(0))
        den = F(1)
        for f, m in a.den:
            den *= sum(c * v for c, v in zip(f.coeffs, point)) ** m
        if den:
            assert a.evaluate(point) == num / den
        else:
            with pytest.raises(PoleError):
                a.evaluate(point)


def test_substitute_homomorphism_by_hand():
    # x1 -> -x1 - h sends -(x1+2h)/x1 to (x1-h)/(-x1-h)
    a = rf("-(x1+2*h)/x1", 1)
    img = [DegreeOneForm.make([-1], -1)]
    assert a.substitute(img) == rf("(x1-h)/(-x1-h)", 1)


def test_substitute_cancels_only_when_not_invertible():
    a = rf("(x1+h)/(x2+h)")
    # x1, x2 -> x2 is singular: numerator and denominator collapse together
    collapsed = a.substitute([DegreeOneForm.make([0, 1]), DegreeOneForm.make([0, 1])])
    assert collapsed == rf("1") and collapsed.den == ()
    # into one variable, x1, x2 -> x1 has full rank 1 but is no automorphism
    assert a.substitute([DegreeOneForm.make([1]), DegreeOneForm.make([1])]) == rf("1", 1)
    # the swap x1 <-> x2, scaled, is invertible and keeps the quotient reduced
    swapped = a.substitute([DegreeOneForm.make([0, 2]), DegreeOneForm.make([3, 0])])
    assert swapped == rf("(2*x2+h)/(3*x1+h)")
    assert [m for _, m in swapped.den] == [1]


def test_substitute_pole_collapse():
    a = rf("1/x1", 1)
    with pytest.raises(PoleCollapseError):
        a.substitute([DegreeOneForm.make([0], 0)])


# ---------------------------------------------------------------------------
# randomized properties (the full-size sweep lives in the acceptance tests)


def random_ratfun(rng, nx=2, max_forms=2):
    def form():
        while True:
            coeffs = [rng.randint(-2, 2) for _ in range(nx)]
            h = rng.randint(-2, 2)
            if any(coeffs) or h:
                return DegreeOneForm.make(coeffs, h)

    const = F(rng.randint(1, 5) * rng.choice((1, -1)), rng.randint(1, 3))
    num = [form() for _ in range(rng.randint(0, max_forms))]
    den = [form() for _ in range(rng.randint(0, max_forms))]
    return RatFun.from_factors(const, num, den, nx)


def test_field_axioms_sample():
    rng = random.Random(20240817)
    for _ in range(150):
        a, b, c = (random_ratfun(rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert a * (b + c) == a * b + a * c
        assert a - a == RatFun.zero(2)
        assert a * b == b * a
        if not b.is_zero():
            assert (a / b) * b == a


def test_structural_equality_matches_evaluation():
    rng = random.Random(99)
    for _ in range(100):
        a = random_ratfun(rng)
        b = random_ratfun(rng)
        same_struct = a == b
        same_eval = eq_by_evaluation(a, b, random.Random(7))
        assert same_struct == same_eval


# x1 + x2 + ... + x6 + h, then x1 + 3x2 + ... + 7x6 + 2h, ...: every slope set
# has six members, so 6^6 combinations of per-variable slopes
SIX_FORMS = [(1, 1, 1, 1, 1, 1, 1), (1, 3, 4, 5, 6, 7, 2), (1, 5, 7, 2, 4, 6, 3),
             (1, 7, 3, 6, 2, 5, 4), (1, 2, 6, 3, 7, 4, 5), (1, 4, 2, 7, 5, 3, 6)]


def test_reciprocals_of_products_of_forms_in_many_variables():
    rng = random.Random(38)

    def form(nx):
        while True:
            coeffs = [rng.choice((0, 1, -1, 2, -3)) for _ in range(nx + 1)]
            if any(coeffs):
                return DegreeOneForm.make(coeffs[:nx], coeffs[nx]).canonical()[1]

    cases = [RatFun.from_factors(1, [DegreeOneForm.make(c[:6], c[6]) for c in SIX_FORMS], [], 6)]
    for _ in range(60):
        nx = rng.choice((5, 6))
        cases.append(RatFun.from_factors(F(rng.choice((1, -2, 3)), rng.randint(1, 4)),
                                         [form(nx) for _ in range(rng.randint(5, 6))],
                                         [form(nx) for _ in range(rng.randint(0, 2))], nx))
    for r in cases:
        assert r * r.inv() == RatFun.one(r.nx)


def test_reciprocals_of_sums_invert_or_name_the_numerator():
    rng = random.Random(1010)
    inverted = 0
    for _ in range(200):
        a = random_ratfun(rng) + random_ratfun(rng) + RatFun.const(rng.choice((0, 0, 1, -2)), 2)
        if a.is_zero():
            continue
        try:
            b = a.inv()
        except NotInvertibleError as err:
            assert str(err) == NOT_FORMS
        else:
            assert a * b == RatFun.one(2)
            inverted += 1
    assert 0 < inverted < 200  # both outcomes occur


# ---------------------------------------------------------------------------
# differential test against sympy


def test_field_operations_match_sympy_cancel():
    sympy = pytest.importorskip("sympy")
    hypothesis = pytest.importorskip("hypothesis")
    from sympy.polys.rings import ring

    st = hypothesis.strategies
    QQ = sympy.QQ
    R, *X = ring("x1,x2,h", QQ)  # sparse polynomials, as dicts of monomials

    def rational(c):
        return QQ(c.numerator, c.denominator)

    def form_poly(coeffs):
        return sum((rational(c) * v for c, v in zip(coeffs, X)), R.zero)

    def total_degree(pol):
        return max(map(sum, pol.itermonoms()), default=0)

    def to_polys(a):
        num = R.from_dict({e: rational(c) for e, c in a.num.terms.items()})
        den = R.one
        for f, m in a.den:
            den *= form_poly(f.coeffs) ** m
        return num, den

    def assert_matches(a, pq):
        """a equals p/q, and is as reduced as the ring's cancel makes p/q."""
        p, q = pq[0].cancel(pq[1])
        num, den = to_polys(a)
        assert num * q == p * den
        assert total_degree(den) == total_degree(q)
        for f, _ in a.den:
            assert f.canonical() == (1, f)
            assert a.num.divide_by_form(f) is None

    coeff = st.integers(-2, 2)
    forms = st.tuples(coeff, coeff, coeff)
    # rational image coefficients reach the substitution's denominator path
    image_coeff = st.fractions(-2, 2, max_denominator=3)
    rational_forms = st.tuples(image_coeff, image_coeff, image_coeff)
    nonzero_forms = forms.filter(any)
    # (const, numerator forms, denominator forms); sympy work stays out of
    # data generation, which hypothesis times
    factored = st.tuples(st.fractions(-6, 6, max_denominator=4).filter(bool),
                         st.lists(nonzero_forms, max_size=2),
                         st.lists(nonzero_forms, max_size=3))
    # a sum of one or two factored terms: its numerator need not factor
    general = st.lists(factored, min_size=1, max_size=2)

    def build(spec):
        """A RatFun from_factors, and the same quotient as a pair of ring elements."""
        const, num, den = spec
        a = RatFun.from_factors(const, [DegreeOneForm.make(c[:2], c[2]) for c in num],
                                [DegreeOneForm.make(c[:2], c[2]) for c in den], 2)
        p, q = R(rational(const)), R.one
        for c in num:
            p *= form_poly(c)
        for c in den:
            q *= form_poly(c)
        return a, (p, q)

    def build_sum(specs):
        a, (p, q) = build(specs[0])
        for spec in specs[1:]:
            b, (r, s) = build(spec)
            a, (p, q) = a + b, (p * s + r * q, q * s)
        return a, (p, q)

    @hypothesis.settings(max_examples=40, deadline=None, database=None)
    @hypothesis.given(general, general, factored, st.tuples(rational_forms, rational_forms))
    def check(a_spec, b_spec, c_spec, images):
        (a, (p, q)), (b, (r, s)) = build_sum(a_spec), build_sum(b_spec)
        c, (u, v) = build(c_spec)
        assert_matches(a, (p, q))
        assert_matches(a + b, (p * s + r * q, q * s))
        # b's forms have equal multiplicity in a + b and in -b, and cancel
        assert_matches((a + b) - b, (p, q))
        assert_matches(a * b, (p * r, q * s))
        if not c.is_zero():
            assert_matches(a / c, (p * v, q * u))
        image_forms = [DegreeOneForm.make(i[:2], i[2]) for i in images]
        subs = [(X[0], form_poly(images[0])), (X[1], form_poly(images[1]))]

        def substituted(pol):  # x1, x2 -> the images at once
            return pol.compose(subs)

        if any(substituted(form_poly(f.coeffs)).is_zero for f, _ in a.den):
            with pytest.raises(PoleCollapseError):
                a.substitute(image_forms)
        else:
            # reduce first: a cancelled factor may map to zero
            p, q = p.cancel(q)
            assert_matches(a.substitute(image_forms), (substituted(p), substituted(q)))

    check()


# ---------------------------------------------------------------------------
# the text format against the earlier Fraction-based formatter


def oracle_format_monomial(e, c, nx):
    names = [f"x{i + 1}" for i in range(nx)] + ["h"]
    vars_part = "*".join(
        f"{names[i]}^{k}" if k > 1 else names[i] for i, k in enumerate(e) if k
    )
    coeff = abs(c)
    if not vars_part:
        return str(coeff)
    if coeff == 1:
        return vars_part
    return f"{coeff}*{vars_part}"


def oracle_format_poly(p):
    if p.is_zero():
        return "0"
    parts = []
    for e, c in sorted(p.terms.items(), reverse=True):
        mono = oracle_format_monomial(e, c, p.nx)
        if not parts:
            parts.append(mono if c > 0 else f"-{mono}")
        else:
            parts.append(f"+{mono}" if c > 0 else f"-{mono}")
    return "".join(parts)


def oracle_format_ratfun(a):
    num = oracle_format_poly(a.num)
    if not a.den:
        return num
    factors = []
    for f, m in a.den:
        fs = f"({oracle_format_poly(f.to_polynomial())})"
        factors.append(f"{fs}^{m}" if m > 1 else fs)
    return f"({num})/({'*'.join(factors)})"


def oracle_to_json(p):
    names = [f"x{i + 1}" for i in range(p.nx)] + ["h"]
    return [{"coeff": str(c), "powers": {names[i]: k for i, k in enumerate(e) if k}}
            for e, c in sorted(p.terms.items(), reverse=True)]


def random_coefficient(rng):
    kind = rng.randrange(4)
    if kind == 0:
        return rng.choice((1, -1))
    if kind == 1:
        return rng.randint(-40, 40)
    return F(rng.randint(-40, 40), rng.choice((2, 3, 4, 6, 7, 12, 35)))


def random_polynomial(rng, nx):
    terms = {}
    for _ in range(rng.randint(0, 5)):
        kind = rng.randrange(4)
        if kind == 0:  # constant
            e = (0,) * (nx + 1)
        elif kind == 1:  # a power of h alone
            e = (0,) * nx + (rng.randint(1, 3),)
        else:
            e = tuple(rng.randint(0, 3) for _ in range(nx + 1))
        terms[e] = random_coefficient(rng)
    return Polynomial(nx, terms)


def random_form(rng, nx):
    while True:
        f = DegreeOneForm.make([random_coefficient(rng) if rng.random() < 0.7 else 0
                                for _ in range(nx)],
                               random_coefficient(rng) if rng.random() < 0.7 else 0)
        if not f.is_zero():
            return f


def test_format_matches_fraction_formatter():
    rng = random.Random(1501)
    for n in range(1200):
        nx = 1 + n % 3
        p = random_polynomial(rng, nx)
        assert str(p) == oracle_format_poly(p)
        assert p.to_json() == oracle_to_json(p)
        f = random_form(rng, nx)
        assert str(f) == oracle_format_poly(f.to_polynomial())
        # denominator forms drawn from a small pool, so that some repeat
        pool = [random_form(rng, nx) for _ in range(2)]
        den = [rng.choice(pool) for _ in range(rng.randint(0, 4))]
        a = RatFun(p, ()) * RatFun.from_factors(random_coefficient(rng) or 1, [], den, nx)
        assert a.format() == oracle_format_ratfun(a)
        assert a.to_json()["num"] == oracle_to_json(a.num)
