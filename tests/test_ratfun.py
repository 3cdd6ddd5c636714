import random
from fractions import Fraction

import pytest

from dynwg.ratfun import (
    DegreeOneForm,
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


def rf(text, nx=2):
    return parse_ratfun(text, nx)


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
    x1 = Polynomial.variable(0, 2)
    assert (x1 ** 65535).total_degree() == 65535
    with pytest.raises(RatFunError):
        x1 ** 65536


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
    with pytest.raises(Exception):
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
    with pytest.raises(Exception):
        rf("(x1^2+h^2)/x2").inv()


def test_evaluate_and_pole():
    a = rf("-(x1+2*h)/x1")
    assert a.evaluate([F(1), F(0), F(1)]) == F(-3)
    with pytest.raises(PoleError):
        a.evaluate([F(0), F(5), F(1)])


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
    # the swap x1 <-> x2, scaled, is invertible and keeps the quotient reduced
    swapped = a.substitute([DegreeOneForm.make([0, 2]), DegreeOneForm.make([3, 0])])
    assert swapped == rf("(2*x2+h)/(3*x1+h)")
    assert [m for _, m in swapped.den] == [1]


def test_substitute_pole_collapse():
    a = rf("1/x1", 1)
    with pytest.raises(PoleCollapseError):
        a.substitute([DegreeOneForm.make([0], 0)])


def test_pow():
    a = rf("(x1-h)/x2")
    assert a ** 3 == rf("(x1-h)^3/x2^3")
    assert a ** -2 == rf("x2^2/(x1-h)^2")
    assert a ** 0 == rf("1")


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


# ---------------------------------------------------------------------------
# differential test against sympy


def test_field_operations_match_sympy_cancel():
    sympy = pytest.importorskip("sympy")
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    X = sympy.symbols("x1 x2 h")

    def poly(expr):
        return sympy.Poly(expr, *X, domain="QQ")

    def form_expr(coeffs):
        return sum(c * v for c, v in zip(coeffs, X))

    def to_polys(a):
        num = sympy.Poly.from_dict(
            {e: sympy.Rational(c.numerator, c.denominator) for e, c in a.num.terms.items()},
            *X, domain="QQ")
        den = poly(1)
        for f, m in a.den:
            den *= poly(form_expr(f.coeffs)) ** m
        return num, den

    def assert_matches(a, pq):
        """a equals p/q, and is as reduced as sympy.cancel makes p/q."""
        c, p, q = sympy.cancel(pq)
        p, q = poly(p), poly(q)
        num, den = to_polys(a)
        assert num * q == p * den * c
        assert den.total_degree() == q.total_degree()
        for f, _ in a.den:
            assert f.canonical() == (1, f)
            assert a.num.divide_by_form(f) is None

    coeff = st.integers(-2, 2)
    forms = st.tuples(coeff, coeff, coeff)
    nonzero_forms = forms.filter(any)
    # (const, numerator forms, denominator forms); sympy work stays out of
    # data generation, which hypothesis times
    factored = st.tuples(st.fractions(-6, 6, max_denominator=4).filter(bool),
                         st.lists(nonzero_forms, max_size=2),
                         st.lists(nonzero_forms, max_size=3))
    # a sum of one or two factored terms: its numerator need not factor
    general = st.lists(factored, min_size=1, max_size=2)

    def build(spec):
        """A RatFun from_factors, and the same quotient as a pair of sympy Polys."""
        const, num, den = spec
        a = RatFun.from_factors(const, [DegreeOneForm.make(c[:2], c[2]) for c in num],
                                [DegreeOneForm.make(c[:2], c[2]) for c in den], 2)
        p = poly(sympy.Rational(const.numerator, const.denominator)
                 * sympy.Mul(*map(form_expr, num)))
        return a, (p, poly(sympy.Mul(*map(form_expr, den))))

    def build_sum(specs):
        a, (p, q) = build(specs[0])
        for spec in specs[1:]:
            b, (r, s) = build(spec)
            a, (p, q) = a + b, (p * s + r * q, q * s)
        return a, (p, q)

    @hypothesis.settings(max_examples=40, deadline=None, database=None)
    @hypothesis.given(general, general, factored, st.tuples(forms, forms))
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
        subs = {X[0]: form_expr(images[0]), X[1]: form_expr(images[1])}

        def substituted(pol):
            return poly(pol.as_expr().subs(subs, simultaneous=True))

        if any(substituted(poly(form_expr(f.coeffs))).is_zero for f, _ in a.den):
            with pytest.raises(PoleCollapseError):
                a.substitute(image_forms)
        else:
            # reduce first: a cancelled factor may map to zero
            k, p, q = sympy.cancel((p, q))
            assert_matches(a.substitute(image_forms),
                           (substituted(poly(p) * k), substituted(poly(q))))

    check()
