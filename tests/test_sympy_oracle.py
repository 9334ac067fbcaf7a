"""Differential tests of RatFunc arithmetic and the specializations against sympy.

sympy is an independent oracle here: values go in as sympy expressions built
straight from the input polynomials, and agreement is decided by
``sympy.cancel``.  Denominators include polynomials that factor into no
bracket form or binomial, such as x1+x2^2 and 1+x1x3.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from hookweight.parsing import parse_ratfunc
from hookweight.ratfunc import (
    Monomial,
    Polynomial,
    RatFunc,
    rf_add,
    rf_div,
    rf_equal,
    rf_frobenius,
    rf_mul,
    rf_to_canonical_string,
)
from hookweight.specialize import (
    SpecializationError,
    _all_q_var,
    _substitute,
    spec_q,
    spec_qt,
)

sympy = pytest.importorskip("sympy")

NVARS = 4
MAX_SHIFT = 2
X = sympy.symbols(f"x1:{NVARS + MAX_SHIFT + 1}")
Q = sympy.Symbol("q")

one = Polynomial.one()
x1, x2, x3, x4 = (Polynomial.variable(i) for i in range(1, 5))
SPECIAL_DENS = [
    x1 + x2 ** 2,             # no atom at all
    one + x1 * x3,            # no atom at all
    x1 + x3,                  # a non-consecutive linear form
    (x1 + x2) * (x2 + x3 + x4),
    one - x1 * x2 ** 2,       # a binomial
    (x1 + x2 ** 2) * (x2 + x3),
]


def monomials():
    return st.dictionaries(st.integers(1, NVARS), st.integers(1, 2),
                           max_size=2)


def polys(max_terms=3):
    term = st.tuples(monomials(), st.integers(-4, 4).filter(bool))
    return st.lists(term, max_size=max_terms).map(
        lambda ts: Polynomial((Monomial(m), c) for m, c in ts))


dens = st.one_of(polys().filter(lambda p: not p.is_zero()),
                 st.sampled_from(SPECIAL_DENS))
fractions = st.tuples(polys(), dens)


def sym_poly(p: Polynomial):
    out = sympy.Integer(0)
    for mono, c in p.terms.items():
        c = Fraction(c)
        term = sympy.Rational(c.numerator, c.denominator)
        for v, e in mono.exponents.items():
            term *= X[v - 1] ** e
        out += term
    return out


def sym_frac(pair):
    return sym_poly(pair[0]) / sym_poly(pair[1])


def sym_rf(r: RatFunc):
    return sym_poly(r.num) / sym_poly(r.den)


def sym_uni(p):
    out = sympy.Integer(0)
    for e, c in p.coeffs.items():
        c = Fraction(c)
        out += sympy.Rational(c.numerator, c.denominator) * Q ** e
    return out


def same(a, b) -> bool:
    return sympy.cancel(a - b) == 0


def poly_from_sympy(expr) -> Polynomial:
    terms = []
    for exps, c in sympy.Poly(expr, *X).terms():
        mono = Monomial({i + 1: e for i, e in enumerate(exps) if e})
        terms.append((mono, Fraction(int(c.p), int(c.q))))
    return Polynomial(terms)


@given(fractions, fractions)
def test_add_mul_div(a, b):
    ra, rb = RatFunc(*a), RatFunc(*b)
    sa, sb = sym_frac(a), sym_frac(b)
    assert same(sym_rf(rf_add(ra, rb)), sa + sb)
    assert same(sym_rf(rf_mul(ra, rb)), sa * sb)
    if not b[0].is_zero():
        assert same(sym_rf(rf_div(ra, rb)), sa / sb)


@given(fractions, fractions)
def test_equal(a, b):
    ra, rb = RatFunc(*a), RatFunc(*b)
    sa, sb = sym_frac(a), sym_frac(b)
    assert rf_equal(ra, rb) == same(sa, sb)
    # sympy's reduced form of the same value must compare equal
    num, den = sympy.fraction(sympy.cancel(sa))
    assert rf_equal(ra, RatFunc(poly_from_sympy(num), poly_from_sympy(den)))


@given(fractions, st.integers(0, MAX_SHIFT))
def test_frobenius(a, k):
    shift = {X[i]: X[i + k] for i in range(NVARS)}
    expected = sym_frac(a).xreplace(shift)
    assert same(sym_rf(rf_frobenius(RatFunc(*a), k)), expected)


# map name -> (the map on RatFunc, the sympy image of x_i)
MAPS = {
    "q": (spec_q, lambda i: Q ** (i - 1) - Q ** i),
    "qt2": (lambda f: spec_qt(f, 2), lambda i: Q ** 2 ** (i - 1) - Q ** 2 ** i),
    "qt3": (lambda f: spec_qt(f, 3), lambda i: Q ** 3 ** (i - 1) - Q ** 3 ** i),
    "all-to-q": (lambda f: _substitute(f, _all_q_var), lambda i: Q),
}


@given(fractions, st.sampled_from(sorted(MAPS)))
def test_spec_q(a, name):
    specialize, image = MAPS[name]
    sub = {X[i]: image(i + 1) for i in range(NVARS)}
    try:
        got = specialize(RatFunc(*a))
    except SpecializationError:
        # our denominator divides the input one, so that one vanishes too
        assert sympy.expand(sym_poly(a[1]).xreplace(sub)) == 0
        return
    num, den = sympy.fraction(sympy.cancel(sym_frac(a)))
    expected = num.xreplace(sub) / den.xreplace(sub)
    assert same(sym_uni(got.num) / sym_uni(got.den), expected)


@settings(max_examples=40)
@given(fractions)
def test_print_parse_round_trip(a):
    r = RatFunc(*a)
    text = rf_to_canonical_string(r)
    back = parse_ratfunc(text)
    assert rf_equal(back, r)
    assert same(sym_rf(back), sym_frac(a))
    assert rf_to_canonical_string(back) == text
