"""Brackets, twisted factorials, multivariate binomials, divided powers."""

import pytest
from hypothesis import given, strategies as st

from hookweight.parsing import parse_polynomial, parse_ratfunc
from hookweight.qanalog import (
    SkewElem,
    binomial,
    bracket,
    bracket_factorial,
    divided_power,
    skew_add,
    skew_equal,
    skew_mul,
)
from hookweight.ratfunc import (
    Polynomial,
    RatFunc,
    rf_add,
    rf_equal,
    rf_frobenius,
    rf_mul,
    rf_to_canonical_string,
)


class TestBrackets:
    def test_bracket_values(self):
        assert bracket(0).is_zero()
        assert bracket(1) == parse_polynomial("x1")
        assert bracket(4) == parse_polynomial("x1+x2+x3+x4")

    def test_factorial_values(self):
        assert bracket_factorial(0) == Polynomial.one()
        assert bracket_factorial(1) == parse_polynomial("x1")
        assert bracket_factorial(4) == parse_polynomial(
            "(x1+x2+x3+x4)(x2+x3+x4)(x3+x4)x4")

    def test_large_factorial_expands(self):
        # 58,786 terms, whose coefficients add up to [11]! at x_i = 1, 11!;
        # expanding is not bounded the way printing is
        terms = bracket_factorial(11).terms
        assert len(terms) == 58786
        assert sum(terms.values()) == 39916800

    def test_factorial_recursion(self):
        for n in range(1, 8):
            assert bracket_factorial(n) == \
                bracket(n) * bracket_factorial(n - 1).frobenius(1)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            bracket(-1)
        with pytest.raises(ValueError):
            bracket_factorial(-2)


def _factorial_ratio(k: int) -> RatFunc:
    """F[k]!/[k]! as a rational function."""
    return RatFunc(bracket_factorial(k).frobenius(1), bracket_factorial(k))


class TestBinomial:
    def test_edges_are_one(self):
        for n in range(0, 9):
            assert rf_equal(binomial(n, 0), RatFunc.from_const(1))
        for n in range(0, 11):
            assert rf_equal(binomial(n, n), RatFunc.from_const(1))

    def test_two_choose_one(self):
        assert rf_to_canonical_string(binomial(2, 1)) == "(x1+x2)/(x1)"
        assert rf_equal(binomial(2, 1), parse_ratfunc("(x1+x2)/x1"))

    def test_five_choose_two_pascal_instance(self):
        rhs = rf_add(rf_frobenius(binomial(4, 1), 1),
                     rf_mul(_factorial_ratio(2), rf_frobenius(binomial(4, 2), 1)))
        assert rf_equal(binomial(5, 2), rhs)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            binomial(3, 4)
        with pytest.raises(ValueError):
            binomial(3, -1)

    def test_pascal_recurrence_sweep(self):
        for n in range(1, 11):
            for k in range(1, n):
                rhs = rf_add(
                    rf_frobenius(binomial(n - 1, k - 1), 1),
                    rf_mul(_factorial_ratio(k), rf_frobenius(binomial(n - 1, k), 1)))
                assert rf_equal(binomial(n, k), rhs), (n, k)


class TestSkewAlgebra:
    def test_unit(self):
        g = SkewElem.term(parse_ratfunc("x2/x1"), 3)
        assert skew_equal(skew_mul(SkewElem.one(), g), g)
        assert skew_equal(skew_mul(g, SkewElem.one()), g)

    def test_twist(self):
        x1term = SkewElem.term(RatFunc(Polynomial.variable(1)), 1)
        prod = skew_mul(x1term, x1term)
        assert skew_equal(prod, SkewElem.term(parse_ratfunc("x1x2"), 2))

    def test_divided_power_small(self):
        assert skew_equal(divided_power(0), SkewElem.one())
        assert skew_equal(divided_power(1),
                          SkewElem.term(parse_ratfunc("1/x1"), 1))

    def test_divided_power_convolution(self):
        for k in range(0, 9):
            for l in range(0, 9 - k):
                lhs = skew_mul(divided_power(k), divided_power(l))
                rhs = skew_mul(SkewElem.term(binomial(k + l, k), 0),
                               divided_power(k + l))
                assert skew_equal(lhs, rhs), (k, l)

    def test_polynomial_and_constant_coefficients(self):
        # every coefficient goes through one coercion, so a Polynomial is
        # read as the rational function it is
        expected = SkewElem({1: RatFunc(bracket(2)), 0: RatFunc.from_const(3)})
        for got in (SkewElem({1: bracket(2), 0: 3}),
                    skew_add(SkewElem.term(bracket(2), 1), SkewElem.term(3, 0))):
            assert skew_equal(got, expected)
            assert got.coeffs[1] == parse_ratfunc("x1+x2")
        assert SkewElem({2: Polynomial.constant(0)}).is_zero()
        with pytest.raises(TypeError):
            SkewElem({1: "x1"})

    def test_add(self):
        a = SkewElem.term(RatFunc.from_const(1), 1)
        b = SkewElem.term(RatFunc.from_const(2), 1)
        assert skew_equal(skew_add(a, b), SkewElem.term(RatFunc.from_const(3), 1))
        assert skew_add(a, SkewElem.zero()).degrees() == [1]

    @given(st.lists(st.tuples(st.integers(0, 4), st.integers(1, 4),
                              st.integers(0, 3)),
                    min_size=3, max_size=3))
    def test_associative_on_single_terms(self, triples):
        elems = []
        for deg, var, shift in triples:
            coeff = RatFunc(Polynomial.variable(var + shift),
                            Polynomial.variable(var))
            elems.append(SkewElem.term(coeff, deg))
        a, b, c = elems
        assert skew_equal(skew_mul(skew_mul(a, b), c),
                          skew_mul(a, skew_mul(b, c)))
