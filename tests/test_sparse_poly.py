"""The sparse-polynomial ring operations that Polynomial and UniPoly share.

A polynomial in x1 alone has packed keys equal to x1's exponents, so a
Polynomial in x1 and a UniPoly made from the same dict must come out of
every shared operation with equal dicts.  Mixed with a rational function
of its own kind, either polynomial gives what its lift to that class gives.
"""

import operator
import random
from fractions import Fraction

import pytest

from hookweight.ratfunc import Polynomial, RatFunc, poly_add, poly_mul
from hookweight.specialize import UniPoly, UniRatFunc


def random_dict(rng) -> dict:
    """{exponent: coefficient} with exponents below 12 and int or Fraction
    coefficients, possibly empty."""
    return {rng.randint(0, 11): rng.choice(
        [rng.randint(-5, 5), Fraction(rng.randint(-5, 5), rng.randint(1, 4))])
        for _ in range(rng.randint(0, 5))}


def results(cls, da: dict, db: dict, k: int, f: Fraction) -> list:
    a, b = cls(da), cls(db)
    values = [a + b, a - b, a * b, a * k, k * a, a * f, f * a, k + a,
              k - a, a - k, -a, *(a ** n for n in range(5))]
    return [v._d for v in values] + [a == k, a == b, a == a, a == k + a - k]


def test_polynomial_in_x1_and_unipoly_agree():
    rng = random.Random(23)
    for _ in range(300):
        da, db = random_dict(rng), random_dict(rng)
        k = rng.randint(-3, 3)
        f = Fraction(rng.randint(-3, 3), rng.randint(1, 4))
        want = results(Polynomial, da, db, k, f)
        assert results(UniPoly, da, db, k, f) == want, (da, db, k, f)
        a = UniPoly(da)
        for n in range(5):  # against evaluation at a point
            assert (a ** n)(Fraction(2, 3)) == a(Fraction(2, 3)) ** n


def test_hashability_and_negative_powers():
    assert hash(Polynomial({1: 2})) == hash(Polynomial({1: 2}))
    with pytest.raises(TypeError):
        hash(UniPoly({1: 2}))
    for cls in (Polynomial, UniPoly):
        with pytest.raises(ValueError):
            cls({0: 1, 1: -1}) ** -1


def mixed_cases() -> list:
    """(a, a lifted to b's class, b) for a polynomial or a number a."""
    x1, x2 = Polynomial.variable(1), Polynomial.variable(2)
    u = UniPoly({0: 1, 2: 3})
    ur = UniRatFunc(UniPoly({1: 1}), UniPoly({0: 1, 1: 2}))
    return [(x1 + x2, RatFunc(x1 + x2), RatFunc(x2, x1 + 1)),
            (x1, RatFunc(x1), RatFunc(x1)),
            (2, RatFunc(2), RatFunc(x2, x1 + 1)),
            (u, UniRatFunc(u), ur),
            (u, UniRatFunc(u), UniRatFunc(u)),
            (2, UniRatFunc.constant(2), ur),
            (Fraction(1, 3), UniRatFunc.constant(Fraction(1, 3)), ur)]


@pytest.mark.parametrize("a, lifted, b", mixed_cases(), ids=[
    "poly-rf", "poly-equal-rf", "int-rf", "unipoly-unirf",
    "unipoly-equal-unirf", "int-unirf", "fraction-unirf"])
def test_mixed_operands_work_in_either_order(a, lifted, b):
    for op in (operator.add, operator.sub, operator.mul, operator.truediv,
               operator.eq):
        for got, want in ((op(a, b), op(lifted, b)),
                          (op(b, a), op(b, lifted))):
            assert type(got) is type(want) and got == want, op


def test_polynomial_and_unipoly_do_not_mix():
    x1, u = Polynomial.variable(1), UniPoly({1: 1})
    r = RatFunc(1, x1)
    for op in (operator.add, operator.sub, operator.mul):
        with pytest.raises(TypeError):
            op(x1, u)
        with pytest.raises(TypeError):
            op(u, x1)
    for f in (poly_add, poly_mul):  # the named ring operations stay typed
        with pytest.raises(TypeError):
            f(x1, r)
