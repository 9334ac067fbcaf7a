"""The sparse-polynomial ring operations that Polynomial and UniPoly share.

A polynomial in x1 alone has packed keys equal to x1's exponents, so a
Polynomial in x1 and a UniPoly made from the same dict must come out of
every shared operation with equal dicts.
"""

import random
from fractions import Fraction

import pytest

from hookweight.ratfunc import Polynomial
from hookweight.specialize import UniPoly


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
