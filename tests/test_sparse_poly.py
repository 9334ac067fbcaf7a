"""The ring operations that every sparse sum shares (``ratfunc._SparsePoly``).

Four classes share them: Polynomial, UniPoly, FQSymElem and SkewElem.
Each obeys the ring laws and prints as before.  A polynomial in x1 alone
has packed keys equal to x1's exponents, so a Polynomial in x1 and a
UniPoly made from the same dict must come out of every shared operation
with equal dicts.  Mixed with a rational function of its own kind, either
polynomial gives what its lift to that class gives.
"""

import operator
import random
import sys
from fractions import Fraction
from itertools import permutations

import pytest

from hookweight.fqsym import FQSymElem
from hookweight.qanalog import SkewElem
from hookweight.ratfunc import (Monomial, Polynomial, RatFunc, _SparsePoly,
                                poly_add, poly_mul)
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


@pytest.mark.parametrize("c", [0, 3, -2, Fraction(1, 2)], ids=str)
def test_a_constant_polynomial_hashes_as_its_number(c):
    # equal values hash equal, so a dict or a set finds one by the other
    p = Polynomial.constant(c)
    assert p == c and hash(p) == hash(c)
    assert {c: "a"}.get(p) == "a" and len({c, p}) == 1


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


def coefficient(rng):
    return rng.choice([rng.randint(-3, 3),
                       Fraction(rng.randint(-3, 3), rng.randint(1, 3))])


X = [Polynomial.variable(i) for i in range(1, 4)]
WORDS = [w for n in range(3) for w in permutations(range(1, n + 1))]

# Each class with a maker of seeded random sums of a few terms, and one
# value pinned with its repr.
SPARSE_SUMS = {
    Polynomial: (
        lambda rng: Polynomial([(Monomial({rng.randint(1, 3): rng.randint(0, 2)}),
                                 coefficient(rng)) for _ in range(3)]),
        Polynomial({Monomial({1: 2, 3: 1}): 3, Monomial({}): Fraction(-1, 2)}),
        "Polynomial<3x1^2x3-1/2>"),
    UniPoly: (
        lambda rng: UniPoly({rng.randint(0, 4): coefficient(rng)
                             for _ in range(3)}),
        UniPoly({0: 1, 3: Fraction(-2, 3)}),
        "UniPoly<-(2/3)q^3+1>"),
    FQSymElem: (
        lambda rng: FQSymElem([(rng.choice(WORDS), coefficient(rng))
                               for _ in range(3)]),
        FQSymElem({(2, 1): -1, (1,): Fraction(1, 2), (): 3}),
        "FQSymElem<3*F[] + 1/2*F[1] + -F[2,1]>"),
    SkewElem: (
        lambda rng: SkewElem([(rng.randint(0, 2), RatFunc(
            rng.choice(X) + coefficient(rng), rng.choice(X))) for _ in range(2)]),
        SkewElem({0: 3, 2: RatFunc(X[0] + X[1], X[0]), 1: RatFunc(X[1])}),
        "SkewElem<3 + (x2)*u + (x1+x2)/(x1)*u^2>"),
}


@pytest.mark.parametrize("cls", list(SPARSE_SUMS),
                         ids=[cls.__name__ for cls in SPARSE_SUMS])
def test_ring_laws_and_printing(cls):
    make, pinned, text = SPARSE_SUMS[cls]
    assert repr(pinned) == text and repr(cls.zero()) == f"{cls.__name__}<0>"
    rng = random.Random(31)
    one = cls.one()
    for _ in range(12):
        x, y, z = make(rng), make(rng), make(rng)
        assert (x - x).is_zero() and x - x == cls.zero() and -x + x == 0
        assert x * one == x == one * x
        assert (x + y) * z == x * z + y * z and z * (x + y) == z * x + z * y
        assert x ** 3 == x * x * x
        assert 2 * x == x + x == x.scale(2) and x * Fraction(1, 2) * 2 == x
        assert repr(x) == f"{cls.__name__}<{x}>"


def test_every_sparse_sum_class_is_checked():
    # a subclass added later gets the laws above once it is listed in
    # SPARSE_SUMS; the package's __init__ loads every module
    found = {value for name, module in list(sys.modules.items())
             if name.startswith("hookweight.")
             for value in vars(module).values()
             if isinstance(value, type) and issubclass(value, _SparsePoly)
             and value is not _SparsePoly}
    assert found == set(SPARSE_SUMS)
