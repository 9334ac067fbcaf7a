"""Reduction of factored univariate values against two dense oracles.

A value c t^a N prod (1 - t^k)^e G^f is built through the factored
arithmetic, and its reduced numerator, denominator and string are compared
with the dense reduction of the expanded sides: one integer GCD, then a
monic denominator.  A second test compares them with ``sympy.cancel``.
"""

import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import hookweight
from hookweight.specialize import (
    _MR_EXACT_BELOW,
    SizeBoundError,
    UniPoly,
    UniRatFunc,
    _factorization,
    _int_exact_div,
    _int_gcd_dense,
    _passes_miller_rabin,
)

small_polys = st.dictionaries(st.integers(0, 4), st.integers(-3, 3),
                              min_size=1, max_size=4).map(UniPoly).filter(
                                  lambda p: not p.is_zero())


def _src_env() -> dict:
    """The environment with this checkout's sources first on the path."""
    src = str(Path(hookweight.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        x for x in (src, env.get("PYTHONPATH")) if x)
    return env


def _dense(p: UniPoly) -> list:
    return [p.coeffs.get(e, 0) for e in range(p.degree() + 1)]


def _cyclotomic(d: int) -> UniPoly:
    """Phi_d as (t^d - 1) divided by Phi_e for every proper divisor e."""
    out = [-1] + [0] * (d - 1) + [1]
    for e in range(1, d):
        if d % e == 0:
            out = _int_exact_div(out, _dense(_cyclotomic(e)))
    return UniPoly(dict(enumerate(out)))


def _binomial(k: int) -> UniPoly:
    return UniPoly({0: 1, k: -1})


@st.composite
def values(draw):
    """(value, expanded num, expanded den) of c t^a N prod (1-t^k)^e G^f."""
    c = Fraction(draw(st.integers(-6, 6).filter(bool)),
                 draw(st.integers(1, 6)))
    a = draw(st.integers(-4, 4))
    n = draw(small_polys)
    binomials = draw(st.dictionaries(st.integers(1, 30),
                                     st.integers(-2, 2).filter(bool),
                                     max_size=3))
    if draw(st.booleans()):
        # N shares a cyclotomic factor with a denominator binomial
        d = draw(st.integers(1, 10))
        n = n * _cyclotomic(d)
        binomials[d * draw(st.integers(1, 3))] = -1
    g = draw(st.one_of(st.none(), small_polys))
    f = draw(st.sampled_from([-2, -1, 1, 2]))

    value = UniRatFunc(n) * UniRatFunc(UniPoly.constant(c))
    num, den = n.scale(c), UniPoly.constant(1)
    shift = UniPoly.monomial(abs(a))
    value = value * UniRatFunc(shift) if a >= 0 else value / UniRatFunc(shift)
    num, den = (num * shift, den) if a >= 0 else (num, den * shift)
    for k, e in binomials.items():
        b = UniRatFunc(_binomial(k))
        for _ in range(abs(e)):
            value = value * b if e > 0 else value / b
        num, den = ((num * _binomial(k) ** e, den) if e > 0
                    else (num, den * _binomial(k) ** -e))
    if g is not None:
        value = value * UniRatFunc(g ** f) if f > 0 \
            else value * UniRatFunc(UniPoly.constant(1), g ** -f)
        num, den = (num * g ** f, den) if f > 0 else (num, den * g ** -f)
    return value, num, den


def _dense_reduced(num: UniPoly, den: UniPoly) -> tuple[UniPoly, UniPoly]:
    """num/den reduced by one dense integer GCD, with a monic denominator."""
    scale_a = scale_b = 1
    for p in (num, den):
        for v in p.coeffs.values():
            v = Fraction(v)
            if p is num:
                scale_a = scale_a * v.denominator
            else:
                scale_b = scale_b * v.denominator
    a = [int(v * scale_a) for v in _dense(num)]
    b = [int(v * scale_b) for v in _dense(den)]
    g = _int_gcd_dense(a, b)
    a, b = _int_exact_div(a, g), _int_exact_div(b, g)
    lead = Fraction(b[-1]) * scale_a / scale_b
    return (UniPoly({e: Fraction(v) / lead for e, v in enumerate(a)}),
            UniPoly({e: Fraction(v, b[-1]) for e, v in enumerate(b)}))


def _string(num: UniPoly, den: UniPoly) -> str:
    if den == UniPoly.constant(1):
        return num.to_string()
    return f"({num.to_string()})/({den.to_string()})"


@given(values())
def test_reduction_matches_dense_gcd(case):
    value, num, den = case
    ref_num, ref_den = _dense_reduced(num, den)
    assert value.num == ref_num and value.den == ref_den
    assert value.to_string() == _string(ref_num, ref_den)
    assert value == UniRatFunc(num, den)
    # equality also sees the constant, the power of t and the cofactors
    assert value != value * 2
    assert value != value * UniPoly.monomial(1)
    assert value != UniRatFunc(num + den, den)


@given(values())
def test_reduction_matches_sympy_cancel(case):
    sympy = pytest.importorskip("sympy")
    t = sympy.Symbol("q")
    value, num, den = case

    def sym(p):
        return sum(sympy.Rational(v.numerator, v.denominator) * t ** e
                   for e, v in p.coeffs.items())

    sides = [{m[0]: Fraction(int(v.p), int(v.q))
              for m, v in sympy.Poly(x, t).terms()}
             for x in sympy.fraction(sympy.cancel(sym(num) / sym(den)))]
    lead = sides[1][max(sides[1])]
    ref = [UniPoly({e: v / lead for e, v in x.items()}) for x in sides]
    assert value.num == ref[0] and value.den == ref[1]
    assert value.to_string() == _string(*ref)


def test_shared_cyclotomic_factor_cancels():
    # (1 + q + q^2)(1 + q) / (1 - q^6) = 1 / ((1 - q)(1 - q + q^2))
    value = UniRatFunc(_cyclotomic(3) * _cyclotomic(2), _binomial(6))
    assert value.to_string() == "(-1)/(q^3-2q^2+2q-1)"
    # (1 + q)(1 + q^3) / (1 - q^4) = (1 + q^3) / ((1 - q)(1 + q^2))
    value = UniRatFunc(UniPoly({0: 1, 1: 1, 3: 1, 4: 1}), _binomial(4))
    assert value.to_string() == "(-q^3-1)/(q^3-q^2+q-1)"


def _binomial_ratio(p: int) -> UniRatFunc:
    """(1 - t^2p) / (1 - t^3p), whose reduced form is
    (t^p + 1) / (t^2p + t^p + 1)."""
    return UniRatFunc(UniPoly({0: 1, 2 * p: -1}), UniPoly({0: 1, 3 * p: -1}))


class TestFactorization:
    """Binomial keys factor by Pollard's rho and Miller-Rabin, exactly."""

    def test_small_prime_reduced_form(self):
        assert _binomial_ratio(101).to_string("t") == "(t^101+1)/(t^202+t^101+1)"

    def test_large_prime_prints_without_hanging(self):
        # 2^61 - 1 is prime; trial division of 2(2^61 - 1) would run for hours
        p = 2 ** 61 - 1
        code = ("from hookweight.specialize import UniPoly, UniRatFunc\n"
                f"p = {p}\n"
                "print(UniRatFunc(UniPoly({0: 1, 2 * p: -1}),\n"
                "                 UniPoly({0: 1, 3 * p: -1})).to_string('t'))")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, env=_src_env(), timeout=20)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == f"(t^{p}+1)/(t^{2 * p}+t^{p}+1)\n"

    def test_matches_sympy_factorint(self):
        sympy = pytest.importorskip("sympy")
        rng = random.Random(20110)
        ks = [rng.randrange(2, 1 << 64) for _ in range(150)]
        ks += [rng.randrange(2, 1 << 20) for _ in range(150)]
        ks += [(2 ** 31 - 1) ** 2, 2 ** 64 - 1, 3 ** 40, 1000003 * 1000033]
        for k in ks:
            assert _factorization(k) == tuple(sorted(sympy.factorint(k).items())), k

    def test_composite_above_the_exact_bound_splits(self):
        m31, m61 = 2 ** 31 - 1, 2 ** 61 - 1
        assert 7 * m31 * m61 >= _MR_EXACT_BELOW
        assert _factorization(7 * m31 * m61) == ((7, 1), (m31, 1), (m61, 1))

    def test_pseudoprime_at_the_bound_is_not_called_prime(self):
        # the bound is a strong pseudoprime to every base up to 37, so a
        # cofactor that large which passes the test is refused, not listed
        p1, p2 = 1287836182261, 2575672364521
        assert p1 * p2 == _MR_EXACT_BELOW
        assert _passes_miller_rabin(_MR_EXACT_BELOW)
        assert _passes_miller_rabin(p1) and _passes_miller_rabin(p2)
        with pytest.raises(SizeBoundError):
            _factorization(3 * _MR_EXACT_BELOW)

    def test_large_prime_above_the_bound_is_refused_at_once(self):
        # 2^89 - 1 is prime and above the bound: no test proves it, so it
        # is refused instead of trial-divided for ever
        code = ("from hookweight.specialize import SizeBoundError, _factorization\n"
                "try:\n"
                "    _factorization(2 ** 89 - 1)\n"
                "except SizeBoundError:\n"
                "    print('refused')\n")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, env=_src_env(), timeout=10)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "refused\n"
