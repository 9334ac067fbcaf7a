"""The q and (q,t) specialization maps and the q-hook formula check."""

from fractions import Fraction
from itertools import combinations, permutations
from math import isqrt, prod

import pytest

from hookweight.combinat import (
    ForestPoset,
    enumerate_rl_forests,
    inv,
    subtree_data,
)
from hookweight.parsing import parse_ratfunc
from hookweight.qanalog import bracket, bracket_factorial
from hookweight.ratfunc import Polynomial, RatFunc, _mono_unpack, rf_add, rf_mul
from hookweight.specialize import (
    DEFAULT_QT_BOUND,
    MAX_SPEC_BITS,
    ExponentBoundError,
    SizeBoundError,
    SpecializationError,
    UniPoly,
    UniRatFunc,
    q_bracket,
    q_factorial,
    spec_q,
    spec_qt,
    verify_bw_inv,
    _all_q_var,
    _split,
    _substitute,
)
from hookweight.weights import H_of_forest, L_of_forest, wt_perm_recursive, wt_subset

VEE = ForestPoset.from_covers(3, [[1, 2], [3, 2]])


def _spec_q_dict(d):
    """x_i -> q^{i-1}(1-q) in closed form: x^u -> q^{sum (i-1)e} (1-q)^deg."""
    out = UniPoly()
    for key, coeff in d.items():
        pairs = _mono_unpack(key)
        qpow = sum((v - 1) * e for v, e in pairs)
        deg = sum(e for _v, e in pairs)
        out = out + UniPoly.monomial(qpow, coeff) * UniPoly({0: 1, 1: -1}) ** deg
    return out


def _spec_qt_dict(d, q, bound):
    """x_i -> t^{q^{i-1}} - t^{q^i}: x^u -> prod (t^{q^{i-1}} - t^{q^i})^e."""
    out = UniPoly()
    for key, coeff in d.items():
        term = UniPoly.constant(coeff)
        for v, e in _mono_unpack(key):
            assert q ** v <= bound
            term = term * UniPoly({q ** (v - 1): 1, q ** v: -1}) ** e
        out = out + term
    return out


class TestUniPoly:
    def test_string_forms(self):
        assert q_bracket(3).to_string() == "q^2+q+1"
        assert UniPoly.monomial(3).to_string() == "q^3"
        assert UniPoly({4: -1, 1: 1}).to_string("t") == "-t^4+t"
        assert UniPoly.constant(1).to_string() == "1"
        assert UniPoly().to_string() == "0"

    def test_q_factorial(self):
        assert q_factorial(0) == UniPoly.constant(1)
        assert q_factorial(3) == q_bracket(3) * q_bracket(2)
        assert q_factorial(4)(1) == 24

    def test_unirf_reduces(self):
        r = UniRatFunc(UniPoly({1: 1, 2: -1}), UniPoly({0: 1, 1: -1}))
        assert r.is_polynomial()
        assert r.num == UniPoly.monomial(1)

    def test_unirf_monic_denominator(self):
        r = UniRatFunc(UniPoly.constant(1), UniPoly({1: 2, 3: 2}))
        assert r.den.leading_coefficient() == 1

    def test_equality_is_by_value(self):
        assert UniPoly({0: Fraction(4, 2), 3: Fraction(1, 3)}) == \
            UniPoly({0: 2, 3: Fraction(1, 3)})
        assert UniPoly({1: 1}) != UniPoly({1: 1, 2: 1})
        assert UniPoly({0: 2}) == 2 and UniPoly() == 0

    def test_split_content_stays_an_int_when_integral(self):
        content, a, key = _split({0: 2, 3: -2})
        assert (content, a, key) == (2, 0, 3) and type(content) is int
        assert _split({1: Fraction(-1, 2), 2: Fraction(1, 2)}) == \
            (Fraction(-1, 2), 1, 1)

    def test_zero_denominator(self):
        with pytest.raises(SpecializationError):
            UniRatFunc(UniPoly.constant(1), UniPoly())

    @pytest.mark.parametrize("make", [
        lambda: UniPoly({0: 0.1, 1: 0.2}),
        lambda: UniPoly.constant(0.5),
        lambda: UniPoly.monomial(2, 0.25),
        lambda: UniPoly({0: 1, 1: 1}).scale(0.5),
    ], ids=["init", "constant", "monomial", "scale"])
    def test_float_coefficient_raises(self, make):
        # as Polynomial({(): 0.5}) does; a float used to be kept and printed
        # truncated, or to end in a traceback once a UniRatFunc reduced it
        with pytest.raises(TypeError):
            make()

    @pytest.mark.parametrize("make", [
        lambda: UniPoly({1.5: 1, 0: 1}),
        lambda: UniPoly({Fraction(2): 1}),
        lambda: UniPoly.monomial(2.0),
    ], ids=["float", "fraction", "monomial"])
    def test_non_int_exponent_raises(self, make):
        # as Polynomial rejects a non-int key: a float exponent would print
        # as q^1.5 and fail once a UniRatFunc reduced it
        with pytest.raises(TypeError):
            make()

    @pytest.mark.parametrize("n", [-1, -3])
    def test_negative_power_raises(self, n):
        # as Polynomial ** n does; 1 - q used to come back unchanged
        with pytest.raises(ValueError):
            UniPoly({0: 1, 1: -1}) ** n
        assert UniPoly({0: 1, 1: -1}) ** 2 == UniPoly({0: 1, 1: -2, 2: 1})


class TestSpecQ:
    def test_simple_monomial_ratio(self):
        assert spec_q(parse_ratfunc("x2/x1")).to_string() == "q"

    def test_weights_become_inv_powers(self):
        assert spec_q(wt_perm_recursive((3, 2, 1))).to_string() == "q^3"
        assert spec_q(wt_perm_recursive((2, 1, 3))).to_string() == "q"

    def test_hook_value(self):
        assert spec_q(H_of_forest(VEE)).to_string() == "q^2+q"

    def test_shifted_bracket_ratios(self):
        # F^a[n]/F^b[m] -> q^(a-b) (1-q^n)/(1-q^m)
        for a in range(0, 6):
            for b in range(0, 6):
                for n in range(1, 6):
                    for m in range(1, 6):
                        f = RatFunc(bracket(n).frobenius(a),
                                    bracket(m).frobenius(b))
                        expected = UniRatFunc(UniPoly({a: 1, a + n: -1}),
                                              UniPoly({b: 1, b + m: -1}))
                        assert spec_q(f) == expected

    def test_frobenius_power_collapse(self):
        for a in range(0, 7):
            for b in range(0, 7):
                for n in range(1, 7):
                    f = RatFunc(bracket(n).frobenius(a), bracket(n).frobenius(b))
                    got = spec_q(f)
                    expected = UniRatFunc(UniPoly.monomial(a)) \
                        / UniRatFunc(UniPoly.monomial(b))
                    assert got == expected

    def test_subset_weight_specialization(self):
        for k in range(0, 9):
            for s in combinations(range(1, 9), k):
                sub = tuple(reversed(s))
                e = sum(sub[j - 1] - (k - j) - 1 for j in range(1, k + 1))
                got = spec_q(wt_subset(sub))
                assert got.is_polynomial() and got.num == UniPoly.monomial(e)

    def test_corollary_inv_powers(self):
        for n in range(0, 7):
            for w in permutations(range(1, n + 1)):
                got = spec_q(wt_perm_recursive(w))
                assert got.is_polynomial()
                assert got.num == UniPoly.monomial(inv(w)), w

    def test_is_ring_homomorphism(self, rng):
        pool = [parse_ratfunc(t) for t in
                ["x2/x1", "(x1+x2)/(x3)", "(x2+x3)/(x1+x2)", "x1x3/(x2^2)",
                 "(x1+2x2+x3)/(x4)", "1", "x4/(x1+x2)"]]
        for _ in range(25):
            f, g = rng.choice(pool), rng.choice(pool)
            assert spec_q(rf_mul(f, g)) == spec_q(f) * spec_q(g)
            assert spec_q(rf_add(f, g)) == spec_q(f) + spec_q(g)


class TestSpecQT:
    def test_single_variable(self):
        assert spec_qt(RatFunc(Polynomial.variable(1)), 2).to_string("t") == \
            "-t^2+t"

    def test_bracket_two(self):
        assert spec_qt(RatFunc(bracket(2)), 2).to_string("t") == "-t^4+t"

    def test_telescoping(self):
        for q in (2, 3):
            for a in range(0, 4):
                for n in range(1, 4):
                    f = RatFunc(bracket(n).frobenius(a))
                    got = spec_qt(f, q)
                    expected = UniRatFunc(
                        UniPoly({q ** a: 1, q ** (a + n): -1}))
                    assert got == expected

    def test_polynomial_arguments(self):
        # bracket and bracket_factorial hand out Polynomials
        assert spec_q(bracket(3)) == UniPoly({0: 1, 3: -1})
        assert spec_qt(bracket_factorial(3), 2) == spec_qt(
            RatFunc(bracket_factorial(3)), 2)

    def test_q_must_be_at_least_two(self):
        with pytest.raises(ValueError):
            spec_qt(RatFunc(bracket(2)), 1)

    @pytest.mark.parametrize("q", [2.5, 3.0, Fraction(5, 2)])
    def test_q_must_be_an_int(self, q):
        # refused up front, not deep inside the substitution
        with pytest.raises(ValueError, match="integer q >= 2"):
            spec_qt(RatFunc(Polynomial.variable(1)), q)

    def test_exponent_guard(self):
        with pytest.raises(ExponentBoundError):
            spec_qt(RatFunc(Polynomial.variable(30)), 2)
        # explicit larger bound lifts the guard
        value = spec_qt(RatFunc(Polynomial.variable(30)), 2, bound=1 << 31)
        assert value.num.degree() == 2 ** 30

    def test_hook_transport(self):
        for n in range(0, 7):
            for p in enumerate_rl_forests(n):
                assert spec_qt(L_of_forest(p), 2) == spec_qt(H_of_forest(p), 2)

    @pytest.mark.slow
    def test_hook_transport_n7(self):
        for p in enumerate_rl_forests(7):
            assert spec_qt(L_of_forest(p), 2) == spec_qt(H_of_forest(p), 2), p

    def test_factored_path_matches_generic(self):
        # the factored inputs take a shortcut; pin it to plain substitution
        for n in range(0, 5):
            for p in enumerate_rl_forests(n):
                value = H_of_forest(p)
                num, den = value.num._d, value.den._d
                plain_qt = UniRatFunc(_spec_qt_dict(num, 2, DEFAULT_QT_BOUND),
                                      _spec_qt_dict(den, 2, DEFAULT_QT_BOUND))
                plain_q = UniRatFunc(_spec_q_dict(num), _spec_q_dict(den))
                assert spec_qt(value, 2) == plain_qt, p
                assert spec_q(value) == plain_q, p


def _in_n_t(value: UniRatFunc) -> dict:
    """The coefficients of ``value``, asserted to make a polynomial in t
    with positive integer coefficients."""
    coeffs = value.num.coeffs
    assert value.is_polynomial(), value
    assert all(isinstance(c, int) and c > 0 for c in coeffs.values()), value
    return coeffs


class TestQtPositivity:
    """Observations, not a proven statement: under x_i -> t^{q^{i-1}} -
    t^{q^i} the weights wt(w) and the hook products H(P) have landed in
    N[t] on every case swept.  The coefficients of wt(w)'s image sum to
    q^inv(w), since each form's image vanishes to first order at t = 1."""

    @staticmethod
    def _weights(ns, q):
        for n in ns:
            for w in permutations(range(1, n + 1)):
                coeffs = _in_n_t(spec_qt(wt_perm_recursive(w), q))
                assert sum(coeffs.values()) == q ** inv(w), w

    @staticmethod
    def _hooks(ns, q):
        for n in ns:
            for p in enumerate_rl_forests(n):
                _in_n_t(spec_qt(H_of_forest(p), q))

    def test_small_example(self):
        # wt(321) at q = 2; UniPoly prints t as q
        assert spec_qt(wt_perm_recursive((3, 2, 1)), 2).num.to_string() == \
            "q^10+q^9+q^8+2q^7+q^6+q^5+q^4"

    @pytest.mark.parametrize("q", [2, 3])
    def test_weights_up_to_6(self, q):
        self._weights(range(7), q)

    def test_hooks_up_to_5(self):
        self._hooks(range(6), 2)

    @pytest.mark.slow
    @pytest.mark.parametrize("q", [2, 3])
    def test_weights_7(self, q):
        self._weights([7], q)

    @pytest.mark.slow
    def test_weights_up_to_6_at_q_5(self):
        self._weights(range(7), 5)

    @pytest.mark.slow
    @pytest.mark.parametrize("q", [2, 3])
    def test_hooks_up_to_6(self, q):
        self._hooks(range(7), q)


class TestSizeBound:
    def test_oversized_power_under_every_map(self):
        f = parse_ratfunc("x1^65535*x2")
        with pytest.raises(SizeBoundError):
            spec_q(f)
        with pytest.raises(SizeBoundError):
            spec_qt(f, 2)
        # under x_i -> q the same value is one term
        assert _substitute(f, _all_q_var).to_string() == "q^65536"

    def test_binomial_atom_is_bounded_before_its_power(self):
        with pytest.raises(SizeBoundError):
            spec_q(parse_ratfunc("1/(1-x1^65535)"))
        with pytest.raises(SizeBoundError):
            spec_q(parse_ratfunc("(x1+x2^2)/(1-x1^65535)"))

    def test_dense_power_just_above_the_limit(self):
        # (1-q)^e has e + 1 terms, each below 2^e: (e + 1)^2 bits with the sign
        e = isqrt(MAX_SPEC_BITS)
        assert e * e <= MAX_SPEC_BITS < (e + 1) ** 2
        with pytest.raises(SizeBoundError):
            spec_q(parse_ratfunc(f"x1^{e}"))

    def test_sparse_binomial_power_counts_its_terms(self):
        # (t^(2^19) - t^(2^20))^24 has coefficients below 2^24, a span of
        # 24 * 2^19 and 2^24 products of terms, but only 25 terms
        got = spec_qt(parse_ratfunc("x20^24"), 2)
        assert 24 * 24 * 2 ** 19 > MAX_SPEC_BITS and 24 * 2 ** 24 > MAX_SPEC_BITS
        assert got.is_polynomial() and len(got.num.coeffs) == 25

    def test_many_sparse_binomials_still_expand(self):
        # H of an antichain maps to prod_k sum_{j < m_k} t^(a_k j) under (q,t)
        # at q = 2, with a_k = 2^(k-1) and m_k = 2^(n-k+1) - 1: a polynomial
        # of degree about n 2^n, multiplied out from 2n binomials.  Compare
        # its value at t = 2.
        n = 14
        got = spec_qt(H_of_forest(ForestPoset.from_covers(n, [])), 2)
        geometric = [(2 ** (2 ** (k - 1) * (2 ** (n - k + 1) - 1)) - 1)
                     // (2 ** 2 ** (k - 1) - 1) for k in range(1, n + 1)]
        assert got.is_polynomial()
        assert _at_two(got.num) == prod(geometric)
        assert len(got.num.coeffs) > 2000


def _at_two(p):
    """p(2), summed pairwise: a power 2^e per term would be quadratic."""
    items = sorted(p.coeffs.items())

    def total(lo, hi):
        if hi - lo == 1:
            return items[lo][1]
        mid = (lo + hi) // 2
        shift = items[mid][0] - items[lo][0]
        return total(lo, mid) + (total(mid, hi) << shift)

    return total(0, len(items)) << items[0][0]


class TestBWInvFormula:
    def test_vee_example(self):
        assert verify_bw_inv(VEE)
        total = UniPoly.monomial(inv((2, 1, 3))) + UniPoly.monomial(inv((2, 3, 1)))
        assert total == UniPoly({1: 1, 2: 1})  # q + q^2

    def test_chain(self):
        chain = ForestPoset.from_covers(3, [[2, 1], [3, 2]])
        assert verify_bw_inv(chain)

    def test_sweep_small(self):
        for n in range(0, 6):
            for p in enumerate_rl_forests(n):
                assert verify_bw_inv(p), p

    def test_intro_forest(self):
        intro = ForestPoset.from_covers(
            10, [[1, 2], [3, 2], [4, 3], [5, 3], [6, 7], [8, 7],
                 [9, 10], [10, 7]])
        assert verify_bw_inv(intro)
        # closed form: q^3 [10]!_q / ([5]_q [3]_q [5]_q [2]_q)
        den = q_bracket(5) * q_bracket(3) * q_bracket(5) * q_bracket(2)
        closed = UniRatFunc(q_factorial(10) * UniPoly.monomial(3), den)
        assert spec_q(H_of_forest(intro)) == closed

    def test_q_one_recovers_knuth_count(self):
        import math
        for n in range(0, 7):
            for p in enumerate_rl_forests(n):
                value = spec_q(H_of_forest(p))
                hooks = 1
                for i in range(1, n + 1):
                    hooks *= subtree_data(p, i)[2]
                got = value.num(1) / value.den(1)
                assert got == Fraction(math.factorial(n), hooks)
