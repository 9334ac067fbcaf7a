"""Shuffle algebra, the two maps into the twisted algebra, P-partitions."""

import os
import subprocess
import sys
from fractions import Fraction
from itertools import islice, permutations
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import hookweight
from hookweight import fqsym
from hookweight.combinat import (
    DualForestPoset,
    ForestPoset,
    _Memo,
    dual_forest_stats,
    enumerate_dual_forests,
    enumerate_rl_forests,
    linear_extensions,
    validate_recursively_labelled,
)
from hookweight.fqsym import (
    FQSymElem,
    check_pbt_morphism,
    check_phimaj_morphism,
    concat_forests,
    dual_forest_prereqs,
    f_of_poset,
    fqsym_mul,
    gamma_dual_forest,
    gamma_extension_sum,
    gamma_perm,
    phi_inv,
    phi_maj,
    ppartition_series,
    shuffles,
    verify_bw_maj,
)
from hookweight.parsing import parse_ratfunc
from hookweight.qanalog import SkewElem, divided_power, skew_equal, skew_mul
from hookweight.ratfunc import Monomial, RatFunc, rf_equal
from hookweight.specialize import verify_bw_inv
from hookweight.weights import (H_of_forest, L_of_forest,
                                NotRecursivelyLabelledError, wt_perm_recursive)
from oracles import (fqsym_mul_by_insert, gamma_dual_forest_series,
                     shuffles_by_insert)

F = FQSymElem.basis
VEE = ForestPoset.from_covers(3, [[1, 2], [3, 2]])
JOIN = DualForestPoset.from_covered_by(3, [[1, 3], [2, 3]])


def sigma_and_lambda(nmax):
    """The sums of F_{12...n} and of (-1)^n F_{n...1} over 0 <= n <= nmax."""
    return (sum((F(range(1, n + 1)) for n in range(nmax + 1)), FQSymElem.zero()),
            sum(((-1) ** n * F(range(n, 0, -1)) for n in range(nmax + 1)),
                FQSymElem.zero()))


def small_perm_words(max_n=3):
    return st.integers(0, max_n).flatmap(
        lambda n: st.permutations(list(range(1, n + 1)))).map(tuple)


class TestShuffleProduct:
    def test_unit(self):
        assert fqsym_mul(FQSymElem.one(), F([2, 1])) == F([2, 1])
        assert fqsym_mul(F([2, 1]), FQSymElem.one()) == F([2, 1])

    def test_f1_times_f213(self):
        prod = fqsym_mul(F([1]), F([2, 1, 3]))
        assert prod == F([1, 3, 2, 4]) + F([3, 1, 2, 4]) + \
            F([3, 2, 1, 4]) + F([3, 2, 4, 1])

    def test_f12_times_f1(self):
        prod = fqsym_mul(F([1, 2]), F([1]))
        assert prod == F([1, 2, 3]) + F([1, 3, 2]) + F([3, 1, 2])

    def test_shuffle_count(self):
        from math import comb
        assert sum(1 for _ in shuffles((1, 2), (3, 4, 5))) == comb(5, 2)

    def test_shuffle_order(self):
        # ascending positions of the left word, as the old recursion listed
        assert list(shuffles((1, 2), (3, 4))) == [
            (1, 2, 3, 4), (1, 3, 2, 4), (1, 3, 4, 2),
            (3, 1, 2, 4), (3, 1, 4, 2), (3, 4, 1, 2)]

    def test_patterns_match_the_insert_oracle(self):
        # every word pair with |a| + |b| <= 7, an empty side and the
        # one-letter results included: same shuffles in the same order
        words = [w for n in range(0, 8) for w in permutations(range(1, n + 1))]
        for a in words:
            for b in words:
                if len(a) + len(b) <= 7:
                    shifted = tuple(v + len(a) for v in b)
                    assert list(shuffles(a, shifted)) == \
                        list(shuffles_by_insert(a, shifted)), (a, b)
                    assert fqsym_mul(F(a), F(b)).terms == \
                        fqsym_mul_by_insert({a: 1}, {b: 1}), (a, b)

    def test_product_coefficients_match_the_insert_oracle(self):
        # several words a side, Fraction coefficients, and words that the
        # products of pairs of other lengths share, cancelling or adding up
        words = [w for n in range(0, 5) for w in permutations(range(1, n + 1))]
        for i, a in enumerate(words):
            for b in words[i:]:
                if len(a) + len(b) > 5:
                    continue
                for x, y in (({a: 1, b: -1}, {a: 1, b: 1}),
                             ({a: Fraction(1, 2), b: 3},
                              {b: Fraction(-2, 3), a: 1}),
                             ({a: 2}, {b: Fraction(5, 7)})):
                    prod = fqsym_mul(FQSymElem(x), FQSymElem(y)).terms
                    assert prod == fqsym_mul_by_insert(x, y), (x, y)
        x = {(1,): 1, (2, 1): -1}
        y = {(1, 2): 1, (1,): 1}
        prod = fqsym_mul(FQSymElem(x), FQSymElem(y)).terms
        assert prod == fqsym_mul_by_insert(x, y)
        # F_1 F_12 and F_21 F_1 share 213 and 231, which cancel
        assert (2, 1, 3) not in prod and (2, 3, 1) not in prod

    def test_long_word_product(self):
        # longer than the recursion limit: shuffles must not recurse per letter
        prod = fqsym_mul(F(range(1, 1201)), F([1]))
        assert len(prod.terms) == 1201
        assert (1201,) + tuple(range(1, 1201)) in prod.terms

    @given(small_perm_words(), small_perm_words(), small_perm_words())
    def test_associative(self, a, b, c):
        fa, fb, fc = F(a), F(b), F(c)
        assert fqsym_mul(fqsym_mul(fa, fb), fc) == fqsym_mul(fa, fqsym_mul(fb, fc))

    def test_string_form(self):
        elem = F([2, 1]) + F([1]).scale(3)
        assert str(elem) == "3*F[1] + F[2,1]"

    def test_int_and_fraction_coefficients_are_equal(self):
        assert FQSymElem({(1,): Fraction(2)}) == FQSymElem({(1,): 2})
        assert FQSymElem({(1,): Fraction(1, 2)}) != FQSymElem({(1,): 1})
        assert F([1]) + F([1]).scale(-1) == FQSymElem.zero()

    def test_zero_coefficients_are_dropped(self):
        w = (2, 3, 1)
        assert F(w).scale(0) == FQSymElem.zero()
        assert (F(w) + F([1])).scale(Fraction(0)).terms == {}
        cancel = F(w).scale(Fraction(1, 2)) + F(w).scale(Fraction(-1, 2))
        assert cancel == FQSymElem.zero() and cancel.terms == {}
        assert (F(w) + F([1]) + F(w).scale(-1)).terms == {(1,): 1}

    def test_constructor_rejects_non_permutations(self):
        for word in [(1, 1), (2,), (0, 1)]:
            with pytest.raises(ValueError):
                FQSymElem({word: 1})

    def test_constructor_rejects_non_rational_coefficients(self):
        with pytest.raises(TypeError):
            FQSymElem({(1, 2): 0.5})
        with pytest.raises(TypeError):
            F([1]).scale(0.5)

    def test_increasing_times_signed_decreasing_is_one(self):
        # NSym's sigma * lambda_{-1} = 1: below the truncation degree 7,
        # only the unit is left
        sigma, lam = sigma_and_lambda(6)
        prod = (sigma * lam).terms
        assert FQSymElem({w: c for w, c in prod.items() if len(w) <= 6}) == 1
        assert any(len(w) == 7 for w in prod)

    def test_product_is_a_valid_element(self):
        # the product skips validation; rebuilding it through the validating
        # constructor, which drops zero coefficients, must change nothing
        words = [w for n in range(0, 5) for w in permutations(range(1, n + 1))]
        for a in words:
            for b in words:
                if len(a) + len(b) > 5:
                    continue
                # F_1 F_12 and F_12 F_1 share the word 123, which cancels
                for x, y in ((F(a), F(b)), (F(a) + F(b).scale(-1), F(a) + F(b)),
                             (F(a).scale(Fraction(1, 2)), F(b).scale(3))):
                    prod = fqsym_mul(x, y)
                    assert FQSymElem(prod.terms) == prod, (x, y)


class TestFOfPoset:
    def test_chain_is_identity_basis(self):
        chain = ForestPoset.from_covers(4, [[2, 1], [3, 2], [4, 3]])
        assert f_of_poset(chain) == F([1, 2, 3, 4])

    def test_vee(self):
        assert f_of_poset(VEE) == F([2, 1, 3]) + F([2, 3, 1])

    def test_keys_are_plain_tuples(self):
        dual = DualForestPoset.from_covered_by(3, [[1, 3], [2, 3]])
        for p in (VEE, dual, ForestPoset(4, (0,) * 4)):
            assert {type(w) for w in f_of_poset(p)._d} == {tuple}, p

    def test_product_law_exhaustive(self):
        for k in range(1, 6):
            for l in range(1, 7 - k):
                for p in enumerate_rl_forests(k):
                    for q in enumerate_rl_forests(l):
                        assert fqsym_mul(f_of_poset(p), f_of_poset(q)) == \
                            f_of_poset(concat_forests(p, q)), (p, q)


class TestPhiInv:
    def test_empty(self):
        assert skew_equal(phi_inv(FQSymElem.one()), SkewElem.one())

    def test_single_basis(self):
        got = phi_inv(F([2, 1, 3]))
        expected = skew_mul(SkewElem.term(wt_perm_recursive((2, 1, 3)), 0),
                            divided_power(3))
        assert skew_equal(got, expected)

    def test_poset_value(self):
        got = phi_inv(f_of_poset(VEE))
        # L(P) u^{(3)} with L(P) = (x2+x3)/x1 and [3]! = (x1+x2+x3)(x2+x3)x3
        coeff = parse_ratfunc("(x2+x3)/(x1(x1+x2+x3)(x2+x3)x3)")
        assert skew_equal(got, SkewElem({3: coeff}))

    def test_counterexample_not_morphism(self):
        lhs = phi_inv(fqsym_mul(F([1]), F([2, 1, 3])))
        rhs = skew_mul(phi_inv(F([1])), phi_inv(F([2, 1, 3])))
        assert not skew_equal(lhs, rhs)

    def test_exponential_times_logarithm_is_one(self):
        # chains are forests, so phi_inv multiplies sigma * lambda_{-1} = 1:
        # (sum u^{(n)}) * (sum (-1)^n u^n / prod_{i<=n} [i]) = 1 below u^6
        sigma, lam = sigma_and_lambda(5)
        exp = phi_inv(sigma)
        assert exp == sum((divided_power(n) for n in range(6)), SkewElem.zero())
        prod = (exp * phi_inv(lam)).coeffs
        assert SkewElem({n: f for n, f in prod.items() if n <= 5}) == 1

    def test_mixed_degrees_and_coefficients(self):
        elem = F([1]).scale(Fraction(1, 2)) + F([2, 1]).scale(-3)
        got = phi_inv(elem)
        assert skew_equal(got, SkewElem({
            1: RatFunc.from_const(Fraction(1, 2)) * phi_inv(F([1])).coeffs[1],
            2: RatFunc.from_const(-3) * phi_inv(F([2, 1])).coeffs[2],
        }))

    @pytest.mark.parametrize("size, holds, pairs", [
        (4, 12, 16),
        (5, 36, 72),
        pytest.param(6, 124, 372, marks=pytest.mark.slow),
    ])
    def test_basis_pairs_where_the_morphism_holds(self, size, holds, pairs):
        # phi_inv(F_u F_v) = phi_inv(F_u) phi_inv(F_v) on exactly this many
        # basis pairs with |u|, |v| >= 1 and |u| + |v| = size
        cases = [(u, v) for k in range(1, size)
                 for u in permutations(range(1, k + 1))
                 for v in permutations(range(1, size - k + 1))]
        assert len(cases) == pairs
        assert sum(skew_equal(phi_inv(fqsym_mul(F(u), F(v))),
                              skew_mul(phi_inv(F(u)), phi_inv(F(v))))
                   for u, v in cases) == holds


class TestPbtMorphism:
    def test_singletons(self):
        single = ForestPoset.from_covers(1, [])
        assert check_pbt_morphism(single, single)

    def test_vee_with_singleton(self):
        single = ForestPoset.from_covers(1, [])
        assert check_pbt_morphism(VEE, single)
        assert check_pbt_morphism(single, VEE)

    def test_pairs_up_to_total_five(self):
        for n1 in range(1, 5):
            for n2 in range(1, 6 - n1):
                for p in enumerate_rl_forests(n1):
                    for q in enumerate_rl_forests(n2):
                        assert check_pbt_morphism(p, q), (p, q)

    @pytest.mark.parametrize("order", ["bad_first", "bad_second"])
    def test_refuses_forest_not_recursively_labelled(self, order):
        # the product law holds for this pair, but phi_inv is not
        # multiplicative on it, so a True here would be wrong
        pair = (ForestPoset.from_covers(3, [[3, 1]]),
                ForestPoset.from_covers(1, []))
        p, q = pair if order == "bad_first" else pair[::-1]
        fp, fq = f_of_poset(p), f_of_poset(q)
        assert fqsym_mul(fp, fq) == f_of_poset(concat_forests(p, q))
        assert not skew_equal(phi_inv(fqsym_mul(fp, fq)),
                              skew_mul(phi_inv(fp), phi_inv(fq)))
        with pytest.raises(NotRecursivelyLabelledError):
            check_pbt_morphism(p, q)


class TestMorphismCheck:
    """Both morphism checks fail when the product law fails."""

    def test_broken_product_law_fails_both_checks(self, monkeypatch):
        real = fqsym.fqsym_mul

        def drop_one_word(x, y):
            terms = dict(real(x, y).terms)
            del terms[max(terms)]
            return FQSymElem._from_dict(terms)

        monkeypatch.setattr(fqsym, "fqsym_mul", drop_one_word)
        single = ForestPoset.from_covers(1, [])
        assert not check_pbt_morphism(VEE, single)
        assert not check_pbt_morphism(single, single)
        join = DualForestPoset.from_covered_by(3, [[1, 3], [2, 3]])
        assert not check_phimaj_morphism(join, DualForestPoset.from_covered_by(1, []))
        monkeypatch.undo()
        assert check_pbt_morphism(VEE, single)
        assert check_phimaj_morphism(join, DualForestPoset.from_covered_by(1, []))

    def test_concat_dual_forests(self):
        # the shifted union keeps the kind of its arguments
        for n1 in range(0, 6):
            for n2 in range(0, 6 - n1):
                for p in enumerate_dual_forests(n1):
                    for q in enumerate_dual_forests(n2):
                        union = concat_forests(p, q)
                        pairs = p.covers() + [(i + n1, t + n1)
                                              for i, t in q.covers()]
                        assert type(union) is DualForestPoset
                        assert union == DualForestPoset.from_covered_by(
                            n1 + n2, pairs), (p, q)

    def test_concat_forests_keeps_the_kind(self):
        union = concat_forests(VEE, ForestPoset.from_covers(2, [[2, 1]]))
        assert type(union) is ForestPoset
        assert union.covers() == [(1, 2), (3, 2), (5, 4)]


class TestWrongKindOfForest:
    """A forest of the other kind is refused, not read the other way round
    from its parent array."""

    CASES = [
        (L_of_forest, JOIN, "ForestPoset"),
        (H_of_forest, JOIN, "ForestPoset"),
        (validate_recursively_labelled, JOIN, "ForestPoset"),
        (verify_bw_inv, JOIN, "ForestPoset"),
        (check_pbt_morphism, VEE, JOIN, "ForestPoset"),
        (check_pbt_morphism, JOIN, VEE, "ForestPoset"),
        (check_phimaj_morphism, JOIN, VEE, "DualForestPoset"),
        (check_phimaj_morphism, VEE, JOIN, "ForestPoset"),
        (check_phimaj_morphism, VEE, VEE, "DualForestPoset"),
        (concat_forests, VEE, JOIN, "ForestPoset"),
        (concat_forests, JOIN, VEE, "DualForestPoset"),
        (dual_forest_stats, VEE, "DualForestPoset"),
        (dual_forest_prereqs, VEE, "DualForestPoset"),
        (gamma_dual_forest, VEE, "DualForestPoset"),
        (verify_bw_maj, VEE, "DualForestPoset"),
    ]

    @pytest.mark.parametrize("case", CASES, ids=[
        f"{fn.__name__}({', '.join(type(p).__name__ for p in args)})"
        for fn, *args, _ in CASES])
    def test_raises_type_error_naming_the_kind(self, case):
        fn, *args, expected = case
        other = ({"ForestPoset", "DualForestPoset"} - {expected}).pop()
        with pytest.raises(TypeError,
                           match=rf"^expected a {expected}, got {other}$"):
            fn(*args)


class TestGamma:
    def test_single_letter(self):
        assert rf_equal(gamma_perm([1]), parse_ratfunc("1/(1-x1)"))

    def test_descent_word(self):
        assert rf_equal(gamma_perm([2, 1]),
                        parse_ratfunc("x2/((1-x2)(1-x1x2))"))

    def test_increasing_word(self):
        assert rf_equal(gamma_perm([1, 2, 3]),
                        parse_ratfunc("1/((1-x1)(1-x1x2)(1-x1x2x3))"))

    def test_dual_forest_join(self):
        p = DualForestPoset.from_covered_by(3, [[1, 3], [2, 3]])
        assert rf_equal(gamma_dual_forest(p),
                        parse_ratfunc("1/((1-x1)(1-x2)(1-x1x2x3))"))

    def test_chain_specializes_to_gamma_perm(self):
        for w in permutations(range(1, 5)):
            pairs = [[w[i], w[i + 1]] for i in range(len(w) - 1)]
            chain = DualForestPoset.from_covered_by(len(w), pairs)
            assert rf_equal(gamma_dual_forest(chain), gamma_perm(w)), w

    def test_extension_sum_flat_oracle(self):
        for n in range(0, 4):
            for p in enumerate_dual_forests(n):
                flat = RatFunc.from_const(0)
                for w in linear_extensions(p):
                    flat = flat + gamma_perm(w)
                grouped = gamma_extension_sum(dual_forest_prereqs(p))
                assert rf_equal(flat, grouped), p

    def test_extension_sum_equals_product_small(self):
        for n in range(0, 5):
            for p in enumerate_dual_forests(n):
                assert rf_equal(gamma_extension_sum(dual_forest_prereqs(p)),
                                gamma_dual_forest(p)), p

    def test_works_for_upward_forests_too(self):
        # forest posets are general posets as far as the sum is concerned
        # 2 < 1 and 2 < 3: element 2 comes first
        got = gamma_extension_sum([frozenset({2}), frozenset(), frozenset({2})])
        flat = gamma_perm((2, 1, 3)) + gamma_perm((2, 3, 1))
        assert rf_equal(got, flat)

    @pytest.mark.parametrize("args, element, n", [
        (([frozenset({0})],), 0, 1),
        (([frozenset({5})],), 5, 1),
    ])
    def test_elements_outside_1_to_n_raise(self, fresh_memos, args,
                                           element, n):
        # the shared memo must not see them either
        with pytest.raises(ValueError,
                           match=rf"^element {element} is outside 1\.\.{n}$"):
            gamma_extension_sum(*args)
        assert not fqsym._GAMMA_MEMO

    def test_extension_sum_flat_oracle_every_poset(self):
        # every strict partial order on {1..n}, n <= 4, given as the
        # transitively closed sets of elements forced before each element
        for n in range(0, 5):
            pairs = [(a, b) for a in range(1, n + 1) for b in range(1, n + 1)
                     if a != b]
            for bits in range(1 << len(pairs)):
                below = [frozenset()] * n  # below[b - 1]: forced before b
                for j, (a, b) in enumerate(pairs):
                    if bits >> j & 1:
                        below[b - 1] = below[b - 1] | {a}
                if any(b in below[a - 1] or not below[a - 1] <= below[b - 1]
                       for b in range(1, n + 1) for a in below[b - 1]):
                    continue  # not antisymmetric or not transitive
                flat = RatFunc.from_const(0)
                for w in permutations(range(1, n + 1)):
                    if all(below[v - 1] <= set(w[:i])
                           for i, v in enumerate(w)):
                        flat = flat + gamma_perm(w)
                assert rf_equal(gamma_extension_sum(below), flat), below

    def test_antichains_6_and_7_promptly(self):
        # the 20 s timeout bounds "promptly"; the backward fold over upper
        # sets did not finish the 6-antichain in minutes
        script = (
            "from hookweight.combinat import DualForestPoset\n"
            "from hookweight.fqsym import (dual_forest_prereqs,\n"
            "    gamma_dual_forest, gamma_extension_sum)\n"
            "from hookweight.ratfunc import rf_equal\n"
            "for n in (6, 7):\n"
            "    p = DualForestPoset.from_covered_by(n, [])\n"
            "    assert rf_equal(gamma_extension_sum(dual_forest_prereqs(p)),\n"
            "                    gamma_dual_forest(p)), n\n")
        env = dict(os.environ)
        src = str(Path(hookweight.__file__).resolve().parent.parent)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p)
        proc = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=20)
        assert proc.returncode == 0, proc.stderr


def _flat_gamma(below):
    """Sum of gamma_perm over the words of S_n, n = len(below), that
    respect ``below``: below[v - 1] precedes v."""
    flat = RatFunc.from_const(0)
    for w in permutations(range(1, len(below) + 1)):
        if all(below[v - 1] <= set(w[:i]) for i, v in enumerate(w)):
            flat = flat + gamma_perm(w)
    return flat


class TestGammaMemo:
    """The memo of proper ideals that calls of gamma_extension_sum share
    changes no answer."""

    @staticmethod
    def forests(nmax):
        return [p for n in range(nmax + 1) for p in enumerate_dual_forests(n)]

    def test_cold_and_warm_in_both_orders(self, fresh_memos):
        forests = self.forests(5)
        for order in (forests, forests[::-1]):
            fresh_memos()
            for _warm in (False, True):
                for p in order:
                    assert rf_equal(gamma_extension_sum(dual_forest_prereqs(p)),
                                    gamma_dual_forest(p)), p
            memo = fqsym._GAMMA_MEMO
            assert 0 < len(memo) == memo.budget - memo.room <= memo.budget

    def test_one_ideal_under_two_orders(self, fresh_memos):
        # the ideal {1, 2} is the chain 1 < 2 in one poset and an antichain
        # in the other; each poset meets the other's entry for it
        chain = [frozenset(), frozenset({1}), frozenset({1, 2})]
        antichain = [frozenset(), frozenset(), frozenset({1, 2})]
        for first, second in ((chain, antichain), (antichain, chain)):
            fresh_memos()
            for below in (first, second):
                assert rf_equal(gamma_extension_sum(below),
                                _flat_gamma(below)), below
            pairs = {key for key in fqsym._GAMMA_MEMO if key[0] == 0b11}
            assert pairs == {(0b11, (0, 0b01)), (0b11, (0, 0))}
            # only proper ideals are stored
            assert all(key[0] != 0b111 for key in fqsym._GAMMA_MEMO)

    def test_small_cap_bounds_the_memo(self, monkeypatch):
        monkeypatch.setattr(fqsym, "_GAMMA_MEMO", _Memo(7))
        for p in self.forests(5):
            assert rf_equal(gamma_extension_sum(dual_forest_prereqs(p)),
                            gamma_dual_forest(p)), p
            assert len(fqsym._GAMMA_MEMO) <= 7
        assert len(fqsym._GAMMA_MEMO) == 7

    def test_stored_ends_never_change(self, fresh_memos):
        forests = self.forests(4)
        for p in forests:
            gamma_extension_sum(dual_forest_prereqs(p))
        stored = {key: (ends, {last: (v._c, dict(v._num), dict(v._fac))
                               for last, v in ends.items()})
                  for key, ends in fqsym._GAMMA_MEMO.items()}
        for p in forests[::-1] + self.forests(5):
            gamma_extension_sum(dual_forest_prereqs(p))
        for key, (ends, fields) in stored.items():
            assert fqsym._GAMMA_MEMO[key] is ends
            assert {last: (v._c, v._num, v._fac)
                    for last, v in ends.items()} == fields, key


class TestPhiMaj:
    def test_basis_values(self):
        for w in [(1,), (2, 1, 3), (3, 1, 2)]:
            assert skew_equal(phi_maj(F(w)), SkewElem({len(w): gamma_perm(w)}))

    def test_empty(self):
        assert skew_equal(phi_maj(FQSymElem.one()), SkewElem.one())

    def test_morphism_generic_small(self):
        for n1 in range(1, 3):
            for n2 in range(1, 3):
                for p in enumerate_dual_forests(n1):
                    for q in enumerate_dual_forests(n2):
                        fp = FQSymElem({tuple(w): 1 for w in linear_extensions(p)})
                        fq = FQSymElem({tuple(w): 1 for w in linear_extensions(q)})
                        lhs = phi_maj(fqsym_mul(fp, fq))
                        rhs = skew_mul(phi_maj(fp), phi_maj(fq))
                        assert skew_equal(lhs, rhs), (p, q)

    def test_morphism_via_extension_sums(self):
        # every pair of dual forests with n1 + n2 <= 5: 394 pairs
        pools = {n: list(enumerate_dual_forests(n)) for n in range(1, 5)}
        pairs = [(p, q) for n1 in range(1, 5) for n2 in range(1, 6 - n1)
                 for p in pools[n1] for q in pools[n2]]
        assert len(pairs) == 394
        for p, q in pairs:
            assert check_phimaj_morphism(p, q), (p, q)

    def test_long_words(self):
        # longer than the recursion limit: the trie fold must not recurse
        # once per letter
        for w in (tuple(range(1, 1201)), tuple(range(1200, 0, -1))):
            assert skew_equal(phi_maj(F(w)), SkewElem({1200: gamma_perm(w)}))

    def test_poset_image_is_extension_sum(self):
        p = DualForestPoset.from_covered_by(3, [[1, 3], [2, 3]])
        fp = FQSymElem({tuple(w): 1 for w in linear_extensions(p)})
        got = phi_maj(fp)
        assert skew_equal(got, SkewElem(
            {3: gamma_extension_sum(dual_forest_prereqs(p))}))


class TestBWMaj:
    def test_identity_chain(self):
        chain = DualForestPoset.from_covered_by(3, [[1, 2], [2, 3]])
        assert verify_bw_maj(chain)

    def test_join_example(self):
        p = DualForestPoset.from_covered_by(3, [[1, 3], [2, 3]])
        assert verify_bw_maj(p)

    def test_two_element_descent(self):
        assert verify_bw_maj(DualForestPoset.from_covered_by(2, [[2, 1]]))

    def test_sweep_n_le_4(self):
        for n in range(0, 5):
            for p in enumerate_dual_forests(n):
                assert verify_bw_maj(p), p

    def test_reads_the_stats_once(self, monkeypatch):
        calls = []

        def counted(p):
            calls.append(p)
            return dual_forest_stats(p)

        monkeypatch.setattr(fqsym, "dual_forest_stats", counted)
        p = DualForestPoset.from_covered_by(3, [[1, 3], [2, 3]])
        assert verify_bw_maj(p) and calls == [p]


class TestPPartitionOracle:
    def test_truncated_series_match(self):
        for n in range(1, 5):
            for p in islice(enumerate_dual_forests(n), 60):
                for d in (3, 4):
                    assert ppartition_series(p, d) == \
                        gamma_dual_forest_series(p, d), (p, d)

    def test_strict_descent_condition(self):
        p = DualForestPoset.from_covered_by(2, [[2, 1]])
        series = ppartition_series(p, 2)
        # f(2) > f(1) >= 0, so the constant term is absent
        assert series.coefficient(Monomial()) == 0
        assert series.coefficient(Monomial({2: 1})) == 1
