"""Subset/permutation weights and the two sides of the hook identity."""

from functools import lru_cache
from itertools import combinations, permutations

import pytest

from helpers import run_python
from oracles import L_direct, L_split_term_by_products, wt_subset_recursive
from hookweight import qanalog, weights

from hookweight.combinat import (
    ForestPoset,
    enumerate_rl_forests,
    inv,
    subtree_data,
)
from hookweight.parsing import parse_ratfunc
from hookweight.qanalog import binomial, bracket, bracket_factorial
from hookweight.ratfunc import (
    RatFunc,
    frobenius,
    rf_add,
    rf_equal,
    rf_frobenius,
    rf_mul,
    rf_to_canonical_string,
)
from hookweight.weights import (
    H_of_forest,
    L_of_forest,
    NotRecursivelyLabelledError,
    inv_via_tree,
    wt_perm_recursive,
    wt_perm_tree,
    _subset_sum,
    wt_subset,
)

S3_TABLE = {
    (1, 2, 3): "1",
    (1, 3, 2): "x3/x2",
    (2, 1, 3): "x2/x1",
    (2, 3, 1): "x3/x1",
    (3, 1, 2): "((x2+x3)x3)/((x1+x2)x2)",
    (3, 2, 1): "((x2+x3)x3)/((x1+x2)x1)",
}

W9 = (6, 2, 9, 1, 7, 5, 3, 8, 4)
W9_CLOSED_FORM = (
    "(x2 x9^2 (x8+x9)(x6+x7+x8)(x4+x5+x6+x7)(x2+x3+x4+x5+x6))"
    "/(x1 x4 x8 (x3+x4)(x3+x4+x5)(x2+x3+x4+x5)(x1+x2+x3+x4+x5))")

VEE = ForestPoset.from_covers(3, [[1, 2], [3, 2]])
INTRO = ForestPoset.from_covers(
    10, [[1, 2], [3, 2], [4, 3], [5, 3], [6, 7], [8, 7], [9, 10], [10, 7]])


class TestSubsetWeight:
    def test_worked_example(self):
        got = wt_subset([9, 7, 6, 4, 2])
        expected = parse_ratfunc(
            "(x9(x7+x8)(x6+x7+x8)(x4+x5+x6+x7)(x2+x3+x4+x5+x6))"
            "/((x1+x2+x3+x4+x5)(x2+x3+x4+x5)(x3+x4+x5)(x4+x5)x5)")
        assert rf_equal(got, expected)

    def test_staircase_is_one(self):
        for k in range(0, 7):
            s = tuple(range(k, 0, -1))
            assert rf_equal(wt_subset(s), RatFunc.from_const(1))

    def test_singleton(self):
        assert rf_equal(wt_subset([2]), parse_ratfunc("x2/x1"))

    def test_product_equals_recursive(self):
        for n in range(0, 9):
            for k in range(0, n + 1):
                for s in combinations(range(1, n + 1), k):
                    sub = tuple(reversed(s))
                    assert rf_equal(wt_subset(sub),
                                    wt_subset_recursive(sub)), sub

    def test_recursive_takes_many_shifts(self):
        # one Frobenius shift per step: 1199 steps, no recursion depth
        assert rf_equal(wt_subset_recursive([1200]),
                        wt_subset([1200]))

    def test_size_check(self):
        with pytest.raises(ValueError):
            wt_subset([3, 1], k=3)


class TestPermWeight:
    def test_s3_table_recursive(self):
        for w, text in S3_TABLE.items():
            assert rf_equal(wt_perm_recursive(w), parse_ratfunc(text)), w

    def test_s3_table_tree(self):
        for w, text in S3_TABLE.items():
            assert rf_equal(wt_perm_tree(w), parse_ratfunc(text)), w

    def test_canonical_321(self):
        assert rf_to_canonical_string(wt_perm_recursive((3, 2, 1))) == \
            "(x2x3+x3^2)/(x1^2+x1x2)"

    def test_identity_weight_is_one(self):
        for n in range(0, 7):
            w = tuple(range(1, n + 1))
            assert rf_equal(wt_perm_recursive(w), RatFunc.from_const(1))

    def test_decreasing_word(self):
        # wt(n...21) = [n]! / prod_{i<=n} [i]
        for n in range(8):
            expected = RatFunc(bracket_factorial(n))
            for i in range(1, n + 1):
                expected = expected / RatFunc(bracket(i))
            assert rf_equal(wt_perm_recursive(tuple(range(n, 0, -1))),
                            expected), n

    def test_worked_nine_element(self):
        expected = parse_ratfunc(W9_CLOSED_FORM)
        assert rf_equal(wt_perm_recursive(W9), expected)
        assert rf_equal(wt_perm_tree(W9), expected)

    def test_two_definitions_agree_small(self):
        for n in range(0, 7):
            for w in permutations(range(1, n + 1)):
                assert rf_equal(wt_perm_recursive(w), wt_perm_tree(w)), w

    def test_sub_word_memo_in_any_order(self, rng):
        # the memo fills in whatever order the words come
        words = [w for n in range(0, 8) for w in permutations(range(1, n + 1))]
        rng.shuffle(words)
        for w in words:
            assert rf_equal(wt_perm_recursive(w), wt_perm_tree(w)), w

    def test_sub_word_memo_is_capped(self, fresh_memos):
        memo = weights._WT_MEMO
        for n in (1000, 3000):
            w = tuple(range(1, n + 1))
            assert rf_equal(wt_perm_recursive(w), RatFunc.from_const(1))
            held = sum(map(len, memo))
            assert held == memo.budget - memo.room <= memo.budget
            assert w not in memo

    def test_tree_weight_21(self):
        assert rf_equal(wt_perm_tree((2, 1)), parse_ratfunc("x2/x1"))


class TestInvViaTree:
    def test_identity(self):
        assert inv_via_tree((1, 2, 3)) == 0

    def test_worked_example(self):
        assert inv_via_tree((5, 4, 1, 7, 3, 6, 8, 2, 9)) == 13

    def test_321(self):
        assert inv_via_tree((3, 2, 1)) == 3

    def test_matches_inv_small(self):
        for n in range(0, 8):
            for w in permutations(range(1, n + 1)):
                assert inv_via_tree(w) == inv(w)


class TestHookSides:
    def test_vee_values(self):
        left = L_of_forest(VEE)
        right = H_of_forest(VEE)
        assert rf_to_canonical_string(left) == "(x2+x3)/(x1)"
        assert rf_equal(left, right)
        assert rf_equal(left, rf_add(wt_perm_recursive((2, 1, 3)),
                                     wt_perm_recursive((2, 3, 1))))

    def test_chain_is_one(self):
        chain = ForestPoset.from_covers(4, [[2, 1], [3, 2], [4, 3]])
        assert rf_equal(L_of_forest(chain), RatFunc.from_const(1))
        assert rf_equal(H_of_forest(chain), RatFunc.from_const(1))

    def test_two_antichain(self):
        p = ForestPoset.from_covers(2, [])
        assert rf_to_canonical_string(L_of_forest(p)) == "(x1+x2)/(x1)"

    def test_intro_forest_h_assembly(self):
        # assemble H from the subtree data through the public primitives
        num = RatFunc(bracket_factorial(10))
        den = RatFunc.from_const(1)
        for i in range(1, 11):
            lo, _hi, h = subtree_data(INTRO, i)
            den = rf_mul(den, rf_frobenius(RatFunc(bracket(h)), lo - 1))
        assembled = num / den
        assert rf_equal(assembled, H_of_forest(INTRO))

    def test_intro_forest_identity(self):
        assert rf_equal(L_of_forest(INTRO), H_of_forest(INTRO))

    def test_rejects_bad_labelling(self):
        bad = ForestPoset.from_covers(3, [[3, 1]])
        with pytest.raises(NotRecursivelyLabelledError):
            H_of_forest(bad)
        with pytest.raises(NotRecursivelyLabelledError):
            L_of_forest(bad)

    def test_direct_equals_grouped(self):
        for n in range(0, 6):
            for p in enumerate_rl_forests(n):
                assert rf_equal(L_direct(p),
                                L_of_forest(p)), p

    def test_direct_equals_grouped_spot_n6(self):
        spots = [ForestPoset.from_covers(6, []),
                 ForestPoset.from_covers(6, [[1, 2], [3, 2], [6, 5]]),
                 ForestPoset.from_covers(6, [[2, 3], [1, 3], [4, 3], [6, 5]])]
        for p in spots:
            assert rf_equal(L_direct(p), L_of_forest(p))

    def test_split_terms_match_the_product_route(self):
        # every split of every forest with n <= 7, field by field
        for n in range(8):
            for p in enumerate_rl_forests(n):
                L_of_forest(p)  # every part is then in the memo
                for rho, left, right in weights._root_splits(p.n, p.cover):
                    new = weights._split_term(p.n, rho, left, right)
                    old = L_split_term_by_products(p.n, rho, left, right)
                    assert (new._c, new._num, new._fac) == \
                        (old._c, old._num, old._fac), (p, rho)

    def test_hook_identity_n_le_5(self):
        for n in range(0, 6):
            for p in enumerate_rl_forests(n):
                assert rf_equal(L_of_forest(p), H_of_forest(p)), p


class TestStructuralLemmas:
    def test_interval_additivity(self):
        # F^r[s+t] = F^r[s] + F^{r+s}[t]
        for r in range(0, 7):
            for s in range(0, 7):
                for t in range(0, 7):
                    lhs = frobenius(bracket(s + t), r)
                    rhs = frobenius(bracket(s), r) + frobenius(bracket(t), r + s)
                    assert lhs == rhs

    def test_disjoint_union_product(self, rng):
        # H(P ⊔ F^k Q) = binomial(k+l, k) * H(P) * F^k(H(Q))
        from hookweight.fqsym import concat_forests
        pool = {n: list(enumerate_rl_forests(n)) for n in range(1, 6)}
        for _ in range(40):
            k = rng.randint(1, 4)
            l = rng.randint(1, min(4, 7 - k))
            p = rng.choice(pool[k])
            q = rng.choice(pool[l])
            lhs = H_of_forest(concat_forests(p, q))
            rhs = rf_mul(rf_mul(binomial(k + l, k), H_of_forest(p)),
                         rf_frobenius(H_of_forest(q), k))
            assert rf_equal(lhs, rhs)

    def test_binomial_as_subset_sum(self):
        for n in range(0, 10):
            for k in range(0, n + 1):
                total = RatFunc.from_const(0)
                for s in combinations(range(1, n + 1), k):
                    total = rf_add(total, wt_subset(tuple(reversed(s))))
                assert rf_equal(total, binomial(n, k)), (n, k)
                if n > 8:
                    continue
                # the shuffle factor of L(P): k-subsets of {2..n+1}
                total = RatFunc.from_const(0)
                for s in combinations(range(2, n + 2), k):
                    total = rf_add(total, wt_subset(tuple(reversed(s))))
                assert rf_equal(total, _subset_sum(n + 1, k)), (n, k)


@pytest.fixture
def cold_L(fresh_memos, monkeypatch):
    """Fresh memos, and fresh caches of the Pascal checks and subset sums."""
    for module, name in ((qanalog, "_pascal_holds"), (weights, "_subset_sum")):
        cached = getattr(module, name)
        monkeypatch.setattr(module, name,
                            lru_cache(maxsize=None)(cached.__wrapped__))


def test_edge_subset_sums_need_no_proof(cold_L):
    # one subset, of weight 1: the base cases of the Pascal induction
    weights._subset_sum(500, 0), weights._subset_sum(500, 499)
    assert qanalog._pascal_holds.cache_info().misses == 0
    for n in range(1, 9):
        for k in (0, n - 1):
            value = weights._subset_sum(n, k)
            proved = qanalog._shift_ratio(k) * qanalog._proved_binomial(
                n - 1, k).frobenius(1)
            assert (value._c, value._num, value._fac) == \
                (proved._c, proved._num, proved._fac), (n, k)


def test_unproved_binomial_raises(cold_L, monkeypatch):
    # binomial(4, 2) with one atom dropped fails its Pascal check, and the
    # antichain with n = 6 rests on it through _subset_sum(6, 2)
    exact = qanalog.binomial

    def mutated(n, k):
        value = exact(n, k)
        if (n, k) != (4, 2):
            return value
        fac = dict(value._fac)
        fac.pop(next(iter(fac)))
        return RatFunc._from_atoms(fac, value._c)

    antichain = ForestPoset.from_covers(6, [])
    with monkeypatch.context() as patch:
        patch.setattr(qanalog, "binomial", mutated)
        with pytest.raises(AssertionError, match=r"binomial\(4, 2\)"):
            L_of_forest(antichain)
    # the failed checks are verdicts on the mutated binomial; every cached
    # value must still be exact
    qanalog._pascal_holds.cache_clear()
    for (n, cover), value in list(weights._L_MEMO.items()):
        assert rf_equal(value, H_of_forest(ForestPoset(n, cover))), n
    assert rf_equal(L_of_forest(antichain), H_of_forest(antichain))


_WIDE_FOREST = """
import sys
from hookweight.combinat import ForestPoset
from hookweight.ratfunc import rf_equal
from hookweight.weights import H_of_forest, L_of_forest
p = ForestPoset.from_covers({n}, {covers})
sys.exit(0 if rf_equal(L_of_forest(p), H_of_forest(p)) else 1)
"""


@pytest.mark.parametrize("covers", [[], [[i, 30] for i in range(1, 30)]],
                         ids=["antichain", "star"])
def test_wide_forest_n30(covers):
    # 30! extensions; the star's root has label 30, so its one group sums
    # over all 29-subsets.  The 60 s timeout bounds the time.
    proc = run_python("-c", _WIDE_FOREST.format(n=30, covers=covers),
                      timeout=60)
    assert proc.returncode == 0, proc.stderr


_DEEP_CHAIN = """
import sys
sys.setrecursionlimit(100)
from hookweight.combinat import ForestPoset
from hookweight.fqsym import check_pbt_morphism
from hookweight.ratfunc import rf_equal
from hookweight.weights import H_of_forest, L_of_forest
chain = ForestPoset.from_covers(300, [[i + 1, i] for i in range(1, 300)])
assert rf_equal(L_of_forest(chain), H_of_forest(chain))
assert check_pbt_morphism(chain, ForestPoset.from_covers(1, []))
"""


def test_deep_chain_without_recursion():
    # 300 levels of subforests under a recursion limit of 100: L(P) and the
    # pbt check must sum them without recursing
    proc = run_python("-c", _DEEP_CHAIN, timeout=60)
    assert proc.returncode == 0, proc.stderr
