"""Permutation statistics, trees, forests, and their enumerators."""

import hashlib
import random
from collections import Counter
from itertools import permutations, product

import pytest
from hypothesis import given, settings, strategies as st

from hookweight.combinat import (
    DualForestPoset,
    ForestPoset,
    Permutation,
    SubsetK,
    count_linear_extensions,
    descents,
    dual_forest_stats,
    enumerate_dual_forests,
    enumerate_rl_forests,
    extension_stat_counts,
    inv,
    inv_poset,
    linear_extensions,
    maj,
    parabolic_factorization,
    recompose_parabolic,
    set_of_grassmannian,
    subset_to_partition,
    subtree_data,
    tree_pair_stats,
    validate_recursively_labelled,
)
from oracles import increasing_binary_tree

INTRO_COVERS = [[1, 2], [3, 2], [4, 3], [5, 3], [6, 7], [8, 7], [9, 10], [10, 7]]


def intro_forest() -> ForestPoset:
    return ForestPoset.from_covers(10, INTRO_COVERS)


def brute_inv(w):
    return sum(1 for i in range(len(w)) for j in range(i + 1, len(w))
               if w[i] > w[j])


class TestPermutationStats:
    def test_identity(self):
        assert inv((1, 2, 3, 4)) == 0
        assert maj((1, 2, 3, 4)) == 0
        assert descents((1, 2, 3, 4)) == frozenset()

    def test_small_values(self):
        assert inv((2, 1, 3)) == 1
        assert inv((3, 2, 1)) == 3
        assert maj((2, 1, 3)) == 1 and descents((2, 1, 3)) == {1}
        assert maj((3, 2, 1)) == 3 and descents((3, 2, 1)) == {1, 2}

    def test_inv_against_brute_force(self):
        for n in range(0, 6):
            for w in permutations(range(1, n + 1)):
                assert inv(w) == brute_inv(w)

    def test_permutation_validation(self):
        with pytest.raises(ValueError):
            Permutation((1, 3))
        with pytest.raises(ValueError):
            Permutation((2, 2))

    def test_inverse(self):
        w = Permutation((5, 4, 1, 7, 3, 6, 8, 2, 9))
        assert tuple(w.inverse()) == (3, 8, 5, 2, 1, 6, 4, 7, 9)
        assert w.inverse().inverse() == w


class TestParabolicFactorization:
    def test_worked_nine_element(self):
        u, a, bhat, k = parabolic_factorization((6, 2, 9, 1, 7, 5, 3, 8, 4))
        assert k == 5
        assert tuple(a) == (2, 1, 5, 3, 4)
        assert tuple(bhat) == (3, 1, 2)
        assert tuple(u) == (6, 1, 7, 2, 8, 3, 4, 9, 5)
        assert tuple(set_of_grassmannian(u, k)) == (9, 7, 6, 4, 2)

    def test_worked_tree_example(self):
        u, a, bhat, k = parabolic_factorization((5, 4, 1, 7, 3, 6, 8, 2, 9))
        assert k == 4
        assert tuple(a) == (4, 1, 3, 2)
        assert tuple(bhat) == (2, 1, 3, 4)
        assert tuple(set_of_grassmannian(u, k)) == (8, 5, 3, 2)

    def test_identity(self):
        u, a, bhat, k = parabolic_factorization((1, 2, 3, 4))
        assert k == 0 and tuple(a) == () and tuple(bhat) == (1, 2, 3)

    def test_round_trip_all_small(self):
        for n in range(1, 7):
            for w in permutations(range(1, n + 1)):
                u, a, bhat, k = parabolic_factorization(w)
                assert recompose_parabolic(u, a, bhat, k) == Permutation(w)

    def test_grassmannian_requires_shuffle(self):
        with pytest.raises(ValueError):
            set_of_grassmannian((2, 1, 3), 2)

    def test_grassmannian_empty(self):
        assert tuple(set_of_grassmannian((1, 2, 3), 0)) == ()


class TestSubsets:
    def test_partition_bijection(self):
        assert subset_to_partition([9, 7, 6, 4, 2]) == (4, 3, 3, 2, 1)
        assert subset_to_partition([3]) == (2,)
        assert subset_to_partition([3, 2, 1]) == (0, 0, 0)

    def test_partition_bounds(self):
        n, k = 7, 3
        from itertools import combinations
        for s in combinations(range(1, n + 1), k):
            lam = subset_to_partition(SubsetK(s))
            assert all(lam[i] >= lam[i + 1] for i in range(k - 1))
            assert all(0 <= part <= n - k for part in lam)

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            subset_to_partition([3, 1], k=3)

    def test_subsetk_validation(self):
        with pytest.raises(ValueError):
            SubsetK([2, 2])
        with pytest.raises(ValueError):
            SubsetK([0, 1])


class TestIncreasingBinaryTree:
    def test_empty(self):
        assert increasing_binary_tree(()) is None

    def test_worked_tree(self):
        t = increasing_binary_tree((3, 8, 5, 2, 1, 6, 4, 7, 9))
        assert t.label == 1
        assert t.left.label == 2 and t.right.label == 4
        assert t.left.left.label == 3
        assert t.left.left.right.label == 5
        assert t.left.left.right.left.label == 8
        assert t.right.left.label == 6
        assert t.right.right.label == 7
        assert t.right.right.right.label == 9

    def test_increasing_word_is_right_chain(self):
        t = increasing_binary_tree((1, 2, 3))
        assert t.label == 1 and t.left is None
        assert t.right.label == 2 and t.right.left is None
        assert t.right.right.label == 3

    def test_in_order_recovers_word(self):
        for n in range(0, 9):
            for w in permutations(range(1, n + 1)):
                winv = Permutation(w).inverse() if n else ()
                t = increasing_binary_tree(winv)
                got = t.in_order() if t else ()
                assert got == tuple(winv)

    def test_repeated_letters_rejected(self):
        with pytest.raises(ValueError):
            increasing_binary_tree((1, 1))

    def test_long_word_builds_without_recursion(self):
        # a decreasing word is a left path 3000 deep; compare in-order
        # words, not trees: the dataclass __eq__ recurses
        for word in (tuple(range(3000, 0, -1)),
                     tuple(random.Random(3).sample(range(1, 3001), 3000))):
            assert increasing_binary_tree(word).in_order() == word


def tree_pair_stats_oracle(w):
    """The rows read off an IncBinTree of w^{-1}, walked in preorder."""
    w = Permutation(w)
    tree = increasing_binary_tree(w.inverse())
    rows = []
    stack = [tree] if tree is not None else []
    while stack:
        node = stack.pop()
        if node.left is not None:
            left = sorted(node.left.labels())
            right = sorted(node.right.labels()) if node.right else []
            for i, alpha in enumerate(left):
                r = sum(1 for b in right if b < alpha)
                rows.append((alpha, node.label, w(node.label), len(left) - i, r))
        stack.extend(c for c in (node.right, node.left) if c is not None)
    return rows


class TestTreePairStats:
    def test_matches_the_tree_on_every_small_word(self):
        for n in range(8):
            for w in permutations(range(1, n + 1)):
                assert [tuple(r) for r in tree_pair_stats(w)] == \
                    tree_pair_stats_oracle(w), w

    def test_matches_the_tree_on_random_words(self):
        rng = random.Random(15)
        for _ in range(200):
            n = rng.randint(0, 60)
            w = rng.sample(range(1, n + 1), n)
            assert [tuple(r) for r in tree_pair_stats(w)] == \
                tree_pair_stats_oracle(w), w
        w = rng.sample(range(1, 2001), 2000)
        assert [tuple(r) for r in tree_pair_stats(w)] == \
            tree_pair_stats_oracle(w)

    def test_worked_table(self):
        rows = [tuple(r) for r in tree_pair_stats((5, 4, 1, 7, 3, 6, 8, 2, 9))]
        assert rows == [
            (2, 1, 5, 4, 0), (3, 1, 5, 3, 0), (5, 1, 5, 2, 1), (8, 1, 5, 1, 3),
            (3, 2, 4, 3, 0), (5, 2, 4, 2, 0), (8, 2, 4, 1, 0),
            (8, 5, 3, 1, 0), (6, 4, 7, 1, 0)]

    def test_identity_has_no_pairs(self):
        assert tree_pair_stats((1, 2, 3, 4)) == []

    def test_two_letter(self):
        assert [tuple(r) for r in tree_pair_stats((2, 1))] == [(2, 1, 2, 1, 0)]

    def test_ell_is_positive(self):
        for w in permutations(range(1, 6)):
            assert all(s.ell >= 1 for s in tree_pair_stats(w))

    def test_long_words_without_recursion(self):
        # the increasing tree of either word is a 1000-node path
        n = 1000
        assert tree_pair_stats(range(1, n + 1)) == []
        rows = tree_pair_stats(range(n, 0, -1))
        assert len(rows) == n * (n - 1) // 2
        assert sum(s.r + 1 for s in rows) == n * (n - 1) // 2  # inv


class TestForestPoset:
    def test_intro_forest(self):
        p = intro_forest()
        assert validate_recursively_labelled(p)
        assert subtree_data(p, 7) == (6, 10, 5)
        assert subtree_data(p, 3) == (3, 5, 3)
        assert subtree_data(p, 4) == (4, 4, 1)
        assert inv_poset(p) == 3
        assert count_linear_extensions(p) == 24192

    def test_knuth_formula_on_intro(self):
        import math
        p = intro_forest()
        hooks = 1
        for i in range(1, 11):
            hooks *= subtree_data(p, i)[2]
        assert count_linear_extensions(p) == math.factorial(10) // hooks

    def test_not_recursively_labelled(self):
        p = ForestPoset.from_covers(3, [[3, 1]])
        assert not validate_recursively_labelled(p)

    def test_antichain_is_recursively_labelled(self):
        assert validate_recursively_labelled(ForestPoset.from_covers(5, []))

    def test_naturally_labelled_has_zero_inv(self):
        p = ForestPoset.from_covers(4, [[2, 1], [3, 1], [4, 3]])
        assert inv_poset(p) == 0

    def test_single_reversed_pair(self):
        p = ForestPoset.from_covers(3, [[1, 2], [3, 2]])
        assert inv_poset(p) == 1

    def test_cycle_rejected(self):
        with pytest.raises(ValueError):
            ForestPoset.from_covers(2, [[1, 2], [2, 1]])

    def test_duplicate_cover_rejected(self):
        with pytest.raises(ValueError):
            ForestPoset.from_covers(3, [[1, 2], [1, 3]])


def brute_extensions(p: ForestPoset):
    out = []
    for w in permutations(range(1, p.n + 1)):
        pos = {v: i for i, v in enumerate(w)}
        if all(pos[i] < pos[j]
               for i in range(1, p.n + 1) for j in range(1, p.n + 1)
               if i != j and p.less(i, j)):
            out.append(w)
    return out


class TestLinearExtensions:
    def test_vee(self):
        p = ForestPoset.from_covers(3, [[1, 2], [3, 2]])
        assert [tuple(w) for w in linear_extensions(p)] == [(2, 1, 3), (2, 3, 1)]

    def test_chain(self):
        p = ForestPoset.from_covers(4, [[2, 1], [3, 2], [4, 3]])
        assert [tuple(w) for w in linear_extensions(p)] == [(1, 2, 3, 4)]

    def test_lexicographic_order(self):
        p = ForestPoset.from_covers(4, [])
        exts = [tuple(w) for w in linear_extensions(p)]
        assert exts == sorted(exts)
        assert len(exts) == 24

    def test_against_brute_filter(self):
        for n in range(0, 6):
            for p in enumerate_rl_forests(n):
                assert sorted(tuple(w) for w in linear_extensions(p)) == \
                    brute_extensions(p)

    def test_knuth_count_small(self):
        import math
        for n in range(0, 7):
            for p in enumerate_rl_forests(n):
                hooks = 1
                for i in range(1, n + 1):
                    hooks *= subtree_data(p, i)[2]
                assert count_linear_extensions(p) == math.factorial(n) // hooks

    def test_count_is_length_of_listing(self):
        for n in range(0, 7):
            for p in enumerate_rl_forests(n):
                assert count_linear_extensions(p) == \
                    len(list(linear_extensions(p)))
        for n in range(0, 6):
            for p in enumerate_dual_forests(n):
                assert count_linear_extensions(p) == \
                    len(list(linear_extensions(p)))


def all_forests(n):
    choices = [[0] + [t for t in range(1, n + 1) if t != i]
               for i in range(1, n + 1)]
    for cov in product(*choices):
        try:
            yield ForestPoset(n, tuple(cov))
        except ValueError:
            continue


class TestEnumerateRlForests:
    def test_tiny_counts(self):
        assert sum(1 for _ in enumerate_rl_forests(0)) == 1
        assert sum(1 for _ in enumerate_rl_forests(1)) == 1
        assert sum(1 for _ in enumerate_rl_forests(2)) == 3

    def test_matches_filter_oracle(self):
        for n in range(0, 6):
            generated = sorted(p.cover for p in enumerate_rl_forests(n))
            filtered = sorted(p.cover for p in all_forests(n)
                              if validate_recursively_labelled(p))
            assert generated == filtered
            assert len(set(generated)) == len(generated)

    def test_all_validate(self):
        for p in enumerate_rl_forests(6):
            assert validate_recursively_labelled(p)

    def test_deterministic_order(self):
        first = [p.cover for p in enumerate_rl_forests(5)]
        second = [p.cover for p in enumerate_rl_forests(5)]
        assert first == second

    @pytest.mark.parametrize("n, digest", [
        (6, "4e6e76232a5b59a233fdd248b4bb9c7f18e21752d505c5ab1ac35e01099a277e"),
        (7, "ea033a9a537a085332280d01fc20bb55de0e1dfd79cca43a96ed9dc936c40698"),
    ])
    def test_order_is_pinned(self, n, digest):
        # the verify suites print their cases in this order, up to n = 7
        text = ";".join(",".join(map(str, p.cover))
                        for p in enumerate_rl_forests(n))
        assert hashlib.sha256(text.encode()).hexdigest() == digest


class TestDualForests:
    def test_stats_join(self):
        p = DualForestPoset.from_covered_by(3, [[1, 3], [2, 3]])
        st = dual_forest_stats(p)
        assert st.des == frozenset()
        assert st.maj == 0
        assert st.lower_subtrees[3] == {1, 2, 3}

    def test_descent_cover(self):
        p = DualForestPoset.from_covered_by(2, [[2, 1]])
        st = dual_forest_stats(p)
        assert st.des == {2}
        assert st.maj == 1  # hook of the descent element

    def test_chain_matches_word_maj(self):
        for n in range(1, 6):
            for w in permutations(range(1, n + 1)):
                pairs = [[w[i], w[i + 1]] for i in range(n - 1)]
                chain = DualForestPoset.from_covered_by(n, pairs)
                st = dual_forest_stats(chain)
                assert st.maj == maj(w)
                assert st.des == frozenset(w[i - 1] for i in descents(w))

    def test_extensions(self):
        p = DualForestPoset.from_covered_by(3, [[1, 3], [2, 3]])
        assert [tuple(w) for w in linear_extensions(p)] == \
            [(1, 2, 3), (2, 1, 3)]

    def test_enumerator_counts(self):
        # rooted labelled forests on n vertices: (n+1)^(n-1)
        for n, expected in [(0, 1), (1, 1), (2, 3), (3, 16), (4, 125),
                            (5, 1296), (6, 16807)]:
            assert sum(1 for _ in enumerate_dual_forests(n)) == expected

    def test_enumerator_matches_filter_oracle(self):
        # all_forests filters every parent array in lexicographic order
        for n in range(0, 7):
            assert [p.cover for p in enumerate_dual_forests(n)] == \
                [p.cover for p in all_forests(n)]

    def test_extensions_against_brute_filter(self):
        for n in range(0, 6):
            for p in enumerate_dual_forests(n):
                brute = [w for w in permutations(range(1, n + 1))
                         if all(w.index(i) < w.index(c) for i, c in p.covers())]
                assert [tuple(w) for w in linear_extensions(p)] == brute


class _Dag:
    """Any poset on {1..n}, given by the pairs (a, b) that force a before b."""

    def __init__(self, n, pairs):
        self.n = n
        self.pairs = pairs

    def _precedences(self):
        return self.pairs


@st.composite
def prerequisite_dags(draw):
    n = draw(st.integers(0, 7))
    order = draw(st.permutations(range(1, n + 1)))
    pairs = [(order[i], order[j]) for i in range(n) for j in range(i + 1, n)]
    return _Dag(n, draw(st.lists(st.sampled_from(pairs), unique=True))
                if pairs else [])


class TestExtensionStatCounts:
    """The ideal fold against the listing of the extensions."""

    @staticmethod
    def check(p, extensions):
        words = [tuple(w) for w in extensions]
        for stat, f in (("inv", inv), ("maj", maj)):
            got = extension_stat_counts(p, stat)
            assert got == Counter(map(f, words)), (p, stat)
            assert 0 not in got.values()
            assert sum(got.values()) == count_linear_extensions(p)

    def test_forests_against_listing(self):
        for n in range(0, 7):
            for p in enumerate_rl_forests(n):
                self.check(p, linear_extensions(p))

    def test_dual_forests_against_listing(self):
        for n in range(0, 6):
            for p in enumerate_dual_forests(n):
                self.check(p, linear_extensions(p))

    def test_antichain_is_mahonian(self):
        # every word of S_7: both statistics have the q-factorial's counts
        p = ForestPoset(7, (0,) * 7)
        words = list(permutations(range(1, 8)))
        for stat, f in (("inv", inv), ("maj", maj)):
            assert extension_stat_counts(p, stat) == Counter(map(f, words))

    @settings(max_examples=60, deadline=None)
    @given(prerequisite_dags())
    def test_any_poset_against_brute_force(self, dag):
        words = [w for w in permutations(range(1, dag.n + 1))
                 if all(w.index(a) < w.index(b) for a, b in dag.pairs)]
        assert words
        for stat, f in (("inv", inv), ("maj", maj)):
            assert extension_stat_counts(dag, stat) == Counter(map(f, words))

    def test_unknown_statistic(self):
        with pytest.raises(ValueError):
            extension_stat_counts(ForestPoset(1, (0,)), "des")
