"""Acceptance suite: one test per criterion, exact tolerances throughout.

Run with ``pytest -s tests/test_acceptance.py`` to see one PASS/FAIL line per
criterion.  The sweeps one size up (the hook identity at n = 7 and 8, the
q-specialization over S_8, the inversion hook formula at n = 7, the
P-partition identity at n = 6 and the size-7 morphism sweep) carry the
``slow`` marker and are deselected by default.
"""

import math
from itertools import combinations, permutations

import pytest

from hookweight.combinat import (
    ForestPoset,
    count_linear_extensions,
    enumerate_dual_forests,
    enumerate_rl_forests,
    inv,
    linear_extensions,
    subtree_data,
    tree_pair_stats,
)
from hookweight.fqsym import (
    FQSymElem,
    check_pbt_morphism,
    dual_forest_prereqs,
    fqsym_mul,
    gamma_dual_forest,
    gamma_extension_sum,
    phi_inv,
)
from hookweight.parsing import parse_polynomial, parse_ratfunc
from hookweight.qanalog import (
    SkewElem,
    binomial,
    bracket,
    bracket_factorial,
    divided_power,
    skew_equal,
    skew_mul,
)
from hookweight.ratfunc import (
    RatFunc,
    rf_add,
    rf_equal,
    rf_frobenius,
    rf_mul,
)
from hookweight.specialize import (
    UniPoly,
    UniRatFunc,
    spec_q,
    spec_qt,
    verify_bw_inv,
)
from hookweight.weights import (
    H_of_forest,
    L_of_forest,
    inv_via_tree,
    wt_perm_recursive,
    wt_perm_tree,
    wt_subset,
)

VEE = ForestPoset.from_covers(3, [[1, 2], [3, 2]])
INTRO = ForestPoset.from_covers(
    10, [[1, 2], [3, 2], [4, 3], [5, 3], [6, 7], [8, 7], [9, 10], [10, 7]])


def report(number: int, description: str):
    class _Reporter:
        def __enter__(self):
            return self

        def __exit__(self, exc_type, exc, tb):
            verdict = "PASS" if exc_type is None else "FAIL"
            print(f"ACCEPTANCE {number:02d} {verdict}: {description}")
            return False

    return _Reporter()


def test_01_s3_weight_table():
    table = {
        (1, 2, 3): "1",
        (1, 3, 2): "x3/x2",
        (2, 1, 3): "x2/x1",
        (2, 3, 1): "x3/x1",
        (3, 1, 2): "((x2+x3)x3)/((x1+x2)x2)",
        (3, 2, 1): "((x2+x3)x3)/((x1+x2)x1)",
    }
    with report(1, "all six S3 weights match the fixture table exactly"):
        for w, text in table.items():
            expected = parse_ratfunc(text)
            assert rf_equal(wt_perm_recursive(w), expected), w
            assert rf_equal(wt_perm_tree(w), expected), w


def test_02_worked_examples():
    with report(2, "9-element weight closed form and the 9-row pair table"):
        expected = parse_ratfunc(
            "(x2 x9^2 (x8+x9)(x6+x7+x8)(x4+x5+x6+x7)(x2+x3+x4+x5+x6))"
            "/(x1 x4 x8 (x3+x4)(x3+x4+x5)(x2+x3+x4+x5)(x1+x2+x3+x4+x5))")
        assert rf_equal(wt_perm_recursive((6, 2, 9, 1, 7, 5, 3, 8, 4)), expected)

        rows = [tuple(r) for r in tree_pair_stats((5, 4, 1, 7, 3, 6, 8, 2, 9))]
        expected_rows = [
            (2, 1, 5, 4, 0), (3, 1, 5, 3, 0), (5, 1, 5, 2, 1), (8, 1, 5, 1, 3),
            (3, 2, 4, 3, 0), (5, 2, 4, 2, 0), (8, 2, 4, 1, 0),
            (8, 5, 3, 1, 0), (6, 4, 7, 1, 0)]
        assert rows == expected_rows
        expected_nd = [
            ("x2+x3+x4+x5", "x1+x2+x3+x4"), ("x3+x4+x5", "x2+x3+x4"),
            ("x5+x6", "x3+x4"), ("x8", "x4"), ("x2+x3+x4", "x1+x2+x3"),
            ("x3+x4", "x2+x3"), ("x4", "x3"), ("x3", "x2"), ("x7", "x6")]
        for (alpha, beta, w_beta, ell, r), (ntext, dtext) in \
                zip(rows, expected_nd):
            den = bracket(ell).frobenius(w_beta - ell - 1)
            num = den.frobenius(r + 1)
            assert num == parse_polynomial(ntext), (alpha, beta)
            assert den == parse_polynomial(dtext), (alpha, beta)


def test_03_hook_identity_sweep_n6():
    with report(3, "extension sum equals hook product for every "
                   "recursively labelled forest, n <= 6"):
        for n in range(0, 7):
            for p in enumerate_rl_forests(n):
                assert rf_equal(L_of_forest(p), H_of_forest(p)), p


@pytest.mark.slow
@pytest.mark.parametrize("n", [7, 8])
def test_03s_hook_identity_sweep(n):
    with report(3, f"hook identity sweep extended to n = {n} (slow tier)"):
        for p in enumerate_rl_forests(n):
            assert rf_equal(L_of_forest(p), H_of_forest(p)), p


def test_04_weight_definitions_agree():
    with report(4, "recursive and tree weights agree for all w, n <= 7"):
        for n in range(0, 8):
            for w in permutations(range(1, n + 1)):
                assert rf_equal(wt_perm_recursive(w), wt_perm_tree(w)), w


def test_05_q_specialization_and_tree_inversions():
    with report(5, "spec_q(wt(w)) = q^inv(w) for n <= 7; "
                   "tree inversion count matches for n <= 8"):
        for n in range(0, 8):
            for w in permutations(range(1, n + 1)):
                s = spec_q(wt_perm_recursive(w))
                assert s.is_polynomial() and s.num == UniPoly.monomial(inv(w))
        for n in range(0, 9):
            for w in permutations(range(1, n + 1)):
                assert inv_via_tree(w) == inv(w)


@pytest.mark.slow
def test_05s_q_specialization_s8():
    with report(5, "spec_q(wt(w)) = q^inv(w) for every w in S_8 "
                   "(slow tier)"):
        for w in permutations(range(1, 9)):
            assert spec_q(wt_perm_recursive(w)) == UniPoly.monomial(inv(w)), w


def test_06_bw_inv_formula_sweep():
    with report(6, "inversion hook formula (generating function, closed "
                   "form, and spec_q(L)) for every forest, n <= 6"):
        for n in range(0, 7):
            for p in enumerate_rl_forests(n):
                assert verify_bw_inv(p), p


@pytest.mark.slow
@pytest.mark.parametrize("n", [7, 8])
def test_06s_bw_inv_formula_sweep(n):
    with report(6, f"inversion hook formula for every forest, n = {n} "
                   "(slow tier)"):
        for p in enumerate_rl_forests(n):
            assert verify_bw_inv(p), p


def test_07_pascal_and_subset_sum():
    with report(7, "Pascal recurrence for n <= 10 and "
                   "binomial-as-subset-sum for n <= 9"):
        for n in range(1, 11):
            for k in range(1, n):
                ratio = RatFunc(bracket_factorial(k).frobenius(1),
                                bracket_factorial(k))
                rhs = rf_add(rf_frobenius(binomial(n - 1, k - 1), 1),
                             rf_mul(ratio, rf_frobenius(binomial(n - 1, k), 1)))
                assert rf_equal(binomial(n, k), rhs), (n, k)
            assert rf_equal(binomial(n, n), RatFunc.from_const(1))
        for n in range(0, 10):
            for k in range(0, n + 1):
                total = RatFunc.from_const(0)
                for s in combinations(range(1, n + 1), k):
                    total = rf_add(total, wt_subset(tuple(reversed(s))))
                assert rf_equal(total, binomial(n, k)), (n, k)


def test_08_divided_power_convolution():
    with report(8, "divided-power products have binomial structure "
                   "constants for k+l <= 8"):
        for k in range(0, 9):
            for l in range(0, 9 - k):
                lhs = skew_mul(divided_power(k), divided_power(l))
                rhs = skew_mul(SkewElem.term(binomial(k + l, k), 0),
                               divided_power(k + l))
                assert skew_equal(lhs, rhs), (k, l)


def test_09_pbt_morphism_and_counterexample():
    with report(9, "phi_inv is multiplicative on forest elements up to "
                   "total size 6, and fails on F[1]*F[2,1,3]"):
        for n1 in range(1, 6):
            for n2 in range(1, 7 - n1):
                for p in enumerate_rl_forests(n1):
                    for q in enumerate_rl_forests(n2):
                        assert check_pbt_morphism(p, q), (p, q)
        lhs = phi_inv(fqsym_mul(FQSymElem.basis([1]), FQSymElem.basis([2, 1, 3])))
        rhs = skew_mul(phi_inv(FQSymElem.basis([1])),
                       phi_inv(FQSymElem.basis([2, 1, 3])))
        assert not skew_equal(lhs, rhs)


@pytest.mark.slow
def test_09s_pbt_morphism_size7():
    with report(9, "phi_inv multiplicativity extended to total size 7 "
                   "(slow tier)"):
        for n1 in range(1, 7):
            for n2 in range(1, 8 - n1):
                for p in enumerate_rl_forests(n1):
                    for q in enumerate_rl_forests(n2):
                        assert check_pbt_morphism(p, q), (p, q)


def test_10_maj_identities():
    from hookweight.fqsym import verify_bw_maj
    with report(10, "P-partition sum identity for all dual forests n <= 5 "
                    "and the maj hook formula for n <= 6"):
        for n in range(0, 6):
            for p in enumerate_dual_forests(n):
                assert rf_equal(gamma_extension_sum(dual_forest_prereqs(p)),
                                gamma_dual_forest(p)), p
        for n in range(0, 7):
            for p in enumerate_dual_forests(n):
                assert verify_bw_maj(p), p


@pytest.mark.slow
def test_10s_ppartition_identity_n6():
    with report(10, "P-partition sum identity for all dual forests n = 6 "
                    "(slow tier)"):
        for p in enumerate_dual_forests(6):
            assert rf_equal(gamma_extension_sum(dual_forest_prereqs(p)),
                            gamma_dual_forest(p)), p


def test_11_knuth_counts():
    with report(11, "|L(P)| = n!/prod h_i for every forest n <= 7; "
                    "the 10-element worked forest has 24192 extensions"):
        for n in range(0, 8):
            for p in enumerate_rl_forests(n):
                hooks = 1
                for i in range(1, n + 1):
                    hooks *= subtree_data(p, i)[2]
                assert count_linear_extensions(p) == \
                    math.factorial(n) // hooks, p
        assert count_linear_extensions(INTRO) == 24192
        assert sum(1 for _ in linear_extensions(VEE)) == 2


def test_12_qt_specialization():
    with report(12, "spec_qt telescopes on shifted brackets and transports "
                    "the hook identity at q = 2, n <= 5"):
        for q in (2, 3):
            for a in range(0, 4):
                for n in range(1, 4):
                    f = RatFunc(bracket(n).frobenius(a))
                    expected = UniRatFunc(UniPoly({q ** a: 1,
                                                   q ** (a + n): -1}))
                    assert spec_qt(f, q) == expected, (q, a, n)
        for n in range(0, 6):
            for p in enumerate_rl_forests(n):
                assert spec_qt(L_of_forest(p), 2) == \
                    spec_qt(H_of_forest(p), 2), p
