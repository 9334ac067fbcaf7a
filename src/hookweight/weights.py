"""Multivariate weights of subsets, permutations, and labelled forests.

The weight of a decreasing subset S = {i_1 > ... > i_k} is
prod_j F^{i_j-1}[j] / [k]!, where [m] = x_1+...+x_m and F shifts variable
indices.  Permutation weights extend subset weights through the parabolic
factorization w = u.a.b:

    wt(w) = wt(S(u)) * wt(a) * F^{k+1}(wt(b-hat)),  wt(empty) = 1,

and admit a recursion-free product over the increasing binary tree of
w^{-1}: each pair (alpha in the left subtree of beta) contributes
F^{r+1}(D)/D with D = F^{w(beta)-ell-1}[ell].

For a recursively labelled forest P, ``L_of_forest`` is the exact sum of
wt(w) over all linear extensions and ``H_of_forest`` the hook product
[n]! / prod_i F^{min(P_>=i)-1}[h_i]; their equality over all small forests
is the central identity this package verifies.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from typing import Iterable, Sequence

from .combinat import (
    ForestPoset,
    Permutation,
    SubsetK,
    _rl_violation,
    linear_extensions,
    parabolic_factorization,
    set_of_grassmannian,
    subtree_data,
    tree_pair_stats,
)
from .qanalog import _factorial_atoms, _shift_ratio_frf
from .ratfunc import RatFunc, _FRF

__all__ = [
    "wt_subset",
    "wt_perm_recursive",
    "wt_perm_tree",
    "inv_via_tree",
    "L_of_forest",
    "H_of_forest",
    "NotRecursivelyLabelledError",
]


class NotRecursivelyLabelledError(ValueError):
    """Input forest violates the interval condition on some subtree."""


def _require_recursively_labelled(p: ForestPoset) -> None:
    violation = _rl_violation(p)
    if violation is not None:
        i, sub = violation
        raise NotRecursivelyLabelledError(
            f"subtree at element {i} has label set {sorted(sub)}, "
            f"which is not an integer interval")


def _hook_candidates(n: int) -> tuple:
    """Forms F^a[n-a]; the factors every degree-n extension sum collapses to."""
    return tuple(("F", a, n - a) for a in range(n))


# ---------------------------------------------------------------------------
# subset weights
# ---------------------------------------------------------------------------

def _wt_subset_frf(s: tuple[int, ...]) -> _FRF:
    k = len(s)
    atoms = dict(_factorial_atoms(k, sign=-1))
    for j, i_j in enumerate(s, start=1):
        a = ("F", i_j - 1, j)
        atoms[a] = atoms.get(a, 0) + 1
    return _FRF.from_atoms(atoms)


def _wt_subset_recursive_frf(s: tuple[int, ...]) -> _FRF:
    if not s:
        return _FRF.ONE
    k = len(s)
    if 1 in s:
        shat = tuple(i - 1 for i in s if i != 1)
        return _wt_subset_recursive_frf(shat).frobenius(1)
    shat = tuple(i - 1 for i in s)
    return _shift_ratio_frf(k).mul(_wt_subset_recursive_frf(shat).frobenius(1))


def wt_subset(s: Iterable[int], k: int | None = None,
              method: str = "product") -> RatFunc:
    """Weight of a decreasing k-subset, by closed product or by recursion."""
    s = SubsetK(s)
    if k is not None and k != len(s):
        raise ValueError(f"subset has {len(s)} elements, expected {k}")
    if method == "product":
        return RatFunc._from_frf(_wt_subset_frf(tuple(s)))
    if method == "recursive":
        return RatFunc._from_frf(_wt_subset_recursive_frf(tuple(s)))
    raise ValueError(f"unknown method {method!r}")


# ---------------------------------------------------------------------------
# permutation weights
# ---------------------------------------------------------------------------

@lru_cache(maxsize=200000)
def _wt_perm_recursive_frf(word: tuple[int, ...]) -> _FRF:
    if not word:
        return _FRF.ONE
    u, a, bhat, k = parabolic_factorization(Permutation(word))
    s = tuple(set_of_grassmannian(u, k))
    value = _wt_subset_frf(s)
    value = value.mul(_wt_perm_recursive_frf(tuple(a)))
    return value.mul(_wt_perm_recursive_frf(tuple(bhat)).frobenius(k + 1))


def wt_perm_recursive(w: Sequence[int]) -> RatFunc:
    """wt(w) by the parabolic recursion."""
    return RatFunc._from_frf(_wt_perm_recursive_frf(tuple(Permutation(w))))


def _wt_perm_tree_frf(word: tuple[int, ...]) -> _FRF:
    atoms: dict = {}
    for alpha, beta, w_beta, ell, r in tree_pair_stats(Permutation(word)):
        off = w_beta - ell - 1
        if off < 0:
            raise AssertionError(f"negative form offset for pair ({alpha},{beta})")
        den = ("F", off, ell)
        num = ("F", off + r + 1, ell)
        atoms[num] = atoms.get(num, 0) + 1
        atoms[den] = atoms.get(den, 0) - 1
    return _FRF.from_atoms({a: e for a, e in atoms.items() if e})


def wt_perm_tree(w: Sequence[int]) -> RatFunc:
    """wt(w) as the product of N/D over pairs of the increasing tree."""
    return RatFunc._from_frf(_wt_perm_tree_frf(tuple(Permutation(w))))


def inv_via_tree(w: Sequence[int]) -> int:
    """Sum of r+1 over the tree pairs; equals the inversion number."""
    return sum(stat.r + 1 for stat in tree_pair_stats(Permutation(w)))


# ---------------------------------------------------------------------------
# the two sides of the hook identity
# ---------------------------------------------------------------------------

def _H_frf(p: ForestPoset) -> _FRF:
    atoms = dict(_factorial_atoms(p.n))
    for i in range(1, p.n + 1):
        lo, _hi, h = subtree_data(p, i)
        a = ("F", lo - 1, h)
        atoms[a] = atoms.get(a, 0) - 1
    return _FRF.from_atoms({a: e for a, e in atoms.items() if e})


def H_of_forest(p: ForestPoset) -> RatFunc:
    """[n]! divided by the Frobenius-shifted hook of every subtree."""
    _require_recursively_labelled(p)
    return RatFunc._from_frf(_H_frf(p))


@lru_cache(maxsize=None)
def _subset_sum_frf(n: int, k: int) -> _FRF:
    """Sum of wt(S) over k-subsets S of {2..n}: the shuffles with u(1)=k+1."""
    hooks = _hook_candidates(n)
    total = _FRF.ZERO
    for comb in combinations(range(2, n + 1), k):
        total = total.add(_wt_subset_frf(tuple(reversed(comb))), hooks)
    return total.refactor(hooks)


@lru_cache(maxsize=None)
def _L_grouped_frf(n: int, cover: tuple[int, ...]) -> _FRF:
    """Exact sum of wt over extensions, grouped by the first letter.

    Extensions starting with a root rho split as (shuffle pattern u with
    u(1)=rho) x (extension of P below rho) x (extension of P above rho,
    shifted); the defining recursion of wt factors accordingly, so the group
    sum is subset-sum(n, rho-1) * L(left part) * F^rho(L(right part)).
    """
    if n == 0:
        return _FRF.ONE
    hooks = _hook_candidates(n)
    total = _FRF.ZERO
    for rho in range(1, n + 1):
        if cover[rho - 1]:
            continue  # not a root
        left = tuple(cover[i] if cover[i] and cover[i] != rho else 0
                     for i in range(rho - 1))
        right = tuple(cover[i] - rho if cover[i] and cover[i] != rho else 0
                      for i in range(rho, n))
        term = _subset_sum_frf(n, rho - 1)
        term = term.mul(_L_grouped_frf(rho - 1, left))
        term = term.mul(_L_grouped_frf(n - rho, right).frobenius(rho))
        total = total.add(term, hooks)
    return total.refactor(hooks)


def _L_direct_frf(p: ForestPoset) -> _FRF:
    """Literal left-to-right accumulation over lexicographic extensions."""
    hooks = _hook_candidates(p.n)
    total = _FRF.ZERO
    for w in linear_extensions(p):
        total = total.add(_wt_perm_tree_frf(tuple(w)), hooks)
    return total.refactor(hooks)


def L_of_forest(p: ForestPoset, method: str = "grouped") -> RatFunc:
    """Exact sum of wt(w) over all linear extensions of p.

    ``grouped`` (default) folds the sum along the first letter, which keeps
    intermediate fractions factored; ``direct`` adds extension weights one by
    one in lexicographic order.  Both compute the same exact sum.
    """
    _require_recursively_labelled(p)
    if method == "grouped":
        return RatFunc._from_frf(_L_grouped_frf(p.n, p.cover))
    if method == "direct":
        return RatFunc._from_frf(_L_direct_frf(p))
    raise ValueError(f"unknown method {method!r}")
