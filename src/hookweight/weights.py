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
is the central identity this package verifies.  ``L_of_forest`` sums the
shuffle weights of each first-letter group in closed form: the sum of wt(S)
over the k-subsets of {1..n} is the multivariate binomial
[n]! / ([k]! F^k[n-k]!), which ``qanalog._proved_binomial`` returns only
after the Pascal check of the ``pascal`` suite has proved it by induction.
Its subforests are summed smallest first into one memo, without recursion.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, Sequence

from .combinat import (
    ForestPoset,
    Permutation,
    SubsetK,
    TreePairStat,
    _Memo,
    _parabolic_words,
    _rl_violation,
    subtree_data,
    tree_pair_stats,
)
from .qanalog import _factorial_atoms, _proved_binomial, _shift_ratio
from .ratfunc import RatFunc, _dp_acc

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


# ---------------------------------------------------------------------------
# subset weights
# ---------------------------------------------------------------------------

def _wt_subset_atoms(s: tuple[int, ...], shift: int = 0) -> dict:
    """Atoms of F^shift(wt(S))."""
    return _dp_acc(_factorial_atoms(len(s), shift=shift, sign=-1),
                   [(("F", shift + i_j - 1, j), 1)
                    for j, i_j in enumerate(s, start=1)])


def wt_subset(s: Iterable[int], k: int | None = None) -> RatFunc:
    """Weight of a decreasing k-subset, as its closed product."""
    s = SubsetK(s)
    if k is not None and k != len(s):
        raise ValueError(f"subset has {len(s)} elements, expected {k}")
    return RatFunc._from_atoms(_wt_subset_atoms(tuple(s)))


# ---------------------------------------------------------------------------
# permutation weights
# ---------------------------------------------------------------------------

# The atom tables of wt(v), at shift 0, of the proper sub-words v that
# wt_perm_recursive has walked, keyed by the word.  Every atom is a bracket
# form ("F", offset, length), so a table shifts by its offsets.  A
# requested word is never stored, and the budget of 2^14 letters lets a
# long word walk in O(n) extra memory.
_WT_MEMO = _Memo(1 << 14)


def wt_perm_recursive(w: Sequence[int]) -> RatFunc:
    """wt(w) by the parabolic recursion, unrolled on an explicit stack.

    wt(w) = wt(S(u)) * wt(a) * F^{k+1}(wt(b-hat)) makes wt(w) the product of
    F^s(wt(S(u))) over every word the recursion reaches, where s adds up
    k+1 over the b-hat steps taken to reach it.  A sub-word's atoms are one
    run of the walk's items; its table is kept in ``_WT_MEMO`` while there
    is room, and a sub-word found there is not walked again.
    """
    w = tuple(Permutation(w))
    room = _WT_MEMO.room  # each sub-word's letters are reserved as it starts
    items: list = []
    stack = [(w, 0, None)]
    while stack:
        v, shift, start = stack.pop()
        if start is not None:  # the walk below the sub-word v is done
            _WT_MEMO.put(v, _dp_acc({}, [(("F", off - shift, m), e)
                                         for (_, off, m), e in items[start:]]),
                         len(v))
            continue
        if not v:
            continue
        table = _WT_MEMO.get(v)
        if table is not None:
            items += [(("F", off + shift, m), e)
                      for (_, off, m), e in table.items()]
            continue
        if len(v) < len(w) and len(v) <= room:
            room -= len(v)
            stack.append((v, shift, len(items)))
        u, a, bhat, k = _parabolic_words(v)
        s = tuple(i for i in range(len(u), 0, -1) if u[i - 1] <= k)  # S(u)
        if s:  # wt(empty set) = 1
            items += _wt_subset_atoms(s, shift).items()
        stack.append((tuple(a), shift, None))
        stack.append((tuple(bhat), shift + k + 1, None))
    return RatFunc._from_atoms(_dp_acc({}, items))


def _wt_of_pairs(stats: Iterable[TreePairStat]) -> RatFunc:
    """The product of N/D over the rows of ``tree_pair_stats(w)``: wt(w)."""
    items: list = []
    for alpha, beta, w_beta, ell, r in stats:
        off = w_beta - ell - 1
        if off < 0:
            raise AssertionError(f"negative form offset for pair ({alpha},{beta})")
        items += ((("F", off + r + 1, ell), 1), (("F", off, ell), -1))
    return RatFunc._from_atoms(_dp_acc({}, items))


def wt_perm_tree(w: Sequence[int]) -> RatFunc:
    """wt(w) as the product of N/D over pairs of the increasing tree."""
    return _wt_of_pairs(tree_pair_stats(w))


def inv_via_tree(w: Sequence[int]) -> int:
    """Sum of r+1 over the tree pairs; equals the inversion number."""
    return sum(stat.r + 1 for stat in tree_pair_stats(w))


# ---------------------------------------------------------------------------
# the two sides of the hook identity
# ---------------------------------------------------------------------------

def H_of_forest(p: ForestPoset) -> RatFunc:
    """[n]! divided by the Frobenius-shifted hook of every subtree."""
    _require_recursively_labelled(p)
    hooks = [subtree_data(p, i) for i in range(1, p.n + 1)]
    return RatFunc._from_atoms(_dp_acc(
        _factorial_atoms(p.n), [(("F", lo - 1, h), -1) for lo, _, h in hooks]))


@lru_cache(maxsize=None)
def _subset_sum(n: int, k: int) -> RatFunc:
    """Sum of wt(S) over k-subsets S of {2..n}: the shuffles with u(1)=k+1.

    No such S holds 1, so the sum is F([k]!)/[k]! times F of the sum over
    the k-subsets of {1..n-1}, the proved binomial [n-1]!/([k]! F^k[n-1-k]!).
    That sum is 1 for k = 0 and k = n - 1, one subset of weight 1, the base
    cases of the induction, which need no proof.
    """
    if k in (0, n - 1):
        return _shift_ratio(k)
    return _shift_ratio(k) * _proved_binomial(n - 1, k).frobenius(1)


def _root_splits(n: int, cover: tuple[int, ...]):
    """(rho, part below rho, part above rho) for every root rho, each part
    an (n, cover) pair relabelled from 1."""
    for rho in range(1, n + 1):
        if cover[rho - 1]:
            continue  # not a root
        left = tuple(cover[i] if cover[i] and cover[i] != rho else 0
                     for i in range(rho - 1))
        right = tuple(cover[i] - rho if cover[i] and cover[i] != rho else 0
                      for i in range(rho, n))
        yield rho, (rho - 1, left), (n - rho, right)


# L(P) of every (n, cover) computed so far, the empty forest seeded as 1.
_L_MEMO: dict = {(0, ()): RatFunc.from_const(1)}


def _L_grouped(n: int, cover: tuple[int, ...]) -> RatFunc:
    """Exact sum of wt over extensions, grouped by the first letter.

    Extensions starting with a root rho split as (shuffle pattern u with
    u(1)=rho) x (extension of P below rho) x (extension of P above rho,
    shifted); the defining recursion of wt factors accordingly, so the group
    sum is subset-sum(n, rho-1) * L(left part) * F^rho(L(right part)).
    The subset sum is the closed form of ``_subset_sum``, proved in the
    same run by the Pascal check of the ``pascal`` suite.

    A stack collects the subforests missing from ``_L_MEMO``; they are then
    summed smallest first, so both parts of each split are already stored.
    Each subforest's groups are added by one ``RatFunc._sum``, which
    normalizes and trial-divides the total once.
    """
    pending: dict = {}
    stack = [(n, cover)]
    while stack:
        part = stack.pop()
        if part in _L_MEMO or part in pending:
            continue
        pending[part] = splits = list(_root_splits(*part))
        for _rho, left, right in splits:
            stack += left, right
    for m, c in sorted(pending):  # by size first
        splits = pending[m, c]
        # the hints matter only where two or more groups are added
        hooks = tuple(_factorial_atoms(m)) if len(splits) > 1 else ()
        _L_MEMO[m, c] = RatFunc._sum(
            (_subset_sum(m, rho - 1) * _L_MEMO[left]
             * _L_MEMO[right].frobenius(rho)
             for rho, left, right in splits), hooks)
    return _L_MEMO[n, cover]


def L_of_forest(p: ForestPoset) -> RatFunc:
    """Exact sum of wt(w) over all linear extensions of p.

    The sum is folded along the first letter (``_L_grouped``), which keeps
    intermediate fractions factored and takes any depth of p without
    recursion.  Raises ``NotRecursivelyLabelledError`` unless p is
    recursively labelled.
    """
    _require_recursively_labelled(p)
    return _L_grouped(p.n, p.cover)
