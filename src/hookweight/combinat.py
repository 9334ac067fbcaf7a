"""Permutations, forest posets, increasing binary trees, and enumerators.

Conventions
-----------
Permutations are words in one-line notation over {1..n}; ``w`` is a linear
extension of a poset P when i <_P j forces i to appear before j in the word.

A ``ForestPoset`` stores, for each element i, the unique element p(i) that i
covers (roots are the minimal elements, so subtrees P_{>=i} grow upward).  A
``DualForestPoset`` stores the unique element covering i, so subtrees are the
lower sets P_{<=i}.  A forest is recursively labelled when every subtree's
label set is a contiguous interval of integers.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, NamedTuple, Optional, Sequence

__all__ = [
    "Permutation",
    "SubsetK",
    "IncBinTree",
    "ForestPoset",
    "DualForestPoset",
    "TreePairStat",
    "inv",
    "maj",
    "descents",
    "parabolic_factorization",
    "recompose_parabolic",
    "set_of_grassmannian",
    "subset_to_partition",
    "increasing_binary_tree",
    "tree_pair_stats",
    "validate_recursively_labelled",
    "subtree_data",
    "inv_poset",
    "linear_extensions",
    "count_linear_extensions",
    "enumerate_rl_forests",
    "enumerate_dual_forests",
    "dual_forest_stats",
    "DualForestStats",
]


class Permutation(tuple):
    """One-line notation word forming a bijection of {1..n}."""

    def __new__(cls, word: Sequence[int] = ()):
        word = tuple(word)
        if sorted(word) != list(range(1, len(word) + 1)):
            raise ValueError(f"not a permutation of 1..{len(word)}: {word}")
        return super().__new__(cls, word)

    @property
    def n(self) -> int:
        return len(self)

    def inverse(self) -> "Permutation":
        inv_word = [0] * len(self)
        for pos, val in enumerate(self, start=1):
            inv_word[val - 1] = pos
        return Permutation(inv_word)

    def __call__(self, i: int) -> int:
        return self[i - 1]

    def __repr__(self) -> str:
        return f"Permutation({list(self)})"


def inv(w: Sequence[int]) -> int:
    """Number of pairs i < j with w_i > w_j."""
    w = tuple(w)
    return sum(1 for i in range(len(w)) for j in range(i + 1, len(w))
               if w[i] > w[j])


def descents(w: Sequence[int]) -> frozenset[int]:
    """Positions i with w_i > w_{i+1} (1-based)."""
    w = tuple(w)
    return frozenset(i + 1 for i in range(len(w) - 1) if w[i] > w[i + 1])


def maj(w: Sequence[int]) -> int:
    """Sum of descent positions."""
    return sum(descents(w))


# ---------------------------------------------------------------------------
# decreasing subsets and the partition bijection
# ---------------------------------------------------------------------------

class SubsetK(tuple):
    """Set of positive integers stored as a strictly decreasing tuple."""

    def __new__(cls, elements):
        elems = sorted(set(elements), reverse=True)
        items = tuple(elements)
        if len(items) != len(elems) or any(e < 1 for e in elems):
            raise ValueError(f"expected distinct positive integers: {items}")
        return super().__new__(cls, elems)

    @property
    def k(self) -> int:
        return len(self)


def subset_to_partition(s: Sequence[int], k: Optional[int] = None) -> tuple[int, ...]:
    """The partition (i_1,...,i_k) - (k,...,2,1) fitting in a k x (n-k) box."""
    s = SubsetK(s)
    if k is None:
        k = len(s)
    if k != len(s):
        raise ValueError(f"subset has {len(s)} elements, expected {k}")
    lam = tuple(s[j] - (k - j) for j in range(k))
    if any(part < 0 for part in lam):
        raise ValueError(f"malformed subset {tuple(s)}: negative partition entry")
    return lam


# ---------------------------------------------------------------------------
# parabolic factorization w = u . a . b
# ---------------------------------------------------------------------------

class ParabolicFactorization(NamedTuple):
    u: Permutation
    a: Permutation
    bhat: Permutation
    k: int


def parabolic_factorization(w: Sequence[int]) -> ParabolicFactorization:
    """Split w along values [1,k] and [k+1,n], where k = w_1 - 1.

    ``u`` is the minimum-length coset representative (the shuffle pattern),
    ``a`` the subword of values <= k, and ``bhat`` the subword of values
    >= k+2 standardized by subtracting k+1.
    """
    w = Permutation(w)
    if len(w) == 0:
        raise ValueError("parabolic factorization needs a nonempty permutation")
    k = w[0] - 1
    u_word = []
    small_seen = large_seen = 0
    a_word = []
    b_word = []
    for val in w:
        if val <= k:
            small_seen += 1
            u_word.append(small_seen)
            a_word.append(val)
        else:
            large_seen += 1
            u_word.append(k + large_seen)
            b_word.append(val)
    bhat = Permutation(v - (k + 1) for v in b_word[1:])
    return ParabolicFactorization(Permutation(u_word), Permutation(a_word),
                                  bhat, k)


def recompose_parabolic(u: Permutation, a: Permutation,
                        bhat: Permutation, k: int) -> Permutation:
    """Inverse of parabolic_factorization: w(i) = b(a(u(i)))."""
    n = len(u)
    b_vals = [k + 1] + [v + k + 1 for v in bhat]

    def a_of(v):
        return a[v - 1] if v <= k else v

    def b_of(v):
        return b_vals[v - k - 1] if v > k else v

    return Permutation(b_of(a_of(u[i])) for i in range(n))


def set_of_grassmannian(u: Sequence[int], k: int) -> SubsetK:
    """Positions of the values 1..k in the shuffle u, listed decreasingly."""
    u = Permutation(u)
    positions_small = [i + 1 for i, v in enumerate(u) if v <= k]
    small_vals = [v for v in u if v <= k]
    large_vals = [v for v in u if v > k]
    if small_vals != sorted(small_vals) or large_vals != sorted(large_vals):
        raise ValueError(f"{tuple(u)} is not a shuffle of 1..{k} and {k + 1}..{len(u)}")
    return SubsetK(positions_small)


# ---------------------------------------------------------------------------
# increasing binary trees
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IncBinTree:
    label: int
    left: Optional["IncBinTree"] = None
    right: Optional["IncBinTree"] = None

    def in_order(self) -> tuple[int, ...]:
        out: list[int] = []
        stack: list[tuple[Optional[IncBinTree], bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if node is None:
                continue
            if expanded:
                out.append(node.label)
            else:
                stack.append((node.right, False))
                stack.append((node, True))
                stack.append((node.left, False))
        return tuple(out)

    def labels(self) -> frozenset[int]:
        out = set()
        stack = [self]
        while stack:
            node = stack.pop()
            out.add(node.label)
            if node.left:
                stack.append(node.left)
            if node.right:
                stack.append(node.right)
        return frozenset(out)


def increasing_binary_tree(word: Sequence[int]) -> Optional[IncBinTree]:
    """Smallest letter at the root, flanking factors recursively below it.

    Built in one left-to-right pass (the Cartesian-tree construction): the
    stack holds the rightmost path, letters increasing upwards, each with its
    finished left subtree.
    """
    word = tuple(word)
    if len(set(word)) != len(word):
        raise ValueError("word must have distinct letters")
    stack: list[tuple[int, Optional[IncBinTree]]] = []

    def close(above: Optional[int]) -> Optional[IncBinTree]:
        # pop the letters above ``above`` (all if None); each popped
        # subtree becomes the right child of the letter below it
        sub = None
        while stack and (above is None or stack[-1][0] > above):
            letter, left = stack.pop()
            sub = IncBinTree(letter, left, sub)
        return sub

    for a in word:
        stack.append((a, close(a)))
    return close(None)


class TreePairStat(NamedTuple):
    alpha: int
    beta: int
    w_beta: int
    ell: int
    r: int


def tree_pair_stats(w: Sequence[int]) -> list[TreePairStat]:
    """Per-pair statistics on the increasing tree of w^{-1}.

    For each node beta with alpha in its left subtree: ``ell`` counts left-
    subtree labels >= alpha and ``r`` right-subtree labels < alpha.  Rows come
    in preorder of beta with alpha ascending.
    """
    w = Permutation(w)
    tree = increasing_binary_tree(w.inverse())
    stats: list[TreePairStat] = []

    def visit(node: Optional[IncBinTree]) -> None:
        if node is None:
            return
        if node.left is not None:
            left_labels = sorted(node.left.labels())
            right_labels = sorted(node.right.labels()) if node.right else []
            for alpha in left_labels:
                ell = sum(1 for x in left_labels if x >= alpha)
                r = sum(1 for x in right_labels if x < alpha)
                stats.append(TreePairStat(alpha, node.label, w(node.label), ell, r))
        visit(node.left)
        visit(node.right)

    visit(tree)
    return stats


# ---------------------------------------------------------------------------
# forest posets
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ForestPoset:
    """Forest on {1..n}: cover[i-1] is the element i covers (0 for roots)."""

    n: int
    cover: tuple[int, ...]

    def __post_init__(self):
        if len(self.cover) != self.n:
            raise ValueError("cover array length must equal n")
        for i, p in enumerate(self.cover, start=1):
            if p < 0 or p > self.n or p == i:
                raise ValueError(f"bad cover target {p} for element {i}")
        self._check_acyclic()

    @classmethod
    def from_covers(cls, n: int, covers: Sequence[Sequence[int]]) -> "ForestPoset":
        arr = [0] * n
        for i, p in covers:
            if not (1 <= i <= n and 1 <= p <= n):
                raise ValueError(f"cover pair ({i},{p}) out of range 1..{n}")
            if arr[i - 1]:
                raise ValueError(f"element {i} appears twice as a cover source")
            arr[i - 1] = p
        return cls(n, tuple(arr))

    def covers(self) -> list[tuple[int, int]]:
        return [(i, p) for i, p in enumerate(self.cover, start=1) if p]

    def _check_acyclic(self) -> None:
        state = [0] * (self.n + 1)  # 0 unseen, 1 active, 2 done
        for start in range(1, self.n + 1):
            i, chain = start, []
            while i and state[i] == 0:
                state[i] = 1
                chain.append(i)
                i = self.cover[i - 1]
            if i and state[i] == 1:
                raise ValueError("cover relation has a cycle")
            for j in chain:
                state[j] = 2

    def below(self, i: int) -> int:
        """Element covered by i, or 0 when i is minimal."""
        return self.cover[i - 1]

    def roots(self) -> list[int]:
        return [i for i in range(1, self.n + 1) if not self.cover[i - 1]]

    def children(self) -> dict[int, list[int]]:
        ch: dict[int, list[int]] = {i: [] for i in range(1, self.n + 1)}
        for i, p in enumerate(self.cover, start=1):
            if p:
                ch[p].append(i)
        return ch

    def upper_set(self, i: int) -> frozenset[int]:
        """P_{>=i}: the subtree consisting of i and everything above it."""
        ch = self.children()
        out = set()
        stack = [i]
        while stack:
            j = stack.pop()
            out.add(j)
            stack.extend(ch[j])
        return frozenset(out)

    def less(self, i: int, j: int) -> bool:
        """True iff i <_P j (strictly)."""
        k = self.cover[j - 1]
        while k:
            if k == i:
                return True
            k = self.cover[k - 1]
        return False


def validate_recursively_labelled(p: ForestPoset) -> bool:
    """Every subtree's label set must be an integer interval."""
    return _rl_violation(p) is None


def _rl_violation(p: ForestPoset) -> Optional[tuple[int, frozenset[int]]]:
    for i in range(1, p.n + 1):
        sub = p.upper_set(i)
        if max(sub) - min(sub) + 1 != len(sub):
            return i, sub
    return None


def subtree_data(p: ForestPoset, i: int) -> tuple[int, int, int]:
    """(min, max, size) of the subtree P_{>=i}."""
    sub = p.upper_set(i)
    return min(sub), max(sub), len(sub)


def inv_poset(p: ForestPoset) -> int:
    """Pairs i < j (as integers) with i >_P j."""
    return sum(1 for i in range(1, p.n + 1) for j in range(i + 1, p.n + 1)
               if p.less(j, i))


def linear_extensions(p: ForestPoset) -> Iterator[Permutation]:
    """All words placing covered elements first, ascending lexicographically."""
    n = p.n
    placed = [False] * (n + 1)
    word: list[int] = []

    def ready(i: int) -> bool:
        below = p.cover[i - 1]
        return not below or placed[below]

    def backtrack() -> Iterator[Permutation]:
        if len(word) == n:
            yield Permutation(word)
            return
        for i in range(1, n + 1):
            if not placed[i] and ready(i):
                placed[i] = True
                word.append(i)
                yield from backtrack()
                word.pop()
                placed[i] = False

    return backtrack()


def count_linear_extensions(p: ForestPoset) -> int:
    n = p.n
    placed = [False] * (n + 1)

    def count(remaining: int) -> int:
        if remaining == 0:
            return 1
        total = 0
        for i in range(1, n + 1):
            below = p.cover[i - 1]
            if not placed[i] and (not below or placed[below]):
                placed[i] = True
                total += count(remaining - 1)
                placed[i] = False
        return total

    return count(n)


# ---------------------------------------------------------------------------
# enumerating recursively labelled forests
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _rl_forest_covers(size: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Cover lists (relative to a size-``size`` interval starting at 1)."""
    if size == 0:
        return ((),)
    out = []
    for first in range(1, size + 1):
        for tree in _rl_tree_covers(first):
            for rest in _rl_forest_covers(size - first):
                shifted = tuple((i + first, p + first) for i, p in rest)
                out.append(tree + shifted)
    return tuple(out)


@lru_cache(maxsize=None)
def _rl_tree_covers(size: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    out = []
    for root in range(1, size + 1):
        for left in _rl_forest_covers(root - 1):
            left_roots = _forest_roots(root - 1, left)
            for right in _rl_forest_covers(size - root):
                right_shifted = tuple((i + root, p + root) for i, p in right)
                right_roots = [r + root for r in _forest_roots(size - root, right)]
                covers = left + right_shifted + tuple(
                    (r, root) for r in left_roots + right_roots)
                out.append(covers)
    return tuple(out)


def _forest_roots(size: int, covers: tuple[tuple[int, int], ...]) -> list[int]:
    non_roots = {i for i, _ in covers}
    return [i for i in range(1, size + 1) if i not in non_roots]


def enumerate_rl_forests(n: int) -> Iterator[ForestPoset]:
    """Every recursively labelled forest on {1..n}, exactly once."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    for covers in _rl_forest_covers(n):
        yield ForestPoset.from_covers(n, covers)


# ---------------------------------------------------------------------------
# dual forests
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DualForestPoset:
    """Poset on {1..n}: cover[i-1] is the element covering i (0 for maximal)."""

    n: int
    cover: tuple[int, ...]

    def __post_init__(self):
        ForestPoset(self.n, self.cover)  # same structural validation

    @classmethod
    def from_covered_by(cls, n: int,
                        pairs: Sequence[Sequence[int]]) -> "DualForestPoset":
        return cls(n, ForestPoset.from_covers(n, pairs).cover)

    def covered_by(self, i: int) -> int:
        return self.cover[i - 1]

    def covers(self) -> list[tuple[int, int]]:
        return [(i, p) for i, p in enumerate(self.cover, start=1) if p]

    def children_below(self) -> dict[int, list[int]]:
        ch: dict[int, list[int]] = {i: [] for i in range(1, self.n + 1)}
        for i, p in enumerate(self.cover, start=1):
            if p:
                ch[p].append(i)
        return ch

    def lower_set(self, i: int) -> frozenset[int]:
        """P_{<=i}: i together with everything below it."""
        ch = self.children_below()
        out = set()
        stack = [i]
        while stack:
            j = stack.pop()
            out.add(j)
            stack.extend(ch[j])
        return frozenset(out)

    def less(self, i: int, j: int) -> bool:
        """True iff i <_P j: following covered_by from i reaches j."""
        k = self.cover[i - 1]
        while k:
            if k == j:
                return True
            k = self.cover[k - 1]
        return False

    def linear_extensions(self) -> Iterator[Permutation]:
        """Ascending-lex words; an element waits for its whole lower subtree."""
        n = self.n
        placed = [False] * (n + 1)
        children = self.children_below()
        pending = {i: len(children[i]) for i in range(1, n + 1)}
        word: list[int] = []

        def backtrack() -> Iterator[Permutation]:
            if len(word) == n:
                yield Permutation(word)
                return
            for i in range(1, n + 1):
                if not placed[i] and pending[i] == 0:
                    placed[i] = True
                    word.append(i)
                    up = self.cover[i - 1]
                    if up:
                        pending[up] -= 1
                    yield from backtrack()
                    if up:
                        pending[up] += 1
                    word.pop()
                    placed[i] = False

        return backtrack()


class DualForestStats(NamedTuple):
    des: frozenset[int]
    maj: int
    lower_subtrees: dict[int, frozenset[int]]


def dual_forest_stats(p: DualForestPoset) -> DualForestStats:
    """Descent elements, their major index, and all lower subtrees.

    An element i is a descent when the element j covering it satisfies j < i;
    the major index adds up the subtree sizes h_i = |P_{<=i}| of the descent
    elements (for a chain this is the usual maj of the word).
    """
    lower = {i: p.lower_set(i) for i in range(1, p.n + 1)}
    des = frozenset(i for i in range(1, p.n + 1)
                    if p.cover[i - 1] and i > p.cover[i - 1])
    return DualForestStats(des, sum(len(lower[i]) for i in des), lower)


def enumerate_dual_forests(n: int) -> Iterator[DualForestPoset]:
    """All parent-above arrays on {1..n} that form a forest (acyclic)."""
    if n < 0:
        raise ValueError("n must be nonnegative")

    def build(i: int, cover: list[int]) -> Iterator[DualForestPoset]:
        if i > n:
            try:
                yield DualForestPoset(n, tuple(cover))
            except ValueError:
                pass
            return
        for target in range(0, n + 1):
            if target == i:
                continue
            cover[i - 1] = target
            yield from build(i + 1, cover)
        cover[i - 1] = 0

    yield from build(1, [0] * n)
