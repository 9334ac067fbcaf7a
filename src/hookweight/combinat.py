"""Permutations, forest posets, and enumerators.

Conventions
-----------
Permutations are words in one-line notation over {1..n}; ``w`` is a linear
extension of a poset P when i <_P j forces i to appear before j in the word.

A ``ForestPoset`` stores, for each element i, the unique element p(i) that i
covers (roots are the minimal elements, so subtrees P_{>=i} grow upward).  A
``DualForestPoset`` stores the unique element covering i, so subtrees are the
lower sets P_{<=i}.  A forest is recursively labelled when every subtree's
label set is a contiguous interval of integers; ``enumerate_rl_forests``
builds their parent arrays directly, cached by size.

Both classes are one parent array underneath and share one core: every
subtree (its elements, size, least and largest label) comes from one O(n)
preorder pass, cached per poset, and one iterative walk lists the linear
extensions of either kind in ascending lexicographic order.
``count_linear_extensions`` counts by the multinomial recursion over those
subtrees; it never uses Knuth's hook-length formula, which the tests use as
its oracle.

Sums over the linear extensions of any poset fold forward over its order
ideals instead of listing the words: ``_ideal_fold`` holds, for each ideal
and last letter, the sum over the extensions of that ideal ending in that
letter, so its work grows like 2^n n^2 where the listing grows like n!.
Each such state is made by one step from all the sums held by the ideal
below it, and a caller may share the proper ideals' sums across calls
through a ``_Memo``, the package's one kind of budgeted memo.
``extension_stat_counts`` (q^inv and q^maj, for the Björner–Wachs hook
formulas) and ``fqsym.gamma_extension_sum`` (the P-partition series, which
shares its memo) are its two uses.  The listing serves the ``linext``
command, the FQSym elements and the tests, which use it as the fold's
oracle and, in ``tests/oracles.py``, sum L(P) over it term by term.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from collections import namedtuple
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import permutations
from math import comb, factorial
from typing import Iterator, NamedTuple, Optional, Sequence

__all__ = [
    "Permutation",
    "SubsetK",
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
    "tree_pair_stats",
    "validate_recursively_labelled",
    "subtree_data",
    "inv_poset",
    "linear_extensions",
    "count_linear_extensions",
    "extension_stat_counts",
    "enumerate_rl_forests",
    "enumerate_dual_forests",
    "dual_forest_stats",
    "DualForestStats",
]


class Permutation(tuple):
    """One-line notation word forming a bijection of {1..n}."""

    def __new__(cls, word: Sequence[int] = ()):
        if type(word) is cls:  # checked when it was made
            return word
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
        return tuple.__new__(Permutation, inv_word)  # a permutation by construction

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
    u, a, bhat, k = _parabolic_words(w)
    return ParabolicFactorization(Permutation(u), Permutation(a),
                                  Permutation(bhat), k)


def _parabolic_words(w: Sequence[int]) -> tuple[list[int], list[int],
                                                 list[int], int]:
    """u, a, b-hat and k of a nonempty permutation w, as plain lists."""
    k = w[0] - 1
    u_word: list[int] = []
    a_word: list[int] = []
    b_word: list[int] = []
    for val in w:
        if val <= k:
            a_word.append(val)
            u_word.append(len(a_word))
        else:
            b_word.append(val)
            u_word.append(k + len(b_word))
    return u_word, a_word, [v - (k + 1) for v in b_word[1:]], k


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


class TreePairStat(NamedTuple):
    alpha: int
    beta: int
    w_beta: int
    ell: int
    r: int


def tree_pair_stats(w: Sequence[int]) -> list[TreePairStat]:
    """Per-pair statistics on the increasing tree of v = w^{-1}.

    For each node beta with alpha in its left subtree: ``ell`` counts left-
    subtree labels >= alpha and ``r`` right-subtree labels < alpha.  Rows come
    in preorder of beta with alpha ascending.

    No tree is built.  The subtree of beta = v[j] is the run v[lo:hi]
    between the nearest letters smaller than beta on either side, found for
    every j by one stack pass; its left and right subtrees are v[lo:j] and
    v[j+1:hi], and w(beta) = j + 1.  Preorder is the order of (lo, beta).
    """
    v = Permutation(w).inverse()
    n = len(v)
    lo = [0] * n
    hi = [n] * n
    stack: list[int] = []  # positions of increasing letters
    for j, letter in enumerate(v):
        while stack and v[stack[-1]] > letter:
            hi[stack.pop()] = j
        lo[j] = stack[-1] + 1 if stack else 0
        stack.append(j)
    stats: list[TreePairStat] = []
    for start, beta, j in sorted((lo[j], v[j], j) for j in range(n)
                                 if lo[j] < j):
        left_labels = sorted(v[start:j])
        right_labels = sorted(v[j + 1:hi[j]])
        size = len(left_labels)
        for i, alpha in enumerate(left_labels):
            # ell: left labels >= alpha; r: right labels < alpha
            stats.append(TreePairStat(alpha, beta, j + 1, size - i,
                                      bisect_left(right_labels, alpha)))
    return stats


# ---------------------------------------------------------------------------
# forest posets
# ---------------------------------------------------------------------------

# All subtrees of a parent array: the subtree of i is the run
# order[start[i]:start[i] + size[i]] of a preorder, with least label lo[i]
# and largest label hi[i].  The lists are indexed by element.
_Subtrees = namedtuple("_Subtrees", "order start size lo hi")


@dataclass(frozen=True)
class _ParentArray:
    """Forest on {1..n} as one parent array: cover[i-1] is i's parent, 0 for
    a root.  Each subclass orders parent and child one way round and lists
    the (earlier, later) cover pairs in ``_precedences()``."""

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
    def _from_pairs(cls, n: int, pairs: Sequence[Sequence[int]]):
        arr = [0] * n
        for i, p in pairs:
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

    def roots(self) -> list[int]:
        return [i for i in range(1, self.n + 1) if not self.cover[i - 1]]

    def children(self) -> dict[int, list[int]]:
        ch: dict[int, list[int]] = {i: [] for i in range(1, self.n + 1)}
        for i, p in enumerate(self.cover, start=1):
            if p:
                ch[p].append(i)
        return ch

    @cached_property
    def _subtrees(self) -> _Subtrees:
        """Computed once per poset, in one O(n) pass."""
        n = self.n
        ch = self.children()
        order: list[int] = []
        start = [0] * (n + 1)
        stack = self.roots()
        while stack:
            i = stack.pop()
            start[i] = len(order)
            order.append(i)
            stack.extend(ch[i])
        size = [1] * (n + 1)
        lo = list(range(n + 1))
        hi = list(range(n + 1))
        for i in reversed(order):  # every child before its parent
            p = self.cover[i - 1]
            if p:
                size[p] += size[i]
                lo[p] = min(lo[p], lo[i])
                hi[p] = max(hi[p], hi[i])
        return _Subtrees(order, start, size, lo, hi)

    def _subtree(self, i: int) -> frozenset[int]:
        s = self._subtrees
        return frozenset(s.order[s.start[i]:s.start[i] + s.size[i]])


def _require_kind(p, kind: type) -> None:
    """Raise ``TypeError`` unless p is a ``kind``: the two kinds of forest
    share one parent array, which each reads the other way round."""
    if not isinstance(p, kind):
        raise TypeError(f"expected a {kind.__name__}, got {type(p).__name__}")


@dataclass(frozen=True)
class ForestPoset(_ParentArray):
    """Forest on {1..n}: cover[i-1] is the element i covers (0 for roots)."""

    @classmethod
    def from_covers(cls, n: int, covers: Sequence[Sequence[int]]) -> "ForestPoset":
        return cls._from_pairs(n, covers)

    def below(self, i: int) -> int:
        """Element covered by i, or 0 when i is minimal."""
        return self.cover[i - 1]

    def upper_set(self, i: int) -> frozenset[int]:
        """P_{>=i}: the subtree consisting of i and everything above it."""
        return self._subtree(i)

    def less(self, i: int, j: int) -> bool:
        """True iff i <_P j (strictly): j is in the subtree above i."""
        s = self._subtrees
        return s.start[i] < s.start[j] < s.start[i] + s.size[i]

    def _precedences(self) -> list[tuple[int, int]]:
        return [(p, i) for i, p in self.covers()]


def validate_recursively_labelled(p: ForestPoset) -> bool:
    """Every subtree's label set must be an integer interval."""
    return _rl_violation(p) is None


def _rl_violation(p: ForestPoset) -> Optional[tuple[int, frozenset[int]]]:
    _require_kind(p, ForestPoset)
    s = p._subtrees
    for i in range(1, p.n + 1):
        if s.hi[i] - s.lo[i] + 1 != s.size[i]:
            return i, p.upper_set(i)
    return None


def subtree_data(p: ForestPoset, i: int) -> tuple[int, int, int]:
    """(min, max, size) of the subtree P_{>=i}."""
    s = p._subtrees
    return s.lo[i], s.hi[i], s.size[i]


def inv_poset(p: ForestPoset) -> int:
    """Pairs i < j (as integers) with i >_P j."""
    return sum(1 for i in range(1, p.n + 1) for j in range(i + 1, p.n + 1)
               if p.less(j, i))


def _extension_words(p: _ParentArray) -> Iterator[tuple[int, ...]]:
    """Every linear extension of p in ascending lex order, as a tuple.

    ``ready`` is the sorted list of elements whose immediate prerequisites
    are placed; ``pending[j]`` counts j's unplaced ones.  ``choice[d]`` is the
    index in ``ready`` that position d's element came from.  An undo restores
    ``ready`` exactly, so the state is O(n) and no recursion limits a chain.
    Once every unplaced element is ready, any order of them completes the
    word: the tails are listed in bulk as the permutations of ``ready``,
    which come in lex order because ``ready`` is sorted, and the walk backs
    up.  A full word is the case of an empty ``ready``.
    """
    n = p.n
    unlocks: list[list[int]] = [[] for _ in range(n + 1)]
    pending = [0] * (n + 1)
    for a, b in p._precedences():
        unlocks[a].append(b)
        pending[b] += 1
    ready = [i for i in range(1, n + 1) if not pending[i]]
    word: list[int] = []
    choice: list[int] = []
    k = 0
    while True:
        if len(word) + len(ready) == n:  # free tails, then back up
            head = tuple(word)
            for tail in permutations(ready):
                yield head + tail
        elif k < len(ready):  # place the candidate ready[k]
            i = ready.pop(k)
            word.append(i)
            choice.append(k)
            for j in unlocks[i]:
                pending[j] -= 1
                if not pending[j]:
                    insort(ready, j)
            k = 0
            continue
        if not choice:
            return
        k = choice.pop()  # no candidate left here: undo the last placement
        i = word.pop()
        for j in unlocks[i]:
            if not pending[j]:
                del ready[bisect_left(ready, j)]
            pending[j] += 1
        ready.insert(k, i)
        k += 1


def linear_extensions(p: _ParentArray) -> Iterator[Permutation]:
    """All extensions of a forest or dual forest, ascending lexicographically."""
    return (Permutation(w) for w in _extension_words(p))


def count_linear_extensions(p: _ParentArray) -> int:
    """Number of linear extensions, by the multinomial recursion over subtrees.

    An extension of a forest interleaves extensions of its trees T_1..T_k,
    so e(forest) = (n; |T_1|, ..., |T_k|) * prod e(T_j), and a tree's root
    comes first (last in a dual forest), so e(tree) = e(forest of the
    subtrees at its children).  The multinomial is built one tree at a time
    as a product of binomials.  The tests check the count against Knuth's
    n!/prod h_i and against the listing, so it must use neither.
    """
    s = p._subtrees
    count = [1] * (p.n + 1)  # e(subtree at i); index 0 is the whole forest
    placed = [0] * (p.n + 1)  # elements of the subtrees merged into i so far
    for i in reversed(s.order):  # every child before its parent
        parent = p.cover[i - 1]
        placed[parent] += s.size[i]
        count[parent] *= comb(placed[parent], s.size[i]) * count[i]
    return count[0]


class _Memo(dict):
    """A module memo shared across calls.  ``put`` stores an entry at a new
    key while its size, in the memo's own unit, fits in ``room``, what is
    left of ``budget``; no entry is evicted or replaced, so a value read
    from it stays valid.  ``get`` and ``in`` are the dict's own."""

    __slots__ = ("budget", "room")

    def __init__(self, budget: int):
        super().__init__()
        self.budget = self.room = budget

    def put(self, key, value, size: int = 1) -> None:
        if size <= self.room and key not in self:
            self.room -= size
            self[key] = value


def _ideal_fold(n: int, need: Sequence[int], start, step,
                memo: Optional[_Memo] = None) -> dict:
    """Fold over the linear extensions of a poset on {1..n}, ideal by ideal.

    ``need[m-1]`` is the mask of the elements that must precede m (bit v-1
    for v).  A state is an order ideal J, as a mask, with its last letter
    m; it holds the fold over the extensions of J that end in m.  An ideal
    holds its states as one ``ends`` dict {last letter: value}, and the
    empty ideal holds {0: start}.  The state (J, m) is made in one call,
    ``step(I, m, ends)``, from the whole ``ends`` dict of I = J - {m}.
    Returns the ``ends`` dict of the whole poset, which the caller adds up;
    it is empty when the poset has no extension.

    ``memo``, when given, maps (J, the need masks of J's elements in
    increasing order) to the ``ends`` dict of a proper ideal J.  That key
    fixes the labelled order induced on J, so one entry serves every poset
    with that lower set, whatever n and the elements above it, provided
    every call with the memo passes the same ``start`` and ``step``.  Each
    entry has size 1, and the fold never changes a stored dict.
    """
    full = (1 << n) - 1
    level = {0: {0: start}}
    for _size in range(n):
        # every state (I + m, m) of this size, first as the mask of I
        grown: dict[int, dict] = {}
        for mask in level:
            for m in range(1, n + 1):
                bit = 1 << (m - 1)
                if not mask & bit and not need[m - 1] & ~mask:
                    grown.setdefault(mask | bit, {})[m] = mask
        for ideal, ends in grown.items():
            key = None
            if memo is not None and ideal != full:
                key = (ideal, tuple(need[v] for v in range(n)
                                    if ideal >> v & 1))
                shared = memo.get(key)
                if shared is not None:
                    grown[ideal] = shared
                    continue
            for m, below in ends.items():
                ends[m] = step(below, m, level[below])
            if key is not None:
                memo.put(key, ends)
        level = grown
    return level.get(full, {})


def extension_stat_counts(p: _ParentArray, stat: str) -> dict[int, int]:
    """{s: number of linear extensions w of p with stat(w) = s}.

    ``stat`` is "inv" or "maj".  Appending m to an ideal I adds to inv the
    number of placed letters above m, so the step shifts I's summed ends
    once, and to maj the position |I| when the last letter placed is above
    m, so the step adds the ends below m to the shifted ends above it.  The
    fold carries sum_w X^stat(w) at X = 2^W as one integer: no count
    exceeds n! < 2^W, so the fields never carry into each other.
    """
    if stat == "inv":
        def step(mask, m, ends):
            return sum(ends.values()) << width * (mask >> m).bit_count()
    elif stat == "maj":
        def step(mask, m, ends):
            rises = falls = 0
            for last, value in ends.items():
                if last > m:
                    falls += value
                else:
                    rises += value
            return rises + (falls << width * mask.bit_count())
    else:
        raise ValueError(f"unknown statistic {stat!r}")
    n = p.n
    width = factorial(n).bit_length()
    need = [0] * n
    for a, b in p._precedences():
        need[b - 1] |= 1 << (a - 1)
    packed = sum(_ideal_fold(n, need, 1, step).values())
    field = (1 << width) - 1
    counts: dict[int, int] = {}
    s = 0
    while packed:
        if packed & field:
            counts[s] = packed & field
        packed >>= width
        s += 1
    return counts


# ---------------------------------------------------------------------------
# enumerating recursively labelled forests
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _rl_forests(size: int) -> tuple[tuple[int, ...], ...]:
    """Parent arrays of the recursively labelled forests on 1..size: a first
    tree on 1..f, then a forest on the rest shifted by f."""
    if size == 0:
        return ((),)
    return tuple(tree + tuple(p and p + f for p in rest)
                 for f in range(1, size + 1)
                 for tree in _rl_trees(f)
                 for rest in _rl_forests(size - f))


@lru_cache(maxsize=None)
def _rl_trees(size: int) -> tuple[tuple[int, ...], ...]:
    """Parent arrays of the recursively labelled trees on 1..size: a root r,
    a forest on 1..r-1 with its roots set to r, and a forest on r+1..size
    shifted by r with its roots set to r."""
    return tuple(tuple(p or r for p in left) + (0,)
                 + tuple(p + r if p else r for p in right)
                 for r in range(1, size + 1)
                 for left in _rl_forests(r - 1)
                 for right in _rl_forests(size - r))


def enumerate_rl_forests(n: int) -> Iterator[ForestPoset]:
    """Every recursively labelled forest on {1..n}, exactly once."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    for cover in _rl_forests(n):
        yield ForestPoset(n, cover)


# ---------------------------------------------------------------------------
# dual forests
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DualForestPoset(_ParentArray):
    """Poset on {1..n}: cover[i-1] is the element covering i (0 for maximal)."""

    @classmethod
    def from_covered_by(cls, n: int,
                        pairs: Sequence[Sequence[int]]) -> "DualForestPoset":
        return cls._from_pairs(n, pairs)

    def covered_by(self, i: int) -> int:
        return self.cover[i - 1]

    def lower_set(self, i: int) -> frozenset[int]:
        """P_{<=i}: i together with everything below it."""
        return self._subtree(i)

    def less(self, i: int, j: int) -> bool:
        """True iff i <_P j: i is in the subtree below j."""
        s = self._subtrees
        return s.start[j] < s.start[i] < s.start[j] + s.size[j]

    def _precedences(self) -> list[tuple[int, int]]:
        return self.covers()


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
    _require_kind(p, DualForestPoset)
    lower = {i: p.lower_set(i) for i in range(1, p.n + 1)}
    des = frozenset(i for i in range(1, p.n + 1)
                    if p.cover[i - 1] and i > p.cover[i - 1])
    return DualForestStats(des, sum(len(lower[i]) for i in des), lower)


def enumerate_dual_forests(n: int) -> Iterator[DualForestPoset]:
    """All parent-above arrays on {1..n} that form a forest, in lex order.

    A target for cover[i-1] whose chain of assigned covers leads back to i
    is skipped: every cycle closes when its largest element is assigned.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    cover = [0] * n

    def build(i: int) -> Iterator[DualForestPoset]:
        if i > n:
            yield DualForestPoset(n, tuple(cover))
            return
        for target in range(0, n + 1):
            j = target
            while 0 < j < i:
                j = cover[j - 1]
            if j != i:
                cover[i - 1] = target
                yield from build(i + 1)

    yield from build(1)
