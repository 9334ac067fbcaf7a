"""Free quasisymmetric functions and the two maps into the twisted algebra.

``FQSymElem`` is a finite rational combination of basis elements F_w indexed
by permutations of every size; the product shuffles the left word with the
shifted right word, one shuffle per choice of the left word's positions, so
words of any length multiply.  ``f_of_poset`` sends a labelled forest to the
sum of F_w over its linear extensions, and products of such elements
concatenate forests of either kind with shifted labels (``concat_forests``).

``phi_inv`` maps F_w to wt(w) * u^{(n)} (divided power); it is an algebra
morphism on the span of the forest elements but not on all of FQSym --
``check_pbt_morphism`` verifies the first claim and the F_1 * F_213
counterexample refutes the second.  ``phi_maj`` maps F_w to the P-partition
series gamma(w, x) * u^n and is a morphism everywhere.  Both checks are one
check on the map's coefficient of each forest: the product law
F_p * F_q = F_{p + q} must hold, and the coefficient of the union must be
the product of those of p and q.

Both maps group an element's terms by degree: ``phi_inv`` adds a degree's
weights in one ``RatFunc._sum``, and ``phi_maj`` folds a degree's words
over their prefix trie one prefix length at a time.  A forest of the wrong
kind raises ``TypeError``.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from itertools import combinations, repeat
from operator import itemgetter
from typing import Iterable, Iterator, Mapping, Sequence

from .combinat import (
    DualForestPoset,
    ForestPoset,
    Permutation,
    _Memo,
    _extension_words,
    _ideal_fold,
    _require_kind,
    descents,
    dual_forest_stats,
    extension_stat_counts,
)
from .qanalog import SkewElem, _factorial_atoms
from .ratfunc import (Polynomial, RatFunc, _dp_acc, _dp_add, _dp_scale,
                      _mono_pack)
from .specialize import (
    UniRatFunc,
    _all_q_var,
    _q_hook_sides,
    _substitute,
)
from .weights import _L_grouped, _require_recursively_labelled, wt_perm_tree

__all__ = [
    "FQSymElem",
    "fqsym_mul",
    "f_of_poset",
    "concat_forests",
    "dual_forest_prereqs",
    "phi_inv",
    "phi_maj",
    "gamma_perm",
    "gamma_dual_forest",
    "gamma_extension_sum",
    "check_pbt_morphism",
    "check_phimaj_morphism",
    "verify_bw_maj",
    "ppartition_series",
    "shuffles",
]


class FQSymElem:
    """Finite formal sum of F_w basis elements with rational coefficients."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[Sequence[int], int | Fraction] | None = None):
        items = terms.items() if terms else ()
        self.terms: dict[tuple[int, ...], int | Fraction] = _dp_acc(
            {}, ((tuple(Permutation(w)), c) for w, c in items))

    @classmethod
    def _raw(cls, terms: dict[tuple[int, ...], int | Fraction]) -> "FQSymElem":
        """Wrap ``terms`` unchecked: its keys must be permutation tuples and
        its coefficients nonzero, as the public constructor leaves them."""
        elem = object.__new__(cls)
        elem.terms = terms
        return elem

    @classmethod
    def basis(cls, w: Sequence[int]) -> "FQSymElem":
        return cls({tuple(w): 1})

    @classmethod
    def zero(cls) -> "FQSymElem":
        return cls()

    @classmethod
    def one(cls) -> "FQSymElem":
        return cls({(): 1})

    def __add__(self, other: "FQSymElem") -> "FQSymElem":
        return FQSymElem._raw(_dp_add(self.terms, other.terms))

    def scale(self, c) -> "FQSymElem":
        return FQSymElem._raw(_dp_scale(self.terms, c))

    def __mul__(self, other: "FQSymElem") -> "FQSymElem":
        return fqsym_mul(self, other)

    def __eq__(self, other) -> bool:
        if not isinstance(other, FQSymElem):
            return NotImplemented
        # no stored coefficient is 0, and an int equals a Fraction by value
        return self.terms == other.terms

    __hash__ = None

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for w in sorted(self.terms, key=lambda w: (len(w), w)):
            c = self.terms[w]
            basis = f"F[{','.join(map(str, w))}]"
            if c == 1:
                parts.append(basis)
            elif c == -1:
                parts.append(f"-{basis}")
            else:
                parts.append(f"{c}*{basis}")
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"FQSymElem<{self}>"


# The getters of _shuffle_patterns per (len(a), len(b)), made on first use.
# Each getter counts its letters, at least one: 2^15 hold every shape of at
# most 10 letters (18,435), and one long shape cannot pin megabytes.
_PATTERNS = _Memo(1 << 15)


def _shuffle_patterns(k: int, l: int) -> tuple:
    """One getter per shuffle of a k-letter word a with an l-letter word b,
    in the order of ``shuffles``: applied to a + b, it returns the shuffle
    whose letters from a sit at one choice of positions."""
    patterns = _PATTERNS.get((k, l))
    if patterns is not None:
        return patterns
    n = k + l
    if n < 2:
        # the one shuffle is a + b itself, and an itemgetter of a single
        # index would return a letter instead of a word
        patterns = (tuple,)
    else:
        index = tuple(range(n))  # one int object per index, however many getters
        gets = []
        for slots in combinations(index, k):
            from_a, from_b = iter(index[:k]), iter(index[k:])
            chosen = set(slots)
            gets.append(itemgetter(*[next(from_a) if i in chosen
                                     else next(from_b) for i in index]))
        patterns = tuple(gets)
    _PATTERNS.put((k, l), patterns, max(n, 1) * len(patterns))
    return patterns


def shuffles(a: Sequence[int], b: Sequence[int]) -> Iterator[tuple[int, ...]]:
    """All interleavings of two disjoint words, one per choice of the
    positions of a, in ascending order of those positions."""
    a, b = tuple(a), tuple(b)
    ab = a + b
    return (get(ab) for get in _shuffle_patterns(len(a), len(b)))


def fqsym_mul(x: FQSymElem, y: FQSymElem) -> FQSymElem:
    """Bilinear shuffle product: F_a F_b = sum over shuffles of a and b+|a|."""
    out: dict[tuple[int, ...], int | Fraction] = {}
    shifted: dict[int, list] = {}  # y's words shifted by k, per length k
    for a, ca in x.terms.items():
        k = len(a)
        right = shifted.get(k)
        if right is None:
            right = shifted[k] = [
                (tuple(v + k for v in b), _shuffle_patterns(k, len(b)), cb)
                for b, cb in y.terms.items()]
        for b, patterns, cb in right:
            ab = a + b
            words = [get(ab) for get in patterns]
            _dp_acc(out, zip(words, repeat(ca * cb)))
    return FQSymElem._raw(out)


def f_of_poset(p: ForestPoset | DualForestPoset) -> FQSymElem:
    """Sum of F_w over the linear extensions of p."""
    return FQSymElem._raw(dict.fromkeys(map(tuple, _extension_words(p)), 1))


# ---------------------------------------------------------------------------
# phi_inv
# ---------------------------------------------------------------------------

def phi_inv(elem: FQSymElem) -> SkewElem:
    """Linear extension of F_w -> wt(w) u^{(n)} = (wt(w)/[n]!) u^n.

    The terms of each degree n are added by one ``RatFunc._sum``,
    trial-divided by the atoms of [n]! as ``weights._L_grouped`` is."""
    by_degree: dict[int, list[RatFunc]] = {}
    for w, c in elem.terms.items():
        term = wt_perm_tree(w)
        by_degree.setdefault(len(w), []).append(term if c == 1 else term * c)
    return SkewElem({
        n: RatFunc._sum(terms, tuple(_factorial_atoms(n)))
        * RatFunc._from_atoms(_factorial_atoms(n, sign=-1))
        for n, terms in by_degree.items()})


def _phi_inv_forest(p: ForestPoset) -> RatFunc:
    """Coefficient of u^{|p|} in phi_inv(F_p): L(p) / [n]!, for a p that
    is known to be recursively labelled."""
    return _L_grouped(p.n, p.cover) * RatFunc._from_atoms(
        _factorial_atoms(p.n, sign=-1))


def concat_forests(p: ForestPoset | DualForestPoset,
                   q: ForestPoset | DualForestPoset) -> ForestPoset | DualForestPoset:
    """Disjoint union of two forests of one kind, q's labels shifted above
    p's; ``TypeError`` if q is not of p's kind."""
    _require_kind(q, type(p))
    return type(p)(p.n + q.n, p.cover + tuple(t and t + p.n for t in q.cover))


def _morphism_holds(p, q, image) -> bool:
    """Whether the map with coefficient image(r) on F_r is multiplicative on
    F_p * F_q: the product law F_p * F_q = F_{p + q} must hold for the
    shifted union p + q, and then image(p + q) = image(p) * F^|p|(image(q)),
    the twisted product of the two u-coefficients.  The extensions of p, q
    and the union are listed on every call."""
    union = concat_forests(p, q)
    if fqsym_mul(f_of_poset(p), f_of_poset(q)) != f_of_poset(union):
        return False
    return image(union) == image(p) * image(q).frobenius(p.n)


def check_pbt_morphism(p: ForestPoset, q: ForestPoset) -> bool:
    """phi_inv(F_p * F_q) == phi_inv(F_p) * phi_inv(F_q), coefficient-wise;
    ``NotRecursivelyLabelledError`` unless p and q are recursively labelled.
    Each is checked once: their shifted union is recursively labelled
    exactly when both are."""
    _require_recursively_labelled(p)
    _require_recursively_labelled(q)
    return _morphism_holds(p, q, _phi_inv_forest)


# ---------------------------------------------------------------------------
# P-partition generating functions
# ---------------------------------------------------------------------------

def _prefix_atom(elements: Iterable[int]):
    return ("B", tuple((v, 1) for v in sorted(elements)))


def _monomial_atoms(elements: Iterable[int]) -> dict:
    return _dp_acc({}, [(("F", v - 1, 1), 1) for v in elements])


def _prefix_step(ideal: Iterable[int], placed: Iterable[int]) -> RatFunc:
    """One step of the prefix DP: 1/(1 - x_ideal) times x_placed, where
    ``placed`` is empty unless the step follows a descent."""
    atoms = {_prefix_atom(ideal): -1}
    atoms.update(_monomial_atoms(placed))
    return RatFunc._from_atoms(atoms)


def gamma_perm(w: Sequence[int]) -> RatFunc:
    """Generating function of weakly decreasing maps along the word w.

    Closed form: prod over descents of x_{w_1}..x_{w_i} divided by
    prod_i (1 - x_{w_1}..x_{w_i}).
    """
    word = tuple(Permutation(w))
    return _gamma_product([word[:i] for i in range(1, len(word) + 1)],
                          [word[:i] for i in descents(word)])


def gamma_dual_forest(p: DualForestPoset) -> RatFunc:
    """Product formula for the P-partition series of a dual forest."""
    stats = dual_forest_stats(p)
    below = stats.lower_subtrees
    return _gamma_product([below[i] for i in range(1, p.n + 1)],
                          [below[i] for i in stats.des])


def _gamma_product(prefixes, descent_prefixes) -> RatFunc:
    """The product of x_prefix over ``descent_prefixes`` divided by the
    product of 1 - x_prefix over ``prefixes``."""
    items = [(("F", v - 1, 1), 1) for pre in descent_prefixes for v in pre]
    items += [(_prefix_atom(pre), -1) for pre in prefixes]
    return RatFunc._from_atoms(_dp_acc({}, items))


# The ends dicts of the proper ideals that the gamma fold has met, keyed by
# the ideal and its elements' need masks and shared by every call of
# gamma_extension_sum (see combinat._ideal_fold); 2^14 entries hold all
# 10,022 proper ideals of the dual forests with n = 6.
_GAMMA_MEMO = _Memo(1 << 14)


def _gamma_step(mask: int, m: int, ends: dict) -> RatFunc:
    """The state (I + m, m) of the gamma fold from the ends of the ideal I:
    1/(1 - x_{I+m}) times the sum of the ends at an ascent into m and of
    x_I times the ends at a descent."""
    placed = [v + 1 for v in range(mask.bit_length()) if mask >> v & 1]
    x_placed = RatFunc._from_atoms(_monomial_atoms(placed))
    terms = [value._mul(x_placed) if last > m else value
             for last, value in ends.items()]
    return RatFunc._sum(terms)._mul(_prefix_step(placed + [m], ()))


def gamma_extension_sum(prereqs: Sequence[frozenset[int]]) -> RatFunc:
    """Exact sum of gamma_perm(w) over the linear extensions of any poset.

    The poset is on 1..n, n = len(prereqs), and ``prereqs[i - 1]`` holds
    the elements that must precede i.  The sum is folded forward over the
    order ideals by size (``combinat._ideal_fold``): the sum over the
    extensions of an ideal J that end in m is 1/(1 - x_J) times one
    ``RatFunc._sum`` over the last letters of I = J - {m}: the sums held for
    I at an ascent into m, and x_I times those at a descent.  Every partial
    sum runs over the extensions of a lower set, which for a dual forest
    cancels to a small numerator.  The sums of a proper ideal depend only on
    its labelled order, so every call shares them through one bounded memo,
    ``_GAMMA_MEMO``; a sweep over many posets computes each lower set once.
    The fold never uses the dual-forest product formula.  A prerequisite
    outside 1..n raises ``ValueError``.
    """
    n = len(prereqs)
    need = [0] * n
    for i, reqs in enumerate(prereqs):
        for v in reqs:
            if not 1 <= v <= n:
                raise ValueError(f"element {v} is outside 1..{n}")
            need[i] |= 1 << (v - 1)
    ends = _ideal_fold(n, need, RatFunc.from_const(1), _gamma_step,
                       _GAMMA_MEMO)
    return RatFunc._sum(ends.values())


def check_phimaj_morphism(p: DualForestPoset, q: DualForestPoset) -> bool:
    """phi_maj(F_p * F_q) == phi_maj(F_p) * phi_maj(F_q) via extension sums:
    both sides sum gamma over linear extensions, never the product formula;
    ``TypeError`` unless p and q are dual forests."""
    return _morphism_holds(
        p, q, lambda r: gamma_extension_sum(dual_forest_prereqs(r)))


def dual_forest_prereqs(p: DualForestPoset) -> list[frozenset[int]]:
    """prereqs[i-1] = strict lower set of i (elements forced before i);
    ``TypeError`` unless p is a ``DualForestPoset``."""
    _require_kind(p, DualForestPoset)
    return [p.lower_set(i) - {i} for i in range(1, p.n + 1)]


# ---------------------------------------------------------------------------
# phi_maj
# ---------------------------------------------------------------------------

def phi_maj(elem: FQSymElem) -> SkewElem:
    """Linear extension of F_w -> gamma(w, x) u^n (plain power of u).

    The words of each degree n are folded over their prefix trie by one
    ``_gamma_weighted_sum``."""
    by_degree: dict[int, dict] = {}
    for w, c in elem.terms.items():
        by_degree.setdefault(len(w), {})[w] = c
    return SkewElem({n: _gamma_weighted_sum(words)
                     for n, words in by_degree.items()})


def _gamma_weighted_sum(terms: Mapping[tuple[int, ...], int | Fraction]) -> RatFunc:
    """Sum of c_w * gamma(w) over words w of one length n, at least one,
    folded over the prefix trie of the words.

    Every prefix contributes its 1/(1 - x_prefix) factor once, and a descent
    between consecutive letters contributes the prefix monomial; folding
    bottom-up keeps the partial sums collapsing instead of accumulating all
    binomial denominators at once.  The trie is folded one prefix length at
    a time, from the words up, with one dict per level: a prefix's value is
    the pairwise ``_add`` of its children's values, each times its step, in
    ascending order of the child.  The pairwise adds let each partial sum
    cancel as it goes; one ``RatFunc._sum`` per prefix was slower on the
    dual-forest elements.
    """
    level = {w: RatFunc.from_const(terms[w]) for w in sorted(terms)}
    for _ in range(len(next(iter(level)))):
        up: dict[tuple[int, ...], RatFunc] = {}
        # level is sorted, so each prefix's children come in ascending order
        for w, value in level.items():
            placed, m = w[:-1], w[-1]
            step = _prefix_step(w, placed if placed and placed[-1] > m else ())
            # _mul looks up the atoms of the smaller factor table, so
            # either side may receive the call
            term = value._mul(step)
            total = up.get(placed)
            up[placed] = term if total is None else total._add(term)
        level = up
    return level[()]


# ---------------------------------------------------------------------------
# the maj hook formula
# ---------------------------------------------------------------------------

def verify_bw_maj(p: DualForestPoset) -> bool:
    """Major-index hook formula on a dual forest.

    Substituting x_i -> q in the product formula must give
    q^{maj(P)} / prod_i (1 - q^{h_i}), and the extension generating function
    sum_w q^{maj(w)} must equal q^{maj(P)} [n]!_q / prod_i [h_i]_q.  That
    sum is folded over the order ideals of P (``extension_stat_counts``)
    without listing the extensions; the closed form alone uses maj(P) and
    the hook lengths.
    """
    stats = dual_forest_stats(p)
    hooks = [len(stats.lower_subtrees[i]) for i in range(1, p.n + 1)]
    substituted = _substitute(gamma_dual_forest(p), _all_q_var)
    den = Counter()
    den.subtract(hooks)
    if substituted != UniRatFunc._factored(1, stats.maj, den):
        return False
    gen, closed = _q_hook_sides(extension_stat_counts(p, "maj"),
                                stats.maj, p.n, hooks)
    return gen == closed


# ---------------------------------------------------------------------------
# truncated P-partition oracle
# ---------------------------------------------------------------------------

def ppartition_series(p: DualForestPoset, max_degree: int) -> Polynomial:
    """Direct enumeration of P-partitions, truncated to total degree <= d.

    A P-partition is weakly order-reversing (i <_P j forces f(i) >= f(j))
    and strictly decreasing along covers i -> j with i > j.
    """
    n = p.n
    out: dict = {}

    def rec(i: int, values: list[int]) -> None:
        if i > n:
            if sum(values) <= max_degree:
                key = _mono_pack({v + 1: e for v, e in enumerate(values) if e})
                out[key] = out.get(key, 0) + 1
            return
        for val in range(0, max_degree + 1):
            values.append(val)
            if _ppartition_prefix_ok(p, values):
                rec(i + 1, values)
            values.pop()

    rec(1, [])
    return Polynomial._from_dict({k: v for k, v in out.items() if v})


def _ppartition_prefix_ok(p: DualForestPoset, values: list[int]) -> bool:
    # check all cover relations both of whose endpoints are assigned
    i = len(values)
    for a in range(1, i + 1):
        b = p.covered_by(a)
        if b and b <= i:
            fa, fb = values[a - 1], values[b - 1]
            if fa < fb:
                return False
            if a > b and fa == fb:
                return False
    return True
