"""Second implementations of package values, kept only as test oracles.

Each computes a value the package computes another way, so the tests can
compare the two on the same inputs:

- ``increasing_binary_tree`` builds the tree that ``tree_pair_stats``
  reads without building;
- ``wt_subset_recursive`` runs the defining recursion of the subset
  weight that ``wt_subset`` takes as a closed product, and that
  ``qanalog._proved_binomial`` rests its induction step on;
- ``L_direct`` adds the weights of the linear extensions one by one,
  where ``L_of_forest`` groups them by their first letter;
- ``gamma_dual_forest_series`` truncates the product formula for the
  P-partition series that ``ppartition_series`` enumerates;
- ``shuffles_by_insert`` and ``fqsym_mul_by_insert`` build each shuffle by
  inserting the left word's letters one at a time, where ``shuffles`` and
  ``fqsym_mul`` apply precomputed position patterns;
- ``tokenize_whole`` runs the token regular expression over the whole
  text, where ``parsing._tokenize`` runs it once per distinct chunk
  between two operators.
"""

from dataclasses import dataclass
from itertools import combinations
from typing import Optional, Sequence

from hookweight.combinat import SubsetK, dual_forest_stats, linear_extensions
from hookweight.parsing import (_FIRST_ATOM, _TOKEN, ParseError, _exponent,
                                _monomial)
from hookweight.qanalog import _factorial_atoms, _shift_ratio
from hookweight.ratfunc import Polynomial, RatFunc, _mono_degree, _mono_pack
from hookweight.weights import _require_recursively_labelled, wt_perm_tree


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


def wt_subset_recursive(s) -> RatFunc:
    """wt(S) by the recursion wt(S) = F(wt(S-hat)) if 1 is in S, else
    F([k]!)/[k]! * F(wt(S-hat)), run as a loop: the ratio met after
    ``shift`` steps enters shifted ``shift`` times."""
    s = tuple(SubsetK(s))
    total = RatFunc.from_const(1)
    shift = 0
    while s:
        if 1 not in s:
            total = total._mul(_shift_ratio(len(s)).frobenius(shift))
        s = tuple(i - 1 for i in s if i != 1)
        shift += 1
    return total


def L_direct(p) -> RatFunc:
    """L(P) as the weights of the extensions of p added one by one in
    lexicographic order.  Raises ``NotRecursivelyLabelledError`` unless p
    is recursively labelled, as ``L_of_forest`` does."""
    _require_recursively_labelled(p)
    hooks = tuple(_factorial_atoms(p.n))
    total = RatFunc.from_const(0)
    for w in linear_extensions(p):
        total = RatFunc._sum((total, wt_perm_tree(w)), hooks)
    return total


def gamma_dual_forest_series(p, max_degree: int) -> Polynomial:
    """Truncated expansion of the product formula for the P-partitions."""
    stats = dual_forest_stats(p)
    series = {0: 1}
    for i in range(1, p.n + 1):
        u = _mono_pack({v: 1 for v in stats.lower_subtrees[i]})
        udeg = len(stats.lower_subtrees[i])
        geom = {e * u: 1 for e in range(max_degree // udeg + 1)}
        series = _truncated_mul(series, geom, max_degree)
    numer = {0: 1}
    for i in stats.des:
        mono = _mono_pack({v: 1 for v in stats.lower_subtrees[i]})
        numer = _truncated_mul(numer, {mono: 1}, max_degree)
    series = _truncated_mul(series, numer, max_degree)
    return Polynomial._from_dict(series)


def _truncated_mul(a: dict, b: dict, max_degree: int) -> dict:
    out: dict = {}
    for ka, va in a.items():
        da = _mono_degree(ka)
        for kb, vb in b.items():
            if da + _mono_degree(kb) > max_degree:
                continue
            k = ka + kb
            nv = out.get(k, 0) + va * vb
            if nv:
                out[k] = nv
            else:
                del out[k]
    return out


def shuffles_by_insert(a: Sequence[int], b: Sequence[int]):
    """Every interleaving of a and b, one per choice of a's positions in
    ascending order, each word built by ``list.insert``."""
    a, b = tuple(a), tuple(b)
    for slots in combinations(range(len(a) + len(b)), len(a)):
        word = list(b)
        for i, v in zip(slots, a):  # ascending, so each lands at its slot
            word.insert(i, v)
        yield tuple(word)


def fqsym_mul_by_insert(x: dict, y: dict) -> dict:
    """The shuffle product of two {word: coefficient} maps, dropping the
    words whose coefficients cancel."""
    out: dict = {}
    for a, ca in x.items():
        for b, cb in y.items():
            for w in shuffles_by_insert(a, [v + len(a) for v in b]):
                out[w] = out.get(w, 0) + ca * cb
    return {w: c for w, c in out.items() if c}


def tokenize_whole(text: str) -> list:
    """The tokens of ``text``, then None for the end of input: a monomial
    (coeff, cell), "^" followed by its exponent, or an operator.
    After / and its signs the first atom of a monomial is a token of its
    own, so that 1/2x1 is x1/2 as juxtaposition binds."""
    tokens: list = []
    divisor = False  # the next monomial follows / and its signs
    for m in _TOKEN.finditer(text):
        kind = m.lastindex  # the one group that matched
        if kind == 1:
            mono = m[1]
            cut = _FIRST_ATOM.match(mono).end() if divisor else len(mono)
            tokens.append(_monomial(mono[:cut]))
            if cut < len(mono):
                tokens.append(_monomial(mono[cut:]))
            divisor = False
        elif kind == 2:
            if not m[2]:
                raise ParseError(f"expected integer exponent at position "
                                 f"{m.start()}: {text[m.start():]!r}")
            tokens += ("^", _exponent(m[2]))
            divisor = False
        elif kind == 3:
            op = m[3]
            tokens.append(op)
            divisor = op == "/" or divisor and op in "+-"
        else:
            pos = m.start()
            raise ParseError(f"bad character at position {pos}: {text[pos:]!r}")
    tokens.append(None)
    return tokens
