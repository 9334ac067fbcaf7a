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
- ``L_split_term_by_products`` builds one first-letter group of L(P) by
  two products and a shift, where ``weights._split_term`` adds the three
  atom tables in one pass;
- ``gamma_dual_forest_series`` truncates the product formula for the
  P-partition series that ``ppartition_series`` enumerates;
- ``shuffles_by_insert`` and ``fqsym_mul_by_insert`` build each shuffle by
  inserting the left word's letters one at a time, where ``shuffles`` and
  ``fqsym_mul`` apply precomputed position patterns;
- ``tokenize_whole`` runs the token regular expression over the whole
  text, where ``parsing._tokenize`` runs it once per distinct chunk
  between two operators;
- ``spec_qt_tree_product`` multiplies out, in plain int dicts, the image
  under x_i -> t^{q^{i-1}} - t^{q^i} of each tree-pair factor of wt(w),
  where ``spec_qt`` substitutes into the factored value;
- ``carlitz_factorial_mod`` multiplies the monic polynomials of degree n
  over F_p, which by Carlitz (1935) is (-1)^n spec_qt([n]!, p) mod p;
- ``carlitz_lcm_mod`` takes the lcm of those polynomials by Euclid's
  algorithm in F_p[t], which by Carlitz (1935) is
  (-1)^n spec_qt([1][2]...[n], p) mod p;
- ``q_hook_sides`` builds both sides of the Björner–Wachs q-hook formula
  as ``UniRatFunc`` values, which ``==`` cross-multiplies, where
  ``specialize._q_hook_closed_form`` compares them on int lists.
"""

from dataclasses import dataclass
from itertools import combinations, product
from typing import Optional, Sequence

from hookweight.combinat import (SubsetK, dual_forest_stats,
                                 linear_extensions, tree_pair_stats)
from hookweight.parsing import (_FIRST_ATOM, _TOKEN, ParseError, _exponent,
                                _monomial)
from hookweight.qanalog import _factorial_atoms, _shift_ratio
from hookweight.ratfunc import Polynomial, RatFunc, _mono_degree, _mono_pack
from hookweight.specialize import UniPoly, UniRatFunc
from hookweight.weights import (_L_grouped, _require_recursively_labelled,
                                _subset_sum, wt_perm_tree)


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


def L_split_term_by_products(m: int, rho: int, left: tuple,
                             right: tuple) -> RatFunc:
    """subset-sum(m, rho-1) * L(left) * F^rho(L(right)), the group of first
    letter rho in L(P), as two ``RatFunc`` products of a shifted value."""
    return (_subset_sum(m, rho - 1) * _L_grouped(*left)
            * _L_grouped(*right).frobenius(rho))


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


def _int_poly_mul(a: dict, b: dict, p: int = 0) -> dict:
    """The product of two {exponent: int} polynomials, mod p unless p = 0."""
    out: dict = {}
    for ea, va in a.items():
        for eb, vb in b.items():
            out[ea + eb] = out.get(ea + eb, 0) + va * vb
    if p:
        out = {e: v % p for e, v in out.items()}
    return {e: v for e, v in out.items() if v}


def spec_qt_tree_product(w: Sequence[int], q: int) -> dict:
    """spec_qt(wt(w), q) as {exponent: coefficient}.

    A tree pair of w with statistics (w(beta), ell, r) is the factor
    F^{o+r+1}[ell] / F^o[ell], o = w(beta) - ell - 1.  Under the (q,t) map
    [m] telescopes to t - t^{q^m} and F^a dilates t to t^{q^a}, so the
    factor goes to t^{q^o(q^{r+1}-1)} (1 + v + ... + v^{q^{r+1}-1}) with
    v = t^{q^o(q^ell-1)}.
    """
    out = {0: 1}
    for _, _, w_beta, ell, r in tree_pair_stats(w):
        dilation = q ** (w_beta - ell - 1)
        shift, step = dilation * (q ** (r + 1) - 1), dilation * (q ** ell - 1)
        out = _int_poly_mul(out, {shift + j * step: 1
                                  for j in range(q ** (r + 1))})
    return out


def _monics(p: int, n: int):
    """Every monic polynomial of degree n in F_p[t], as {exponent: coeff}."""
    for low in product(range(p), repeat=n):
        monic = {e: c for e, c in enumerate(low) if c}
        monic[n] = 1
        yield monic


def carlitz_factorial_mod(p: int, n: int) -> dict:
    """The product of all monic polynomials of degree n in F_p[t], p prime,
    as {exponent: coefficient in 1..p-1}."""
    out = {0: 1}
    for monic in _monics(p, n):
        out = _int_poly_mul(out, monic, p)
    return out


def _fp_divmod(a: dict, b: dict, p: int) -> tuple[dict, dict]:
    """Quotient and remainder of a by a nonzero b in F_p[t], p prime."""
    quot, rem = {}, dict(a)
    top = max(b)
    inv = pow(b[top], -1, p)
    while rem and max(rem) >= top:
        lead = max(rem)
        e, f = lead - top, rem[lead] * inv % p
        quot[e] = f
        for k, v in _int_poly_mul({e: p - f}, b, p).items():
            rem[k] = (rem.get(k, 0) + v) % p
        rem = {k: v for k, v in rem.items() if v}
    return quot, rem


def carlitz_lcm_mod(p: int, n: int) -> dict:
    """The lcm of all monic polynomials of degree n in F_p[t], p prime, as
    {exponent: coefficient in 1..p-1}: each step divides the product of
    the lcm so far and the next polynomial by their monic gcd."""
    out = {0: 1}
    for monic in _monics(p, n):
        g, r = out, monic
        while r:
            g, r = r, _fp_divmod(g, r, p)[1]
        g = _fp_divmod(g, {0: g[max(g)]}, p)[0]  # made monic
        out = _fp_divmod(_int_poly_mul(out, monic, p), g, p)[0]
    return out


def q_hook_sides(counts: dict, stat_p: int, n: int,
                 hooks) -> tuple[UniRatFunc, UniRatFunc]:
    """sum_w q^stat(w) over the extensions, and q^stat(P) [n]!_q / prod
    [h]_q kept factored as q^stat(P) prod_{m <= n} (1 - q^m) over
    prod_i (1 - q^{h_i}), the n factors 1 - q of the brackets cancelling.
    ``counts[s]`` is the number of linear extensions w with stat(w) = s."""
    fac: dict = dict.fromkeys(range(1, n + 1), 1)
    for h in hooks:
        fac[h] = fac.get(h, 0) - 1
    return (UniRatFunc(UniPoly(counts)),
            UniRatFunc._factored(1, stat_p, {k: e for k, e in fac.items() if e}))
