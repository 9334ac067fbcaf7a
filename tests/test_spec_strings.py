"""Printed specializations keep their bytes.

The strings of spec_q and spec_qt(., 2) over L(P) and H(P) for every
recursively labelled forest with n <= 5, and over wt(w) for every word of
length <= 6, hash to the sha256 they had when every value was reduced by a
dense polynomial GCD.  The reduced form with a monic denominator is unique,
so any exact reduction must print the same bytes.
"""

import hashlib
from itertools import permutations

from hookweight.combinat import Permutation, enumerate_rl_forests
from hookweight.specialize import spec_q, spec_qt
from hookweight.weights import H_of_forest, L_of_forest, wt_perm_recursive

DIGEST = "257e49716d8751f4cb38ba795cdae69904db31150075a9b6e34490d6765f3402"


def _values():
    for n in range(6):
        for p in enumerate_rl_forests(n):
            yield L_of_forest(p)
            yield H_of_forest(p)
    for n in range(7):
        for w in permutations(range(1, n + 1)):
            yield wt_perm_recursive(Permutation(w))


def test_specialized_strings_are_unchanged():
    h = hashlib.sha256()
    for value in _values():
        h.update(spec_q(value).to_string("q").encode() + b"\n")
        h.update(spec_qt(value, 2).to_string("t").encode() + b"\n")
    assert h.hexdigest() == DIGEST
