"""Printed sides of the hook identity and printed weights keep their bytes.

The canonical strings of L(P) and H(P) for every recursively labelled
forest with n <= 6 hash to the sha256 they had while L(P) summed every
subset weight of its shuffle factors one by one, before those sums became
the proved closed form.  The canonical strings of wt(w) over S_1 ... S_6
hash to the sha256 they had while the printer unpacked each key three
times and the parser read one token at a time.
"""

import hashlib
from itertools import permutations

from hookweight.combinat import Permutation, enumerate_rl_forests
from hookweight.ratfunc import rf_to_canonical_string
from hookweight.weights import H_of_forest, L_of_forest, wt_perm_recursive

DIGEST = "09a4996045678ac3842f5616e3e92419b974f7f2231ac609ce94db6e172d6fd2"
WEIGHTS_DIGEST = \
    "3ac40337154f20d21826d3db021847571f9db916799f363eaccc9ba133b32ec7"


def test_printed_sides_are_unchanged():
    h = hashlib.sha256()
    for n in range(7):
        for p in enumerate_rl_forests(n):
            h.update(rf_to_canonical_string(L_of_forest(p)).encode() + b"\n")
            h.update(rf_to_canonical_string(H_of_forest(p)).encode() + b"\n")
    assert h.hexdigest() == DIGEST


def test_printed_weights_are_unchanged():
    h = hashlib.sha256()
    for n in range(1, 7):
        for w in permutations(range(1, n + 1)):
            value = wt_perm_recursive(Permutation(w))
            h.update(rf_to_canonical_string(value).encode() + b"\n")
    assert h.hexdigest() == WEIGHTS_DIGEST
