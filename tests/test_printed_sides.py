"""Printed sides of the hook identity keep their bytes.

The canonical strings of L(P) and H(P) for every recursively labelled
forest with n <= 6 hash to the sha256 they had while L(P) summed every
subset weight of its shuffle factors one by one, before those sums became
the proved closed form.
"""

import hashlib

from hookweight.combinat import enumerate_rl_forests
from hookweight.ratfunc import rf_to_canonical_string
from hookweight.weights import H_of_forest, L_of_forest

DIGEST = "09a4996045678ac3842f5616e3e92419b974f7f2231ac609ce94db6e172d6fd2"


def test_printed_sides_are_unchanged():
    h = hashlib.sha256()
    for n in range(7):
        for p in enumerate_rl_forests(n):
            h.update(rf_to_canonical_string(L_of_forest(p)).encode() + b"\n")
            h.update(rf_to_canonical_string(H_of_forest(p)).encode() + b"\n")
    assert h.hexdigest() == DIGEST
