import random
import sys

import pytest
from hypothesis import settings

from hookweight import weights  # the package's __init__ loads every module
from hookweight.combinat import _Memo

settings.register_profile("ci", deadline=None, max_examples=60)
settings.load_profile("ci")


@pytest.fixture
def rng():
    return random.Random(20260808)


@pytest.fixture
def fresh_memos(monkeypatch):
    """Empty module memos for one test.

    Every ``_Memo`` among the package modules' globals is swapped for an
    empty one with its budget, and ``weights._L_MEMO`` for one that holds
    only its seed, the empty forest; the warm memos come back after the
    test.  The fixture's value does the swap again, for a test that needs
    cold memos more than once.
    """
    def fresh():
        for name, module in list(sys.modules.items()):
            if name.startswith("hookweight."):
                for attr, value in list(vars(module).items()):
                    if isinstance(value, _Memo):
                        monkeypatch.setattr(module, attr, _Memo(value.budget))
        monkeypatch.setattr(weights, "_L_MEMO",
                            {(0, ()): weights._L_MEMO[0, ()]})
    fresh()
    return fresh
