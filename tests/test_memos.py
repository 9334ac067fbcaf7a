"""The module memos that share work across calls (``combinat._Memo``).

A memo that stores nothing changes no answer, and each budget holds what
its comment says it holds.
"""

from itertools import permutations

import pytest

from hookweight import cli, fqsym, weights
from hookweight.combinat import (
    ForestPoset,
    _Memo,
    enumerate_dual_forests,
    enumerate_rl_forests,
)
from hookweight.fqsym import (
    FQSymElem,
    check_pbt_morphism,
    dual_forest_prereqs,
    fqsym_mul,
    gamma_extension_sum,
    shuffles,
)
from hookweight.ratfunc import rf_to_canonical_string
from hookweight.weights import wt_perm_recursive


def _perm_weights():
    return [rf_to_canonical_string(wt_perm_recursive(w))
            for n in range(7) for w in permutations(range(1, n + 1))]


def _pbt_checks():
    forests = [p for n in range(5) for p in enumerate_rl_forests(n)]
    return [check_pbt_morphism(p, q)
            for p in forests for q in forests if p.n + q.n <= 5]


def _shuffle_products():
    out = []
    for n in range(13):
        for k in range(n + 1):
            up, down = tuple(range(1, k + 1)), tuple(range(n, k, -1))
            out.append(list(shuffles(up, down)))
            rest = tuple(range(1, n - k + 1))
            x = FQSymElem({up: 1, up[::-1]: 2})
            y = FQSymElem({rest: 1, rest[::-1]: -1})
            out.append(fqsym_mul(x, y).terms)
    return out


def _gamma_sums():
    return [rf_to_canonical_string(gamma_extension_sum(dual_forest_prereqs(p)))
            for n in range(5) for p in enumerate_dual_forests(n)]


MEMOS = [(weights, "_WT_MEMO", _perm_weights),
         (fqsym, "_FOREST_WORDS", _pbt_checks),
         (fqsym, "_PATTERNS", _shuffle_products),
         (fqsym, "_GAMMA_MEMO", _gamma_sums)]


@pytest.mark.parametrize("module, name, run", MEMOS,
                         ids=[name for _, name, _ in MEMOS])
def test_a_memo_that_stores_nothing_changes_no_answer(
        fresh_memos, monkeypatch, module, name, run):
    budget = getattr(module, name).budget
    answers = []
    for room in (0, budget):
        monkeypatch.setattr(module, name, _Memo(room))
        answers.append(run())
        memo = getattr(module, name)
        assert (len(memo) > 0) == (room > 0)
        assert 0 <= memo.room <= room
    assert answers[0] == answers[1]


def test_memo_never_replaces_an_entry():
    memo = _Memo(5)
    memo.put("a", 1, size=3)
    memo.put("a", 2, size=1)  # a stored key keeps its value and the room
    memo.put("b", 3, size=3)  # more than the room left
    memo.put("c", 4, size=2)
    assert memo == {"a": 1, "c": 4} and memo.room == 0 and memo.budget == 5


def test_budgets_hold_every_factor_of_the_default_pbt_sweep(fresh_memos,
                                                            monkeypatch):
    default, _largest = cli._SUITE_NMAX["pbt"]
    cases = [payload for _label, payload in cli._suite_cases("pbt", default)]
    assert all(cli._run_case(payload) for payload in cases)
    factors = {(ForestPoset, n, cover) for _kind, *sides in cases[:-1]
               for n, cover in (sides[:2], sides[2:])}
    words = fqsym._FOREST_WORDS
    assert set(words) == factors and len(factors) == 344
    assert sum(map(len, words.values())) == 3953 <= words.budget
    # the sweep's products have at most 6 letters; all the shapes of at
    # most 10 letters fill 18,435 of the 2^15 pattern letters
    assert len(fqsym._PATTERNS) == 15
    patterns = _Memo(fqsym._PATTERNS.budget)
    monkeypatch.setattr(fqsym, "_PATTERNS", patterns)
    for n in range(11):
        for k in range(n + 1):
            shuffles(range(1, k + 1), range(k + 1, n + 1))
    assert len(patterns) == 66 and patterns.budget - patterns.room == 18435
