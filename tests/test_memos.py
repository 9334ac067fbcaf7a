"""The module memos that share work across calls (``combinat._Memo``).

A memo that stores nothing changes no answer, and each budget holds what
its comment says it holds.
"""

import sys
from fractions import Fraction
from itertools import permutations

import pytest

from hookweight import cli, fqsym, parsing, ratfunc, weights
from hookweight.combinat import (
    _Memo,
    enumerate_dual_forests,
    enumerate_rl_forests,
)
from hookweight.fqsym import (
    FQSymElem,
    dual_forest_prereqs,
    fqsym_mul,
    gamma_extension_sum,
    shuffles,
)
from hookweight.parsing import ParseError, parse_ratfunc
from hookweight.ratfunc import (_DP_ONE, SizeBoundError, _mono_pack,
                                _times_atoms, rf_to_canonical_string)
from hookweight.weights import H_of_forest, L_of_forest, wt_perm_recursive


def _perm_weights():
    return [rf_to_canonical_string(wt_perm_recursive(w))
            for n in range(7) for w in permutations(range(1, n + 1))]


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


def _printed_values(nperm, nforest):
    """wt(w) over S_<=nperm, then L(P) and H(P) over the forests with
    n <= nforest."""
    values = [wt_perm_recursive(w) for n in range(nperm + 1)
              for w in permutations(range(1, n + 1))]
    for n in range(nforest + 1):
        for p in enumerate_rl_forests(n):
            values += [L_of_forest(p), H_of_forest(p)]
    return values


def _round_trips():
    out = []
    for value in _printed_values(5, 4):
        text = rf_to_canonical_string(value)
        back = parse_ratfunc(text)
        out.append((text, back._c, back._num, back._fac,
                    rf_to_canonical_string(back)))
    return out


MEMOS = [(weights, "_WT_MEMO", _perm_weights),
         (fqsym, "_PATTERNS", _shuffle_products),
         (fqsym, "_GAMMA_MEMO", _gamma_sums),
         (ratfunc, "_ROWS", _round_trips),
         (ratfunc, "_PRODUCTS", _round_trips),
         (parsing, "_MONOS", _round_trips),
         (parsing, "_CHUNKS", _round_trips)]


@pytest.mark.parametrize("module, name, run", MEMOS,
                         ids=[name for _, name, _ in MEMOS])
def test_a_memo_that_stores_nothing_changes_no_answer(
        fresh_memos, monkeypatch, module, name, run):
    budget = getattr(module, name).budget
    answers = []
    for room in (0, budget):
        # every other memo cold too: a warm _CHUNKS never reads _MONOS
        fresh_memos()
        monkeypatch.setattr(module, name, _Memo(room))
        answers.append(run())
        memo = getattr(module, name)
        assert (len(memo) > 0) == (room > 0)
        assert 0 <= memo.room <= room
    assert answers[0] == answers[1]


def test_every_module_memo_is_checked():
    # a memo added later gets the check above once it is listed in MEMOS;
    # the package's __init__ loads every module, as fresh_memos relies on
    found = {(name, attr) for name, module in list(sys.modules.items())
             if name.startswith("hookweight.")
             for attr, value in vars(module).items()
             if isinstance(value, _Memo)}
    assert found == {(module.__name__, name) for module, name, _ in MEMOS}


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
    # the sweep's products have at most 6 letters; all the shapes of at
    # most 10 letters fill 18,435 of the 2^15 pattern letters
    assert len(fqsym._PATTERNS) == 15
    patterns = _Memo(fqsym._PATTERNS.budget)
    monkeypatch.setattr(fqsym, "_PATTERNS", patterns)
    for n in range(11):
        for k in range(n + 1):
            shuffles(range(1, k + 1), range(k + 1, n + 1))
    assert len(patterns) == 66 and patterns.budget - patterns.room == 18435


def test_budgets_hold_every_monomial_of_the_roundtrip_set(fresh_memos):
    # the benchmark's roundtrip set: each value printed, parsed back and
    # printed again
    for value in _printed_values(6, 5):
        text = rf_to_canonical_string(value)
        assert rf_to_canonical_string(parse_ratfunc(text)) == text
    rows, monos = ratfunc._ROWS, parsing._MONOS
    assert len(rows) == 1751 and len(monos) == 1751
    assert rows.budget - rows.room == 501_136
    assert monos.budget - monos.room == 737_368
    # each monomial of a sum was packed once, into its cell; a constant and
    # x6 only ever stand alone, so their cells hold no key
    assert [m for m, cell in monos.items() if cell[1] is None] == ["", "x6"]


def test_a_shared_cell_is_never_changed(fresh_memos):
    _, cell = parsing._monomial("x1x2")
    exps = cell[0]
    _, x2 = parsing._monomial("x2")
    for text, printed in [("x1x2*x3", "x1x2x3"), ("x1x2 ^3", "x1x2^3"),
                          ("(x1x2)^3", "x1^3x2^3"), ("x1x2+x1", "x1x2+x1")]:
        assert rf_to_canonical_string(parse_ratfunc(text)) == printed
    # the product and the power of x2 copied what they read; the sum
    # stored x1x2's key next to its exponents
    assert x2 == [{2: 1}, None] and exps == {1: 1, 2: 1}
    assert parsing._MONOS["x1x2"] is cell == [exps, _mono_pack(exps)]
    assert cell[0] is exps
    again = parse_ratfunc("x1x2")
    assert parsing._monomial("x1x2")[1] is cell
    assert (again._c, again._num, again._fac) == (
        1, {0: 1}, {("F", 0, 1): 1, ("F", 1, 1): 1})


def test_a_packed_cell_is_never_unpacked(fresh_memos, monkeypatch):
    parse_ratfunc("x30000+1")  # packs x30000's key into its cell
    assert parsing._MONOS["x30000"] == [{30000: 1}, _mono_pack({30000: 1})]
    unpacked = []
    for module in (ratfunc, parsing):
        for name in ("_mono_unpack", "_fields"):
            if hasattr(module, name):
                real = getattr(module, name)
                monkeypatch.setattr(
                    module, name,
                    lambda key, real=real: unpacked.append(key.bit_length())
                    or real(key))
    # each factor reads the cell's exponents, never its 60 kB key
    value = parse_ratfunc("*".join(["x30000"] * 200) + "*x30000^2")
    assert unpacked == []
    assert (value._c, value._num, value._fac) == (1, {0: 1},
                                                  {("F", 29999, 1): 202})


def test_a_key_near_the_packed_cap_is_never_kept(fresh_memos):
    value = parse_ratfunc("x4194304+x1")
    assert rf_to_canonical_string(value) == "x1+x4194304"
    assert list(parsing._MONOS) == ["x1"]
    assert set(ratfunc._ROWS) == {0, _mono_pack({1: 1})}


def test_no_one_monomial_takes_a_memo(fresh_memos):
    rows, monos = ratfunc._ROWS, parsing._MONOS
    # a cell keeps up to x32000 or so, a row up to x6500 or so: each at
    # most a sixteenth of its memo's budget
    for var, kept in [(6000, (True, True)), (30000, (False, True)),
                      (40000, (False, False))]:
        value = parse_ratfunc(f"x{var}+x1")
        assert rf_to_canonical_string(value) == f"x1+x{var}"
        key = _mono_pack({var: 1})
        assert (key in rows, f"x{var}" in monos) == kept
    # an exponent above 256 is an int object of its own, which a row counts
    fresh_memos()
    ratfunc._row(_mono_pack({1: 300, 2: 3}))
    assert ratfunc._ROWS.budget - ratfunc._ROWS.room == (
        ratfunc._ROW_BYTES + len("x1^300x2^3") + 10 * 2 + 28)


def test_a_key_from_the_memo_counts_its_bits(fresh_memos):
    # a key in x30000 has 479,985 bits, so 280 such terms exceed
    # MAX_SUM_KEY_BITS and 279 do not; the first term packs the key into
    # its cell, and the others read it from there
    for _ in range(2):
        with pytest.raises(ParseError, match="bits of packed"):
            parse_ratfunc("+".join(["x30000"] * 280))
    assert type(parsing._MONOS["x30000"][1]) is int
    value = parse_ratfunc("+".join(["x30000"] * 279))
    assert (value._c, value._num, value._fac) == (279, {0: 1},
                                                  {("F", 29999, 1): 1})


def test_a_refusal_does_not_depend_on_the_stored_products(fresh_memos):
    # the atom side (x1+x2)^18 (x3+x4)^18 has 361 terms and fits in
    # _PRODUCTS; times a numerator of 1,000 terms in x5..x1004 it is refused
    side = "(x1+x2)^18*(x3+x4)^18"
    wide = "+".join(f"{i}x{i + 4}" for i in range(1, 1001))
    refused = parse_ratfunc(f"({wide})*{side}")
    with pytest.raises(SizeBoundError, match="bits of coefficients"):
        rf_to_canonical_string(refused)
    assert len(ratfunc._PRODUCTS) == 0
    smaller = parse_ratfunc(side)
    rf_to_canonical_string(smaller)
    assert list(ratfunc._PRODUCTS) == [frozenset(smaller._fac.items())]
    with pytest.raises(SizeBoundError, match="bits of coefficients"):
        rf_to_canonical_string(refused)


def test_printing_never_changes_a_stored_product(fresh_memos):
    # c = 3/2 and a numerator that no atom holds are multiplied into new
    # dicts, never into the stored products of the two sides
    value = parse_ratfunc("3(x1+x5^2)(x1+x2)^2(x2+x3)/(2(x1+x2+x3)^2x4)")
    assert value._c == Fraction(3, 2) and value._num != _DP_ONE
    printed = rf_to_canonical_string(value)
    assert len(ratfunc._PRODUCTS) == 2
    for side, product in ratfunc._PRODUCTS.items():
        assert product == _times_atoms(_DP_ONE, dict(side))
    assert rf_to_canonical_string(value) == printed
    assert printed == (
        "(3x1^2x2x5^2+3x1^2x3x5^2+6x1x2^2x5^2+6x1x2x3x5^2+3x2^3x5^2"
        "+3x2^2x3x5^2+3x1^3x2+3x1^3x3+6x1^2x2^2+6x1^2x2x3+3x1x2^3"
        "+3x1x2^2x3)/(2x1^2x4+4x1x2x4+4x1x3x4+2x2^2x4+4x2x3x4+2x3^2x4)")
