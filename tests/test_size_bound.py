"""The one size bound, ``ratfunc._check_size``, and the sizes it reads.

The bound was two rules before: ``_check_size(*_estimate(factors, c))`` for
the specializations' t-polynomials, and ``_check_expansion`` on the packed
dicts of a printed side.  Reference copies of both stay here, and seeded
random factor lists must get the same verdict from the one rule.
"""

import gc
import random
import signal
import tracemalloc
from math import comb

import pytest

from hookweight import ratfunc
from hookweight.combinat import ForestPoset
from hookweight.parsing import parse_polynomial, parse_ratfunc
from hookweight.qanalog import bracket_factorial
from hookweight.ratfunc import (
    MAX_SPEC_BITS,
    SizeBoundError,
    _atom_dict,
    _atom_size,
    _check_size,
    _dict_size,
    _fields,
    _folded,
    _last_var,
    _mono_pack,
    _named_atom_dict,
    rf_div,
    rf_to_canonical_string,
)
from hookweight.specialize import _sized
from hookweight.weights import L_of_forest

# ---------------------------------------------------------------------------
# the two rules as they were
# ---------------------------------------------------------------------------


def ref_terms_bits(factors, c=1):
    terms, bits = 1, abs(c).bit_length()
    for size, e in factors:
        pn = size[-2]
        terms = min(terms * (pn if e == 1 else comb(pn + e - 1, e)),
                    MAX_SPEC_BITS + 1)
        bits += e * size[-1]
    return terms, bits


def ref_univariate_refuses(factors, c):
    """``_check_size(*_estimate(...))`` on (t-exponent dict, e) pairs."""
    sized = [((None, max(p) - min(p), len(p),
               (sum(map(abs, p.values())) - 1).bit_length()), e)
             for p, e in factors]
    terms, bits = ref_terms_bits(sized, c)
    span = sum(e * size[1] for size, e in sized)
    return min(span + 1, terms) * bits > MAX_SPEC_BITS


def ref_monomials(v, d, cap):
    n, k = max(v - 1, d), min(v - 1, d)
    count = 1
    for j in range(1, k + 1):
        count = count * (n + j) // j
        if count > cap:
            break
    return count


def ref_multivariate_refuses(c, factors):
    """``_check_expansion`` on (packed dict, e) pairs."""
    terms, bits = ref_terms_bits(
        [((len(d), (sum(map(abs, d.values())) - 1).bit_length()), e)
         for d, e in factors], c)
    either = 0
    for d, _ in factors:
        for k in d:
            either |= k
    ones = int.from_bytes(b"\1\0" * _last_var(either), "little")
    v = (_folded(either) & ones).bit_count()
    if terms * (bits + 16 * v) <= MAX_SPEC_BITS:
        return False
    lo = hi = 0
    for d, e in factors:
        degrees = [sum(_fields(k)) for k in d]
        lo += e * min(degrees)
        hi += e * max(degrees)
        cap = MAX_SPEC_BITS // (bits + 16 * min(v, hi))
        if min(terms, ref_monomials(v, hi, cap)) > cap:
            break
    cap = MAX_SPEC_BITS // (bits + 16 * min(v, hi))
    return min(terms, (hi - lo + 1) * ref_monomials(v, hi, cap)) > cap


# ---------------------------------------------------------------------------
# random factor lists
# ---------------------------------------------------------------------------


def refuses(factors, c):
    try:
        _check_size(factors, c)
    except SizeBoundError:
        return True
    return False


def random_tpoly(rng):
    top = rng.choice([1, 8, 100, 3000])
    exps = rng.sample(range(top + 1), rng.randint(1, min(6, top + 1)))
    width = rng.choice([1, 4, 40, 400])
    return {e: rng.choice([-1, 1]) * rng.randint(1, 2 ** width)
            for e in exps}


def random_power(rng):
    return rng.choice([1, 2, 3, int(2 ** rng.uniform(0, 15))])


def random_packed(rng):
    nvars = rng.choice([1, 3, 8])
    top = rng.choice([3, 3, 40000])  # degrees on both sides of 2^16 - 1
    out = {}
    for _ in range(rng.randint(1, 6)):
        mono = {v: rng.randint(1, top)
                for v in rng.sample(range(1, nvars + 1), rng.randint(0, nvars))}
        out[_mono_pack(mono)] = (rng.choice([-1, 1])
                                 * rng.randint(1, 2 ** rng.choice([1, 8, 60])))
    return out


def random_atom(rng):
    if rng.random() < 0.5:
        return ("F", rng.randint(0, 200), rng.randint(1, 80))
    pairs = rng.sample(range(1, 40), rng.randint(1, 4))
    return ("B", tuple(sorted((v, rng.randint(1, 5)) for v in pairs)))


def random_constant(rng):
    return rng.choice([-1, 1]) * rng.randint(1, 2 ** rng.choice([1, 20, 300]))


def test_univariate_verdicts_are_unchanged():
    rng = random.Random(20)
    verdicts = []
    for _ in range(3000):
        factors = [(random_tpoly(rng), random_power(rng))
                   for _ in range(rng.randint(1, 4))]
        c = random_constant(rng)
        want = ref_univariate_refuses(factors, c)
        got = refuses([(_sized(p), e) for p, e in factors], c)
        assert got == want, (factors, c)
        verdicts.append(got)
    assert 0.1 < sum(verdicts) / len(verdicts) < 0.9


def test_multivariate_verdicts_are_unchanged():
    rng = random.Random(21)
    verdicts = []
    for _ in range(800):
        parts = [random_packed(rng) if rng.random() < 0.4 else random_atom(rng)
                 for _ in range(rng.randint(1, 5))]
        exps = [rng.choice([1, rng.randint(1, 40), random_power(rng)])
                for _ in parts]
        c = random_constant(rng)
        want = ref_multivariate_refuses(
            c, [(p if isinstance(p, dict) else _atom_dict(p), e)
                for p, e in zip(parts, exps)])
        got = refuses([(_dict_size(p) if isinstance(p, dict) else _atom_size(p),
                        e) for p, e in zip(parts, exps)], c)
        assert got == want, (parts, exps, c)
        verdicts.append(got)
    assert 0.1 < sum(verdicts) / len(verdicts) < 0.9


def test_packed_dicts_are_sized_by_their_fields():
    rng = random.Random(23)
    for _ in range(300):
        d = random_packed(rng)
        degrees = [sum(_fields(k)) for k in d]
        assert _dict_size(d)[3:] == (min(degrees), max(degrees)), d
    # 40000 + 25535 is 0 mod 2^16 - 1
    d = {_mono_pack({1: 40000, 2: 25535}): 1, _mono_pack({3: 2}): 1}
    assert _dict_size(d)[3:] == (2, 65535)


def test_keys_in_large_variables_are_sized_without_unpacking(monkeypatch):
    # a key in x4194304 holds 2^22 fields; its degree is read as the key
    # mod 2^16 - 1, and the printed bytes stay the same
    def unpacking(key):
        raise AssertionError("a key was unpacked")

    monkeypatch.setattr(ratfunc, "_mono_degree", unpacking)
    d = {_mono_pack({4194304: 1}): 1, _mono_pack({2: 3}): -2, 0: 1}
    assert _dict_size(d)[3:] == (0, 3)
    d = {_mono_pack({4194303: 1, 4194304: 1}): 1, _mono_pack({4194304: 1}): 2}
    assert _dict_size(d)[3:] == (1, 2)
    monkeypatch.undo()
    assert rf_to_canonical_string(parse_ratfunc(
        "(x4194304+1)*(x4194303+2)")) == "x4194303x4194304+x4194303+2x4194304+2"


def test_bracket_atoms_are_sized_as_their_dicts():
    rng = random.Random(22)
    for _ in range(300):
        atom = random_atom(rng)
        assert _atom_size(atom) == _dict_size(_named_atom_dict(atom)), atom


# ---------------------------------------------------------------------------
# what refusing and printing leave behind
# ---------------------------------------------------------------------------


def _long_chain_L():
    n = 300
    return L_of_forest(ForestPoset.from_covers(
        n, [[i, i + 1] for i in range(1, n)]))


def test_refusing_a_long_chain_packs_no_atom():
    # L of this chain holds 299 bracket forms; the refusal sizes them from
    # their fields
    value = _long_chain_L()
    misses = _named_atom_dict.cache_info().misses
    with pytest.raises(SizeBoundError, match="bits of coefficients"):
        rf_to_canonical_string(value)
    assert _named_atom_dict.cache_info().misses == misses


class _Timeout(Exception):
    pass


@pytest.mark.parametrize("expand", [
    lambda: _long_chain_L().num,
    lambda: _long_chain_L().den,
    lambda: bracket_factorial(12),
    lambda: parse_polynomial("(x1+x2+x3+x4+x5+x6+x7+x8)^40"),
], ids=["num", "den", "bracket_factorial", "parse_polynomial"])
def test_every_expansion_is_bounded_like_printing(expand):
    # unsized, the chain's num and the others multiply out for far longer
    # than the alarm; sized first, each is refused in about a millisecond
    def alarm(_signum, _frame):
        raise _Timeout

    previous = signal.signal(signal.SIGALRM, alarm)
    signal.alarm(5)
    try:
        with pytest.raises(SizeBoundError, match="bits of coefficients"):
            expand()
    except _Timeout:
        pytest.fail("the expansion ran for more than 5 s")
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_no_key_mask_outlives_a_product_in_large_variables():
    # the product's carry check needs a mask of bit 0 of every field up to
    # x4194304, 8 MiB; the quotient prints as 1, so no such key is formatted
    tracemalloc.start()
    try:
        product = parse_ratfunc("(x4194304+1)*(x4194303+2)")
        factors = parse_ratfunc("x4194304+1") * parse_ratfunc("x4194303+2")
        assert rf_to_canonical_string(rf_div(product, factors)) == "1"
        del product, factors
        gc.collect()
        largest = max(t.size for t in tracemalloc.take_snapshot().traces)
    finally:
        tracemalloc.stop()
    assert largest < 1 << 23
